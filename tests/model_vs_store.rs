//! Audit: the ISP cost policy (the *model* of the in-storage sampler)
//! against the ISP topology tier (the *store* that really resolves the
//! same batches) on the one number both report — bytes over the
//! SSD→host link.
//!
//! Both run the device's one ISP firmware (`Ssd::isp_decode`, then
//! `Ssd::isp_chunk` over `ssd.isp.queue_depth` accesses at a time: core
//! work pooled, pages issued together, done at the later of the cores
//! and the flash) and both ship 8 bytes per sampled id. They differ on
//! the link by a single term: a frontier node's degree. The real tier
//! plans on the host, so it asks the device for every frontier degree
//! (`degrees_into`: one command per hop, one 8-byte answer per node,
//! SSD→host) — the known term device-side sampling (ROADMAP item
//! 11(b)) removes, from the link and the device time alike. The
//! model's subgraph generator plans inside the device: the targets'
//! degrees arrive host→SSD in `NSconfig`, deeper hops' degrees are read
//! next to the page buffer, and none is ever shipped back. This is the
//! minimal form of ROADMAP item 8(b); the file-tier and flash-page legs
//! of the audit are still open there.

use smartsage::core::config::{SystemConfig, SystemKind};
use smartsage::core::context::RunContext;
use smartsage::core::pipeline::{run_pipeline, PipelineConfig};
use smartsage::core::TopologyKind;
use smartsage::gnn::Fanouts;
use smartsage::graph::{Dataset, DatasetProfile, GraphScale};
use std::sync::Arc;

#[test]
fn model_and_isp_tier_differ_on_the_link_by_the_degree_answers() {
    let (batches, batch_size, fanouts) = (3usize, 32usize, [5usize, 4]);
    let data = DatasetProfile::of(Dataset::Amazon).materialize(GraphScale::LargeScale, 30_000, 5);
    let ctx = Arc::new(RunContext::new(
        data,
        SystemConfig::new(SystemKind::SmartSageHwSw),
    ));
    let report = run_pipeline(
        &ctx,
        &PipelineConfig {
            workers: 1,
            total_batches: batches,
            batch_size,
            fanouts: Fanouts::new(fanouts.to_vec()),
            seed: 5,
            train: false,
            topology: TopologyKind::Isp,
            ..PipelineConfig::default()
        },
    );
    // Frontier nodes per batch: the targets, then every sampled slot of
    // the hop before (the sample tree is dense: one access per slot).
    let frontier = (batches * (batch_size + batch_size * fanouts[0])) as u64;
    assert_eq!(frontier, 576);
    let model = report.transfers.ssd_to_host_bytes;
    let store = report.topology_stats.host_bytes_transferred;
    assert_eq!(
        store,
        model + 8 * frontier,
        "store tier shipped {store} B, model {model} B + 8 B x {frontier} degree answers"
    );
    assert_eq!((store, model), (23_808, 19_200));
}
