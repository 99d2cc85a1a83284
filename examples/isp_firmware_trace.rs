//! A guided trace of one in-storage subgraph generation (paper Fig 11).
//!
//! Follows a single mini-batch through the SmartSAGE driver and firmware:
//! NSconfig construction and its byte-exact wire format, the command's
//! journey through the polling loop, FTL translation, flash fetches into
//! the page buffer, embedded-core sampling, and the dense subgraph DMA —
//! with the virtual-clock timestamps of each phase.
//!
//! Run with `cargo run --release --example isp_firmware_trace`.

use smartsage::core::config::{SystemConfig, SystemKind};
use smartsage::core::context::{Devices, RunContext};
use smartsage::core::cost::{make_policy, StepOutcome};
use smartsage::core::metrics::TransferStats;
use smartsage::core::nsconfig::{NsConfig, TargetDescriptor};
use smartsage::gnn::sampler::sample_on;
use smartsage::gnn::Fanouts;
use smartsage::graph::{Dataset, DatasetProfile, GraphScale, NodeId};
use smartsage::sim::{SimTime, Xoshiro256};
use smartsage::store::CsrView;
use std::sync::Arc;

fn main() {
    let data = DatasetProfile::of(Dataset::Reddit).materialize(GraphScale::LargeScale, 100_000, 5);
    let ctx = Arc::new(RunContext::new(
        data,
        SystemConfig::new(SystemKind::SmartSageHwSw),
    ));
    let graph = ctx.graph();

    // ------------------------------------------------------------------
    // Step 1 (Fig 11): the driver assembles NSconfig in host memory.
    // ------------------------------------------------------------------
    let targets: Vec<NodeId> = (0..4u32).map(NodeId::new).collect();
    let descriptors: Vec<TargetDescriptor> = targets
        .iter()
        .map(|&node| {
            let range = ctx.layout.edge_list_range(graph, node);
            TargetDescriptor {
                node,
                lba: range.offset / 4096,
                offset_in_block: (range.offset % 4096) as u16,
                degree: graph.degree(node),
            }
        })
        .collect();
    let nsconfig = NsConfig {
        seed: 0xF00D,
        fanouts: vec![25, 10],
        targets: descriptors,
    };
    let blob = nsconfig.encode();
    println!("== NSconfig (driver -> firmware contract) ==");
    println!(
        "  {} targets, fanouts {:?}",
        nsconfig.targets.len(),
        nsconfig.fanouts
    );
    println!(
        "  encoded: {} bytes, first 16: {:02x?}",
        blob.len(),
        &blob[..16]
    );
    let decoded = NsConfig::decode(&blob).expect("firmware decodes the blob");
    assert_eq!(decoded, nsconfig);
    println!("  firmware decode round-trips byte-exactly\n");
    for t in &nsconfig.targets {
        println!(
            "  target {:>5}  lba {:>6}  offset {:>4}  degree {:>5}",
            t.node.to_string(),
            t.lba,
            t.offset_in_block,
            t.degree
        );
    }

    // ------------------------------------------------------------------
    // Steps 2-7: drive the ISP cost policy and narrate the phases.
    // ------------------------------------------------------------------
    println!("\n== In-storage subgraph generation (virtual time) ==");
    let mut devices = Devices::new(&ctx.config);
    let mut policy = make_policy(&ctx, 1);
    let mut rng = Xoshiro256::seed_from_u64(1);
    let batch = sample_on(
        &mut CsrView::new(graph),
        &targets,
        &Fanouts::paper_default(),
        &mut rng,
    )
    .expect("in-memory topology cannot fail");
    let (subgraph_bytes, sampled) = (batch.subgraph_bytes(), batch.num_sampled());
    let trace = batch.into_trace();
    println!(
        "  trace: {} edge-list accesses across {} hops, {} ids to sample",
        trace.num_accesses(),
        trace.hops.len(),
        trace.num_sampled()
    );
    policy.begin(0, SimTime::ZERO, trace);
    let mut now = SimTime::ZERO;
    let mut steps = 0u32;
    while let StepOutcome::Running { next } = policy.step(0, &mut devices, now) {
        if steps < 6 || steps.is_multiple_of(8) {
            println!("  step {steps:>3}: firmware advances to {next}");
        }
        now = next.max(now);
        steps += 1;
    }
    let result = policy.take_result(0);
    println!("  done at {} after {} firmware steps", result.done, steps);
    println!("\n== Device-side accounting ==");
    println!(
        "  flash pages read     : {} ({} coalesced joins)",
        devices.ssd.flash.pages_read(),
        devices.ssd.flash.coalesced_reads()
    );
    println!(
        "  FTL translations     : {}",
        devices.ssd.ftl.translations()
    );
    println!(
        "  page-buffer hit ratio: {:.1}%",
        devices.ssd.buffer.hit_ratio() * 100.0
    );
    println!(
        "  embedded-core busy   : {} ({:.1}% utilization)",
        devices.ssd.cores.busy_time(),
        devices.ssd.cores.utilization() * 100.0
    );
    let transfers = TransferStats {
        ssd_to_host_bytes: result.ssd_to_host_bytes,
        host_to_ssd_bytes: result.host_to_ssd_bytes,
        useful_bytes: subgraph_bytes,
    };
    println!(
        "  PCIe: {} bytes host->SSD (NSconfig), {} bytes SSD->host (subgraph)",
        transfers.host_to_ssd_bytes, transfers.ssd_to_host_bytes
    );
    println!(
        "  over-fetch factor    : {:.2}x (dense subgraph: every byte useful)",
        transfers.amplification()
    );
    println!(
        "  sampled subgraph     : {} ids in {}",
        sampled, result.sampling_time
    );
}
