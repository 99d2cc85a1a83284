//! Benchmark-side spans: recorded around calls into each layer's public
//! functions, kept in memory, written out as Chrome trace-event JSON.
//!
//! The program under test is not instrumented. The traced pass wraps
//! the store trait objects in [`TracedTopology`] / [`TracedFeatures`]
//! and brackets every other layer call with [`Recorder::span`], so a
//! store span opened inside a sampler call nests under the sampler's
//! span and the sampler's *self* time excludes it.

use crate::stats::Summary;
use smartsage_core::json::escape_string;
use smartsage_graph::NodeId;
use smartsage_store::{FeatureStore, StoreError, StoreStats, TopologyStore};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.operation`, e.g. `store.feature.gather`.
    pub name: &'static str,
    /// Nanoseconds from the tracer's epoch to the call.
    pub start_ns: u64,
    /// Nanoseconds from the tracer's epoch to the return.
    pub end_ns: u64,
    /// Index (in the same span list) of the span that was open when
    /// this one started.
    pub parent: Option<usize>,
    /// The batch, step or request the call served.
    pub batch: u64,
    /// Recording thread (0 for the replay loop, the client index on the
    /// serve workload).
    pub thread: u32,
}

impl Span {
    /// `end - start`.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span log for one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    thread: u32,
    batch: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch`.
    pub fn new(epoch: Instant, thread: u32) -> Tracer {
        Tracer {
            epoch,
            thread,
            batch: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Sets the batch id stamped on spans opened from now on.
    pub fn set_batch(&mut self, batch: u64) {
        self.batch = batch;
    }

    /// Opens a span under the innermost open one; returns its index.
    pub fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            batch: self.batch,
            thread: self.thread,
        });
        self.open.push(id);
        // Read the clock last so bookkeeping lands outside the span.
        self.spans[id].start_ns = self.epoch.elapsed().as_nanos() as u64;
        id
    }

    /// Closes span `id` (and anything left open inside it).
    pub fn close(&mut self, id: usize) {
        let now = self.epoch.elapsed().as_nanos() as u64;
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// The recorded spans, in open order.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// A cloneable handle the replay loop and the store decorators share.
/// `Recorder::off()` makes every [`Recorder::span`] a plain call, which
/// is how the untraced replay (the tracing-overhead baseline) runs the
/// identical code.
#[derive(Debug, Clone, Default)]
pub struct Recorder(Option<Rc<RefCell<Tracer>>>);

impl Recorder {
    /// A recorder that records nothing.
    pub fn off() -> Recorder {
        Recorder(None)
    }

    /// A recording recorder for thread 0.
    pub fn on(epoch: Instant) -> Recorder {
        Recorder(Some(Rc::new(RefCell::new(Tracer::new(epoch, 0)))))
    }

    /// Sets the batch id stamped on later spans.
    pub fn set_batch(&self, batch: u64) {
        if let Some(t) = &self.0 {
            t.borrow_mut().set_batch(batch);
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        match &self.0 {
            None => f(),
            Some(t) => {
                let id = t.borrow_mut().open(name);
                let out = f();
                t.borrow_mut().close(id);
                out
            }
        }
    }

    /// Takes the spans recorded so far.
    pub fn take_spans(&self) -> Vec<Span> {
        match &self.0 {
            None => Vec::new(),
            Some(t) => std::mem::take(&mut t.borrow_mut().spans),
        }
    }
}

/// Per-span self time: the span's duration minus the part of its
/// interval covered by its direct children (children are clipped to the
/// parent and overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            let parent = &spans[p];
            let lo = span.start_ns.max(parent.start_ns);
            let hi = span.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            span.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Totals of every span sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Number of spans.
    pub calls: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed self times.
    pub self_ns: u64,
}

/// Span totals keyed by span name.
pub type Layers = BTreeMap<&'static str, LayerTime>;

/// Aggregates spans by name.
pub fn layer_times(spans: &[Span]) -> Layers {
    let mut out = Layers::new();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        let entry = out.entry(span.name).or_default();
        entry.calls += 1;
        entry.total_ns += span.duration_ns();
        entry.self_ns += self_ns;
    }
    out
}

/// Summed durations of the spans named `name` (0 when there are none).
pub fn total_ns(layers: &Layers, name: &str) -> u64 {
    layers.get(name).map_or(0, |l| l.total_ns)
}

/// Summed self times of the spans named `name` (0 when there are none).
pub fn self_ns(layers: &Layers, name: &str) -> u64 {
    layers.get(name).map_or(0, |l| l.self_ns)
}

/// One traced run per entry of `runs`: `pick`ed nanoseconds as
/// milliseconds per item, summarized over the runs.
pub fn per_item_ms(runs: &[Layers], items: f64, pick: impl Fn(&Layers) -> u64) -> Summary {
    let values: Vec<f64> = runs
        .iter()
        .map(|layers| pick(layers) as f64 / 1e6 / items)
        .collect();
    Summary::of(&values)
}

/// Layers by self time per item in milliseconds (the median over the
/// traced runs), slowest first; the benchmark's own `bench.*` spans are
/// left out.
pub fn slowest(runs: &[Layers], items: f64) -> Vec<(String, f64)> {
    let names: std::collections::BTreeSet<&'static str> = runs
        .iter()
        .flat_map(|layers| layers.keys().copied())
        .collect();
    let mut out: Vec<(String, f64)> = names
        .into_iter()
        .filter(|name| !name.starts_with("bench."))
        .map(|name| {
            let per_run = per_item_ms(runs, items, |layers| self_ns(layers, name));
            (name.to_string(), per_run.value)
        })
        .collect();
    out.sort_by(|a, b| b.1.total_cmp(&a.1));
    out
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// (`"ph":"X"`) event per span, microsecond timestamps, the batch id
/// and parent index in `args`.
pub fn chrome_trace_json(process: &str, spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    out.push_str(&format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{{\"name\":{}}}}}",
        escape_string(process)
    ));
    for (i, span) in spans.iter().enumerate() {
        let parent = match span.parent {
            Some(p) => p.to_string(),
            None => "null".to_string(),
        };
        out.push_str(&format!(
            ",\n{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\
             \"args\":{{\"id\":{i},\"parent\":{parent},\"batch\":{}}}}}",
            escape_string(span.name),
            escape_string(span.name.rsplit_once('.').map_or(span.name, |(layer, _)| layer)),
            span.start_ns as f64 / 1e3,
            span.duration_ns() as f64 / 1e3,
            span.thread,
            span.batch,
        ));
    }
    out.push_str("\n]}\n");
    out
}

/// A [`TopologyStore`] decorator that records one span per batched
/// degree read and per batched neighbor pick.
#[derive(Debug)]
pub struct TracedTopology {
    inner: Box<dyn TopologyStore>,
    rec: Recorder,
}

impl TracedTopology {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn TopologyStore>, rec: Recorder) -> TracedTopology {
        TracedTopology { inner, rec }
    }
}

impl TopologyStore for TracedTopology {
    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    fn num_edges(&self) -> u64 {
        self.inner.num_edges()
    }

    fn degrees_into(&mut self, nodes: &[NodeId], out: &mut [u64]) -> Result<(), StoreError> {
        let inner = &mut self.inner;
        self.rec
            .span("store.topology.degrees", || inner.degrees_into(nodes, out))
    }

    fn pick_neighbors_into(
        &mut self,
        picks: &[(NodeId, u64)],
        out: &mut [NodeId],
    ) -> Result<(), StoreError> {
        let inner = &mut self.inner;
        self.rec.span("store.topology.picks", || {
            inner.pick_neighbors_into(picks, out)
        })
    }

    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats()
    }

    fn shard_stats(&self) -> Vec<StoreStats> {
        self.inner.shard_stats()
    }
}

/// A [`FeatureStore`] decorator that records one span per gather.
#[derive(Debug)]
pub struct TracedFeatures {
    inner: Box<dyn FeatureStore>,
    rec: Recorder,
}

impl TracedFeatures {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn FeatureStore>, rec: Recorder) -> TracedFeatures {
        TracedFeatures { inner, rec }
    }
}

impl FeatureStore for TracedFeatures {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn num_classes(&self) -> usize {
        self.inner.num_classes()
    }

    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    fn label(&self, node: NodeId) -> usize {
        self.inner.label(node)
    }

    fn gather_into(&mut self, nodes: &[NodeId], out: &mut [f32]) -> Result<(), StoreError> {
        let inner = &mut self.inner;
        self.rec
            .span("store.feature.gather", || inner.gather_into(nodes, out))
    }

    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats()
    }

    fn shard_stats(&self) -> Vec<StoreStats> {
        self.inner.shard_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            batch: 0,
            thread: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100) > a [10,40) > leaf [15,25); root > b [50,90)
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("leaf", 15, 25, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once_and_clipped() {
        // Children [10,60) and [40,80) overlap on [40,60); the third
        // overhangs the parent's end and is clipped to [90,100).
        let spans = vec![
            span("root", 0, 100, None),
            span("x", 10, 60, Some(0)),
            span("y", 40, 80, Some(0)),
            span("z", 90, 130, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 70 - 10);
    }

    #[test]
    fn layer_times_sum_by_name() {
        let spans = vec![
            span("plan", 0, 50, None),
            span("read", 10, 30, Some(0)),
            span("plan", 100, 160, None),
            span("read", 110, 150, Some(2)),
        ];
        let layers = layer_times(&spans);
        assert_eq!(
            layers["plan"],
            LayerTime {
                calls: 2,
                total_ns: 110,
                self_ns: 50
            }
        );
        assert_eq!(layers["read"].self_ns, 60);
    }

    #[test]
    fn recorder_nests_spans_and_stamps_batches() {
        let rec = Recorder::on(Instant::now());
        rec.set_batch(7);
        let value = rec.span("outer", || rec.span("inner", || 42));
        assert_eq!(value, 42);
        let spans = rec.take_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert!(spans.iter().all(|s| s.batch == 7));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(Recorder::off().span("x", || 1), 1);
        assert!(Recorder::off().take_spans().is_empty());
    }

    #[test]
    fn chrome_trace_is_valid_json_with_one_event_per_span() {
        let spans = vec![
            span("store.feature.gather", 1_000, 3_500, None),
            span("hostio.engine.submit", 1_200, 2_000, Some(0)),
        ];
        let text = chrome_trace_json("sweep_file_cold", &spans);
        let doc = smartsage_core::json::parse(&text).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        assert_eq!(events.len(), 3, "metadata + two spans");
        let gather = &events[1];
        assert_eq!(gather.get("ph").and_then(|v| v.as_str()), Some("X"));
        assert_eq!(gather.get("ts").and_then(|v| v.as_f64()), Some(1.0));
        assert_eq!(gather.get("dur").and_then(|v| v.as_f64()), Some(2.5));
        assert_eq!(
            gather.get("cat").and_then(|v| v.as_str()),
            Some("store.feature")
        );
        assert_eq!(
            events[2]
                .get("args")
                .and_then(|a| a.get("parent"))
                .and_then(|p| p.as_u64()),
            Some(0)
        );
    }
}
