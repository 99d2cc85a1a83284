//! The coalescing batcher: a bounded admission queue in front of one
//! executor thread that drains time/size windows into
//! [`Engine::execute`].
//!
//! Admission control is typed and immediate: a full queue rejects with
//! [`ServeError::QueueFull`] (HTTP 429) and a closed queue with
//! [`ServeError::ShuttingDown`] (503) at submit time — overload never
//! builds an unbounded backlog, and connection workers never block on
//! a queue that cannot accept them. Shutdown is graceful: the queue
//! closes to new work, the executor drains everything already
//! admitted, then exits.
//!
//! The HTTP front end holds a `Seat` for each connection it serves,
//! for exactly that connection's lifetime, so the queue knows how many
//! connections could still send it work. A connection reads its next
//! request only after it has answered the last one; once every held
//! connection has a request queued and each of them has been answered
//! before, no held connection can send another until this pass answers
//! it, and the linger ends there instead of waiting for arrivals that
//! cannot happen.

use crate::api::{ApiRequest, ServeError};
use crate::engine::Engine;
use smartsage_hostio::{CondvarExt, LockExt};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

/// Batching/admission policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// How long the executor lingers after the first request of a
    /// window arrives, collecting more requests to merge. Zero means
    /// drain immediately (whatever is already queued still merges).
    pub window: Duration,
    /// Most requests merged into one executor pass.
    pub max_batch: usize,
    /// Admission queue capacity; submissions beyond it get a 429.
    pub queue_depth: usize,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            window: Duration::from_millis(2),
            max_batch: 64,
            queue_depth: 256,
        }
    }
}

impl BatchPolicy {
    /// The no-coalescing policy: one request per executor pass, no
    /// lingering — the serial baseline the load harness compares
    /// against.
    pub fn serial() -> BatchPolicy {
        BatchPolicy {
            window: Duration::ZERO,
            max_batch: 1,
            queue_depth: 256,
        }
    }
}

/// Aggregate executor timing, split the way a latency budget is spent:
/// **window wait** (admission to pass start — time bought waiting for
/// peers to coalesce with) vs **service** (pass start to response —
/// time the engine actually worked). Both are summed per request;
/// riders of one merged pass each charge the full pass duration to
/// `service`, since they co-occupy it. Closed-loop QPS computed from
/// wall-clock conflates the two; harnesses report them separately.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchTiming {
    /// Requests completed by the executor.
    pub requests: u64,
    /// Executor passes (merged batches) run.
    pub batches: u64,
    /// Total admission→pass-start wait across completed requests.
    pub window_wait: Duration,
    /// Total pass execution time attributed across completed requests.
    pub service: Duration,
}

struct Pending {
    request: ApiRequest,
    admitted: Instant,
    reply: mpsc::SyncSender<Result<String, ServeError>>,
    /// Submitted through a [`Seat`] whose connection was answered
    /// before.
    returning: bool,
}

struct State {
    queue: VecDeque<Pending>,
    open: bool,
    /// Seats held: the connections the front end currently serves.
    connections: usize,
}

impl State {
    /// Every held connection has a request queued and was answered
    /// before, so none of them can send more until this pass answers
    /// it. Each seat queues at most one request at a time, so the
    /// count plus the all-returning check is exact; a fresh
    /// connection's request is never returning and keeps the plain
    /// linger.
    fn every_connection_waiting(&self) -> bool {
        self.queue.len() >= self.connections && self.queue.iter().all(|p| p.returning)
    }
}

struct Shared {
    state: Mutex<State>,
    arrived: Condvar,
    policy: BatchPolicy,
    rejected_queue_full: AtomicU64,
    executed_requests: AtomicU64,
    executed_batches: AtomicU64,
    window_wait_ns: AtomicU64,
    service_ns: AtomicU64,
}

/// The batcher: owns the admission queue and the executor thread.
pub(crate) struct Batcher {
    shared: Arc<Shared>,
    executor: Mutex<Option<thread::JoinHandle<()>>>,
}

impl Batcher {
    /// Starts the executor thread over `engine`. The engine stays
    /// reachable (for `GET /stats`) through the returned `Arc`; the
    /// executor takes the lock only while running a window. Fails only
    /// if the OS refuses the executor thread.
    pub(crate) fn start(
        engine: Arc<Mutex<Engine>>,
        policy: BatchPolicy,
    ) -> std::io::Result<Batcher> {
        assert!(policy.max_batch > 0, "max_batch must be positive");
        assert!(policy.queue_depth > 0, "queue_depth must be positive");
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                open: true,
                connections: 0,
            }),
            arrived: Condvar::new(),
            policy,
            rejected_queue_full: AtomicU64::new(0),
            executed_requests: AtomicU64::new(0),
            executed_batches: AtomicU64::new(0),
            window_wait_ns: AtomicU64::new(0),
            service_ns: AtomicU64::new(0),
        });
        let executor_shared = Arc::clone(&shared);
        let executor = thread::Builder::new()
            .name("serve-batcher".to_string())
            .spawn(move || run_executor(executor_shared, engine))?;
        Ok(Batcher {
            shared,
            executor: Mutex::new(Some(executor)),
        })
    }

    /// Registers one connection for as long as the returned seat lives.
    pub(crate) fn seat(&self) -> Seat<'_> {
        self.shared.state.safe_lock().connections += 1;
        Seat {
            batcher: self,
            answered: false,
        }
    }

    /// Requests admitted but rejected for queue overflow so far.
    pub(crate) fn rejected_queue_full(&self) -> u64 {
        self.shared.rejected_queue_full.load(Ordering::Relaxed)
    }

    /// Snapshot of the executor's window-wait vs service-time split.
    pub(crate) fn timing(&self) -> BatchTiming {
        BatchTiming {
            requests: self.shared.executed_requests.load(Ordering::Relaxed),
            batches: self.shared.executed_batches.load(Ordering::Relaxed),
            window_wait: Duration::from_nanos(self.shared.window_wait_ns.load(Ordering::Relaxed)),
            service: Duration::from_nanos(self.shared.service_ns.load(Ordering::Relaxed)),
        }
    }

    /// Requests currently waiting for an executor pass.
    pub(crate) fn queued(&self) -> usize {
        self.shared.state.safe_lock().queue.len()
    }

    /// Closes the queue to new work, drains everything already
    /// admitted, and joins the executor. Idempotent.
    pub(crate) fn close(&self) {
        {
            let mut state = self.shared.state.safe_lock();
            state.open = false;
        }
        self.shared.arrived.notify_all();
        if let Some(executor) = self.executor.safe_lock().take() {
            // The executor holds no response channels at exit; if it
            // panicked, its queue entries already dropped (senders
            // hung up) and submitters saw disconnects.
            let _ = executor.join();
        }
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        self.close();
    }
}

/// The channel a submitted request's response arrives on.
type Reply = mpsc::Receiver<Result<String, ServeError>>;

/// One connection's place in the batcher's connection count, held by
/// the HTTP front end for exactly the connection's lifetime. Dropping
/// it wakes the executor, since a linger may have been waiting on this
/// connection alone.
pub(crate) struct Seat<'a> {
    batcher: &'a Batcher,
    answered: bool,
}

impl Seat<'_> {
    /// Admits one request from this connection, returning the channel
    /// its response will arrive on — or rejects immediately with a
    /// typed 429/503.
    pub(crate) fn submit(&self, request: ApiRequest) -> Result<Reply, ServeError> {
        let shared = &self.batcher.shared;
        let (reply, receiver) = mpsc::sync_channel(1);
        let mut state = shared.state.safe_lock();
        if !state.open {
            return Err(ServeError::ShuttingDown);
        }
        if state.queue.len() >= shared.policy.queue_depth {
            shared.rejected_queue_full.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::QueueFull {
                depth: shared.policy.queue_depth,
            });
        }
        state.queue.push_back(Pending {
            request,
            admitted: Instant::now(),
            reply,
            returning: self.answered,
        });
        drop(state);
        shared.arrived.notify_one();
        Ok(receiver)
    }

    /// Records that this connection has written a response: from now
    /// on it sends its next request only after reading an answer.
    pub(crate) fn mark_answered(&mut self) {
        self.answered = true;
    }
}

impl Drop for Seat<'_> {
    fn drop(&mut self) {
        self.batcher.shared.state.safe_lock().connections -= 1;
        self.batcher.shared.arrived.notify_one();
    }
}

/// The coalescing linger: a condvar deadline wait, never a blind sleep.
///
/// The pre-fix executor slept the *full* window after the first
/// request of every pass — even when `max_batch` was already queued
/// and even for a solo request at low load (coalesced p50 2.9 ms vs
/// 0.2 ms serial, with a 2 ms window). This waits on
/// `arrived` against the `window` deadline and fires early when:
///
/// * the queue reaches `max_batch` — the pass is full, waiting longer
///   buys nothing;
/// * every connection the front end holds has a request queued and was
///   answered before — a connection reads its next request only after
///   its last one is answered, so no held connection can add to this
///   pass; waiting longer buys nothing either (a connection that has
///   not been answered yet may be one of a fresh burst, so it keeps
///   the linger);
/// * a quarter-window grace slice passes with **no new arrivals** —
///   traffic has gone quiet, so the requests already queued should
///   not be charged the rest of the window (this is what bounds a
///   solo request's latency to well under the window);
/// * the batcher starts draining for shutdown.
///
/// The window therefore bounds the linger only for traffic that can
/// still arrive. A connection closing wakes the linger (its seat's
/// drop notifies `arrived`) without restarting the grace slice.
fn linger<'a>(shared: &Shared, mut state: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
    let window = shared.policy.window;
    if window.is_zero() {
        return state;
    }
    let grace = window / 4;
    let started = Instant::now();
    let (mut seen, mut quiet_since) = (state.queue.len(), started);
    loop {
        if !state.open
            || state.queue.len() >= shared.policy.max_batch
            || state.every_connection_waiting()
        {
            return state;
        }
        let now = Instant::now();
        if state.queue.len() != seen {
            (seen, quiet_since) = (state.queue.len(), now);
        }
        let (elapsed, quiet) = (now - started, now - quiet_since);
        if elapsed >= window || quiet >= grace {
            return state; // the window is spent, or a grace slice went quiet
        }
        let slice = (grace - quiet).min(window - elapsed);
        state = shared.arrived.safe_wait_timeout(state, slice).0;
    }
}

fn run_executor(shared: Arc<Shared>, engine: Arc<Mutex<Engine>>) {
    loop {
        let window: Vec<Pending> = {
            // Wait for the first request of a window (or shutdown),
            // then linger — under the same guard, so no arrival can
            // slip between the linger decision and the drain.
            let mut state = shared.state.safe_lock();
            while state.queue.is_empty() && state.open {
                state = shared.arrived.safe_wait(state);
            }
            if state.queue.is_empty() && !state.open {
                return; // drained and closed
            }
            state = linger(&shared, state);
            let n = state.queue.len().min(shared.policy.max_batch);
            state.queue.drain(..n).collect()
        };
        if window.is_empty() {
            continue;
        }
        let begun = Instant::now();
        let wait_ns: u64 = window
            .iter()
            .map(|p| begun.saturating_duration_since(p.admitted).as_nanos() as u64)
            .sum();
        let executed = window.len() as u64;
        let (requests, replies): (Vec<ApiRequest>, Vec<_>) =
            window.into_iter().map(|p| (p.request, p.reply)).unzip();
        let responses = engine.safe_lock().execute(&requests);
        let service_each_ns = begun.elapsed().as_nanos() as u64;
        shared.window_wait_ns.fetch_add(wait_ns, Ordering::Relaxed);
        shared
            .service_ns
            .fetch_add(service_each_ns * executed, Ordering::Relaxed);
        shared
            .executed_requests
            .fetch_add(executed, Ordering::Relaxed);
        shared.executed_batches.fetch_add(1, Ordering::Relaxed);
        for (reply, response) in replies.into_iter().zip(responses) {
            // A client that hung up just discards its response.
            let _ = reply.send(response);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::SampleRequest;
    use crate::engine::{DatasetConfig, EngineConfig};
    use smartsage_gnn::Fanouts;

    fn engine() -> Arc<Mutex<Engine>> {
        Arc::new(Mutex::new(
            Engine::new(EngineConfig {
                dataset: DatasetConfig {
                    nodes: 200,
                    feature_dim: 8,
                    classes: 4,
                    ..DatasetConfig::default()
                },
                fanouts: Fanouts::new(vec![2, 2]),
                hidden: 8,
                ..EngineConfig::default()
            })
            .unwrap(),
        ))
    }

    /// Submits `request` through a fresh seat, dropped once it is
    /// queued: never answered, so never returning, and the request
    /// lingers as a one-shot.
    fn submit(batcher: &Batcher, request: ApiRequest) -> Result<Reply, ServeError> {
        batcher.seat().submit(request)
    }

    fn sample(nodes: &[u32]) -> ApiRequest {
        let body = format!(
            "{{\"nodes\":[{}]}}",
            nodes
                .iter()
                .map(|n| n.to_string())
                .collect::<Vec<_>>()
                .join(",")
        );
        ApiRequest::Sample(SampleRequest::parse(&body).unwrap())
    }

    #[test]
    fn submits_resolve_through_the_executor() {
        let batcher = Batcher::start(engine(), BatchPolicy::serial()).expect("start batcher");
        let rx = submit(&batcher, sample(&[1, 2])).unwrap();
        let response = rx.recv().unwrap().unwrap();
        assert!(response.contains("\"targets\":[1,2]"), "{response}");
        batcher.close();
    }

    #[test]
    fn queue_overflow_is_a_typed_429() {
        let engine = engine();
        // Stall the executor by holding the engine lock, so admitted
        // requests stay queued.
        let guard = engine.lock().unwrap();
        let batcher = Batcher::start(
            Arc::clone(&engine),
            BatchPolicy {
                window: Duration::ZERO,
                max_batch: 1,
                queue_depth: 2,
            },
        )
        .expect("start batcher");
        let _rx1 = submit(&batcher, sample(&[1])).unwrap();
        // Give the executor a moment to pull the first request out of
        // the queue (it then blocks on the engine lock we hold).
        std::thread::sleep(Duration::from_millis(50));
        let _rx2 = submit(&batcher, sample(&[2])).unwrap();
        let _rx3 = submit(&batcher, sample(&[3])).unwrap();
        let err = submit(&batcher, sample(&[4])).unwrap_err();
        assert_eq!(err.status(), 429);
        assert!(err.to_string().contains('2'), "{err}");
        assert_eq!(batcher.rejected_queue_full(), 1);
        drop(guard);
        batcher.close();
    }

    #[test]
    fn shutdown_drains_admitted_work_then_rejects_new_submits() {
        let batcher = Batcher::start(
            engine(),
            BatchPolicy {
                window: Duration::from_millis(200),
                max_batch: 64,
                queue_depth: 16,
            },
        )
        .expect("start batcher");
        let receivers: Vec<_> = (0..4)
            .map(|i| submit(&batcher, sample(&[i])).unwrap())
            .collect();
        batcher.close();
        for rx in receivers {
            assert!(rx.recv().unwrap().is_ok(), "admitted work must complete");
        }
        let err = submit(&batcher, sample(&[1])).unwrap_err();
        assert_eq!(err.status(), 503);
    }

    #[test]
    fn a_window_coalesces_concurrent_requests() {
        let engine = engine();
        let batcher = Batcher::start(
            Arc::clone(&engine),
            BatchPolicy {
                window: Duration::from_millis(100),
                max_batch: 64,
                queue_depth: 64,
            },
        )
        .expect("start batcher");
        let receivers: Vec<_> = (0..6)
            .map(|i| submit(&batcher, sample(&[i, i + 1])).unwrap())
            .collect();
        for rx in receivers {
            rx.recv().unwrap().unwrap();
        }
        let counters = engine.lock().unwrap().counters();
        assert_eq!(counters.requests, 6);
        assert!(
            counters.merged_batches < 6,
            "6 requests inside one 100ms window must share passes, got {counters:?}"
        );
        batcher.close();
    }

    /// Regression test for the headline latency bug: the executor used
    /// to `thread::sleep` the full coalescing window unconditionally,
    /// so a solo request at low load always paid `window` end to end.
    /// With the condvar linger, a quiet grace slice (window/4) fires
    /// the pass early.
    #[test]
    fn a_solo_request_does_not_pay_the_whole_window() {
        let window = Duration::from_millis(250);
        let batcher = Batcher::start(
            engine(),
            BatchPolicy {
                window,
                max_batch: 64,
                queue_depth: 16,
            },
        )
        .expect("start batcher");
        for _ in 0..3 {
            let started = Instant::now();
            let rx = submit(&batcher, sample(&[1, 2])).unwrap();
            rx.recv().unwrap().unwrap();
            let elapsed = started.elapsed();
            assert!(
                elapsed < window,
                "solo request paid the whole {window:?} window: {elapsed:?}"
            );
        }
        let timing = batcher.timing();
        assert_eq!(timing.requests, 3);
        assert!(
            timing.window_wait < 3 * window,
            "window wait must stay under the blind-sleep total: {timing:?}"
        );
        batcher.close();
    }

    /// A full batch must fire immediately, not wait out the deadline:
    /// with a 10 s window and `max_batch` requests queued, the linger
    /// exits on the size trigger.
    #[test]
    fn a_full_batch_fires_long_before_the_deadline() {
        let engine = engine();
        // Hold the engine lock so all three submits land in one
        // window deterministically.
        let guard = engine.lock().unwrap();
        let batcher = Batcher::start(
            Arc::clone(&engine),
            BatchPolicy {
                window: Duration::from_secs(10),
                max_batch: 3,
                queue_depth: 16,
            },
        )
        .expect("start batcher");
        let started = Instant::now();
        let receivers: Vec<_> = (0..3)
            .map(|i| submit(&batcher, sample(&[i])).unwrap())
            .collect();
        drop(guard);
        for rx in receivers {
            rx.recv().unwrap().unwrap();
        }
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_secs(5),
            "max_batch queued must early-fire the 10s window, took {elapsed:?}"
        );
        let counters = engine.lock().unwrap().counters();
        assert_eq!(counters.requests, 3);
        batcher.close();
    }

    /// A long window (4 s, so a 1 s grace slice): a linger that waits
    /// the slice out is unmistakable next to one that does not.
    fn long_window(engine: &Arc<Mutex<Engine>>) -> Batcher {
        Batcher::start(
            Arc::clone(engine),
            BatchPolicy {
                window: Duration::from_secs(4),
                max_batch: 64,
                queue_depth: 16,
            },
        )
        .expect("start batcher")
    }

    const GRACE: Duration = Duration::from_secs(1);

    /// A seat whose connection has been answered once.
    fn returning(batcher: &Batcher) -> Seat<'_> {
        let mut seat = batcher.seat();
        seat.mark_answered();
        seat
    }

    /// Submits one request per seat and waits for every response: the
    /// time from the last submit to the last response, and the passes
    /// the engine ran.
    fn run_seats(engine: &Arc<Mutex<Engine>>, seats: &[Seat<'_>]) -> (Duration, u64) {
        let before = engine.lock().unwrap().counters().merged_batches;
        let mut receivers = Vec::new();
        for (i, seat) in seats.iter().enumerate() {
            receivers.push(seat.submit(sample(&[i as u32])).unwrap());
        }
        let started = Instant::now();
        for rx in receivers {
            rx.recv().unwrap().unwrap();
        }
        let passes = engine.lock().unwrap().counters().merged_batches - before;
        (started.elapsed(), passes)
    }

    #[test]
    fn a_pass_starts_once_every_returning_connection_is_queued() {
        let engine = engine();
        let batcher = long_window(&engine);
        let seats = [returning(&batcher), returning(&batcher)];
        let (elapsed, passes) = run_seats(&engine, &seats);
        assert!(
            elapsed < GRACE / 2,
            "both held connections were queued, yet the pass waited {elapsed:?}"
        );
        assert_eq!(passes, 1, "both requests ride one pass");
    }

    #[test]
    fn an_idle_connection_keeps_the_grace_slice() {
        let engine = engine();
        let batcher = long_window(&engine);
        let _idle = returning(&batcher);
        let seats = [returning(&batcher), returning(&batcher)];
        let (elapsed, passes) = run_seats(&engine, &seats);
        assert!(
            elapsed >= GRACE - GRACE / 10,
            "a third connection could still send, yet the pass started after {elapsed:?}"
        );
        assert_eq!(passes, 1);
    }

    #[test]
    fn fresh_connections_keep_the_grace_slice() {
        // A burst of new connections: none was answered yet, so none
        // of them says it is the last one coming.
        let engine = engine();
        let batcher = long_window(&engine);
        let seats = [batcher.seat(), batcher.seat()];
        let (elapsed, passes) = run_seats(&engine, &seats);
        assert!(
            elapsed >= GRACE - GRACE / 10,
            "fresh connections must linger as before, the pass started after {elapsed:?}"
        );
        assert_eq!(passes, 1);
    }

    #[test]
    fn a_closing_idle_connection_ends_the_linger() {
        let engine = engine();
        let batcher = long_window(&engine);
        let seat = returning(&batcher);
        let idle = batcher.seat();
        let rx = seat.submit(sample(&[1])).unwrap();
        // Most likely the executor is lingering on the one queued
        // request by now, so the drop's wake-up ends it; if the drop
        // lands first, the linger's first check does. Either way the
        // pass must not wait out the slice.
        std::thread::sleep(GRACE / 10);
        let started = Instant::now();
        drop(idle);
        rx.recv().unwrap().unwrap();
        let elapsed = started.elapsed();
        assert!(
            elapsed < GRACE / 2,
            "the only other connection closed, yet the pass waited {elapsed:?}"
        );
    }

    #[test]
    fn a_one_shot_seat_lingers() {
        // Its seat is gone before the pass, and it was never answered,
        // so nothing says the request is the last one.
        let engine = engine();
        let batcher = long_window(&engine);
        let started = Instant::now();
        submit(&batcher, sample(&[1]))
            .unwrap()
            .recv()
            .unwrap()
            .unwrap();
        assert!(started.elapsed() >= GRACE - GRACE / 10);
    }

    /// The timing split separates window-wait from service: requests
    /// that ride one merged pass each charge the pass duration to
    /// service, and the wait totals stay bounded by the window.
    #[test]
    fn timing_split_accounts_every_executed_request() {
        let batcher = Batcher::start(
            engine(),
            BatchPolicy {
                window: Duration::from_millis(20),
                max_batch: 64,
                queue_depth: 64,
            },
        )
        .expect("start batcher");
        let receivers: Vec<_> = (0..5)
            .map(|i| submit(&batcher, sample(&[i])).unwrap())
            .collect();
        for rx in receivers {
            rx.recv().unwrap().unwrap();
        }
        let timing = batcher.timing();
        assert_eq!(timing.requests, 5);
        assert!(timing.batches >= 1);
        assert!(timing.service > Duration::ZERO);
        batcher.close();
    }
}
