//! The group walk: one reference stream through several hierarchies that
//! share their top levels.
//!
//! Cache statistics depend only on the stream and the geometry, so one
//! stream can feed many hierarchies at once. The hierarchy is
//! non-inclusive — fills and writebacks go down, nothing comes back up —
//! so hierarchies that share their top levels also share those levels'
//! state and the requests the last shared level sends below.
//! [`GroupWalk::group`] therefore walks the shared *prefix* once and turns
//! each chunk into a chunk of below-prefix requests (fills as loads,
//! writebacks as stores, in order); each hierarchy's *suffix* — its own
//! lower levels and terminal, a [`Below`] — walks those requests exactly as
//! its levels would have been walked from the prefix's last level.
//!
//! # Lanes
//!
//! A worker is a *lane*. The prefix lane walks the prefix, then the
//! suffixes that run inline; a hop lane walks only suffixes, fed request
//! chunks through a bounded queue by the prefix lane. Suffixes are dealt by
//! cost: a terminal-only suffix stays on the prefix lane, a suffix with
//! levels goes to the least loaded lane. A suffix that panics is dropped
//! with its payload kept for [`GroupWalk::finish_all`] and its lane-mates
//! finish the stream; a prefix that panics fails every hierarchy.
//!
//! The front-end implements [`TraceSink`]: it buffers events into chunks of
//! [`CHUNK_EVENTS`] and hands each chunk (an `Arc<[TraceEvent]>`) to the
//! prefix lane's queue; the prefix lane shares each request chunk with the
//! hop lanes the same way, so a hand-off is a refcount bump, not a copy.
//!
//! A *mark* ([`GroupWalk::mark`]) travels through the queues between
//! chunks, the prefix lane passing it on to the hop lanes after the
//! requests before it; every walker snapshots its counters there
//! ([`WalkRun::marks`]).
//!
//! # Determinism
//!
//! Every walker sees its events or requests in stream order, whatever the
//! thread schedule, so each walk's counters are bit-identical to one
//! sequential [`Hierarchy`] over all of its levels.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use memsim_trace::{AccessKind, TraceEvent, TraceSink};

use crate::cache::Cache;
use crate::hierarchy::{Below, Hierarchy, MainMemory};
use crate::probes::{HierarchyProbes, LevelProbes};
use crate::stats::LevelStats;

/// Events buffered per chunk — matches the trace-file chunk size so
/// replayed chunks forward without re-buffering.
pub const CHUNK_EVENTS: usize = 4096;

/// Chunks a lane queue may hold before the producer blocks; each is 64 KiB
/// held until the slowest lane has walked it. Eight keeps the busiest lane
/// fed while the producer waits for a core: with four, a Velvet mini replay
/// of three structures on two lanes (2-vCPU host) left its two-structure
/// lane waiting on an empty queue six times as often, and its wall time
/// spread about three times as wide from run to run.
const QUEUE_BOUND: usize = 8;

/// A message to one lane.
enum Msg {
    /// Demand events, for the prefix lane.
    Chunk(Arc<[TraceEvent]>),
    /// The requests the prefix sent below for one chunk, for a hop lane.
    Requests(Arc<[TraceEvent]>),
    /// Snapshot the counters of every walker of the lane.
    Mark,
    /// End of the stream. The prefix lane drains, passes it on to the hop
    /// lanes and exits; a hop lane exits.
    Flush,
}

struct QueueInner {
    buf: VecDeque<Msg>,
    /// Set by a panicking or finished lane so its producers stop blocking
    /// on a queue nobody will ever drain; a panic itself resurfaces at join.
    poisoned: bool,
}

/// A bounded channel built on `Mutex` + `Condvar` (the workspace has no
/// channel dependency, and two condvars are all this needs).
struct LaneQueue {
    inner: Mutex<QueueInner>,
    not_empty: Condvar,
    not_full: Condvar,
}

impl LaneQueue {
    fn new() -> Self {
        Self {
            inner: Mutex::new(QueueInner {
                buf: VecDeque::with_capacity(QUEUE_BOUND + 1),
                poisoned: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// Producer side: block while full. A poisoned queue silently drops
    /// the message — the lane is gone and any panic of its is re-raised
    /// when the run is finished (or joined on drop).
    fn push(&self, msg: Msg) {
        let mut inner = self.inner.lock().unwrap();
        while inner.buf.len() >= QUEUE_BOUND && !inner.poisoned {
            inner = self.not_full.wait(inner).unwrap();
        }
        if inner.poisoned {
            return;
        }
        inner.buf.push_back(msg);
        drop(inner);
        self.not_empty.notify_one();
    }

    /// Shutdown push: ignores the bound so a full queue can never deadlock
    /// the flush handshake against a worker that already exited.
    fn push_flush(&self) {
        let mut inner = self.inner.lock().unwrap();
        if !inner.poisoned {
            inner.buf.push_back(Msg::Flush);
        }
        drop(inner);
        self.not_empty.notify_one();
    }

    /// Worker side: block while empty.
    fn pop(&self) -> Msg {
        let mut inner = self.inner.lock().unwrap();
        while inner.buf.is_empty() {
            inner = self.not_empty.wait(inner).unwrap();
        }
        let msg = inner.buf.pop_front().unwrap();
        drop(inner);
        self.not_full.notify_one();
        msg
    }

    /// Messages waiting in the queue.
    fn len(&self) -> usize {
        let inner = self.inner.lock().expect("lane queue lock poisoned");
        inner.buf.len()
    }

    /// Mark the queue dead once its lane is gone: wake and unblock everyone.
    fn poison(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.poisoned = true;
        inner.buf.clear();
        drop(inner);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

/// The payload of a panic caught inside a lane, kept whole so a
/// one-hierarchy run can re-raise it unchanged.
pub type WalkPanic = Box<dyn Any + Send + 'static>;

/// The text of a panic payload: the message of a `panic!` with a string
/// or a format string, the only kinds this workspace raises.
pub fn panic_text(payload: &WalkPanic) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One hierarchy of a [`GroupWalk::group`] walk: the levels below the
/// group's shared prefix, and a terminal.
pub struct Walk<M> {
    /// The cache levels below the prefix, top-down (none when the prefix's
    /// last level sits directly over the terminal).
    pub levels: Vec<Cache>,
    /// A freshly constructed terminal memory.
    pub memory: M,
    /// Registry prefix for this hierarchy's telemetry: the prefix publishes
    /// the sequential [`HierarchyProbes`] under it, and the suffix levels
    /// publish theirs at drain.
    pub obs_prefix: Option<String>,
    /// Flight-recorder span around this hierarchy's share of every request
    /// chunk, on the lane that walks it.
    pub span: String,
}

/// The outcome of one walk of a group: per-level stats, terminal memory,
/// and stream totals.
#[derive(Debug, Clone)]
pub struct WalkRun<M> {
    /// Per-level statistics, top-down (the shared prefix's levels, then
    /// the walk's own), bit-identical to a sequential run over the same
    /// stream.
    pub levels: Vec<LevelStats>,
    /// The terminal memory.
    pub memory: M,
    /// Total demand references consumed (Equation 2's denominator).
    pub total_refs: u64,
    /// Total demand bytes moved by the reference stream.
    pub demand_bytes: u64,
    /// The (undrained) counters at every [`GroupWalk::mark`], in the order
    /// sent.
    pub marks: Vec<WalkRun<M>>,
}

/// The prefix's terminal: every request its last level sends below, in
/// order, a fill as a load and a writeback as a store.
#[derive(Debug, Clone, Default)]
struct RequestLog(Vec<TraceEvent>);

impl MainMemory for RequestLog {
    #[inline]
    fn load(&mut self, addr: u64, bytes: u32) {
        #[cfg(test)]
        tests::prefix_fuse(addr);
        self.0.push(TraceEvent::load(addr, bytes));
    }

    #[inline]
    fn store(&mut self, addr: u64, bytes: u32) {
        self.0.push(TraceEvent::store(addr, bytes));
    }
}

impl WalkRun<()> {
    /// The prefix's counters as they stand.
    fn of_prefix(hierarchy: &Hierarchy<RequestLog>) -> Self {
        WalkRun {
            levels: hierarchy.levels().iter().map(|c| c.stats()).collect(),
            memory: (),
            total_refs: hierarchy.total_refs(),
            demand_bytes: hierarchy.demand_bytes(),
            marks: Vec::new(),
        }
    }

    /// A whole walk's counters: the prefix's, then its suffix's own levels
    /// and terminal, mark by mark.
    fn join<M>(&self, suffix: WalkRun<M>) -> WalkRun<M> {
        WalkRun {
            levels: self.levels.iter().cloned().chain(suffix.levels).collect(),
            memory: suffix.memory,
            total_refs: self.total_refs,
            demand_bytes: self.demand_bytes,
            marks: self
                .marks
                .iter()
                .zip(suffix.marks)
                .map(|(p, s)| p.join(s))
                .collect(),
        }
    }
}

impl<M: MainMemory + Clone> WalkRun<M> {
    /// A suffix's counters as they stand (its levels and terminal; the
    /// stream totals are the prefix's).
    fn of_suffix(below: &Below<M>) -> Self {
        WalkRun {
            levels: below.levels().iter().map(|c| c.stats()).collect(),
            memory: below.memory().clone(),
            total_refs: 0,
            demand_bytes: 0,
            marks: Vec::new(),
        }
    }
}

/// The shared levels over a request log.
struct PrefixWalker {
    /// The prefix, or the panic that stopped it. A failed prefix fails
    /// every walk of the group.
    state: Result<Hierarchy<RequestLog>, WalkPanic>,
    marks: Vec<WalkRun<()>>,
}

/// Flight-recorder span around the prefix's walk of one chunk.
const PREFIX_SPAN: &str = "walk.prefix";

impl PrefixWalker {
    /// Walk `events` into the request log; returns the events walked.
    fn step(&mut self, events: &[TraceEvent], recording: bool) -> usize {
        let Ok(hierarchy) = &mut self.state else {
            return 0;
        };
        if recording {
            memsim_obs::recorder::span_begin(PREFIX_SPAN);
        }
        let walked = panic::catch_unwind(AssertUnwindSafe(|| hierarchy.access_chunk(events)));
        if recording {
            memsim_obs::recorder::span_end(PREFIX_SPAN);
        }
        match walked {
            Ok(()) => events.len(),
            Err(payload) => {
                self.state = Err(payload);
                0
            }
        }
    }

    /// Hand the requests logged since the last delivery to the suffixes:
    /// one shared chunk to every hop lane first, so they start while this
    /// lane walks the `inline` ones.
    fn deliver<M: MainMemory + Clone>(
        &mut self,
        inline: &mut [SuffixWalker<M>],
        hops: &[Arc<LaneQueue>],
        recording: bool,
    ) {
        let Ok(hierarchy) = &mut self.state else {
            return;
        };
        let requests = &mut hierarchy.memory_mut().0;
        if requests.is_empty() {
            return;
        }
        if !hops.is_empty() {
            let shared: Arc<[TraceEvent]> = Arc::from(requests.as_slice());
            for q in hops {
                q.push(Msg::Requests(Arc::clone(&shared)));
            }
        }
        for s in inline {
            s.step(requests, recording);
        }
        requests.clear();
    }

    fn mark(&mut self) {
        if let Ok(hierarchy) = &self.state {
            self.marks.push(WalkRun::of_prefix(hierarchy));
        }
    }

    /// Drain the shared levels; their writebacks land in the request log.
    fn drain(&mut self) {
        let Ok(hierarchy) = &mut self.state else {
            return;
        };
        let drained = panic::catch_unwind(AssertUnwindSafe(|| {
            hierarchy.drain();
            hierarchy.assert_consistent();
        }));
        if let Err(payload) = drained {
            self.state = Err(payload);
        }
    }

    fn finish(self) -> WalkResult<()> {
        let marks = self.marks;
        self.state.map(|hierarchy| WalkRun {
            marks,
            ..WalkRun::of_prefix(&hierarchy)
        })
    }
}

/// One walk's own levels and terminal, fed the prefix's requests.
struct SuffixWalker<M> {
    walk: usize,
    /// The suffix, or the panic that stopped it: a failed suffix skips the
    /// rest of the stream while its lane-mates carry on.
    state: Result<Below<M>, WalkPanic>,
    span: String,
    /// Registry handles of the suffix levels, published once at drain.
    probes: Vec<LevelProbes>,
    marks: Vec<WalkRun<M>>,
}

impl<M: MainMemory + Clone> SuffixWalker<M> {
    /// Walk a request chunk: fills as loads, writebacks as stores.
    fn step(&mut self, requests: &[TraceEvent], recording: bool) {
        let Ok(below) = &mut self.state else {
            return;
        };
        if recording {
            memsim_obs::recorder::span_begin(&self.span);
        }
        let walked = panic::catch_unwind(AssertUnwindSafe(|| {
            for r in requests {
                match r.kind {
                    AccessKind::Load => below.load(r.addr, r.size),
                    AccessKind::Store => below.store(r.addr, r.size),
                }
            }
        }));
        if recording {
            memsim_obs::recorder::span_end(&self.span);
        }
        if let Err(payload) = walked {
            self.state = Err(payload);
        }
    }

    fn mark(&mut self) {
        if let Ok(below) = &self.state {
            self.marks.push(WalkRun::of_suffix(below));
        }
    }

    /// Drain the suffix and harvest its counters.
    fn finish(self) -> (usize, WalkResult<M>) {
        let (marks, probes) = (self.marks, self.probes);
        let run = self.state.and_then(|mut below| {
            panic::catch_unwind(AssertUnwindSafe(move || {
                below.drain();
                below.assert_consistent();
                for (probe, cache) in probes.iter().zip(below.levels()) {
                    probe.publish(&cache.counter_values());
                }
                WalkRun {
                    marks,
                    ..WalkRun::of_suffix(&below)
                }
            }))
        });
        (self.walk, run)
    }
}

/// One lane thread's walkers. The *prefix lane* carries the prefix and
/// the suffixes that run inline; a *hop lane* carries suffixes only, fed
/// request chunks by the prefix lane.
struct Lane<M> {
    prefix: Option<PrefixWalker>,
    suffixes: Vec<SuffixWalker<M>>,
    /// The hop lanes the prefix feeds.
    hops: Vec<Arc<LaneQueue>>,
}

/// What a lane hands back at the end.
struct LaneOut<M> {
    prefix: Option<WalkResult<()>>,
    suffixes: Vec<(usize, WalkResult<M>)>,
}

impl<M: MainMemory + Clone> Lane<M> {
    /// Snapshot every walker of the lane, passing the mark on to the hop
    /// lanes.
    fn mark(&mut self) {
        if let Some(prefix) = &mut self.prefix {
            prefix.mark();
            for q in &self.hops {
                q.push(Msg::Mark);
            }
        }
        for s in &mut self.suffixes {
            s.mark();
        }
    }

    /// Drain the prefix (its writebacks reach the suffixes before their
    /// own drain), pass the flush on to the hop lanes, and drain every
    /// suffix.
    fn finish(mut self) -> LaneOut<M> {
        let recording = memsim_obs::recorder::recording();
        let prefix = self.prefix.take().map(|mut prefix| {
            prefix.drain();
            prefix.deliver(&mut self.suffixes, &self.hops, recording);
            for q in &self.hops {
                q.push_flush();
            }
            prefix.finish()
        });
        LaneOut {
            prefix,
            suffixes: self
                .suffixes
                .into_iter()
                .map(SuffixWalker::finish)
                .collect(),
        }
    }
}

fn run_lane<M: MainMemory + Clone>(mut lane: Lane<M>, queue: &LaneQueue) -> LaneOut<M> {
    loop {
        // Flight-recorder lane (the worker thread's name): one span per
        // walker per chunk plus queue-depth / throughput counter tracks.
        // One relaxed load when the recorder is disarmed.
        let recording = memsim_obs::recorder::recording();
        let t0 = recording.then(std::time::Instant::now);
        let walked = match queue.pop() {
            Msg::Chunk(events) => {
                let prefix = lane
                    .prefix
                    .as_mut()
                    .expect("events reach the prefix lane only");
                let walked = prefix.step(&events, recording);
                prefix.deliver(&mut lane.suffixes, &lane.hops, recording);
                walked
            }
            Msg::Requests(requests) => {
                for s in &mut lane.suffixes {
                    s.step(&requests, recording);
                }
                requests.len()
            }
            Msg::Mark => {
                lane.mark();
                continue;
            }
            Msg::Flush => break,
        };
        if recording {
            memsim_obs::recorder::counter("shard.queue_depth", queue.len() as f64);
            // always emitted so the event stream stays deterministic;
            // the value is zeroed in deterministic mode anyway
            let secs = t0.map_or(0.0, |t| t.elapsed().as_secs_f64());
            let mev_s = if secs > 0.0 {
                walked as f64 / secs / 1e6
            } else {
                0.0
            };
            memsim_obs::recorder::counter("shard.mev_s", mev_s);
        }
    }
    lane.finish()
}

/// Relative per-chunk cost of the prefix, against [`SUFFIX_COST`], for
/// dealing suffixes over lanes. The prefix probes L1 for every event and
/// walks L2 and L3 for their misses; a suffix walks only the requests that
/// get past L3 (8–19% of references on most workloads, 56–61% on Hash and
/// Velvet).
const PREFIX_COST: u32 = 8;

/// Relative per-chunk cost of a suffix with cache levels. A terminal-only
/// suffix is cheaper than a queue hop and always runs on the prefix lane.
const SUFFIX_COST: u32 = 1;

/// Walks one or more hierarchies that share their top levels from one
/// stream: implements [`TraceSink`], walks the shared prefix once on the
/// prefix lane, and each hierarchy's own levels below it on the lane its
/// suffix was dealt to. Each walk's [`WalkRun`] is bit-identical to a
/// sequential [`Hierarchy`] over all of its levels.
pub struct GroupWalk<M> {
    /// The prefix lane's queue: the producer feeds this only.
    queue: Arc<LaneQueue>,
    /// Every lane: the prefix lane, then the hop lanes.
    workers: Vec<JoinHandle<LaneOut<M>>>,
    walks: usize,
    buf: Vec<TraceEvent>,
    result: Option<Vec<WalkResult<M>>>,
}

/// One walk's outcome.
type WalkResult<M> = Result<WalkRun<M>, WalkPanic>;

impl<M: MainMemory + Clone + Send + 'static> GroupWalk<M> {
    /// Walk every hierarchy `prefix ++ walk.levels` over `walk.memory`
    /// from one stream, over at most `lanes` lane threads named
    /// `{lane_name}{i}`. Finish with [`Self::finish_all`].
    ///
    /// The *prefix lane* walks the shared `prefix` levels and turns every
    /// chunk into the requests its last level sends below (fills and
    /// writebacks, in order). Every walk's *suffix* walks those requests
    /// through the walk's own levels and terminal. A terminal-only suffix
    /// runs on the prefix lane; a suffix with levels is dealt by cost to
    /// the prefix lane or to a *hop lane*, which the prefix lane feeds
    /// request chunks through a bounded queue. A panic in a suffix fails
    /// that walk alone; a panic in the prefix fails every walk.
    ///
    /// With a walk's `obs_prefix` set and the global registry enabled, the
    /// prefix publishes the sequential probes under every such prefix (and
    /// counts `progress.events` once per event), and each suffix publishes
    /// its levels at drain.
    pub fn group(prefix: Vec<Cache>, walks: Vec<Walk<M>>, lanes: usize, lane_name: &str) -> Self {
        let reg = memsim_obs::global();
        let nwalks = walks.len();
        let lanes = lanes.max(1);
        let obs_prefixes: Vec<&str> = walks
            .iter()
            .filter_map(|w| w.obs_prefix.as_deref())
            .filter(|_| memsim_obs::enabled())
            .collect();
        let probes = (!obs_prefixes.is_empty()).then(|| {
            let names: Vec<&str> = prefix.iter().map(|c| c.config().name.as_str()).collect();
            HierarchyProbes::register_shared(reg, &obs_prefixes, &names)
        });
        let mut hierarchy = Hierarchy::new(prefix, RequestLog::default());
        if let Some(probes) = probes {
            hierarchy.set_probes(probes);
        }
        let mut dealt: Vec<Lane<M>> = (0..lanes)
            .map(|_| Lane {
                prefix: None,
                suffixes: Vec::new(),
                hops: Vec::new(),
            })
            .collect();
        dealt[0].prefix = Some(PrefixWalker {
            state: Ok(hierarchy),
            marks: Vec::new(),
        });
        // Deal the suffixes: a terminal-only one to the prefix lane, one
        // with levels to the least loaded lane (ties to the lowest lane,
        // so inline first).
        let mut load: Vec<u32> = (0..lanes)
            .map(|i| if i == 0 { PREFIX_COST } else { 0 })
            .collect();
        for (w, walk) in walks.into_iter().enumerate() {
            let probes: Vec<LevelProbes> = match walk.obs_prefix.as_deref() {
                Some(p) if memsim_obs::enabled() => walk
                    .levels
                    .iter()
                    .map(|c| LevelProbes::register(reg, &format!("{p}.{}", c.config().name)))
                    .collect(),
                _ => Vec::new(),
            };
            let lane = if walk.levels.is_empty() {
                0
            } else {
                let lane = (0..lanes)
                    .min_by_key(|&l| (load[l], l))
                    .expect("the prefix lane is a candidate");
                load[lane] += SUFFIX_COST;
                lane
            };
            dealt[lane].suffixes.push(SuffixWalker {
                walk: w,
                state: Ok(Below::new(walk.levels, walk.memory)),
                span: walk.span,
                probes,
                marks: Vec::new(),
            });
        }
        // Spawn the prefix lane and every hop lane that got a suffix; the
        // prefix lane feeds each hop lane.
        dealt.retain(|lane| lane.prefix.is_some() || !lane.suffixes.is_empty());
        let queues: Vec<Arc<LaneQueue>> =
            dealt.iter().map(|_| Arc::new(LaneQueue::new())).collect();
        dealt[0].hops = queues[1..].to_vec();
        let mut workers = Vec::with_capacity(dealt.len());
        for (i, lane) in dealt.into_iter().enumerate() {
            let queue = Arc::clone(&queues[i]);
            let handle = std::thread::Builder::new()
                .name(format!("{lane_name}{i}"))
                .spawn(move || {
                    let hops = lane.hops.clone();
                    let out = panic::catch_unwind(AssertUnwindSafe(|| run_lane(lane, &queue)));
                    // nothing reads this queue any more: unblock its
                    // producers
                    queue.poison();
                    match out {
                        Ok(out) => out,
                        Err(payload) => {
                            // let the hop lanes this lane feeds exit too;
                            // the payload surfaces again at join
                            for q in &hops {
                                q.push_flush();
                            }
                            panic::resume_unwind(payload);
                        }
                    }
                })
                .expect("spawn lane worker");
            workers.push(handle);
        }
        Self {
            queue: Arc::clone(&queues[0]),
            workers,
            walks: nwalks,
            buf: Vec::with_capacity(CHUNK_EVENTS),
            result: None,
        }
    }

    /// The lane (worker thread) count.
    pub fn lanes(&self) -> usize {
        self.workers.len()
    }

    /// Snapshot every walker's counters after the events delivered so far
    /// (see [`WalkRun::marks`]).
    pub fn mark(&mut self) {
        self.send_buf();
        self.queue.push(Msg::Mark);
    }

    fn send_buf(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        let chunk: Arc<[TraceEvent]> = Arc::from(self.buf.as_slice());
        self.buf.clear();
        self.queue.push(Msg::Chunk(chunk));
    }

    /// Flush buffered events, stop the lanes, and join each walk's prefix
    /// and suffix counters. Idempotent via the cached result; a lane that
    /// panicked outside its walkers is re-raised here (after every lane has
    /// been joined).
    fn finish_inner(&mut self) {
        if self.result.is_some() || self.workers.is_empty() {
            return;
        }
        self.send_buf();
        self.queue.push_flush();
        let mut prefix = None;
        let mut suffixes: Vec<Option<WalkResult<M>>> = (0..self.walks).map(|_| None).collect();
        let mut panic_payload = None;
        for handle in self.workers.drain(..) {
            match handle.join() {
                Ok(out) => {
                    prefix = prefix.or(out.prefix);
                    for (walk, run) in out.suffixes {
                        suffixes[walk] = Some(run);
                    }
                }
                Err(payload) => {
                    panic_payload.get_or_insert(payload);
                }
            }
        }
        if let Some(payload) = panic_payload {
            panic::resume_unwind(payload);
        }
        let runs = suffixes
            .into_iter()
            .map(|run| run.expect("every walk has a suffix"));
        self.result = Some(match prefix.expect("the prefix lane returns the prefix") {
            Ok(prefix) => runs.map(|run| run.map(|s| prefix.join(s))).collect(),
            Err(payload) => {
                // a failed prefix fails every walk: the first keeps the
                // payload, the rest carry its text
                let text = panic_text(&payload);
                let mut first = Some(payload);
                runs.map(|_| {
                    Err(first
                        .take()
                        .unwrap_or_else(|| Box::new(text.clone()) as WalkPanic))
                })
                .collect()
            }
        });
    }

    /// Consume the walk and return every walk's run, in walk order. Drives
    /// the flush handshake if [`TraceSink::flush`] was not already called.
    /// A walk whose suffix panicked yields that panic's payload, and the
    /// other walks are unaffected; a panic in the shared prefix fails every
    /// walk.
    pub fn finish_all(mut self) -> Vec<Result<WalkRun<M>, WalkPanic>> {
        self.finish_inner();
        self.result
            .take()
            .expect("a group walk yields its runs after flush")
    }
}

impl<M: MainMemory + Clone + Send + 'static> TraceSink for GroupWalk<M> {
    fn access(&mut self, ev: TraceEvent) {
        self.buf.push(ev);
        if self.buf.len() >= CHUNK_EVENTS {
            self.send_buf();
        }
    }

    fn access_chunk(&mut self, events: &[TraceEvent]) {
        // Replay delivers full-size chunks; forward those without
        // re-buffering (the Arc build is the only copy).
        if self.buf.is_empty() && events.len() >= CHUNK_EVENTS {
            self.queue.push(Msg::Chunk(Arc::from(events)));
            return;
        }
        self.buf.extend_from_slice(events);
        if self.buf.len() >= CHUNK_EVENTS {
            self.send_buf();
        }
    }

    fn flush(&mut self) {
        self.finish_inner();
    }
}

impl<M> Drop for GroupWalk<M> {
    fn drop(&mut self) {
        if self.workers.is_empty() {
            return;
        }
        // Abandoned without finish_all(): stop the prefix lane (it passes
        // the flush on to the hop lanes) without blocking on a full queue,
        // and swallow join results — a lane panic must not double-panic
        // during unwinding.
        self.queue.push_flush();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheConfig;
    use crate::hierarchy::CountingMemory;
    use proptest::prelude::*;

    /// The prefix panics when it sends a fill of this block below.
    const PREFIX_FUSE: u64 = 0xF00D_0000_0000;

    pub(super) fn prefix_fuse(addr: u64) {
        assert_ne!(addr, PREFIX_FUSE, "prefix fuse blown");
    }

    fn small_levels() -> Vec<Cache> {
        vec![
            Cache::new(CacheConfig::new("L1", 1024, 64, 2)),
            Cache::new(CacheConfig::new("L2", 4096, 64, 4)),
        ]
    }

    fn stream() -> Vec<TraceEvent> {
        // mixed hits, misses, straddlers, and size-0 probes across blocks
        let mut evs = Vec::new();
        for i in 0..5000u64 {
            let addr = (i * 37) % 16384;
            let kind = if i % 3 == 0 {
                AccessKind::Store
            } else {
                AccessKind::Load
            };
            let size = match i % 7 {
                0 => 0,
                1 => 100, // straddles 64B blocks
                _ => 8,
            };
            evs.push(TraceEvent { addr, size, kind });
        }
        evs
    }

    /// A walk of `levels` below the prefix over a fresh `memory`.
    fn walk<M>(levels: Vec<Cache>, memory: M) -> Walk<M> {
        Walk {
            levels,
            memory,
            obs_prefix: None,
            span: "walk.test".to_string(),
        }
    }

    /// One hierarchy walked whole as the prefix, over a budget of `lanes`.
    fn whole(levels: Vec<Cache>, lanes: usize) -> GroupWalk<CountingMemory> {
        let walks = vec![walk(Vec::new(), CountingMemory::default())];
        GroupWalk::group(levels, walks, lanes, "memsim-walk")
    }

    fn finish_one(walk: GroupWalk<CountingMemory>) -> WalkRun<CountingMemory> {
        let mut runs = walk.finish_all();
        assert_eq!(runs.len(), 1);
        let run = runs.pop().expect("one walk");
        run.unwrap_or_else(|payload| panic::resume_unwind(payload))
    }

    fn sequential(events: &[TraceEvent]) -> (Vec<LevelStats>, CountingMemory, u64, u64) {
        let mut h = Hierarchy::new(small_levels(), CountingMemory::default());
        for chunk in events.chunks(64) {
            h.access_chunk(chunk);
        }
        h.drain();
        h.assert_consistent();
        (
            h.levels().iter().map(|c| c.stats()).collect(),
            *h.memory(),
            h.total_refs(),
            h.demand_bytes(),
        )
    }

    #[test]
    fn drop_without_finish_joins_workers() {
        let sh = whole(small_levels(), 2);
        drop(sh); // must not hang or panic
                  // a group with a hop lane stops it through the prefix lane
        let walks = vec![walk(
            vec![small_levels().remove(1)],
            CountingMemory::default(),
        )];
        let mut sh = GroupWalk::group(vec![small_levels().remove(0)], walks, 2, "t");
        assert_eq!(sh.lanes(), 2);
        sh.access_chunk(&stream());
        drop(sh);
    }

    #[test]
    fn flush_then_finish_is_idempotent() {
        let events = stream();
        let mut sh = whole(small_levels(), 2);
        sh.access_chunk(&events);
        sh.flush();
        let run = finish_one(sh);
        let (seq_levels, ..) = sequential(&events);
        assert_eq!(run.levels, seq_levels);
    }

    #[test]
    fn marks_snapshot_the_sequential_counters_where_they_were_sent() {
        let events = stream();
        // marks at the start, mid-chunk, twice at one position, at the end
        let cuts = [0usize, 1234, 1234, 3001, 5000];
        let mut seq = Hierarchy::new(small_levels(), CountingMemory::default());
        let mut want = Vec::new();
        let mut at = 0;
        for &cut in &cuts {
            seq.access_chunk(&events[at..cut]);
            at = cut;
            let levels: Vec<LevelStats> = seq.levels().iter().map(|c| c.stats()).collect();
            want.push((levels, *seq.memory(), seq.total_refs()));
        }
        // the whole hierarchy as the prefix, or L2 as a suffix inline or
        // one hop away
        for (split, lanes) in [(2, 1), (2, 3), (1, 1), (1, 2), (1, 3)] {
            let mut levels = small_levels();
            let below = levels.split_off(split);
            let walks = vec![walk(below, CountingMemory::default())];
            let mut sh = GroupWalk::group(levels, walks, lanes, "memsim-test-mark");
            let mut at = 0;
            for &cut in &cuts {
                sh.access_chunk(&events[at..cut]);
                at = cut;
                sh.mark();
            }
            let run = finish_one(sh);
            let case = format!("split={split} lanes={lanes}");
            assert_eq!(run.marks.len(), cuts.len(), "{case}");
            for (i, (mark, (levels, mem, refs))) in run.marks.iter().zip(&want).enumerate() {
                assert_eq!(&mark.levels, levels, "{case} mark {i}");
                assert_eq!(&mark.memory, mem, "{case} mark {i}");
                assert_eq!(mark.total_refs, *refs, "{case} mark {i}");
                assert!(mark.marks.is_empty());
            }
        }
    }

    /// A terminal that panics once it has served more than `fuse` loads.
    #[derive(Debug, Clone, Default)]
    struct FusedMemory {
        counts: CountingMemory,
        fuse: Option<u64>,
    }

    impl MainMemory for FusedMemory {
        fn load(&mut self, addr: u64, bytes: u32) {
            self.counts.load(addr, bytes);
            if self.fuse.is_some_and(|f| self.counts.loads > f) {
                panic!("fuse blown");
            }
        }

        fn store(&mut self, addr: u64, bytes: u32) {
            self.counts.store(addr, bytes);
        }
    }

    #[test]
    fn group_walks_match_sequential_and_isolate_a_failed_walker() {
        let events = stream();
        let (seq_levels, seq_mem, seq_refs, seq_bytes) = sequential(&events);
        let fused = |fuse| FusedMemory {
            fuse,
            ..FusedMemory::default()
        };
        // L1 shared; L2 below it in every walk (a suffix dealt by cost),
        // or the whole hierarchy shared (terminal-only suffixes, inline)
        for split in [1, 2] {
            for lanes in [1usize, 2, 3] {
                let mut prefix = small_levels();
                let below = prefix.split_off(split);
                let walks = vec![
                    walk(below.clone(), fused(None)),
                    walk(below.clone(), fused(Some(10))),
                    walk(below, fused(None)),
                ];
                let mut sh = GroupWalk::group(prefix, walks, lanes, "memsim-test-walk");
                let case = format!("split={split} lanes={lanes}");
                let want_lanes = if split == 2 { 1 } else { lanes };
                assert_eq!(sh.lanes(), want_lanes, "{case}");
                for chunk in events.chunks(100) {
                    sh.access_chunk(chunk);
                }
                let runs = sh.finish_all();
                assert_eq!(runs.len(), 3);
                // the blown walker fails alone; its lane-mates finish the stream
                let payload = runs[1].as_ref().expect_err("walker 1 panicked");
                assert_eq!(payload.downcast_ref::<&str>(), Some(&"fuse blown"));
                for i in [0, 2] {
                    let run = runs[i]
                        .as_ref()
                        .unwrap_or_else(|_| panic!("walk {i} failed, {case}"));
                    assert_eq!(run.levels, seq_levels, "walk {i}, {case}");
                    assert_eq!(run.memory.counts, seq_mem, "walk {i}, {case}");
                    assert_eq!(run.total_refs, seq_refs, "walk {i}, {case}");
                    assert_eq!(run.demand_bytes, seq_bytes, "walk {i}, {case}");
                }
            }
        }
    }

    #[test]
    fn a_panicking_prefix_fails_every_walk_of_its_group() {
        let mut events = stream();
        events.insert(2500, TraceEvent::load(PREFIX_FUSE, 8));
        for lanes in [1usize, 2, 3] {
            let mut prefix = small_levels();
            let below = prefix.split_off(1);
            let walks = vec![
                walk(below.clone(), CountingMemory::default()),
                walk(Vec::new(), CountingMemory::default()),
                walk(below, CountingMemory::default()),
            ];
            let mut sh = GroupWalk::group(prefix, walks, lanes, "memsim-test-fuse");
            sh.access_chunk(&events);
            let runs = sh.finish_all();
            assert_eq!(runs.len(), 3);
            for (i, run) in runs.iter().enumerate() {
                let payload = run
                    .as_ref()
                    .expect_err("every walk shares the failed prefix");
                let text = panic_text(payload);
                assert!(
                    text.contains("prefix fuse blown"),
                    "walk {i}, lanes={lanes}: {text}"
                );
            }
        }
    }

    #[test]
    fn a_one_structure_group_spawns_one_lane() {
        // a terminal-only suffix runs on the prefix lane whatever the
        // lane budget
        for lanes in [1, 2, 4] {
            let sh = whole(small_levels(), lanes);
            assert_eq!(sh.lanes(), 1, "lanes={lanes}");
            finish_one(sh);
        }
    }

    /// Geometry of one random cache level: deeper levels get
    /// same-or-larger blocks and more sets, like every hierarchy the
    /// simulator models; about one level in seven is fully associative.
    fn random_levels(raw: &[(u32, u32, u32, u32)]) -> Vec<CacheConfig> {
        let mut min_block = 32u32;
        raw.iter()
            .enumerate()
            .map(|(i, &(block_sel, sets_log2, ways_log2, full_pct))| {
                let block = (32u32 << block_sel).max(min_block);
                min_block = block;
                let name = format!("L{}", i + 1);
                let sets = 1u64 << (sets_log2 + i as u32);
                if full_pct < 15 {
                    CacheConfig::fully_associative(&name, u64::from(block) * sets, block)
                } else {
                    let ways = 1u32 << ways_log2;
                    CacheConfig::new(
                        &name,
                        u64::from(block) * u64::from(ways) * sets,
                        block,
                        ways,
                    )
                }
            })
            .collect()
    }

    /// Decode one generated `(seed, shape, store)` triple into an event:
    /// in-block accesses, size-0 probes off and on block boundaries, and
    /// straddlers over two and four or more L1 blocks.
    fn random_event(seed: u64, shape: u8, store: bool, l1_block: u32) -> TraceEvent {
        let addr = seed % (1 << 20);
        let (addr, size) = match shape % 7 {
            0 | 1 => (addr, 1 + (seed % 16) as u32),
            2 => (addr, l1_block / 2),
            3 => (addr, 0),
            4 => (addr & !u64::from(l1_block - 1), 0),
            5 => (addr, l1_block + 1 + (seed % 64) as u32),
            _ => (addr, 3 * l1_block + (seed % 128) as u32),
        };
        let kind = if store {
            AccessKind::Store
        } else {
            AccessKind::Load
        };
        TraceEvent { addr, size, kind }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// The group walk of a shared prefix and per-walk suffixes counts
        /// exactly what one sequential hierarchy over all of a walk's
        /// levels counts, marks and drain included, at any lane count, for
        /// random geometries of one to four levels.
        #[test]
        fn prefix_and_suffix_walks_compose_to_the_whole_hierarchy(
            // (block selector, log2 sets, log2 ways, fully-associative percent)
            raw in proptest::collection::vec((0u32..3, 0u32..8, 0u32..4, 0u32..100), 1..5),
            split_sel in 0usize..4,
            lanes in 1usize..4,
            stream in proptest::collection::vec((0u64..(1 << 62), 0u8..7, 0u32..100), 50..1500),
            cuts in proptest::collection::vec(0usize..1500, 0..4),
        ) {
            let configs = random_levels(&raw);
            let split = 1 + split_sel % configs.len();
            // a second walk sectors its last level when that level lies
            // below the prefix and has room for L1-block sectors
            let l1_block = configs[0].block_bytes;
            let levels = |sectored: bool| {
                let last = configs.len() - 1;
                configs
                    .iter()
                    .enumerate()
                    .map(|(i, cfg)| {
                        let sector = sectored && i == last && i >= split && cfg.block_bytes > l1_block;
                        Cache::new(if sector { cfg.clone().with_sectors(l1_block) } else { cfg.clone() })
                    })
                    .collect::<Vec<Cache>>()
            };
            let events: Vec<TraceEvent> = stream
                .iter()
                .map(|&(seed, shape, store)| random_event(seed, shape, store < 30, l1_block))
                .collect();
            let mut cuts = cuts;
            cuts.iter_mut().for_each(|c| *c = (*c).min(events.len()));
            cuts.sort_unstable();
            let stats = |caches: &[Cache]| caches.iter().map(|c| c.stats()).collect::<Vec<_>>();
            let mut walks = Vec::new();
            let mut wants = Vec::new();
            for sectored in [true, false] {
                // the whole hierarchy, and the same levels as a prefix over
                // a `Below`, walked sequentially side by side
                let mut whole = Hierarchy::new(levels(sectored), CountingMemory::default());
                let mut upper = levels(sectored);
                let lower = Below::new(upper.split_off(split), CountingMemory::default());
                let mut composed = Hierarchy::new(upper, lower);
                let composed_stats = |h: &Hierarchy<Below<CountingMemory>>| {
                    let mut all = stats(h.levels());
                    all.extend(stats(h.memory().levels()));
                    all
                };
                let mut marks = Vec::new();
                let mut at = 0;
                for &cut in &cuts {
                    whole.access_chunk(&events[at..cut]);
                    composed.access_chunk(&events[at..cut]);
                    at = cut;
                    prop_assert_eq!(composed_stats(&composed), stats(whole.levels()));
                    marks.push((stats(whole.levels()), *whole.memory()));
                }
                whole.access_chunk(&events[at..]);
                composed.access_chunk(&events[at..]);
                whole.drain();
                composed.drain();
                whole.assert_consistent();
                prop_assert_eq!(composed_stats(&composed), stats(whole.levels()));
                prop_assert_eq!(composed.memory().memory(), whole.memory());
                walks.push(walk(levels(sectored).split_off(split), CountingMemory::default()));
                wants.push((stats(whole.levels()), *whole.memory(), whole.total_refs(), marks));
            }
            // the group walk: both hierarchies share the prefix
            let mut prefix = levels(false);
            prefix.truncate(split);
            let mut sh = GroupWalk::group(prefix, walks, lanes, "memsim-test-compose");
            let mut at = 0;
            for &cut in &cuts {
                sh.access_chunk(&events[at..cut]);
                at = cut;
                sh.mark();
            }
            sh.access_chunk(&events[at..]);
            for (run, (levels, memory, refs, marks)) in sh.finish_all().into_iter().zip(&wants) {
                let run = run.expect("the walk completes");
                prop_assert_eq!(&run.levels, levels);
                prop_assert_eq!(&run.memory, memory);
                prop_assert_eq!(run.total_refs, *refs);
                prop_assert_eq!(run.marks.len(), marks.len());
                for (mark, (levels, memory)) in run.marks.iter().zip(marks) {
                    prop_assert_eq!(&mark.levels, levels);
                    prop_assert_eq!(&mark.memory, memory);
                }
            }
        }
    }
}
