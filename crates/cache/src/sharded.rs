//! Set-sharded parallel front-end over [`Hierarchy`].
//!
//! Set-associative state is independent per set: two references that index
//! different sets at *every* level never read or write the same line, MRU
//! word, or replacement state. This module exploits that to run one
//! hierarchy replica per worker shard, each consuming only the slice of the
//! event stream whose addresses it owns, and to merge the per-shard
//! [`LevelStats`] into totals that are bit-identical to a sequential run.
//!
//! # Routing
//!
//! [`shard_class_bits`] intersects every level's set-index field (see
//! [`Cache::set_index_bits`]) into one address-bit range `[lo, hi)` that is
//! a sub-field of each of them. Addresses that differ in those bits index
//! different sets at every level, so the *class* `(addr >> lo) & mask`
//! partitions the stream into mutually non-interacting slices:
//!
//! * demand probes in different classes touch disjoint sets;
//! * a miss fill installs at the probed address's set — same class;
//! * an evicted victim shares its set (hence its class bits) with the block
//!   that displaced it, so writebacks walk down within the class too.
//!
//! A shard owns `class % nshards`. Per-class event order is preserved by
//! in-order queue delivery, so every `(level, set)` evolves exactly as it
//! would sequentially, and the merged stats follow by plain addition.
//!
//! # Fan-out
//!
//! The front-end implements [`TraceSink`]: it buffers events into chunks of
//! [`CHUNK_EVENTS`] and broadcasts each chunk (an `Arc<[TraceEvent]>`, so
//! the broadcast is a refcount bump, not a copy) to every shard's bounded
//! queue. Shards filter locally: a single-block event is kept only by its
//! owner, a block-straddling event is split at L1-block granularity exactly
//! like the sequential split loop with each part routed separately, and a
//! block-aligned size-0 event is dropped everywhere because the sequential
//! engine touches nothing for it. Shard-side filtering keeps the producer
//! branch-free and gives every worker a sequential scan over shared memory.
//!
//! # Group walks: one shared prefix, one suffix per hierarchy
//!
//! Cache statistics depend only on the stream and the geometry, so one
//! stream can feed many hierarchies at once. The hierarchy is
//! non-inclusive — fills and writebacks go down, nothing comes back up —
//! so hierarchies that share their top levels also share those levels'
//! state and the requests the last shared level sends below.
//! [`ShardedHierarchy::group`] therefore walks the shared *prefix* once
//! per address class and turns each chunk into a chunk of below-prefix
//! requests (fills as loads, writebacks as stores, in order); each
//! hierarchy's *suffix* — its own lower levels and terminal, a [`Below`] —
//! walks those requests exactly as its levels would have been walked from
//! the prefix's last level.
//!
//! A worker is a *lane*. A prefix lane walks one prefix replica, then the
//! suffixes of its class that run inline; a hop lane walks only suffixes,
//! fed request chunks through a bounded queue by the prefix lanes of their
//! classes. Suffixes are dealt by cost: a terminal-only suffix stays on
//! its prefix's lane, a suffix with levels goes to the least loaded of its
//! prefix's lane and the hop lanes. One hierarchy with one lane per replica
//! is the plain set-sharded engine. A suffix that panics is dropped with
//! its payload kept for [`ShardedHierarchy::finish_all`] and its lane-mates
//! finish the stream; a prefix that panics fails every hierarchy.
//!
//! A *mark* ([`ShardedHierarchy::mark`]) travels through the queues between
//! chunks, prefix lanes passing it on to their hop lanes after the
//! requests before it; every walker snapshots its counters there, and
//! replicas' snapshots merge like finals ([`ShardedRun::marks`]).
//!
//! # Work stealing — deliberately absent
//!
//! A shard's cache state is bound to its address classes, so no other
//! worker *can* take its work: stealing a chunk would mean probing sets
//! whose lines live in another replica.
//!
//! # Determinism
//!
//! [`ShardedHierarchy::finish_all`] joins the lanes and merges each
//! hierarchy's replicas in replica order with the saturating
//! [`LevelStats::merge`], so the merged totals are independent of thread
//! scheduling. Only telemetry that depends on
//! cross-class adjacency (line-buffer and MRU-ring hit splits) may differ
//! from the sequential engine; the ten `LevelStats` fields may not.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use memsim_obs::Counter;
use memsim_trace::{AccessKind, TraceEvent, TraceSink};

use crate::cache::Cache;
use crate::hierarchy::{Below, CountingMemory, Hierarchy, MainMemory};
use crate::probes::{HierarchyProbes, LevelProbes};
use crate::stats::LevelStats;

/// Events buffered per broadcast chunk — matches the trace-file chunk size
/// so replayed chunks forward without re-buffering.
pub const CHUNK_EVENTS: usize = 4096;

/// Chunks a shard queue may hold before the producer blocks; each is 64 KiB
/// held until the slowest lane has walked it. Eight keeps the busiest lane
/// fed while the producer waits for a core: with four, a Velvet mini replay
/// of three structures on two lanes (2-vCPU host) left its two-structure
/// lane waiting on an empty queue six times as often, and its wall time
/// spread about three times as wide from run to run.
const QUEUE_BOUND: usize = 8;

/// Cap on class bits: 2^16 classes is already far beyond any useful shard
/// count, and the cap keeps the class mask well-formed for degenerate
/// configurations with very wide common set-index fields.
const MAX_CLASS_BITS: u32 = 16;

/// Terminal memories that can fold a sibling shard replica's counters into
/// their own when a sharded run is merged.
///
/// Implementations must make merging equivalent to having observed both
/// replicas' traffic on one instance: counter fields add, configuration
/// fields (which are identical across replicas, as every shard is cloned
/// from one prototype) are kept. Shard replicas start from the same freshly
/// constructed state, so any non-zero initial counts would be double
/// counted — callers hand every [`Walk`] a new memory, exactly as they
/// would a sequential [`Hierarchy`].
pub trait ShardMerge {
    /// Fold `other`'s counters into `self`.
    fn merge_shard(&mut self, other: &Self);
}

impl ShardMerge for CountingMemory {
    fn merge_shard(&mut self, other: &Self) {
        self.loads = self.loads.saturating_add(other.loads);
        self.stores = self.stores.saturating_add(other.stores);
        self.bytes_loaded = self.bytes_loaded.saturating_add(other.bytes_loaded);
        self.bytes_stored = self.bytes_stored.saturating_add(other.bytes_stored);
    }
}

/// The address-bit range `[lo, hi)` usable for set sharding: the
/// intersection of every level's set-index field. `lo` is the widest block
/// offset, `hi` the smallest top of a set-index field, clamped so
/// `hi >= lo`. `hi == lo` (no common bits — e.g. a level with a single
/// set, or no levels at all) forces a single shard.
pub fn shard_class_bits(levels: &[Cache]) -> (u32, u32) {
    if levels.is_empty() {
        return (0, 0);
    }
    let mut lo = 0u32;
    let mut hi = u32::MAX;
    for c in levels {
        let (l, h) = c.set_index_bits();
        lo = lo.max(l);
        hi = hi.min(h);
    }
    (lo, hi.max(lo))
}

/// Per-shard routing data: which events this shard keeps out of a
/// broadcast chunk.
#[derive(Clone, Copy)]
struct ShardFilter {
    class_shift: u32,
    class_mask: u64,
    nshards: u64,
    shard: u64,
    l1_shift: u32,
    /// With one shard the filter forwards chunks unmodified: shard 0 *is*
    /// the sequential engine (this also covers cache-less hierarchies,
    /// where there is no block size to split against).
    pass_through: bool,
}

impl ShardFilter {
    #[inline]
    fn owns(&self, addr: u64) -> bool {
        ((addr >> self.class_shift) & self.class_mask) % self.nshards == self.shard
    }

    /// Copy this shard's slice of `events` into `out`, splitting
    /// block-straddlers exactly like the sequential split loop.
    fn filter_chunk(&self, events: &[TraceEvent], out: &mut Vec<TraceEvent>) {
        out.clear();
        for &ev in events {
            let first = ev.addr >> self.l1_shift;
            let last = ev.end().saturating_sub(1) >> self.l1_shift;
            if first == last {
                // Single block, including the unaligned size-0 probe: the
                // sequential engine probes block `first`, so its owner does.
                if self.owns(ev.addr) {
                    out.push(ev);
                }
            } else if ev.size == 0 {
                // Block-aligned size-0: the sequential split loop touches
                // nothing, so no shard sees it.
            } else {
                // Straddler: split at L1-block granularity exactly as the
                // sequential engine does, keeping only own-class parts.
                // Classes cannot split finer than L1 blocks, so each part
                // has exactly one owner.
                let block = 1u64 << self.l1_shift;
                let mask = block - 1;
                let mut addr = ev.addr;
                let mut remaining = u64::from(ev.size);
                while remaining > 0 {
                    let in_block = (block - (addr & mask)).min(remaining);
                    if self.owns(addr) {
                        out.push(TraceEvent {
                            addr,
                            size: in_block as u32,
                            kind: ev.kind,
                        });
                    }
                    addr += in_block;
                    remaining -= in_block;
                }
            }
        }
    }
}

/// A message to one lane.
enum Msg {
    /// Demand events, for a prefix lane: its replica walks its own slice.
    Chunk(Arc<[TraceEvent]>),
    /// The requests prefix replica `.0` sent below for one chunk, for a
    /// hop lane.
    Requests(usize, Arc<[TraceEvent]>),
    /// Snapshot the counters of every walker of class `.0` (on a prefix
    /// lane, all of its walkers).
    Mark(usize),
    /// End of one source's stream. A prefix lane drains and exits; a hop
    /// lane exits once every prefix lane feeding it has flushed.
    Flush,
}

struct QueueInner {
    buf: VecDeque<Msg>,
    /// Set by a panicking or finished lane so its producers stop blocking
    /// on a queue nobody will ever drain; a panic itself resurfaces at join.
    poisoned: bool,
}

/// A bounded MPSC channel built on `Mutex` + `Condvar` (the workspace has
/// no channel dependency, and two condvars are all this needs).
struct ShardQueue {
    inner: Mutex<QueueInner>,
    not_empty: Condvar,
    not_full: Condvar,
}

impl ShardQueue {
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
        let inner = self.inner.lock().expect("shard queue lock poisoned");
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

/// Per-replica observability handles of a multi-replica prefix (only
/// built when a walk has a registry prefix and the global registry is
/// enabled).
struct ShardObs {
    /// `{prefix}.shard{i}.claims`, one per walk prefix.
    claims: Vec<Arc<Counter>>,
    events: Arc<Counter>,
    total_events: Arc<Counter>,
}

/// The payload of a panic caught inside a lane, kept whole so a
/// one-hierarchy run can re-raise it unchanged.
pub type WalkPanic = Box<dyn Any + Send + 'static>;

/// The text of a panic payload, for the walks that share a failed prefix.
fn panic_text(payload: &WalkPanic) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "the shared prefix walk panicked".to_string()
    }
}

/// One hierarchy of a [`ShardedHierarchy::group`] walk: the levels below
/// the group's shared prefix, and a terminal.
pub struct Walk<M> {
    /// The cache levels below the prefix, top-down (none when the prefix's
    /// last level sits directly over the terminal); cloned into every
    /// replica.
    pub levels: Vec<Cache>,
    /// A freshly constructed terminal memory, cloned into every replica
    /// (see [`ShardMerge`] for why it must be fresh).
    pub memory: M,
    /// Registry prefix for this hierarchy's telemetry. With one replica
    /// the prefix publishes the sequential engine's [`HierarchyProbes`]
    /// under it, and the suffix levels publish theirs at drain; several
    /// replicas publish per-replica `{prefix}.shard{i}.claims` counters.
    pub obs_prefix: Option<String>,
    /// Flight-recorder span around this hierarchy's share of every request
    /// chunk, on the lane that walks it.
    pub span: String,
}

/// The merged outcome of a sharded run: per-level stats, terminal memory,
/// and stream totals, all summed across shards in shard order.
#[derive(Debug, Clone)]
pub struct ShardedRun<M> {
    /// Per-level statistics, top-down (the shared prefix's levels, then
    /// the walk's own), bit-identical to a sequential run over the same
    /// stream.
    pub levels: Vec<LevelStats>,
    /// The merged terminal memory.
    pub memory: M,
    /// Total demand references consumed (Equation 2's denominator).
    pub total_refs: u64,
    /// Total demand bytes moved by the reference stream.
    pub demand_bytes: u64,
    /// Line-buffer fast-path hits summed across shards. Telemetry only:
    /// the split between buffer re-hits and full probes depends on
    /// cross-class adjacency, so it legitimately differs from sequential.
    pub line_buffer_hits: u64,
    /// The (undrained) counters at every [`ShardedHierarchy::mark`], in
    /// the order sent.
    pub marks: Vec<ShardedRun<M>>,
}

impl<M: ShardMerge> ShardedRun<M> {
    /// Fold a sibling replica's counters into this one, mark by mark.
    fn merge(&mut self, other: &Self) {
        debug_assert_eq!(self.levels.len(), other.levels.len());
        for (acc, s) in self.levels.iter_mut().zip(&other.levels) {
            acc.merge(s);
        }
        self.memory.merge_shard(&other.memory);
        self.total_refs = self.total_refs.saturating_add(other.total_refs);
        self.demand_bytes = self.demand_bytes.saturating_add(other.demand_bytes);
        self.line_buffer_hits = self.line_buffer_hits.saturating_add(other.line_buffer_hits);
        for (acc, m) in self.marks.iter_mut().zip(&other.marks) {
            acc.merge(m);
        }
    }
}

/// A prefix replica's terminal: every request its last level sends below,
/// in order, a fill as a load and a writeback as a store.
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

impl ShardedRun<()> {
    /// A prefix replica's counters as they stand.
    fn of_prefix(hierarchy: &Hierarchy<RequestLog>) -> Self {
        ShardedRun {
            levels: hierarchy.levels().iter().map(|c| c.stats()).collect(),
            memory: (),
            total_refs: hierarchy.total_refs(),
            demand_bytes: hierarchy.demand_bytes(),
            line_buffer_hits: hierarchy.line_buffer_hits(),
            marks: Vec::new(),
        }
    }

    /// A whole walk's counters: this prefix replica's, then its suffix's
    /// own levels and terminal, mark by mark.
    fn join<M>(&self, suffix: ShardedRun<M>) -> ShardedRun<M> {
        ShardedRun {
            levels: self.levels.iter().cloned().chain(suffix.levels).collect(),
            memory: suffix.memory,
            total_refs: self.total_refs,
            demand_bytes: self.demand_bytes,
            line_buffer_hits: self.line_buffer_hits,
            marks: self
                .marks
                .iter()
                .zip(suffix.marks)
                .map(|(p, s)| p.join(s))
                .collect(),
        }
    }
}

impl<M: MainMemory + Clone> ShardedRun<M> {
    /// A suffix replica's counters as they stand (its levels and terminal;
    /// the stream totals are its prefix's).
    fn of_suffix(below: &Below<M>) -> Self {
        ShardedRun {
            levels: below.levels().iter().map(|c| c.stats()).collect(),
            memory: below.memory().clone(),
            total_refs: 0,
            demand_bytes: 0,
            line_buffer_hits: 0,
            marks: Vec::new(),
        }
    }
}

/// One prefix replica: the shared levels over a request log, walking one
/// address class of every chunk.
struct PrefixWalker {
    replica: usize,
    /// The replica, or the panic that stopped it. A failed prefix fails
    /// every walk of the group.
    state: Result<Hierarchy<RequestLog>, WalkPanic>,
    filter: ShardFilter,
    obs: Option<ShardObs>,
    marks: Vec<ShardedRun<()>>,
}

/// Flight-recorder span around a prefix replica's walk of one chunk.
const PREFIX_SPAN: &str = "walk.prefix";

impl PrefixWalker {
    /// Walk this replica's slice of `events` into the request log; returns
    /// the events it kept.
    fn step(
        &mut self,
        events: &[TraceEvent],
        slice: &mut Vec<TraceEvent>,
        recording: bool,
    ) -> usize {
        let Ok(hierarchy) = &mut self.state else {
            return 0;
        };
        if recording {
            memsim_obs::recorder::span_begin(PREFIX_SPAN);
        }
        let filter = self.filter;
        let kept = panic::catch_unwind(AssertUnwindSafe(|| {
            if filter.pass_through {
                hierarchy.access_chunk(events);
                events.len()
            } else {
                filter.filter_chunk(events, slice);
                hierarchy.access_chunk(slice);
                slice.len()
            }
        }));
        if recording {
            memsim_obs::recorder::span_end(PREFIX_SPAN);
        }
        match kept {
            Ok(kept) => {
                if let Some(o) = &self.obs {
                    for c in &o.claims {
                        c.inc();
                    }
                    o.events.add(kept as u64);
                    o.total_events.add(kept as u64);
                }
                kept
            }
            Err(payload) => {
                self.state = Err(payload);
                0
            }
        }
    }

    /// Hand the requests logged since the last delivery to this class's
    /// suffixes: one shared chunk to every hop lane first, so they start
    /// while this lane walks the `inline` ones.
    fn deliver<M: MainMemory + Clone>(
        &mut self,
        inline: &mut [SuffixWalker<M>],
        hops: &[Arc<ShardQueue>],
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
                q.push(Msg::Requests(self.replica, Arc::clone(&shared)));
            }
        }
        for s in inline {
            s.step(requests, recording);
        }
        requests.clear();
    }

    fn mark(&mut self) {
        if let Ok(hierarchy) = &self.state {
            self.marks.push(ShardedRun::of_prefix(hierarchy));
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

    fn finish(self) -> (usize, WalkResult<()>) {
        let marks = self.marks;
        let run = self.state.map(|hierarchy| ShardedRun {
            marks,
            ..ShardedRun::of_prefix(&hierarchy)
        });
        (self.replica, run)
    }
}

/// One suffix replica: a walk's own levels and terminal, fed the requests
/// of the prefix replica of its class.
struct SuffixWalker<M> {
    walk: usize,
    replica: usize,
    /// The replica, or the panic that stopped it: a failed suffix skips
    /// the rest of the stream while its lane-mates carry on.
    state: Result<Below<M>, WalkPanic>,
    span: Arc<str>,
    /// Registry handles of the suffix levels, published once at drain.
    probes: Vec<LevelProbes>,
    marks: Vec<ShardedRun<M>>,
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
            self.marks.push(ShardedRun::of_suffix(below));
        }
    }

    /// Drain the replica and harvest its counters.
    fn finish(self) -> (usize, usize, WalkResult<M>) {
        let (marks, probes) = (self.marks, self.probes);
        let run = self.state.and_then(|mut below| {
            panic::catch_unwind(AssertUnwindSafe(move || {
                below.drain();
                below.assert_consistent();
                for (probe, cache) in probes.iter().zip(below.levels()) {
                    probe.publish(&cache.counter_values());
                }
                ShardedRun {
                    marks,
                    ..ShardedRun::of_suffix(&below)
                }
            }))
        });
        (self.walk, self.replica, run)
    }
}

/// One lane thread's walkers. A *prefix lane* carries one prefix replica
/// and the suffixes of its class that run inline; a *hop lane* carries
/// suffixes only, fed request chunks by the prefix lanes of their classes.
struct Lane<M> {
    prefix: Option<PrefixWalker>,
    suffixes: Vec<SuffixWalker<M>>,
    /// The hop lanes this lane's prefix feeds.
    hops: Vec<Arc<ShardQueue>>,
    /// Flushes to receive before exiting: one on a prefix lane, one per
    /// feeding prefix lane on a hop lane.
    sources: usize,
}

/// What a lane hands back at the end.
struct LaneOut<M> {
    prefix: Option<(usize, WalkResult<()>)>,
    suffixes: Vec<(usize, usize, WalkResult<M>)>,
}

impl<M: MainMemory + Clone> Lane<M> {
    /// Snapshot the walkers of class `replica` (a prefix lane's own class
    /// is its queue's index), passing the mark on to the hop lanes.
    fn mark(&mut self, replica: usize) {
        if let Some(prefix) = &mut self.prefix {
            prefix.mark();
            for q in &self.hops {
                q.push(Msg::Mark(replica));
            }
        }
        for s in self.suffixes.iter_mut().filter(|s| s.replica == replica) {
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

fn run_lane<M: MainMemory + Clone>(mut lane: Lane<M>, queue: &ShardQueue) -> LaneOut<M> {
    let mut slice: Vec<TraceEvent> = Vec::with_capacity(CHUNK_EVENTS);
    let mut flushed = 0;
    while flushed < lane.sources {
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
                    .expect("events reach prefix lanes only");
                let kept = prefix.step(&events, &mut slice, recording);
                prefix.deliver(&mut lane.suffixes, &lane.hops, recording);
                kept
            }
            Msg::Requests(replica, requests) => {
                for s in lane.suffixes.iter_mut().filter(|s| s.replica == replica) {
                    s.step(&requests, recording);
                }
                requests.len()
            }
            Msg::Mark(replica) => {
                lane.mark(replica);
                continue;
            }
            Msg::Flush => {
                flushed += 1;
                continue;
            }
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

/// Relative per-chunk cost of a prefix replica, against
/// [`SUFFIX_COST`], for dealing suffixes over lanes. A prefix probes L1
/// for every event and walks L2 and L3 for their misses; a suffix walks
/// only the requests that get past L3 (8–19% of references on most
/// workloads, 56–61% on Hash and Velvet).
const PREFIX_COST: u32 = 8;

/// Relative per-chunk cost of a suffix with cache levels. A terminal-only
/// suffix is cheaper than a queue hop and always runs on its prefix's lane.
const SUFFIX_COST: u32 = 1;

/// Parallel drop-in for [`Hierarchy`]: implements [`TraceSink`], fans
/// chunks out to lane threads that walk set-bound hierarchy replicas, and
/// merges each hierarchy's replicas into a [`ShardedRun`] whose
/// `LevelStats` are bit-identical to the sequential engine's.
///
/// [`Self::group`] walks one or more hierarchies that share their top
/// levels from the same stream: the shared prefix once per address class,
/// each hierarchy's own levels below it once per walk. The replica count
/// is capped at the number of address classes every level supports
/// ([`shard_class_bits`]); with one replica the prefix runs the unmodified
/// sequential engine, so degenerate configurations (cache-less
/// hierarchies, single-set levels) stay correct.
pub struct ShardedHierarchy<M> {
    /// The prefix lanes' queues: the producer feeds these only.
    queues: Vec<Arc<ShardQueue>>,
    /// Every lane: the prefix lanes, then the hop lanes.
    workers: Vec<JoinHandle<LaneOut<M>>>,
    walks: usize,
    buf: Vec<TraceEvent>,
    result: Option<Vec<WalkResult<M>>>,
    chunks: Option<Arc<Counter>>,
}

/// One replica's (or one merged walk's) outcome.
type WalkResult<M> = Result<ShardedRun<M>, WalkPanic>;

impl<M: MainMemory + ShardMerge + Clone + Send + 'static> ShardedHierarchy<M> {
    /// Walk every hierarchy `prefix ++ walk.levels` over `walk.memory`
    /// from one stream, over at most `lanes` lane threads named
    /// `{lane_name}{i}`. Finish with [`Self::finish_all`].
    ///
    /// The shared `prefix` levels are walked by `min(shards, lanes,
    /// classes)` class-filtered replicas, one per *prefix lane*; each
    /// turns its slice of every chunk into the requests its last level
    /// sends below (fills and writebacks, in order). Every walk has one
    /// *suffix* replica per class, which walks that class's requests
    /// through the walk's own levels and terminal. A terminal-only suffix
    /// runs on its prefix's lane; a suffix with levels is dealt by cost to
    /// its prefix's lane or to a *hop lane*, which its prefix lane feeds
    /// request chunks through a bounded queue. A panic in a suffix fails
    /// that walk alone; a panic in the prefix fails every walk.
    ///
    /// With a walk's `obs_prefix` set and the global registry enabled, one
    /// prefix replica publishes the sequential engine's probes under every
    /// such prefix (and counts `progress.events` once per event), and each
    /// suffix publishes its levels at drain; several replicas register
    /// per-replica `{prefix}.shard{i}.claims` plus
    /// `progress.shard{i}.events`, `progress.events`, and
    /// `progress.chunks`.
    pub fn group(
        prefix: Vec<Cache>,
        walks: Vec<Walk<M>>,
        shards: usize,
        lanes: usize,
        lane_name: &str,
    ) -> Self {
        let reg = memsim_obs::global();
        let nwalks = walks.len();
        let (lo, hi) = walks
            .iter()
            .filter(|w| !w.levels.is_empty())
            .map(|w| shard_class_bits(&w.levels))
            .fold(shard_class_bits(&prefix), |(lo, hi), (l, h)| {
                (lo.max(l), hi.min(h))
            });
        let classes = 1u64 << (hi.max(lo) - lo).min(MAX_CLASS_BITS);
        let lanes = lanes.max(1);
        let replicas = shards.max(1).min(lanes).min(classes as usize);
        let obs_prefixes: Vec<&str> = walks
            .iter()
            .filter_map(|w| w.obs_prefix.as_deref())
            .filter(|_| memsim_obs::enabled())
            .collect();
        let chunks =
            (replicas > 1 && !obs_prefixes.is_empty()).then(|| reg.counter("progress.chunks"));
        let names: Vec<&str> = prefix.iter().map(|c| c.config().name.as_str()).collect();
        let l1_shift = prefix.first().map_or(0, |c| c.set_index_bits().0);
        let mut dealt: Vec<Lane<M>> = (0..lanes)
            .map(|i| Lane {
                prefix: (i < replicas).then(|| {
                    let mut hierarchy = Hierarchy::new(prefix.clone(), RequestLog::default());
                    let obs = match obs_prefixes.as_slice() {
                        [] => None,
                        prefixes if replicas == 1 => {
                            let probes = HierarchyProbes::register_shared(reg, prefixes, &names);
                            hierarchy.set_probes(probes);
                            None
                        }
                        prefixes => Some(ShardObs {
                            claims: prefixes
                                .iter()
                                .map(|p| reg.counter(&format!("{p}.shard{i}.claims")))
                                .collect(),
                            events: reg.counter(&format!("progress.shard{i}.events")),
                            total_events: reg.counter("progress.events"),
                        }),
                    };
                    PrefixWalker {
                        replica: i,
                        state: Ok(hierarchy),
                        filter: ShardFilter {
                            class_shift: lo,
                            class_mask: classes - 1,
                            nshards: replicas as u64,
                            shard: i as u64,
                            l1_shift,
                            pass_through: replicas == 1,
                        },
                        obs,
                        marks: Vec::new(),
                    }
                }),
                suffixes: Vec::new(),
                hops: Vec::new(),
                sources: usize::from(i < replicas),
            })
            .collect();
        // Deal the suffixes: a terminal-only one to its prefix's lane, one
        // with levels to the least loaded of its prefix's lane and the hop
        // lanes (ties to the lowest lane, so inline first).
        let mut load: Vec<u32> = (0..lanes)
            .map(|i| if i < replicas { PREFIX_COST } else { 0 })
            .collect();
        for (w, walk) in walks.into_iter().enumerate() {
            let span: Arc<str> = Arc::from(walk.span);
            let level_names: Vec<&str> = walk
                .levels
                .iter()
                .map(|c| c.config().name.as_str())
                .collect();
            let probes: Vec<LevelProbes> = match walk.obs_prefix.as_deref() {
                Some(p) if replicas == 1 && memsim_obs::enabled() => level_names
                    .iter()
                    .map(|name| LevelProbes::register(reg, &format!("{p}.{name}")))
                    .collect(),
                _ => Vec::new(),
            };
            for i in 0..replicas {
                let lane = if walk.levels.is_empty() {
                    i
                } else {
                    let lane = std::iter::once(i)
                        .chain(replicas..lanes)
                        .min_by_key(|&l| (load[l], l))
                        .expect("a suffix's own prefix lane is a candidate");
                    load[lane] += SUFFIX_COST;
                    lane
                };
                dealt[lane].suffixes.push(SuffixWalker {
                    walk: w,
                    replica: i,
                    state: Ok(Below::new(walk.levels.clone(), walk.memory.clone())),
                    span: Arc::clone(&span),
                    probes: probes.clone(),
                    marks: Vec::new(),
                });
            }
        }
        // Spawn the prefix lanes and every hop lane that got a suffix; a
        // prefix lane feeds each hop lane carrying a suffix of its class.
        dealt.retain(|lane| lane.prefix.is_some() || !lane.suffixes.is_empty());
        let queues: Vec<Arc<ShardQueue>> =
            dealt.iter().map(|_| Arc::new(ShardQueue::new())).collect();
        for h in replicas..dealt.len() {
            let mut fed: Vec<usize> = dealt[h].suffixes.iter().map(|s| s.replica).collect();
            fed.sort_unstable();
            fed.dedup();
            dealt[h].sources = fed.len();
            for i in fed {
                dealt[i].hops.push(Arc::clone(&queues[h]));
            }
        }
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
            queues: queues.into_iter().take(replicas).collect(),
            workers,
            walks: nwalks,
            buf: Vec::with_capacity(CHUNK_EVENTS),
            result: None,
            chunks,
        }
    }

    /// The lane (worker thread) count: for one hierarchy with a lane per
    /// replica, the effective shard count after class capping.
    pub fn shards(&self) -> usize {
        self.workers.len()
    }

    /// Snapshot every walker's counters after the events delivered so far
    /// (see [`ShardedRun::marks`]).
    pub fn mark(&mut self) {
        self.broadcast_buf();
        for (i, q) in self.queues.iter().enumerate() {
            q.push(Msg::Mark(i));
        }
    }

    fn send(&self, chunk: Arc<[TraceEvent]>) {
        for q in &self.queues {
            q.push(Msg::Chunk(Arc::clone(&chunk)));
        }
        if let Some(c) = &self.chunks {
            c.inc();
        }
    }

    fn broadcast_buf(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        let chunk: Arc<[TraceEvent]> = Arc::from(self.buf.as_slice());
        self.buf.clear();
        self.send(chunk);
    }

    /// Flush buffered events, stop the lanes, and merge every walk's
    /// replicas in replica order. Idempotent via the cached result; a lane
    /// that panicked outside its walkers is re-raised here (after every
    /// lane has been joined).
    fn finish_inner(&mut self) {
        if self.result.is_some() || self.workers.is_empty() {
            return;
        }
        self.broadcast_buf();
        for q in &self.queues {
            q.push_flush();
        }
        let mut prefixes: Vec<(usize, WalkResult<()>)> = Vec::new();
        let mut suffixes: Vec<Vec<(usize, WalkResult<M>)>> =
            (0..self.walks).map(|_| Vec::new()).collect();
        let mut panic_payload = None;
        for handle in self.workers.drain(..) {
            match handle.join() {
                Ok(out) => {
                    prefixes.extend(out.prefix);
                    for (walk, replica, run) in out.suffixes {
                        suffixes[walk].push((replica, run));
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
        prefixes.sort_by_key(|(replica, _)| *replica);
        let prefixes: Result<Vec<ShardedRun<()>>, WalkPanic> =
            prefixes.into_iter().map(|(_, run)| run).collect();
        let prefixes = match prefixes {
            Ok(prefixes) => prefixes,
            Err(payload) => {
                // a failed prefix fails every walk: the first keeps the
                // payload, the rest carry its text
                let text = panic_text(&payload);
                let mut first = Some(payload);
                let failed = (0..self.walks).map(|_| {
                    Err(first
                        .take()
                        .unwrap_or_else(|| Box::new(text.clone()) as WalkPanic))
                });
                self.result = Some(failed.collect());
                return;
            }
        };
        let merged = suffixes.into_iter().map(|mut reps| {
            reps.sort_by_key(|(replica, _)| *replica);
            let mut runs = reps
                .into_iter()
                .map(|(replica, run)| run.map(|suffix| prefixes[replica].join(suffix)));
            let first = runs.next().expect("every walk has a replica");
            runs.fold(first, |acc, run| match (acc, run) {
                (Ok(mut acc), Ok(run)) => {
                    acc.merge(&run);
                    Ok(acc)
                }
                (Err(e), _) | (Ok(_), Err(e)) => Err(e),
            })
        });
        self.result = Some(merged.collect());
    }

    /// Consume the engine and return every walk's merged run, in walk
    /// order. Drives the flush handshake if [`TraceSink::flush`] was not
    /// already called. A walk whose suffix panicked yields that panic's
    /// payload, and the other walks are unaffected; a panic in the shared
    /// prefix fails every walk.
    pub fn finish_all(mut self) -> Vec<Result<ShardedRun<M>, WalkPanic>> {
        self.finish_inner();
        self.result
            .take()
            .expect("sharded hierarchy yields merged results after flush")
    }
}

impl<M: MainMemory + ShardMerge + Clone + Send + 'static> TraceSink for ShardedHierarchy<M> {
    fn access(&mut self, ev: TraceEvent) {
        self.buf.push(ev);
        if self.buf.len() >= CHUNK_EVENTS {
            self.broadcast_buf();
        }
    }

    fn access_chunk(&mut self, events: &[TraceEvent]) {
        // Replay delivers full-size chunks; forward those without
        // re-buffering (the Arc build is the only copy).
        if self.buf.is_empty() && events.len() >= CHUNK_EVENTS {
            self.send(Arc::from(events));
            return;
        }
        self.buf.extend_from_slice(events);
        if self.buf.len() >= CHUNK_EVENTS {
            self.broadcast_buf();
        }
    }

    fn flush(&mut self) {
        self.finish_inner();
    }
}

impl<M> Drop for ShardedHierarchy<M> {
    fn drop(&mut self) {
        if self.workers.is_empty() {
            return;
        }
        // Abandoned without finish_all(): stop the prefix lanes (they pass
        // the flush on to the hop lanes) without blocking on full queues,
        // and swallow join results — a lane panic must not double-panic
        // during unwinding.
        for q in &self.queues {
            q.push_flush();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheConfig;
    use proptest::prelude::*;

    /// A prefix replica panics when it sends a fill of this block below.
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

    /// One hierarchy walked by `shards` replicas, one lane each.
    fn sharded(levels: Vec<Cache>, shards: usize) -> ShardedHierarchy<CountingMemory> {
        let walks = vec![walk(Vec::new(), CountingMemory::default())];
        ShardedHierarchy::group(levels, walks, shards, shards, "memsim-shard")
    }

    fn finish_one(sh: ShardedHierarchy<CountingMemory>) -> ShardedRun<CountingMemory> {
        let mut runs = sh.finish_all();
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
    fn class_bits_intersect_levels() {
        let levels = small_levels();
        // L1: 1024/64/2 -> 8 sets, offset 6, index [6, 9)
        // L2: 4096/64/4 -> 16 sets, index [6, 10)
        assert_eq!(shard_class_bits(&levels), (6, 9));
        assert_eq!(shard_class_bits(&[]), (0, 0));
    }

    #[test]
    fn sharded_matches_sequential() {
        let events = stream();
        let (seq_levels, seq_mem, seq_refs, seq_bytes) = sequential(&events);
        for shards in [1usize, 2, 3, 8, 64] {
            let mut sh = sharded(small_levels(), shards);
            assert!(sh.shards() >= 1 && sh.shards() <= 8); // 3 class bits
            for chunk in events.chunks(100) {
                sh.access_chunk(chunk);
            }
            let run = finish_one(sh);
            assert_eq!(run.levels, seq_levels, "shards={shards}");
            assert_eq!(run.memory, seq_mem, "shards={shards}");
            assert_eq!(run.total_refs, seq_refs, "shards={shards}");
            assert_eq!(run.demand_bytes, seq_bytes, "shards={shards}");
        }
    }

    #[test]
    fn uncached_hierarchy_collapses_to_one_shard() {
        let events = stream();
        let mut seq = Hierarchy::new(Vec::new(), CountingMemory::default());
        seq.access_chunk(&events);
        seq.drain();
        let mut sh = sharded(Vec::new(), 4);
        assert_eq!(sh.shards(), 1);
        sh.access_chunk(&events);
        let run = finish_one(sh);
        assert_eq!(run.memory, *seq.memory());
        assert_eq!(run.total_refs, seq.total_refs());
    }

    #[test]
    fn drop_without_finish_joins_workers() {
        let sh = sharded(small_levels(), 2);
        drop(sh); // must not hang or panic
                  // a group with a hop lane stops it through its prefix lane
        let walks = vec![walk(
            vec![small_levels().remove(1)],
            CountingMemory::default(),
        )];
        let mut sh = ShardedHierarchy::group(vec![small_levels().remove(0)], walks, 1, 2, "t");
        assert_eq!(sh.shards(), 2);
        sh.access_chunk(&stream());
        drop(sh);
    }

    #[test]
    fn flush_then_finish_is_idempotent() {
        let events = stream();
        let mut sh = sharded(small_levels(), 2);
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
        for (split, shards, lanes) in [
            (2, 1, 1),
            (2, 2, 2),
            (2, 3, 3),
            (1, 1, 1),
            (1, 1, 2),
            (1, 2, 3),
        ] {
            let mut levels = small_levels();
            let below = levels.split_off(split);
            let walks = vec![walk(below, CountingMemory::default())];
            let mut sh = ShardedHierarchy::group(levels, walks, shards, lanes, "memsim-test-mark");
            let mut at = 0;
            for &cut in &cuts {
                sh.access_chunk(&events[at..cut]);
                at = cut;
                sh.mark();
            }
            let run = finish_one(sh);
            let case = format!("split={split} shards={shards} lanes={lanes}");
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

    impl ShardMerge for FusedMemory {
        fn merge_shard(&mut self, other: &Self) {
            self.counts.merge_shard(&other.counts);
        }
    }

    #[test]
    fn group_walks_match_sequential_and_isolate_a_failed_walker() {
        let events = stream();
        let (seq_levels, seq_mem, seq_refs, _) = sequential(&events);
        let fused = |fuse| FusedMemory {
            fuse,
            ..FusedMemory::default()
        };
        // L1 shared; L2 below it in every walk (a suffix dealt by cost),
        // or the whole hierarchy shared (terminal-only suffixes, inline)
        for split in [1, 2] {
            for (shards, lanes) in [(1usize, 1usize), (1, 2), (1, 3), (2, 2), (2, 3)] {
                let mut prefix = small_levels();
                let below = prefix.split_off(split);
                let walks = vec![
                    walk(below.clone(), fused(None)),
                    walk(below.clone(), fused(Some(10))),
                    walk(below, fused(None)),
                ];
                let mut sh =
                    ShardedHierarchy::group(prefix, walks, shards, lanes, "memsim-test-walk");
                let case = format!("split={split} shards={shards} lanes={lanes}");
                let want_lanes = if split == 2 { shards } else { lanes };
                assert_eq!(sh.shards(), want_lanes, "{case}");
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
                }
            }
        }
    }

    #[test]
    fn a_panicking_prefix_fails_every_walk_of_its_group() {
        let mut events = stream();
        events.insert(2500, TraceEvent::load(PREFIX_FUSE, 8));
        for (shards, lanes) in [(1usize, 1usize), (1, 2), (2, 2), (2, 3)] {
            let mut prefix = small_levels();
            let below = prefix.split_off(1);
            let walks = vec![
                walk(below.clone(), CountingMemory::default()),
                walk(Vec::new(), CountingMemory::default()),
                walk(below, CountingMemory::default()),
            ];
            let mut sh = ShardedHierarchy::group(prefix, walks, shards, lanes, "memsim-test-fuse");
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
                    "walk {i}, shards={shards} lanes={lanes}: {text}"
                );
            }
        }
    }

    #[test]
    fn a_one_structure_group_at_one_shard_spawns_one_lane() {
        // a terminal-only suffix runs on its prefix's lane whatever the
        // lane budget
        for lanes in [1, 2, 4] {
            let walks = vec![walk(Vec::new(), CountingMemory::default())];
            let sh = ShardedHierarchy::group(small_levels(), walks, 1, lanes, "memsim-test-one");
            assert_eq!(sh.shards(), 1, "lanes={lanes}");
            finish_one(sh);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// The group walk of a shared prefix and per-walk suffixes counts
        /// exactly what one sequential hierarchy over all of a walk's
        /// levels counts, marks and drain included, at any replica and
        /// lane count.
        #[test]
        fn prefix_and_suffix_walks_compose_to_the_whole_hierarchy(
            split in 1usize..4,
            shards in 1usize..3,
            lanes in 1usize..4,
            page_log in 6u32..10,
            ops in proptest::collection::vec((0u64..(1 << 17), 0u8..8), 50..1500),
            cuts in proptest::collection::vec(0usize..1500, 0..4),
        ) {
            let levels = |sectored: bool| {
                let mut caches = vec![
                    Cache::new(CacheConfig::new("L1", 512, 64, 2)),
                    Cache::new(CacheConfig::new("L2", 2048, 64, 2)),
                    Cache::new(CacheConfig::new("L3", 8192, 64, 4)),
                ];
                let page = 1u32 << page_log;
                let mut cfg = CacheConfig::new("L4", u64::from(page) * 64, page, 4);
                if sectored && page > 64 {
                    cfg = cfg.with_sectors(64);
                }
                caches.push(Cache::new(cfg));
                caches
            };
            let events: Vec<TraceEvent> = ops
                .iter()
                .map(|&(addr, sel)| {
                    let kind = if sel % 3 == 0 { AccessKind::Store } else { AccessKind::Load };
                    let size = match sel { 0 => 0, 1 => 96, _ => 8 };
                    TraceEvent { addr, size, kind }
                })
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
                prop_assert_eq!(composed_stats(&composed), stats(whole.levels()));
                prop_assert_eq!(composed.memory().memory(), whole.memory());
                walks.push(walk(levels(sectored).split_off(split), CountingMemory::default()));
                wants.push((stats(whole.levels()), *whole.memory(), whole.total_refs(), marks));
            }
            // the group walk: both hierarchies share the prefix
            let mut prefix = levels(true);
            prefix.truncate(split);
            let mut sh = ShardedHierarchy::group(prefix, walks, shards, lanes, "memsim-test-compose");
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
