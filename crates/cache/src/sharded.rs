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
//! # Group walks
//!
//! Cache statistics depend only on the stream and the geometry, so one
//! stream can feed many hierarchies at once. A worker is a *lane*: a
//! thread carrying one or more walkers, each a (hierarchy replica, class
//! filter) pair. [`ShardedHierarchy::group`] deals the replicas of one or
//! more hierarchies round-robin over a fixed lane count, and each lane
//! walks every chunk through all of its walkers in turn; one hierarchy
//! with one lane per replica is the plain set-sharded engine. A walker
//! that panics is dropped with its payload kept for
//! [`ShardedHierarchy::finish_all`]; its lane-mates finish the stream.
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
use memsim_trace::{TraceEvent, TraceSink};

use crate::cache::Cache;
use crate::hierarchy::{CountingMemory, Hierarchy, MainMemory};
use crate::probes::HierarchyProbes;
use crate::stats::LevelStats;

/// Events buffered per broadcast chunk — matches the trace-file chunk size
/// so replayed chunks forward without re-buffering.
pub const CHUNK_EVENTS: usize = 4096;

/// Chunks a shard queue may hold before the producer blocks.
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

/// A message to one shard worker.
enum Msg {
    /// A broadcast chunk; the worker filters it down to its own slice.
    Chunk(Arc<[TraceEvent]>),
    /// End of stream: drain, report, exit.
    Flush,
}

struct QueueInner {
    buf: VecDeque<Msg>,
    /// Set by a panicking worker so the producer stops blocking on a queue
    /// nobody will ever drain; the panic itself resurfaces at join.
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
    /// the message — the worker is gone and its panic is re-raised when
    /// the run is finished (or joined on drop).
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

    /// Mark the queue dead after a worker panic: wake and unblock everyone.
    fn poison(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.poisoned = true;
        inner.buf.clear();
        drop(inner);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

/// Per-replica observability handles of a multi-replica walk (only built
/// when a prefix was given and the global registry is enabled).
struct ShardObs {
    claims: Arc<Counter>,
    events: Arc<Counter>,
    total_events: Arc<Counter>,
}

/// The payload of a panic caught inside a lane, kept whole so a
/// one-hierarchy run can re-raise it unchanged.
pub type WalkPanic = Box<dyn Any + Send + 'static>;

/// One hierarchy of a [`ShardedHierarchy::group`] walk.
pub struct Walk<M> {
    /// The cache levels, top-down; cloned into every replica.
    pub levels: Vec<Cache>,
    /// A freshly constructed terminal memory, cloned into every replica
    /// (see [`ShardMerge`] for why it must be fresh).
    pub memory: M,
    /// Class-filtered replicas walking this hierarchy: at least one,
    /// capped at the levels' address-class count.
    pub shards: usize,
    /// Registry prefix for this hierarchy's telemetry. A single replica
    /// publishes the sequential engine's [`HierarchyProbes`] under it;
    /// several replicas publish per-replica `{prefix}.shard{i}.*` counters.
    pub obs_prefix: Option<String>,
    /// Flight-recorder span around this hierarchy's share of every chunk,
    /// on the lane that walks it.
    pub span: String,
}

/// The merged outcome of a sharded run: per-level stats, terminal memory,
/// and stream totals, all summed across shards in shard order.
#[derive(Debug, Clone)]
pub struct ShardedRun<M> {
    /// Per-level statistics, top-down, bit-identical to a sequential run
    /// over the same stream.
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
}

impl<M: ShardMerge> ShardedRun<M> {
    /// Fold a sibling replica's counters into this one.
    fn merge(&mut self, other: &Self) {
        debug_assert_eq!(self.levels.len(), other.levels.len());
        for (acc, s) in self.levels.iter_mut().zip(&other.levels) {
            acc.merge(s);
        }
        self.memory.merge_shard(&other.memory);
        self.total_refs = self.total_refs.saturating_add(other.total_refs);
        self.demand_bytes = self.demand_bytes.saturating_add(other.demand_bytes);
        self.line_buffer_hits = self.line_buffer_hits.saturating_add(other.line_buffer_hits);
    }
}

/// One (hierarchy replica, class filter) pair carried by a lane.
struct Walker<M: MainMemory> {
    walk: usize,
    replica: usize,
    /// The replica, or the panic that stopped it: a failed walker skips
    /// the rest of the stream while its lane-mates carry on.
    state: Result<Hierarchy<M>, WalkPanic>,
    filter: ShardFilter,
    obs: Option<ShardObs>,
    span: Arc<str>,
}

/// One replica's (or one merged walk's) outcome.
type WalkResult<M> = Result<ShardedRun<M>, WalkPanic>;

/// What a lane hands back at flush: `(walk, replica, run)` per walker.
type LaneOut<M> = Vec<(usize, usize, WalkResult<M>)>;

impl<M: MainMemory> Walker<M> {
    /// Walk this replica's slice of `events`; returns the events it kept.
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
            memsim_obs::recorder::span_begin(&self.span);
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
            memsim_obs::recorder::span_end(&self.span);
        }
        match kept {
            Ok(kept) => {
                if let Some(o) = &self.obs {
                    o.claims.inc();
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

    /// Drain the replica and harvest its counters.
    fn finish(self) -> (usize, usize, WalkResult<M>) {
        let run = self.state.and_then(|mut hierarchy| {
            panic::catch_unwind(AssertUnwindSafe(move || {
                hierarchy.drain();
                hierarchy.assert_consistent();
                ShardedRun {
                    levels: hierarchy.levels().iter().map(|c| c.stats()).collect(),
                    total_refs: hierarchy.total_refs(),
                    demand_bytes: hierarchy.demand_bytes(),
                    line_buffer_hits: hierarchy.line_buffer_hits(),
                    memory: hierarchy.into_memory(),
                }
            }))
        });
        (self.walk, self.replica, run)
    }
}

fn run_lane<M: MainMemory>(mut walkers: Vec<Walker<M>>, queue: &ShardQueue) -> LaneOut<M> {
    let mut slice: Vec<TraceEvent> = Vec::with_capacity(CHUNK_EVENTS);
    while let Msg::Chunk(events) = queue.pop() {
        // Flight-recorder lane (the worker thread's name): one span per
        // walker per chunk plus queue-depth / throughput counter tracks.
        // One relaxed load when the recorder is disarmed.
        let recording = memsim_obs::recorder::recording();
        let t0 = recording.then(std::time::Instant::now);
        let kept: usize = walkers
            .iter_mut()
            .map(|w| w.step(&events, &mut slice, recording))
            .sum();
        if recording {
            memsim_obs::recorder::counter("shard.queue_depth", queue.len() as f64);
            // always emitted so the event stream stays deterministic;
            // the value is zeroed in deterministic mode anyway
            let secs = t0.map_or(0.0, |t| t.elapsed().as_secs_f64());
            let mev_s = if secs > 0.0 {
                kept as f64 / secs / 1e6
            } else {
                0.0
            };
            memsim_obs::recorder::counter("shard.mev_s", mev_s);
        }
    }
    walkers.into_iter().map(Walker::finish).collect()
}

/// Parallel drop-in for [`Hierarchy`]: implements [`TraceSink`], fans
/// chunks out to lane threads that walk set-bound hierarchy replicas, and
/// merges each hierarchy's replicas into a [`ShardedRun`] whose
/// `LevelStats` are bit-identical to the sequential engine's.
///
/// [`Self::group`] walks one or more hierarchies from the same stream,
/// dealing their replicas out over a fixed number of lanes. A replica
/// count is capped at the number of address classes its levels support
/// ([`shard_class_bits`]); with one replica the walker runs the unmodified
/// sequential engine, so degenerate configurations (cache-less
/// hierarchies, single-set levels) stay correct.
pub struct ShardedHierarchy<M> {
    queues: Vec<Arc<ShardQueue>>,
    workers: Vec<JoinHandle<LaneOut<M>>>,
    walks: usize,
    buf: Vec<TraceEvent>,
    result: Option<Vec<WalkResult<M>>>,
    chunks: Option<Arc<Counter>>,
}

impl<M: MainMemory + ShardMerge + Clone + Send + 'static> ShardedHierarchy<M> {
    /// Walk every hierarchy in `walks` from one stream: all replicas of
    /// all walks are dealt round-robin (walk-major) over at most `lanes`
    /// lane threads named `{lane_name}{i}`, and every lane receives the
    /// same broadcast chunks. Finish with [`Self::finish_all`].
    ///
    /// With a walk's `obs_prefix` set and the global registry enabled,
    /// several replicas register per-replica `{prefix}.shard{i}.claims`
    /// plus `progress.shard{i}.events`, `progress.events`, and
    /// `progress.chunks`; a single replica publishes the sequential
    /// engine's probes instead.
    pub fn group(walks: Vec<Walk<M>>, lanes: usize, lane_name: &str) -> Self {
        let reg = memsim_obs::global();
        let nwalks = walks.len();
        let mut chunks = None;
        let mut walkers = Vec::new();
        for (w, walk) in walks.into_iter().enumerate() {
            let (lo, hi) = shard_class_bits(&walk.levels);
            let bits = (hi - lo).min(MAX_CLASS_BITS);
            let classes = 1u64 << bits;
            let nshards = walk.shards.max(1).min(classes as usize);
            let l1_shift = walk.levels.first().map_or(0, |c| c.set_index_bits().0);
            let prefix = walk.obs_prefix.as_deref().filter(|_| memsim_obs::enabled());
            if nshards > 1 && prefix.is_some() {
                chunks = Some(reg.counter("progress.chunks"));
            }
            let span: Arc<str> = Arc::from(walk.span);
            for i in 0..nshards {
                let filter = ShardFilter {
                    class_shift: lo,
                    class_mask: classes - 1,
                    nshards: nshards as u64,
                    shard: i as u64,
                    l1_shift,
                    pass_through: nshards == 1,
                };
                let mut replica = Hierarchy::new(walk.levels.clone(), walk.memory.clone());
                let obs = match prefix {
                    Some(p) if nshards == 1 => {
                        let names: Vec<&str> = walk
                            .levels
                            .iter()
                            .map(|c| c.config().name.as_str())
                            .collect();
                        replica.set_probes(HierarchyProbes::register(reg, p, &names));
                        None
                    }
                    Some(p) => Some(ShardObs {
                        claims: reg.counter(&format!("{p}.shard{i}.claims")),
                        events: reg.counter(&format!("progress.shard{i}.events")),
                        total_events: reg.counter("progress.events"),
                    }),
                    None => None,
                };
                walkers.push(Walker {
                    walk: w,
                    replica: i,
                    state: Ok(replica),
                    filter,
                    obs,
                    span: Arc::clone(&span),
                });
            }
        }
        let lanes = lanes.clamp(1, walkers.len().max(1));
        let mut dealt: Vec<Vec<Walker<M>>> = (0..lanes).map(|_| Vec::new()).collect();
        for (j, walker) in walkers.into_iter().enumerate() {
            dealt[j % lanes].push(walker);
        }
        let mut queues = Vec::with_capacity(lanes);
        let mut workers = Vec::with_capacity(lanes);
        for (i, lane) in dealt.into_iter().enumerate() {
            let queue = Arc::new(ShardQueue::new());
            let worker_queue = Arc::clone(&queue);
            let handle = std::thread::Builder::new()
                .name(format!("{lane_name}{i}"))
                .spawn(move || {
                    let out =
                        panic::catch_unwind(AssertUnwindSafe(|| run_lane(lane, &worker_queue)));
                    match out {
                        Ok(out) => out,
                        Err(payload) => {
                            // unblock the producer before re-raising; the
                            // payload surfaces again at join
                            worker_queue.poison();
                            panic::resume_unwind(payload);
                        }
                    }
                })
                .expect("spawn lane worker");
            queues.push(queue);
            workers.push(handle);
        }
        Self {
            queues,
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
        self.queues.len()
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
        let mut replicas: Vec<Vec<(usize, WalkResult<M>)>> =
            (0..self.walks).map(|_| Vec::new()).collect();
        let mut panic_payload = None;
        for handle in self.workers.drain(..) {
            match handle.join() {
                Ok(outs) => {
                    for (walk, replica, run) in outs {
                        replicas[walk].push((replica, run));
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
        let merged = replicas.into_iter().map(|mut reps| {
            reps.sort_by_key(|(replica, _)| *replica);
            let mut runs = reps.into_iter().map(|(_, run)| run);
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
    /// already called. A walk whose replica panicked yields that panic's
    /// payload; the other walks on its lane are unaffected.
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
        // Abandoned without finish_all(): stop the workers without blocking on
        // full queues, and swallow join results — a worker panic must not
        // double-panic during unwinding.
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
    use memsim_trace::AccessKind;

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

    /// One hierarchy walked by `shards` replicas, one lane each.
    fn sharded(levels: Vec<Cache>, shards: usize) -> ShardedHierarchy<CountingMemory> {
        let walk = Walk {
            levels,
            memory: CountingMemory::default(),
            shards,
            obs_prefix: None,
            span: "walk.test".to_string(),
        };
        ShardedHierarchy::group(vec![walk], shards, "memsim-shard")
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
        let walk = |shards, fuse| Walk {
            levels: small_levels(),
            memory: FusedMemory {
                fuse,
                ..FusedMemory::default()
            },
            shards,
            obs_prefix: None,
            span: "walk.test".to_string(),
        };
        for lanes in [1usize, 2, 3] {
            let walks = vec![walk(2, None), walk(1, Some(10)), walk(1, None)];
            let mut sh = ShardedHierarchy::group(walks, lanes, "memsim-test-walk");
            assert_eq!(sh.shards(), lanes);
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
                    .unwrap_or_else(|_| panic!("walk {i} failed"));
                assert_eq!(run.levels, seq_levels, "walk {i}, lanes={lanes}");
                assert_eq!(run.memory.counts, seq_mem, "walk {i}, lanes={lanes}");
                assert_eq!(run.total_refs, seq_refs, "walk {i}, lanes={lanes}");
            }
        }
    }
}
