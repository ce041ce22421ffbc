//! Composition of cache levels over a terminal main memory.

use crate::cache::{AccessOutcome, Cache, WritebackOutcome};
use crate::probes::{HierarchyProbes, PROBE_EPOCH};
use memsim_trace::{AccessKind, TraceEvent, TraceSink};

/// The terminal level of a hierarchy (below the last cache).
///
/// Implementations record the request in whatever structure they need —
/// a flat DRAM/NVM counter, a partitioned DRAM+NVM address space, a
/// wear-leveling NVM front end, … (see `memsim-memory`).
pub trait MainMemory {
    /// A block-fetch read of `bytes` at `addr` (a fill request from the
    /// last cache level, or a demand read when there are no caches).
    fn load(&mut self, addr: u64, bytes: u32);
    /// A write of `bytes` at `addr` (a dirty writeback from the last cache
    /// level, or a demand write when there are no caches).
    fn store(&mut self, addr: u64, bytes: u32);
}

/// The simplest terminal: counts requests and bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountingMemory {
    /// Read requests received.
    pub loads: u64,
    /// Write requests received.
    pub stores: u64,
    /// Bytes read.
    pub bytes_loaded: u64,
    /// Bytes written.
    pub bytes_stored: u64,
}

impl MainMemory for CountingMemory {
    #[inline]
    fn load(&mut self, _addr: u64, bytes: u32) {
        self.loads += 1;
        self.bytes_loaded += u64::from(bytes);
    }

    #[inline]
    fn store(&mut self, _addr: u64, bytes: u32) {
        self.stores += 1;
        self.bytes_stored += u64::from(bytes);
    }
}

/// A stack of caches over a terminal memory.
///
/// Implements [`TraceSink`]: feed it the raw application address stream.
/// Each reference walks the levels top-down; misses fetch the missing
/// block from the next level (counted there as a *load* of that block's
/// size) and dirty evictions propagate downward as *stores* — including,
/// transitively, evictions triggered by those writebacks themselves.
///
/// Call [`Hierarchy::flush`] (or drop the stream) at end of trace to drain
/// resident dirty blocks to memory, so that "dirty cache lines eventually
/// make their way to the main memory and count as write operations".
#[derive(Debug, Clone)]
pub struct Hierarchy<M: MainMemory> {
    levels: Vec<Cache>,
    memory: M,
    /// Demand references consumed (after line splitting) when there are no
    /// cache levels. With caches present the count is derived from L1's
    /// counters instead — every post-split reference reaches L1 exactly
    /// once and writebacks never do — so the per-event path carries no
    /// separate counter.
    uncached_refs: u64,
    /// Demand bytes moved when there are no cache levels (see above).
    uncached_bytes: u64,
    drained: bool,
    /// `log2` of L1's block size, for shift/mask splitting (0 if no caches).
    l1_shift: u32,
    /// L1 block id of the most recent demand reference — the one-entry
    /// "line buffer". A consecutive reference to the same block is a
    /// guaranteed L1 hit at the set's MRU way and skips the walk entirely.
    lb_block: u64,
    /// Line buffer armed: at least one cache with a block of ≥ 2 bytes
    /// (so a real block id can never equal the `u64::MAX` sentinel).
    lb_enabled: bool,
    /// Demand references filtered by the line buffer (skipped the walk).
    lb_hits: u64,
    /// Events until the next probe publication. Kept inline (not in
    /// [`ProbeState`]) so the per-event tick touches only this already-hot
    /// struct, never the probe allocation: without probes it starts at
    /// `u64::MAX` and can never reach zero, so the uninstrumented path
    /// pays one decrement and one never-taken branch.
    probe_countdown: u64,
    /// Observability hook, absent unless telemetry was requested.
    probes: Option<Box<ProbeState>>,
}

/// Attached-probe bookkeeping (see [`crate::probes`] for the protocol).
#[derive(Debug, Clone)]
struct ProbeState {
    probes: HierarchyProbes,
    /// Cumulative events already added into the shared progress counters.
    published_events: u64,
}

impl<M: MainMemory> Hierarchy<M> {
    /// Build a hierarchy; `levels[0]` is closest to the CPU.
    pub fn new(levels: Vec<Cache>, memory: M) -> Self {
        let l1_shift = levels
            .first()
            .map(|c| c.block_bytes().trailing_zeros())
            .unwrap_or(0);
        let lb_enabled = levels
            .first()
            .map(|c| c.block_bytes() >= 2)
            .unwrap_or(false);
        Self {
            levels,
            memory,
            uncached_refs: 0,
            uncached_bytes: 0,
            drained: false,
            l1_shift,
            lb_block: u64::MAX,
            lb_enabled,
            lb_hits: 0,
            probe_countdown: u64::MAX,
            probes: None,
        }
    }

    /// Attach observability probes. From now until drain, cumulative
    /// counter values are published into the probes' registry handles once
    /// per ~[`PROBE_EPOCH`] events; [`Hierarchy::drain`] publishes the
    /// exact final values.
    pub fn set_probes(&mut self, probes: HierarchyProbes) {
        debug_assert_eq!(
            probes.level_count(),
            self.levels.len(),
            "probes must cover every cache level"
        );
        self.probe_countdown = PROBE_EPOCH;
        self.probes = Some(Box::new(ProbeState {
            probes,
            published_events: 0,
        }));
    }

    /// Demand references answered by the one-entry line buffer (the
    /// filter's short-circuit count; a subset of L1 hits).
    pub fn line_buffer_hits(&self) -> u64 {
        self.lb_hits
    }

    /// Publish exact cumulative counter values to the attached probes
    /// (no-op when none are attached). Called automatically at drain.
    pub fn publish_probes(&mut self) {
        if self.probes.is_some() {
            self.probe_publish();
        }
    }

    /// Epoch boundary reached by the per-event tick: republish and re-arm
    /// the countdown (to "never" when no probes are attached).
    #[cold]
    fn probe_epoch(&mut self) {
        if self.probes.is_some() {
            self.probe_countdown = PROBE_EPOCH;
            self.probe_publish();
        } else {
            self.probe_countdown = u64::MAX;
        }
    }

    /// Per-chunk probe tick: bumps chunk counters, then publishes if the
    /// chunk crossed an epoch boundary.
    fn probe_chunk(&mut self, events_in_chunk: u64) {
        let Some(state) = self.probes.as_deref_mut() else {
            return;
        };
        for c in &state.probes.chunks {
            c.inc();
        }
        if self.probe_countdown <= events_in_chunk {
            self.probe_countdown = PROBE_EPOCH;
            self.probe_publish();
        } else {
            self.probe_countdown -= events_in_chunk;
        }
    }

    /// Publish cumulative values: per-level counters by absolute store,
    /// shared progress counters by delta.
    #[cold]
    fn probe_publish(&mut self) {
        let total = self.total_refs();
        let lb_hits = self.lb_hits;
        let Some(state) = self.probes.as_deref_mut() else {
            return;
        };
        let delta = total.saturating_sub(state.published_events);
        state.published_events = total;
        if delta > 0 {
            for c in &state.probes.events {
                c.add(delta);
            }
        }
        state.probes.lb_hits.store(lb_hits);
        for (probe, cache) in state.probes.levels.iter().zip(self.levels.iter()) {
            probe.publish(&cache.counter_values());
        }
    }

    /// The cache levels, top-down.
    pub fn levels(&self) -> &[Cache] {
        &self.levels
    }

    /// The terminal memory.
    pub fn memory(&self) -> &M {
        &self.memory
    }

    /// Mutable access to the terminal memory.
    pub fn memory_mut(&mut self) -> &mut M {
        &mut self.memory
    }

    /// Total demand references consumed (the paper's "Total Number of
    /// References" denominator in Equation 2).
    pub fn total_refs(&self) -> u64 {
        match self.levels.first() {
            Some(l1) => l1.demand_refs(),
            None => self.uncached_refs,
        }
    }

    /// Total demand bytes moved by the CPU reference stream.
    pub fn demand_bytes(&self) -> u64 {
        match self.levels.first() {
            Some(l1) => l1.demand_bytes(),
            None => self.uncached_bytes,
        }
    }

    /// Consume the hierarchy, returning the terminal memory.
    pub fn into_memory(self) -> M {
        self.memory
    }

    /// Process one demand reference already confined to a single L1 block.
    /// Callers guarantee at least one cache level. The L1 lookup is
    /// inlined; the multi-level miss walk lives out of line so the
    /// (dominant) hit path stays small.
    #[inline]
    fn demand(&mut self, addr: u64, kind: AccessKind, size: u32) {
        if let AccessOutcome::Miss { evicted_dirty } = self.levels[0].access(addr, kind, size) {
            self.demand_miss(addr, evicted_dirty);
        }
    }

    /// Demand path of a cache-less hierarchy: forward straight to memory.
    fn demand_uncached(&mut self, addr: u64, kind: AccessKind, size: u32) {
        self.uncached_refs += 1;
        self.uncached_bytes += u64::from(size);
        match kind {
            AccessKind::Load => self.memory.load(addr, size),
            AccessKind::Store => self.memory.store(addr, size),
        }
    }

    /// Continue a demand reference that missed L1: walk down until a hit
    /// or the terminal memory. Writebacks from evictions are handled after
    /// the fill, per level; fetches from below are always reads.
    #[inline(never)]
    fn demand_miss(&mut self, addr: u64, l1_evicted: Option<u64>) {
        let mut level = 0;
        let mut evicted_dirty = l1_evicted;
        loop {
            let block = self.levels[level].block_bytes();
            if let Some(victim) = evicted_dirty {
                self.writeback_parts(level, victim);
            }
            level += 1;
            if level == self.levels.len() {
                self.memory.load(addr, block);
                return;
            }
            match self.levels[level].access(addr, AccessKind::Load, block) {
                AccessOutcome::Hit => return,
                AccessOutcome::Miss { evicted_dirty: e } => evicted_dirty = e,
            }
        }
    }

    /// Deliver a dirty eviction from `level` as one writeback transaction
    /// carrying the block's dirty bytes (whole block, or only the dirty
    /// sectors of a sectored page cache).
    fn writeback_parts(&mut self, level: usize, victim: u64) {
        let bytes = self.levels[level].take_eviction_bytes();
        self.writeback(level + 1, victim, bytes);
    }

    /// Deliver a writeback of `bytes` at `addr` to `level` (may recurse
    /// further down when it misses or displaces more dirty blocks).
    fn writeback(&mut self, level: usize, addr: u64, bytes: u32) {
        if level == self.levels.len() {
            self.memory.store(addr, bytes);
            return;
        }
        match self.levels[level].writeback(addr, bytes) {
            WritebackOutcome::HitMarkedDirty => {}
            WritebackOutcome::MissBypass => self.writeback(level + 1, addr, bytes),
            WritebackOutcome::MissAllocated { evicted_dirty } => {
                if let Some(victim) = evicted_dirty {
                    self.writeback_parts(level, victim);
                }
            }
        }
    }

    /// Process one demand event: line-buffer fast path for a repeat of the
    /// previous L1 block, split-and-walk otherwise.
    #[inline]
    fn process_event(&mut self, ev: TraceEvent) {
        debug_assert!(!self.drained, "stream continued after flush()");
        if self.levels.is_empty() {
            self.demand_uncached(ev.addr, ev.kind, ev.size);
            return;
        }
        let shift = self.l1_shift;
        let first = ev.addr >> shift;
        let last = ev.end().saturating_sub(1) >> shift;
        if first == last {
            if self.lb_enabled && first == self.lb_block {
                // Consecutive reference to the same L1 block: it is
                // resident (write-allocate installs on every miss) and
                // most-recent in its set, so apply the hit bookkeeping
                // directly without walking the level.
                self.lb_hits += 1;
                self.levels[0].rehit(ev.addr, ev.kind, ev.size);
                return;
            }
            self.demand(ev.addr, ev.kind, ev.size);
        } else {
            self.demand_split(ev);
        }
        // A size-0 event must not arm the buffer: when it sits at a block
        // boundary the split loop touches nothing, so `last` (the block
        // *before* the address) was not necessarily referenced. It must
        // clear the buffer instead of leaving it: a size-0 probe can still
        // miss and install, evicting the very block the buffer points at,
        // and a stale buffer would then count a false re-hit. Clearing a
        // *valid* buffer is free (the probe path books the same counters),
        // so the invariant stays simple: an armed buffer is always
        // resident and most-recent.
        if ev.size > 0 {
            self.lb_block = last;
        } else {
            self.lb_block = u64::MAX;
        }
    }

    /// Split a reference that straddles an L1 block boundary (rare: the
    /// instrumented containers align all regions, but synthetic streams
    /// may not) into per-block demand references.
    #[cold]
    fn demand_split(&mut self, ev: TraceEvent) {
        let block = 1u64 << self.l1_shift;
        let mask = block - 1;
        let mut addr = ev.addr;
        let mut remaining = u64::from(ev.size);
        while remaining > 0 {
            let in_block = (block - (addr & mask)).min(remaining);
            self.demand(addr, ev.kind, in_block as u32);
            addr += in_block;
            remaining -= in_block;
        }
    }

    /// Drain all resident dirty blocks to memory, top-down. Idempotent.
    pub fn drain(&mut self) {
        if self.drained {
            return;
        }
        self.drained = true;
        self.lb_block = u64::MAX;
        let mut dirty = Vec::new();
        for level in 0..self.levels.len() {
            // set by set: a level's writebacks only reach the levels below
            for set in 0..self.levels[level].config().sets() as usize {
                self.levels[level].drain_dirty_set(set, &mut dirty);
                for (addr, bytes) in dirty.drain(..) {
                    self.writeback(level + 1, addr, bytes);
                }
            }
        }
        // Authoritative final publication: after this, registry values are
        // exact, not one-epoch-stale.
        self.publish_probes();
    }

    /// Run a consistency check over every level's counters, panicking
    /// with the specific broken invariant.
    pub fn assert_consistent(&self) {
        for c in &self.levels {
            if let Some(err) = c.stats().consistency_error() {
                panic!("stats inconsistent — {err} (full: {:?})", c.stats());
            }
        }
    }
}

impl<M: MainMemory> TraceSink for Hierarchy<M> {
    #[inline]
    fn access(&mut self, ev: TraceEvent) {
        self.process_event(ev);
        // probe tick: countdown is u64::MAX-armed without probes, so this
        // is one decrement plus a never-taken branch on the plain path
        self.probe_countdown -= 1;
        if self.probe_countdown == 0 {
            self.probe_epoch();
        }
    }

    /// Batched delivery: one virtual call, then alternating runs of the L1
    /// batched hit probe and the scalar walk. `access_hit_batch` consumes
    /// leading events while each stays in one L1 block and hits; the first
    /// event it rejects (miss, straddler, or size 0) takes the scalar path,
    /// and the loop resumes batching behind it. Per-event bookkeeping is
    /// identical to the scalar path, so `LevelStats` are bit-equal to
    /// event-at-a-time delivery; only the line-buffer/MRU-ring telemetry
    /// split differs (batched events probe the ring instead of the buffer).
    fn access_chunk(&mut self, events: &[TraceEvent]) {
        if self.levels.is_empty() {
            for &ev in events {
                self.process_event(ev);
            }
        } else {
            debug_assert!(!self.drained, "stream continued after flush()");
            let mut i = 0;
            while i < events.len() {
                let n = self.levels[0].access_hit_batch(&events[i..]);
                if n > 0 {
                    i += n;
                    // every batched event is a size>0 single-block hit, so
                    // re-arming from the last one mirrors the scalar path:
                    // its block is resident and most-recent in its set
                    self.lb_block = events[i - 1].addr >> self.l1_shift;
                }
                if i < events.len() {
                    self.process_event(events[i]);
                    i += 1;
                }
            }
        }
        if self.probes.is_some() {
            self.probe_chunk(events.len() as u64);
        }
    }

    fn flush(&mut self) {
        self.drain();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheConfig;

    fn two_level() -> Hierarchy<CountingMemory> {
        let l1 = Cache::new(CacheConfig::new("L1", 4 * 64, 64, 1)); // 4 sets, direct
        let l2 = Cache::new(CacheConfig::new("L2", 16 * 64, 64, 2)); // 8 sets, 2-way
        Hierarchy::new(vec![l1, l2], CountingMemory::default())
    }

    #[test]
    fn load_miss_walks_to_memory() {
        let mut h = two_level();
        h.access(TraceEvent::load(0x1000, 8));
        assert_eq!(h.levels()[0].stats().load_misses, 1);
        assert_eq!(h.levels()[1].stats().load_misses, 1);
        assert_eq!(h.memory().loads, 1);
        assert_eq!(h.memory().bytes_loaded, 64, "memory supplies L2's block");
        assert_eq!(h.total_refs(), 1);
    }

    #[test]
    fn l1_hit_stops_the_walk() {
        let mut h = two_level();
        h.access(TraceEvent::load(0x1000, 8));
        h.access(TraceEvent::load(0x1010, 8));
        assert_eq!(h.levels()[0].stats().load_hits, 1);
        assert_eq!(h.levels()[1].stats().loads, 1, "L2 only saw the first fill");
        assert_eq!(h.memory().loads, 1);
    }

    #[test]
    fn store_miss_fetches_below_as_load() {
        let mut h = two_level();
        h.access(TraceEvent::store(0x2000, 8));
        let l1 = h.levels()[0].stats();
        assert_eq!(l1.store_misses, 1);
        assert_eq!(l1.stores, 1);
        // the fill from L2 is a load there
        assert_eq!(h.levels()[1].stats().loads, 1);
        assert_eq!(h.levels()[1].stats().stores, 0);
        assert_eq!(h.memory().loads, 1);
        assert_eq!(h.memory().stores, 0);
    }

    #[test]
    fn dirty_eviction_propagates_as_store() {
        let mut h = two_level();
        // L1 is direct-mapped with 4 sets of 64 B: 0x0 and 0x100 conflict.
        h.access(TraceEvent::store(0x0, 8));
        h.access(TraceEvent::load(0x100, 8)); // evicts dirty 0x0 from L1
                                              // the writeback lands in L2, which holds 0x0 from the original fill
        assert_eq!(h.levels()[0].stats().writebacks_out, 1);
        assert!(h.levels()[1].is_dirty(0x0));
        assert_eq!(h.memory().stores, 0, "writeback absorbed by L2");
    }

    #[test]
    fn flush_drains_dirty_lines_to_memory() {
        let mut h = two_level();
        h.access(TraceEvent::store(0x0, 8));
        h.flush();
        // L1 dirty line 0x0 -> L2 (hit, marked dirty) -> L2 drain -> memory
        assert_eq!(h.memory().stores, 1);
        assert_eq!(h.memory().bytes_stored, 64);
        h.flush(); // idempotent
        assert_eq!(h.memory().stores, 1);
    }

    #[test]
    fn writeback_bypass_reaches_memory_when_absent_below() {
        // L2 tiny: 2 blocks direct-mapped; fill for 0x0 lands in set 0,
        // then 0x80 fill replaces it (clean), so the later L1 writeback of
        // 0x0 misses L2 and must bypass to memory.
        let l1 = Cache::new(CacheConfig::new("L1", 2 * 64, 64, 1));
        let l2 = Cache::new(CacheConfig::new("L2", 2 * 64, 64, 1));
        let mut h = Hierarchy::new(vec![l1, l2], CountingMemory::default());
        h.access(TraceEvent::store(0x0, 8)); // L1 set0 dirty; L2 set0 = 0x0
        h.access(TraceEvent::load(0x100, 8)); // L2 set0 replaced by 0x100; L1 set0 evicts dirty 0x0
        assert_eq!(h.memory().stores, 1, "bypassed writeback hits memory");
    }

    #[test]
    fn no_cache_hierarchy_forwards_directly() {
        let mut h = Hierarchy::new(vec![], CountingMemory::default());
        h.access(TraceEvent::load(0x0, 8));
        h.access(TraceEvent::store(0x8, 8));
        assert_eq!(h.memory().loads, 1);
        assert_eq!(h.memory().stores, 1);
        assert_eq!(h.memory().bytes_loaded, 8);
        assert_eq!(h.memory().bytes_stored, 8);
    }

    #[test]
    fn straddling_access_is_split() {
        let mut h = two_level();
        // 8 bytes starting 4 bytes before a line boundary
        h.access(TraceEvent::load(60, 8));
        assert_eq!(h.total_refs(), 2);
        assert_eq!(h.levels()[0].stats().loads, 2);
    }

    #[test]
    fn counters_conserve_through_random_stream() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut h = two_level();
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..20_000 {
            let addr = rng.random_range(0u64..1 << 14);
            let kind = if rng.random_bool(0.3) {
                AccessKind::Store
            } else {
                AccessKind::Load
            };
            h.access(TraceEvent {
                addr: addr & !7,
                size: 8,
                kind,
            });
        }
        h.flush();
        h.assert_consistent();
        let l1 = h.levels()[0].stats();
        let l2 = h.levels()[1].stats();
        // every L1 load miss and store miss produces exactly one L2 load
        assert_eq!(l2.loads, l1.misses());
        // every L2 load miss produces a memory load; L2 store misses bypass
        assert_eq!(h.memory().loads, l2.load_misses);
    }

    #[test]
    fn probes_publish_exact_final_counters() {
        let reg = memsim_obs::MetricsRegistry::new();
        let mut h = two_level();
        let names: Vec<&str> = vec!["L1", "L2"];
        h.set_probes(HierarchyProbes::register(&reg, "t", &names));
        // Fewer events than one epoch: only the drain publication runs.
        for i in 0..100u64 {
            h.access(TraceEvent::load(i * 8, 8));
        }
        h.access(TraceEvent::store(0x0, 8));
        h.flush();
        let l1 = h.levels()[0].stats();
        assert_eq!(reg.counter_value("t.L1.loads"), Some(l1.loads));
        assert_eq!(reg.counter_value("t.L1.load_hits"), Some(l1.load_hits));
        assert_eq!(reg.counter_value("t.L1.load_misses"), Some(l1.load_misses));
        assert_eq!(
            reg.counter_value("t.L1.writebacks_out"),
            Some(l1.writebacks_out)
        );
        assert_eq!(
            reg.counter_value("t.L1.mru_hits"),
            Some(h.levels()[0].mru_short_circuits())
        );
        let l2 = h.levels()[1].stats();
        assert_eq!(reg.counter_value("t.L2.loads"), Some(l2.loads));
        assert_eq!(
            reg.counter_value("t.l1_line_buffer_hits"),
            Some(h.line_buffer_hits())
        );
        assert_eq!(reg.counter_value("progress.events"), Some(h.total_refs()));
    }

    #[test]
    fn chunked_probe_publication_counts_chunks_and_epochs() {
        let reg = memsim_obs::MetricsRegistry::new();
        let mut h = two_level();
        h.set_probes(HierarchyProbes::register(&reg, "t", &["L1", "L2"]));
        let chunk: Vec<TraceEvent> = (0..512u64).map(|i| TraceEvent::load(i * 8, 8)).collect();
        let chunks = 2 * PROBE_EPOCH / 512; // 2× epoch worth of events
        for _ in 0..chunks {
            h.access_chunk(&chunk); // crosses ≥1 epoch mid-stream
        }
        assert_eq!(reg.counter_value("progress.chunks"), Some(chunks));
        let published = reg.counter_value("progress.events").unwrap();
        assert!(
            published >= PROBE_EPOCH && published <= h.total_refs(),
            "mid-stream publication lags by at most one epoch: {published}"
        );
        h.flush();
        assert_eq!(reg.counter_value("progress.events"), Some(h.total_refs()));
    }

    #[test]
    fn memory_write_traffic_matches_dirty_data() {
        // Property: with a drain at the end, the number of distinct dirty
        // blocks created at L1 equals memory store *blocks* when caches
        // can't re-dirty (each block stored exactly once here).
        let l1 = Cache::new(CacheConfig::new("L1", 4 * 64, 64, 1));
        let mut h = Hierarchy::new(vec![l1], CountingMemory::default());
        for i in 0..64u64 {
            h.access(TraceEvent::store(i * 64, 8));
        }
        h.flush();
        // 64 distinct blocks dirtied; all must reach memory exactly once
        assert_eq!(h.memory().stores, 64);
        assert_eq!(h.memory().bytes_stored, 64 * 64);
    }
}

#[cfg(test)]
mod property_tests {
    use super::*;
    use crate::config::CacheConfig;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// Conservation invariants hold for random hierarchies (2–4 levels
        /// with random geometry) over random streams: per-kind hit/miss
        /// consistency at every level, demand-fetch balance between
        /// adjacent levels, and writeback conservation through the drain.
        #[test]
        fn random_hierarchy_conserves(
            level_count in 2usize..5,
            l1_sets_log in 2u32..5,
            growth in 1u32..3,
            page_log in 6u32..10,
            ops in proptest::collection::vec((0u64..(1 << 16), proptest::bool::ANY), 50..400),
        ) {
            let mut caches = Vec::new();
            for lvl in 0..level_count {
                let block = if lvl + 1 == level_count { 1u32 << page_log } else { 64 };
                let sets = 1u64 << (l1_sets_log + growth * lvl as u32);
                let ways = 2;
                let mut cfg = CacheConfig::new(&format!("C{lvl}"), sets * u64::from(block) * ways, block, ways as u32);
                if block > 64 {
                    cfg = cfg.with_sectors(64);
                }
                caches.push(Cache::new(cfg));
            }
            let mut h = Hierarchy::new(caches, CountingMemory::default());
            for &(addr, is_store) in &ops {
                let kind = if is_store { AccessKind::Store } else { AccessKind::Load };
                h.access(TraceEvent { addr: addr & !7, size: 8, kind });
            }
            h.flush();
            h.assert_consistent();
            // adjacent-level demand balance
            for (i, w) in h.levels().windows(2).enumerate() {
                let expected = if i == 0 { w[0].stats().misses() } else { w[0].stats().load_misses };
                prop_assert_eq!(w[1].stats().loads, expected, "level {} fetch balance", i + 1);
            }
            let last = h.levels().last().unwrap().stats();
            prop_assert_eq!(h.memory().loads, last.load_misses);
            // stores never amplify beyond CPU stores plus per-level writebacks
            let cpu_stores = ops.iter().filter(|(_, s)| *s).count() as u64;
            prop_assert!(h.memory().stores <= cpu_stores, "memory stores {} > CPU stores {cpu_stores}", h.memory().stores);
            // all dirty data drained: nothing dirty remains anywhere
            for c in h.levels() {
                let drained: u64 = 0;
                let _ = drained;
                prop_assert_eq!(c.resident_blocks(), 0, "{} not fully drained", c.config().name);
            }
        }

        /// `flush` is idempotent: once the hierarchy has drained, flushing
        /// again must not move another byte or bump any counter.
        #[test]
        fn flush_after_drain_changes_nothing(
            ops in proptest::collection::vec((0u64..(1 << 14), proptest::bool::ANY), 1..300),
        ) {
            let l1 = Cache::new(CacheConfig::new("L1", 4 * 64, 64, 1));
            let l2 = Cache::new(CacheConfig::new("L2", 16 * 64, 64, 2).with_sectors(64));
            let mut h = Hierarchy::new(vec![l1, l2], CountingMemory::default());
            for &(addr, is_store) in &ops {
                let kind = if is_store { AccessKind::Store } else { AccessKind::Load };
                h.access(TraceEvent { addr: addr & !7, size: 8, kind });
            }
            h.flush();
            let level_stats: Vec<_> = h.levels().iter().map(|c| c.stats()).collect();
            let memory = *h.memory();
            let refs = h.total_refs();
            h.flush();
            let again: Vec<_> = h.levels().iter().map(|c| c.stats()).collect();
            prop_assert_eq!(level_stats, again);
            prop_assert_eq!(memory, *h.memory());
            prop_assert_eq!(refs, h.total_refs());
        }
    }
}
