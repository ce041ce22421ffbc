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
    /// last cache level).
    fn load(&mut self, addr: u64, bytes: u32);
    /// A write of `bytes` at `addr` (a dirty writeback from the last cache
    /// level).
    fn store(&mut self, addr: u64, bytes: u32);
    /// Write back whatever dirty state the memory holds itself, once every
    /// level above has drained into it. Terminals hold none; a [`Below`]
    /// drains its own cache levels.
    fn drain(&mut self) {}
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

/// Cache levels over a terminal memory, entered from the level above: the
/// part of a hierarchy that misses and writebacks walk.
///
/// A `Below` is itself a [`MainMemory`]. A fill from above is a `load`
/// that probes `levels[0]` as a load of the requester's block size; a
/// writeback is a `store` delivered to `levels[0]` with writeback
/// semantics; `drain` flushes its levels top-down, then its terminal. A
/// [`Hierarchy`] walks its own misses with the same code (its levels are a
/// `Below` entered at L2), so `Hierarchy::new(upper, Below::new(lower,
/// mem))` counts exactly what `Hierarchy::new(upper ++ lower, mem)` counts,
/// drain included.
#[derive(Debug, Clone)]
pub struct Below<M> {
    levels: Vec<Cache>,
    memory: M,
}

impl<M: MainMemory> Below<M> {
    /// The levels `levels` (top-down) over `memory`.
    pub fn new(levels: Vec<Cache>, memory: M) -> Self {
        Self { levels, memory }
    }

    /// The cache levels, top-down.
    pub fn levels(&self) -> &[Cache] {
        &self.levels
    }

    /// The terminal memory.
    pub fn memory(&self) -> &M {
        &self.memory
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

    /// Fetch `bytes` at `addr` into `levels[level]` as a load: walk down
    /// until a hit or the terminal, writing each level's dirty victim back
    /// after its fill. A level fetches its own block size from below.
    #[inline]
    fn fetch(&mut self, mut level: usize, addr: u64, mut bytes: u32) {
        loop {
            if level == self.levels.len() {
                self.memory.load(addr, bytes);
                return;
            }
            match self.levels[level].access(addr, AccessKind::Load, bytes) {
                AccessOutcome::Hit => return,
                AccessOutcome::Miss { evicted_dirty } => {
                    if let Some(victim) = evicted_dirty {
                        self.writeback_parts(level, victim);
                    }
                    bytes = self.levels[level].block_bytes();
                    level += 1;
                }
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
}

impl<M: MainMemory> MainMemory for Below<M> {
    #[inline]
    fn load(&mut self, addr: u64, bytes: u32) {
        self.fetch(0, addr, bytes);
    }

    #[inline]
    fn store(&mut self, addr: u64, bytes: u32) {
        self.writeback(0, addr, bytes);
    }

    /// Drain every resident dirty block top-down, set by set (a level's
    /// writebacks only reach the levels below), then the terminal.
    fn drain(&mut self) {
        let mut dirty = Vec::new();
        for level in 0..self.levels.len() {
            for set in 0..self.levels[level].config().sets() as usize {
                self.levels[level].drain_dirty_set(set, &mut dirty);
                for (addr, bytes) in dirty.drain(..) {
                    self.writeback(level + 1, addr, bytes);
                }
            }
        }
        self.memory.drain();
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
/// Every delivery takes one path: the L1 batched hit probe, then the walk
/// for the first event it rejects. A per-event [`TraceSink::access`] is a
/// one-event chunk.
///
/// Call [`Hierarchy::flush`] (or drop the stream) at end of trace to drain
/// resident dirty blocks to memory, so that "dirty cache lines eventually
/// make their way to the main memory and count as write operations".
#[derive(Debug, Clone)]
pub struct Hierarchy<M: MainMemory> {
    /// Every level, L1 first, over the terminal: L1 is probed here, and a
    /// miss continues through the stack's walk from L2 down.
    stack: Below<M>,
    drained: bool,
    /// `log2` of L1's block size, for shift/mask splitting.
    l1_shift: u32,
    /// Observability hook, absent unless telemetry was requested.
    probes: Option<Box<ProbeState>>,
}

/// Attached-probe bookkeeping (see [`crate::probes`] for the protocol).
#[derive(Debug, Clone)]
struct ProbeState {
    probes: HierarchyProbes,
    /// Cumulative events already added into the shared progress counters.
    published_events: u64,
    /// Events until the next publication.
    countdown: u64,
}

impl<M: MainMemory> Hierarchy<M> {
    /// Build a hierarchy; `levels[0]` is closest to the CPU.
    ///
    /// # Panics
    ///
    /// If `levels` is empty: a hierarchy has an L1.
    pub fn new(levels: Vec<Cache>, memory: M) -> Self {
        let l1 = levels
            .first()
            .expect("a Hierarchy needs at least one cache level (L1)");
        Self {
            l1_shift: l1.block_bytes().trailing_zeros(),
            stack: Below::new(levels, memory),
            drained: false,
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
            self.stack.levels.len(),
            "probes must cover every cache level"
        );
        self.probes = Some(Box::new(ProbeState {
            probes,
            published_events: 0,
            countdown: PROBE_EPOCH,
        }));
    }

    /// Always 0. The one-entry L1 line buffer this counted is gone: every
    /// reference takes the batched L1 probe. Kept for callers that still
    /// report the count.
    pub fn line_buffer_hits(&self) -> u64 {
        0
    }

    /// Per-chunk probe tick: bumps chunk counters, then publishes if the
    /// chunk crossed an epoch boundary.
    fn probe_chunk(&mut self, events_in_chunk: u64) {
        let Some(state) = self.probes.as_deref_mut() else {
            return;
        };
        state.probes.chunks.inc();
        if state.countdown <= events_in_chunk {
            state.countdown = PROBE_EPOCH;
            self.probe_publish();
        } else {
            state.countdown -= events_in_chunk;
        }
    }

    /// Publish cumulative values to the attached probes (none: a no-op):
    /// per-level counters by absolute store, shared progress counters by
    /// delta.
    #[cold]
    fn probe_publish(&mut self) {
        let total = self.total_refs();
        let Some(state) = self.probes.as_deref_mut() else {
            return;
        };
        let delta = total.saturating_sub(state.published_events);
        state.published_events = total;
        if delta > 0 {
            state.probes.events.add(delta);
        }
        for (probes, cache) in state.probes.levels.iter().zip(self.stack.levels.iter()) {
            let values = cache.counter_values();
            for probe in probes {
                probe.publish(&values);
            }
        }
    }

    /// The cache levels, top-down.
    pub fn levels(&self) -> &[Cache] {
        &self.stack.levels
    }

    /// The terminal memory.
    pub fn memory(&self) -> &M {
        &self.stack.memory
    }

    /// Mutable access to the terminal memory.
    pub fn memory_mut(&mut self) -> &mut M {
        &mut self.stack.memory
    }

    /// Total demand references consumed (the paper's "Total Number of
    /// References" denominator in Equation 2): L1's request count, since
    /// every post-split reference reaches L1 exactly once and writebacks
    /// never do.
    pub fn total_refs(&self) -> u64 {
        self.stack.levels[0].demand_refs()
    }

    /// Total demand bytes moved by the CPU reference stream.
    pub fn demand_bytes(&self) -> u64 {
        self.stack.levels[0].demand_bytes()
    }

    /// Consume the hierarchy, returning the terminal memory.
    pub fn into_memory(self) -> M {
        self.stack.memory
    }

    /// Process one demand reference already confined to a single L1 block:
    /// the L1 access inline, the multi-level miss walk out of line.
    #[inline]
    fn demand(&mut self, addr: u64, kind: AccessKind, size: u32) {
        if let AccessOutcome::Miss { evicted_dirty } = self.stack.levels[0].access(addr, kind, size)
        {
            self.demand_miss(addr, evicted_dirty);
        }
    }

    /// Continue a demand reference that missed L1: write L1's dirty victim
    /// back, then fetch L1's block from L2 down until a hit or the
    /// terminal.
    #[inline(never)]
    fn demand_miss(&mut self, addr: u64, l1_evicted: Option<u64>) {
        if let Some(victim) = l1_evicted {
            self.stack.writeback_parts(0, victim);
        }
        let block = self.stack.levels[0].block_bytes();
        self.stack.fetch(1, addr, block);
    }

    /// Walk one demand event the batched hit probe rejected. An event
    /// within one L1 block walks as one reference; a straddler splits at
    /// block boundaries. A size-0 event probes the block holding `addr`,
    /// unless `addr` sits on a block boundary (address 0 included), where
    /// it touches nothing: its "last byte" `addr - 1` (wrapping at 0) lies
    /// in another block, and the split loop has no bytes to walk.
    #[inline]
    fn demand_event(&mut self, ev: TraceEvent) {
        let shift = self.l1_shift;
        if ev.addr >> shift == ev.end().wrapping_sub(1) >> shift {
            self.demand(ev.addr, ev.kind, ev.size);
        } else {
            self.demand_split(ev);
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

    /// Drain all resident dirty blocks to memory, top-down, then the
    /// terminal's own state ([`MainMemory::drain`]). Idempotent.
    pub fn drain(&mut self) {
        if self.drained {
            return;
        }
        self.drained = true;
        self.stack.drain();
        // Authoritative final publication: after this, registry values are
        // exact, not one-epoch-stale.
        self.probe_publish();
    }

    /// Run a consistency check over every level's counters, panicking
    /// with the specific broken invariant.
    pub fn assert_consistent(&self) {
        self.stack.assert_consistent();
    }
}

impl<M: MainMemory> TraceSink for Hierarchy<M> {
    /// A one-event chunk: the same probe and walk as every stream.
    #[inline]
    fn access(&mut self, ev: TraceEvent) {
        self.access_chunk(std::slice::from_ref(&ev));
    }

    /// Batched delivery: one virtual call, then alternating runs of the L1
    /// batched hit probe and the walk. `access_hit_batch` consumes leading
    /// events while each stays in one L1 block and hits; the first event it
    /// rejects (a miss, a straddler, or size 0) takes the walk, and the
    /// loop resumes batching behind it.
    fn access_chunk(&mut self, events: &[TraceEvent]) {
        debug_assert!(!self.drained, "stream continued after flush()");
        let mut i = 0;
        while i < events.len() {
            i += self.stack.levels[0].access_hit_batch(&events[i..]);
            if let Some(&ev) = events.get(i) {
                self.demand_event(ev);
                i += 1;
            }
        }
        self.probe_chunk(events.len() as u64);
    }

    fn flush(&mut self) {
        self.drain();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CounterValues;
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
    #[should_panic(expected = "at least one cache level")]
    fn a_hierarchy_needs_an_l1() {
        Hierarchy::new(vec![], CountingMemory::default());
    }

    #[test]
    fn size_zero_events_probe_only_inside_a_block() {
        let mut h = two_level();
        // on a block boundary, address 0 included, a size-0 event touches
        // nothing, whichever way it is delivered
        h.access(TraceEvent::load(0, 0));
        h.access(TraceEvent::store(64, 0));
        h.access_chunk(&[TraceEvent::load(0, 0), TraceEvent::store(64, 0)]);
        for c in h.levels() {
            assert_eq!(c.counter_values(), CounterValues::default());
        }
        assert_eq!(*h.memory(), CountingMemory::default());
        // inside a block it probes that block: a 0-byte miss of block 1
        h.access(TraceEvent::load(65, 0));
        let l1 = h.levels()[0].stats();
        assert_eq!((l1.loads, l1.load_misses, l1.bytes_loaded), (1, 1, 0));
        assert!(h.levels()[0].contains(64));
        assert_eq!(h.memory().loads, 1);
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
        assert_eq!(reg.counter_value("progress.events"), Some(h.total_refs()));
        // each per-event delivery is a one-event chunk
        assert_eq!(reg.counter_value("progress.chunks"), Some(101));
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
