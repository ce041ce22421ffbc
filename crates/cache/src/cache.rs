//! One write-back, write-allocate set-associative cache level.

use crate::config::{CacheConfig, WritebackMissPolicy};
use crate::policy::PolicyState;
use crate::stats::LevelStats;
use memsim_trace::{AccessKind, TraceEvent};

const FLAG_VALID: u64 = 0b01;
const FLAG_DIRTY: u64 = 0b10;

/// Outcome of a demand access (load or store).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The block was resident.
    Hit,
    /// The block was not resident. The caller must fetch the block from the
    /// next level; if `evicted_dirty` is set, the caller must also write the
    /// named block back to the next level.
    Miss {
        /// Base address of a dirty block displaced by the fill, if any.
        evicted_dirty: Option<u64>,
    },
}

/// Outcome of a writeback arriving from the level above.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WritebackOutcome {
    /// The block was resident and is now dirty here.
    HitMarkedDirty,
    /// Not resident; per [`WritebackMissPolicy::Bypass`] the caller must
    /// forward the writeback to the next level unchanged.
    MissBypass,
    /// Not resident; the block was allocated dirty here. If `evicted_dirty`
    /// is set, the displaced dirty block must be written back below.
    MissAllocated {
        /// Base address of a dirty block displaced by the allocation.
        evicted_dirty: Option<u64>,
    },
}

/// What [`Cache::lookup`] found in a set.
#[derive(Debug, Clone, Copy)]
enum Found {
    /// Resident at `way`; `ring` when the MRU ring answered (the MRU way's
    /// successor or the MRU way itself) without the scan.
    Hit { way: usize, ring: bool },
    /// Not resident; the set's first invalid way, if it has one.
    Miss { invalid: Option<usize> },
}

/// Live counters on the per-reference path. Totals that are pure sums
/// (`loads = load_hits + load_misses`, likewise `stores`) are derived when
/// [`Cache::stats`] materializes a [`LevelStats`], so each request pays for
/// one hit-or-miss counter and one byte counter instead of three.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    load_hits: u64,
    load_misses: u64,
    store_hits: u64,
    store_misses: u64,
    writebacks_out: u64,
    fills: u64,
    bytes_loaded: u64,
    bytes_stored: u64,
    /// Demand probes resolved by the MRU-ring fast path (no set scan).
    mru_hits: u64,
}

/// A raw, copyable view of one level's live counters, for observability
/// probes that publish per-level values without allocating a
/// [`LevelStats`] (no `String` name) on every epoch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterValues {
    /// Read requests that hit.
    pub load_hits: u64,
    /// Read requests that missed.
    pub load_misses: u64,
    /// Write requests that hit.
    pub store_hits: u64,
    /// Write requests that missed.
    pub store_misses: u64,
    /// Dirty blocks evicted downward.
    pub writebacks_out: u64,
    /// Blocks installed.
    pub fills: u64,
    /// Bytes moved by read requests.
    pub bytes_loaded: u64,
    /// Bytes moved by write requests.
    pub bytes_stored: u64,
    /// Demand probes resolved by the MRU-ring fast path.
    pub mru_hits: u64,
}

/// A simulated cache level. Holds tags and line state only (no data — the
/// simulator tracks movement, not contents).
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    ways: usize,
    block_shift: u32,
    /// `log2(sets)`, precomputed so the per-access path never recomputes it.
    set_shift: u32,
    set_mask: u64,
    /// `sets × ways` packed line words: `tag << 2 | DIRTY | VALID`. One
    /// probe is a single load + compare, and a set's ways are contiguous.
    lines: Vec<u64>,
    /// Per-set most-recently-hit/installed way, probed before the scan.
    mru: Vec<u32>,
    policy: PolicyState,
    counters: Counters,
    /// Per-line dirty-sector bitmasks (empty when unsectored).
    sector_masks: Vec<u64>,
    sector_bytes: u32,
    sector_shift: u32,
    /// Dirty mask of the block displaced by the most recent install, for
    /// the hierarchy to fan out into per-sector writebacks.
    pending_eviction_mask: u64,
}

impl Cache {
    /// Build a cache from a validated configuration.
    pub fn new(cfg: CacheConfig) -> Self {
        cfg.validate();
        let sets = cfg.sets() as usize;
        let ways = cfg.resolved_ways() as usize;
        let sector_bytes = cfg.sector_bytes.unwrap_or(cfg.block_bytes);
        let block_shift = cfg.block_bytes.trailing_zeros();
        let set_shift = sets.trailing_zeros();
        // Tags live in the top 62 bits of a line word; the two bits shifted
        // out are address bits the block and set fields must cover.
        assert!(
            block_shift + set_shift >= 2,
            "cache must span at least 4 bytes across block × sets"
        );
        Self {
            ways,
            block_shift,
            set_shift,
            set_mask: sets as u64 - 1,
            lines: vec![0; sets * ways],
            mru: vec![0; sets],
            policy: PolicyState::new(cfg.policy, sets, ways),
            counters: Counters::default(),
            sector_masks: if cfg.sector_bytes.is_some() {
                vec![0; sets * ways]
            } else {
                Vec::new()
            },
            sector_bytes,
            sector_shift: sector_bytes.trailing_zeros(),
            pending_eviction_mask: 0,
            cfg,
        }
    }

    /// The configuration this cache was built from.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Block size in bytes.
    #[inline]
    pub fn block_bytes(&self) -> u32 {
        self.cfg.block_bytes
    }

    /// Statistics collected so far, materialized from the live counters
    /// (request totals are the sums of their hit and miss counts).
    pub fn stats(&self) -> LevelStats {
        let c = &self.counters;
        LevelStats {
            name: self.cfg.name.clone(),
            loads: c.load_hits + c.load_misses,
            stores: c.store_hits + c.store_misses,
            load_hits: c.load_hits,
            load_misses: c.load_misses,
            store_hits: c.store_hits,
            store_misses: c.store_misses,
            writebacks_out: c.writebacks_out,
            fills: c.fills,
            bytes_loaded: c.bytes_loaded,
            bytes_stored: c.bytes_stored,
        }
    }

    /// The live counter values, including probe-path telemetry that
    /// [`LevelStats`] does not carry (MRU-ring short circuits).
    pub fn counter_values(&self) -> CounterValues {
        let c = &self.counters;
        CounterValues {
            load_hits: c.load_hits,
            load_misses: c.load_misses,
            store_hits: c.store_hits,
            store_misses: c.store_misses,
            writebacks_out: c.writebacks_out,
            fills: c.fills,
            bytes_loaded: c.bytes_loaded,
            bytes_stored: c.bytes_stored,
            mru_hits: c.mru_hits,
        }
    }

    /// Demand probes resolved by the MRU-ring fast path (a subset of
    /// hits; the ratio to `hits()` is the short-circuit rate).
    #[inline]
    pub fn mru_short_circuits(&self) -> u64 {
        self.counters.mru_hits
    }

    /// Total requests that have arrived at this level. The hierarchy derives
    /// its demand-reference count from L1's, so the per-event path does not
    /// maintain a separate one.
    #[inline]
    pub(crate) fn demand_refs(&self) -> u64 {
        let c = &self.counters;
        c.load_hits + c.load_misses + c.store_hits + c.store_misses
    }

    /// Total bytes moved by requests at this level.
    #[inline]
    pub(crate) fn demand_bytes(&self) -> u64 {
        self.counters.bytes_loaded + self.counters.bytes_stored
    }

    /// Align an address down to this cache's block base.
    #[inline]
    pub fn block_base(&self, addr: u64) -> u64 {
        addr >> self.block_shift << self.block_shift
    }

    #[inline]
    fn locate(&self, addr: u64) -> (usize, u64) {
        let block = addr >> self.block_shift;
        let set = (block & self.set_mask) as usize;
        let tag = block >> self.set_shift;
        (set, tag)
    }

    /// The one block lookup: probe the way *after* the set's most-recent
    /// one first (LRU fills and revisits a set's ways in ring order, so
    /// sweeping and cyclic streams hit the ring successor), then the MRU
    /// way itself, then scan the set's contiguous line words. A miss also
    /// reports the first invalid way, found in the same scan, so the fill
    /// does not rescan the set. Always inlined, as is [`Cache::touch`]:
    /// outlined calls in the batched hit probe's loop made the chunked
    /// L1-hit stream of `simulator_throughput` 10–15% slower (2-vCPU x86-64
    /// host).
    #[inline(always)]
    fn lookup(&self, set: usize, tag: u64) -> Found {
        let base = set * self.ways;
        let want = (tag << 2) | FLAG_VALID;
        let set_lines = &self.lines[base..base + self.ways];
        // `mru` is always in range; `min` (a cmov) lets the compiler drop
        // the probes' bounds checks.
        let mru = (self.mru[set] as usize).min(self.ways - 1);
        let next = if mru + 1 == self.ways { 0 } else { mru + 1 };
        if set_lines[next] & !FLAG_DIRTY == want {
            return Found::Hit {
                way: next,
                ring: true,
            };
        }
        if set_lines[mru] & !FLAG_DIRTY == want {
            return Found::Hit {
                way: mru,
                ring: true,
            };
        }
        let mut invalid = None;
        for (way, &word) in set_lines.iter().enumerate() {
            if word & !FLAG_DIRTY == want {
                return Found::Hit { way, ring: false };
            }
            if word & FLAG_VALID == 0 && invalid.is_none() {
                invalid = Some(way);
            }
        }
        Found::Miss { invalid }
    }

    /// The index of the line word holding the block of `addr`, if it is
    /// resident.
    fn resident_line(&self, addr: u64) -> Option<usize> {
        let (set, tag) = self.locate(addr);
        match self.lookup(set, tag) {
            Found::Hit { way, .. } => Some(set * self.ways + way),
            Found::Miss { .. } => None,
        }
    }

    /// Reconstruct the base address of the block held in `(set, way)`.
    #[inline]
    fn resident_addr(&self, set: usize, way: usize) -> u64 {
        let tag = self.lines[set * self.ways + way] >> 2;
        ((tag << self.set_shift) | set as u64) << self.block_shift
    }

    #[inline]
    fn sectored(&self) -> bool {
        !self.sector_masks.is_empty()
    }

    /// Bitmask of the sectors covered by `[addr, addr + bytes)` within the
    /// block containing `addr`.
    #[inline]
    fn sector_span(&self, addr: u64, bytes: u32) -> u64 {
        let block_base = self.block_base(addr);
        let first = ((addr - block_base) >> self.sector_shift) as u32;
        let last_byte = addr - block_base + u64::from(bytes.max(1)) - 1;
        let last = (last_byte >> self.sector_shift) as u32;
        let count = last - first + 1;
        let run = if count >= 64 {
            !0u64
        } else {
            (1u64 << count) - 1
        };
        run << first
    }

    /// Mark the sectors covered by a store as dirty (no-op when unsectored
    /// — the FLAG_DIRTY bit already covers whole-block tracking).
    #[inline]
    fn mark_dirty_sectors(&mut self, idx: usize, addr: u64, bytes: u32) {
        if self.sectored() {
            self.sector_masks[idx] |= self.sector_span(addr, bytes);
        }
    }

    /// Hit bookkeeping: a write dirties the line and the sectors it
    /// covers; the way becomes the set's MRU way and the policy promotes
    /// it. Request counters are the caller's.
    #[inline(always)]
    fn touch(&mut self, set: usize, way: usize, addr: u64, kind: AccessKind, bytes: u32) {
        let idx = set * self.ways + way;
        if kind.is_store() {
            self.lines[idx] |= FLAG_DIRTY;
            self.mark_dirty_sectors(idx, addr, bytes);
        }
        self.mru[set] = way as u32;
        self.policy.on_hit(set, way);
    }

    /// Install `tag` over the set's first invalid way, else the policy's
    /// victim; a written fill is dirty in the sectors it covers. Returns
    /// the displaced dirty block address, counted as a writeback out.
    #[inline]
    fn fill(
        &mut self,
        set: usize,
        invalid: Option<usize>,
        tag: u64,
        addr: u64,
        kind: AccessKind,
        bytes: u32,
    ) -> Option<u64> {
        let way = invalid.unwrap_or_else(|| self.policy.victim(set));
        let idx = set * self.ways + way;
        let evicted = (self.lines[idx] & (FLAG_VALID | FLAG_DIRTY) == (FLAG_VALID | FLAG_DIRTY))
            .then(|| self.resident_addr(set, way));
        if self.sectored() {
            if evicted.is_some() {
                self.pending_eviction_mask = self.sector_masks[idx];
            }
            self.sector_masks[idx] = 0;
        }
        self.lines[idx] = (tag << 2) | FLAG_VALID;
        if kind.is_store() {
            self.lines[idx] |= FLAG_DIRTY;
            self.mark_dirty_sectors(idx, addr, bytes);
        }
        self.mru[set] = way as u32;
        self.policy.on_install(set, way);
        self.counters.fills += 1;
        if evicted.is_some() {
            self.counters.writebacks_out += 1;
        }
        evicted
    }

    /// Payload of the most recent dirty eviction: the whole block, or only
    /// the dirty sectors of a sectored page. The eviction is one writeback
    /// *transaction* either way (a page eviction is one device write whose
    /// latency Table 1 models per operation), but with sector tracking the
    /// energy model only pays for the bytes actually dirty.
    #[inline]
    pub fn take_eviction_bytes(&mut self) -> u32 {
        if self.sectored() {
            let m = self.pending_eviction_mask;
            self.pending_eviction_mask = 0;
            m.count_ones() * self.sector_bytes
        } else {
            self.cfg.block_bytes
        }
    }

    /// Process a demand access. Counts the request (with `req_bytes` moved)
    /// and returns what the caller must do next.
    #[inline]
    pub fn access(&mut self, addr: u64, kind: AccessKind, req_bytes: u32) -> AccessOutcome {
        let (set, tag) = self.locate(addr);
        let found = self.lookup(set, tag);
        let hit = matches!(found, Found::Hit { .. });
        let c = &mut self.counters;
        match (kind, hit) {
            (AccessKind::Load, true) => c.load_hits += 1,
            (AccessKind::Load, false) => c.load_misses += 1,
            (AccessKind::Store, true) => c.store_hits += 1,
            (AccessKind::Store, false) => c.store_misses += 1,
        }
        match kind {
            AccessKind::Load => c.bytes_loaded += u64::from(req_bytes),
            AccessKind::Store => c.bytes_stored += u64::from(req_bytes),
        }
        match found {
            Found::Hit { way, ring } => {
                self.counters.mru_hits += u64::from(ring);
                self.touch(set, way, addr, kind, req_bytes);
                AccessOutcome::Hit
            }
            Found::Miss { invalid } => AccessOutcome::Miss {
                evicted_dirty: self.fill(set, invalid, tag, addr, kind, req_bytes),
            },
        }
    }

    /// Process the longest prefix of `events` that resolves entirely on the
    /// demand hit path, returning how many leading events were consumed.
    /// The batch stops (without consuming the event) at the first reference
    /// that misses, spans more than one block, or has size zero — those fall
    /// back to the hierarchy's walk, which owns misses, splitting and empty
    /// references.
    ///
    /// Per consumed event the bookkeeping is exactly [`Cache::access`]'s hit
    /// path — the same lookup, hit/byte counters, dirty flag and sector mask
    /// on stores, MRU update, policy promotion in stream order — but the
    /// counter updates accumulate in locals and land once per batch, and
    /// the loop runs over the contiguous packed tag words with no virtual
    /// dispatch, which is what makes chunked delivery fast on hit-heavy
    /// streams.
    pub(crate) fn access_hit_batch(&mut self, events: &[TraceEvent]) -> usize {
        let mut load_hits = 0u64;
        let mut store_hits = 0u64;
        let mut bytes_loaded = 0u64;
        let mut bytes_stored = 0u64;
        let mut mru_hits = 0u64;
        let mut taken = 0usize;
        for &ev in events {
            let first = ev.addr >> self.block_shift;
            let last = ev.end().saturating_sub(1) >> self.block_shift;
            if ev.size == 0 || first != last {
                break;
            }
            let set = (first & self.set_mask) as usize;
            let Found::Hit { way, ring } = self.lookup(set, first >> self.set_shift) else {
                break;
            };
            mru_hits += u64::from(ring);
            match ev.kind {
                AccessKind::Load => {
                    load_hits += 1;
                    bytes_loaded += u64::from(ev.size);
                }
                AccessKind::Store => {
                    store_hits += 1;
                    bytes_stored += u64::from(ev.size);
                }
            }
            self.touch(set, way, ev.addr, ev.kind, ev.size);
            taken += 1;
        }
        self.counters.load_hits += load_hits;
        self.counters.store_hits += store_hits;
        self.counters.bytes_loaded += bytes_loaded;
        self.counters.bytes_stored += bytes_stored;
        self.counters.mru_hits += mru_hits;
        taken
    }

    /// Process a writeback arriving from the level above. Counts a store of
    /// `req_bytes` and applies the configured [`WritebackMissPolicy`].
    pub fn writeback(&mut self, addr: u64, req_bytes: u32) -> WritebackOutcome {
        let (set, tag) = self.locate(addr);
        self.counters.bytes_stored += u64::from(req_bytes);
        match (self.lookup(set, tag), self.cfg.writeback_miss) {
            (Found::Hit { way, .. }, _) => {
                self.counters.store_hits += 1;
                self.touch(set, way, addr, AccessKind::Store, req_bytes);
                WritebackOutcome::HitMarkedDirty
            }
            (Found::Miss { .. }, WritebackMissPolicy::Bypass) => {
                self.counters.store_misses += 1;
                WritebackOutcome::MissBypass
            }
            (Found::Miss { invalid }, WritebackMissPolicy::Allocate) => {
                self.counters.store_misses += 1;
                WritebackOutcome::MissAllocated {
                    evicted_dirty: self.fill(set, invalid, tag, addr, AccessKind::Store, req_bytes),
                }
            }
        }
    }

    /// Whether the block containing `addr` is resident.
    pub fn contains(&self, addr: u64) -> bool {
        self.resident_line(addr).is_some()
    }

    /// Whether the block containing `addr` is resident *and dirty*.
    pub fn is_dirty(&self, addr: u64) -> bool {
        self.resident_line(addr)
            .is_some_and(|idx| self.lines[idx] & FLAG_DIRTY != 0)
    }

    /// Number of valid blocks currently resident.
    pub fn resident_blocks(&self) -> u64 {
        self.lines.iter().filter(|w| **w & FLAG_VALID != 0).count() as u64
    }

    /// Invalidate every line of `set`, appending `(addr, bytes)`
    /// writeback transactions for its dirty data to `dirty` (one per dirty
    /// block; sectored blocks carry only their dirty sectors' bytes), in
    /// way order. Counts one `writebacks_out` per dirty block. The
    /// end-of-stream drain goes set by set, so it holds one set's
    /// writebacks at a time.
    pub fn drain_dirty_set(&mut self, set: usize, dirty: &mut Vec<(u64, u32)>) {
        for way in 0..self.ways {
            let idx = set * self.ways + way;
            if self.lines[idx] & (FLAG_VALID | FLAG_DIRTY) == (FLAG_VALID | FLAG_DIRTY) {
                let base = self.resident_addr(set, way);
                let bytes = if self.sectored() {
                    self.sector_masks[idx].count_ones() * self.sector_bytes
                } else {
                    self.cfg.block_bytes
                };
                dirty.push((base, bytes));
                self.counters.writebacks_out += 1;
            }
            if self.sectored() {
                self.sector_masks[idx] = 0;
            }
            self.lines[idx] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Associativity;
    use crate::policy::ReplacementPolicy;
    use proptest::prelude::*;

    /// Every set's dirty writebacks, in set/way order.
    fn drain_all(c: &mut Cache) -> Vec<(u64, u32)> {
        let mut dirty = Vec::new();
        for set in 0..c.config().sets() as usize {
            c.drain_dirty_set(set, &mut dirty);
        }
        dirty
    }

    fn small_cache(ways: u32) -> Cache {
        // 4 sets × `ways` ways × 64 B blocks
        Cache::new(CacheConfig::new("t", 4 * u64::from(ways) * 64, 64, ways))
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small_cache(2);
        assert_eq!(
            c.access(0x1000, AccessKind::Load, 8),
            AccessOutcome::Miss {
                evicted_dirty: None
            }
        );
        assert_eq!(c.access(0x1008, AccessKind::Load, 8), AccessOutcome::Hit);
        assert_eq!(c.stats().load_misses, 1);
        assert_eq!(c.stats().load_hits, 1);
        assert!(c.stats().is_consistent());
    }

    #[test]
    fn store_marks_dirty_and_eviction_reports_it() {
        let mut c = small_cache(1); // direct-mapped, 4 sets
                                    // store to set 0
        c.access(0x0, AccessKind::Store, 8);
        assert!(c.is_dirty(0x0));
        // conflicting load: 4 sets × 64 B → same set every 256 B
        let out = c.access(0x100, AccessKind::Load, 8);
        assert_eq!(
            out,
            AccessOutcome::Miss {
                evicted_dirty: Some(0x0)
            }
        );
        assert_eq!(c.stats().writebacks_out, 1);
        assert!(!c.contains(0x0));
        assert!(c.contains(0x100));
    }

    #[test]
    fn clean_eviction_is_silent() {
        let mut c = small_cache(1);
        c.access(0x0, AccessKind::Load, 8);
        let out = c.access(0x100, AccessKind::Load, 8);
        assert_eq!(
            out,
            AccessOutcome::Miss {
                evicted_dirty: None
            }
        );
        assert_eq!(c.stats().writebacks_out, 0);
    }

    #[test]
    fn store_miss_allocates_dirty() {
        let mut c = small_cache(2);
        c.access(0x40, AccessKind::Store, 8);
        assert!(c.is_dirty(0x40));
        assert_eq!(c.stats().store_misses, 1);
    }

    #[test]
    fn writeback_hit_marks_dirty() {
        let mut c = small_cache(2);
        c.access(0x0, AccessKind::Load, 8);
        assert!(!c.is_dirty(0x0));
        assert_eq!(c.writeback(0x0, 64), WritebackOutcome::HitMarkedDirty);
        assert!(c.is_dirty(0x0));
    }

    #[test]
    fn writeback_miss_bypasses_by_default() {
        let mut c = small_cache(2);
        assert_eq!(c.writeback(0x0, 64), WritebackOutcome::MissBypass);
        assert!(!c.contains(0x0), "bypass must not allocate");
        assert_eq!(c.stats().store_misses, 1);
    }

    #[test]
    fn writeback_miss_allocate_policy() {
        let mut c = Cache::new(
            CacheConfig::new("t", 4 * 64, 64, 1).with_writeback_miss(WritebackMissPolicy::Allocate),
        );
        assert_eq!(
            c.writeback(0x0, 64),
            WritebackOutcome::MissAllocated {
                evicted_dirty: None
            }
        );
        assert!(c.is_dirty(0x0));
        // displacing it with another writeback to the same set reports the victim
        let out = c.writeback(0x100, 64);
        assert_eq!(
            out,
            WritebackOutcome::MissAllocated {
                evicted_dirty: Some(0x0)
            }
        );
    }

    #[test]
    fn lru_within_set() {
        let mut c = small_cache(2); // 2-way
                                    // set 0 blocks live at multiples of 256 (4 sets × 64)
        c.access(0x000, AccessKind::Load, 8);
        c.access(0x100, AccessKind::Load, 8);
        c.access(0x000, AccessKind::Load, 8); // touch -> 0x100 is LRU
        c.access(0x200, AccessKind::Load, 8); // evicts 0x100
        assert!(c.contains(0x000));
        assert!(!c.contains(0x100));
        assert!(c.contains(0x200));
    }

    #[test]
    fn drain_returns_all_dirty_blocks() {
        let mut c = small_cache(2);
        c.access(0x000, AccessKind::Store, 8);
        c.access(0x040, AccessKind::Load, 8);
        c.access(0x080, AccessKind::Store, 8);
        let mut dirty = drain_all(&mut c);
        dirty.sort_unstable();
        assert_eq!(dirty, vec![(0x000, 64), (0x080, 64)]);
        assert_eq!(c.resident_blocks(), 0);
        // second drain is empty
        assert!(drain_all(&mut c).is_empty());
    }

    #[test]
    fn resident_addr_roundtrip() {
        let mut c = Cache::new(CacheConfig::new("t", 64 * 1024, 64, 8));
        for addr in [0u64, 0x12340, 0xdead_b000, 0xffff_ffc0] {
            c.access(addr, AccessKind::Load, 8);
            assert!(c.contains(addr), "block for {addr:#x} must be resident");
        }
    }

    #[test]
    fn fully_associative_single_set() {
        let mut c = Cache::new(CacheConfig {
            name: "fa".into(),
            capacity_bytes: 4 * 64,
            block_bytes: 64,
            associativity: Associativity::Full,
            policy: ReplacementPolicy::Lru,
            writeback_miss: WritebackMissPolicy::Bypass,
            sector_bytes: None,
        });
        // 4 blocks anywhere in memory coexist
        for i in 0..4u64 {
            c.access(i * 0x1_0000, AccessKind::Load, 8);
        }
        for i in 0..4u64 {
            assert!(c.contains(i * 0x1_0000));
        }
        // a 5th evicts the least recently used (the first)
        c.access(4 * 0x1_0000, AccessKind::Load, 8);
        assert!(!c.contains(0));
    }

    fn sectored_cache() -> Cache {
        // 2 sets × 1 way × 512 B pages, 64 B sectors
        Cache::new(CacheConfig::new("pg", 2 * 512, 512, 1).with_sectors(64))
    }

    #[test]
    fn sectored_eviction_carries_only_dirty_bytes() {
        let mut c = sectored_cache();
        // fill page 0 clean, then dirty two sectors via writebacks
        c.access(0x000, AccessKind::Load, 64);
        c.writeback(0x000, 64); // sector 0
        c.writeback(0x080, 64); // sector 2
                                // conflict: pages map set = (addr/512) % 2, so 0x400 hits set 0
        let out = c.access(0x400, AccessKind::Load, 64);
        assert_eq!(
            out,
            AccessOutcome::Miss {
                evicted_dirty: Some(0x000)
            }
        );
        assert_eq!(c.take_eviction_bytes(), 128, "two dirty sectors");
    }

    #[test]
    fn sectored_demand_store_dirties_one_sector() {
        let mut c = sectored_cache();
        c.access(0x1C0, AccessKind::Store, 8); // sector 7 of page 0x000
        let out = c.access(0x400, AccessKind::Load, 64);
        assert_eq!(
            out,
            AccessOutcome::Miss {
                evicted_dirty: Some(0x000)
            }
        );
        assert_eq!(c.take_eviction_bytes(), 64);
    }

    #[test]
    fn sectored_clean_page_evicts_silently() {
        let mut c = sectored_cache();
        c.access(0x000, AccessKind::Load, 64);
        let out = c.access(0x400, AccessKind::Load, 64);
        assert_eq!(
            out,
            AccessOutcome::Miss {
                evicted_dirty: None
            }
        );
    }

    #[test]
    fn sectored_drain_reports_dirty_bytes() {
        let mut c = sectored_cache();
        c.access(0x000, AccessKind::Load, 64); // page resident
        c.access(0x200, AccessKind::Load, 64); // set-1 page resident
        c.writeback(0x000, 64);
        c.writeback(0x040, 64);
        c.writeback(0x200, 64); // one sector of the set-1 page
        let mut drained = drain_all(&mut c);
        drained.sort_unstable();
        assert_eq!(drained, vec![(0x000, 128), (0x200, 64)]);
    }

    #[test]
    fn unsectored_eviction_is_whole_block() {
        let mut c = small_cache(1);
        c.access(0x0, AccessKind::Store, 8);
        c.access(0x100, AccessKind::Load, 8);
        assert_eq!(c.take_eviction_bytes(), 64);
    }

    #[test]
    fn sector_mask_resets_on_reinstall() {
        let mut c = sectored_cache();
        c.writeback(0x000, 64); // page 0 dirty sector 0
        c.access(0x400, AccessKind::Load, 64); // evicts page 0
        let _ = c.take_eviction_bytes();
        // page 0x400 is clean; evicting it must report nothing dirty
        let out = c.access(0x000, AccessKind::Load, 64);
        assert_eq!(
            out,
            AccessOutcome::Miss {
                evicted_dirty: None
            }
        );
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn sectors_must_be_power_of_two() {
        Cache::new(CacheConfig::new("bad", 1024, 512, 1).with_sectors(96));
    }

    #[test]
    #[should_panic(expected = "at most 64 sectors")]
    fn sector_count_bounded() {
        Cache::new(CacheConfig::new("bad", 8192, 8192, 1).with_sectors(64));
    }

    /// Naive reference model: fully associative LRU as an ordered Vec.
    struct RefLru {
        cap_blocks: usize,
        block: u64,
        // most recent at the back; (block_no, dirty)
        lines: Vec<(u64, bool)>,
    }

    impl RefLru {
        fn access(&mut self, addr: u64, store: bool) -> (bool, Option<u64>) {
            let b = addr / self.block;
            if let Some(pos) = self.lines.iter().position(|(x, _)| *x == b) {
                let (_, mut d) = self.lines.remove(pos);
                d |= store;
                self.lines.push((b, d));
                (true, None)
            } else {
                let mut evicted = None;
                if self.lines.len() == self.cap_blocks {
                    let (victim, dirty) = self.lines.remove(0);
                    if dirty {
                        evicted = Some(victim * self.block);
                    }
                }
                self.lines.push((b, store));
                (false, evicted)
            }
        }
    }

    proptest! {
        /// The full-associative LRU cache agrees exactly (hit/miss and dirty
        /// evictions) with an obviously-correct reference model.
        #[test]
        fn matches_reference_lru(
            ops in proptest::collection::vec((0u64..4096, proptest::bool::ANY), 1..800),
            cap_blocks in 1usize..16,
        ) {
            let mut c = Cache::new(CacheConfig::fully_associative(
                "fa", cap_blocks as u64 * 64, 64,
            ));
            let mut r = RefLru { cap_blocks, block: 64, lines: Vec::new() };
            for (addr, is_store) in ops {
                let kind = if is_store { AccessKind::Store } else { AccessKind::Load };
                let out = c.access(addr, kind, 8);
                let (ref_hit, ref_evicted) = r.access(addr, is_store);
                match out {
                    AccessOutcome::Hit => prop_assert!(ref_hit),
                    AccessOutcome::Miss { evicted_dirty } => {
                        prop_assert!(!ref_hit);
                        prop_assert_eq!(evicted_dirty, ref_evicted);
                    }
                }
            }
            prop_assert!(c.stats().is_consistent());
        }

        /// A sectored cache whose sector size equals its block size is
        /// observably identical to an unsectored one: same access and
        /// writeback outcomes, same eviction payloads, same final stats
        /// and drain transactions, on arbitrary mixed sequences.
        #[test]
        fn whole_block_sectors_match_unsectored(
            ops in proptest::collection::vec(
                (0u64..8192, proptest::bool::ANY, proptest::bool::ANY),
                1..400,
            ),
        ) {
            let base = CacheConfig::new("eq", 8 * 2 * 64, 64, 2);
            let mut plain = Cache::new(base.clone());
            let mut sect = Cache::new(base.with_sectors(64));
            for (addr, is_store, is_writeback) in ops {
                if is_writeback {
                    // writebacks arrive block-aligned (they carry victim
                    // block addresses), per the hierarchy's contract
                    let a = plain.writeback(addr & !63, 64);
                    let b = sect.writeback(addr & !63, 64);
                    prop_assert_eq!(a, b);
                } else {
                    // demand references are pre-split to a single block
                    let addr = addr & !7;
                    let kind = if is_store { AccessKind::Store } else { AccessKind::Load };
                    let a = plain.access(addr, kind, 8);
                    let b = sect.access(addr, kind, 8);
                    prop_assert_eq!(a, b);
                    if matches!(a, AccessOutcome::Miss { evicted_dirty: Some(_) }) {
                        prop_assert_eq!(
                            plain.take_eviction_bytes(),
                            sect.take_eviction_bytes(),
                            "dirty whole-block eviction payloads must agree"
                        );
                    }
                }
            }
            prop_assert_eq!(plain.stats(), sect.stats());
            prop_assert_eq!(drain_all(&mut plain), drain_all(&mut sect));
        }

        /// Occupancy never exceeds capacity, for any policy.
        #[test]
        fn occupancy_bounded(
            addrs in proptest::collection::vec(0u64..100_000, 1..500),
            policy_idx in 0usize..5,
        ) {
            let policy = ReplacementPolicy::ALL[policy_idx];
            let ways = if policy == ReplacementPolicy::TreePlru { 4 } else { 3 };
            let mut c = Cache::new(
                CacheConfig::new("t", 8 * ways * 64, 64, ways as u32).with_policy(policy),
            );
            for a in addrs {
                c.access(a, AccessKind::Load, 8);
                prop_assert!(c.resident_blocks() <= 8 * ways);
            }
            prop_assert!(c.stats().is_consistent());
        }
    }
}
