//! An independent, deliberately naive model of the cache hierarchy, and
//! proptests of both walk engines against it.
//!
//! The model keeps each set as a `Vec` of optional lines with explicit
//! timestamps, walks every request level by level, and has none of the
//! engine's shortcuts: no packed tag words, no MRU ring, no line buffer, no
//! batched hit probe, no shard filter. It covers LRU and FIFO replacement,
//! write-back with write-allocate demand stores, bypassed or allocated
//! writeback misses, dirty-sector writebacks from sectored page caches,
//! straddler splits and size-0 probes. Random, tree-PLRU and SRRIP are not
//! modeled yet.

use memsim_cache::{
    Cache, CacheConfig, CountingMemory, Hierarchy, LevelStats, ReplacementPolicy, ShardedHierarchy,
    Walk, WritebackMissPolicy,
};
use memsim_trace::{AccessKind, TraceEvent, TraceSink};
use proptest::prelude::*;

/// One level's geometry and policies.
#[derive(Debug, Clone, Copy)]
struct Spec {
    block: u32,
    sets: u32,
    ways: u32,
    sector: Option<u32>,
    fifo: bool,
    allocate_writebacks: bool,
}

impl Spec {
    fn cache(&self, name: &str) -> Cache {
        let bytes = u64::from(self.block) * u64::from(self.sets) * u64::from(self.ways);
        let mut cfg = CacheConfig::new(name, bytes, self.block, self.ways);
        if self.fifo {
            cfg = cfg.with_policy(ReplacementPolicy::Fifo);
        }
        if self.allocate_writebacks {
            cfg = cfg.with_writeback_miss(WritebackMissPolicy::Allocate);
        }
        if let Some(sector) = self.sector {
            cfg = cfg.with_sectors(sector);
        }
        Cache::new(cfg)
    }
}

#[derive(Debug, Clone)]
struct Line {
    block: u64,
    dirty: bool,
    /// Dirty sectors, bit `i` for sector `i` (sectored levels only).
    sectors: u64,
    /// Last use (LRU) or insertion (FIFO); the smallest is evicted.
    stamp: u64,
}

struct Level {
    spec: Spec,
    sets: Vec<Vec<Option<Line>>>,
    clock: u64,
    stats: LevelStats,
}

impl Level {
    fn new(spec: Spec, name: &str) -> Level {
        Level {
            spec,
            sets: vec![vec![None; spec.ways as usize]; spec.sets as usize],
            clock: 0,
            stats: LevelStats::new(name),
        }
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// The set index and block number of `addr`.
    fn locate(&self, addr: u64) -> (usize, u64) {
        let block = addr / u64::from(self.spec.block);
        ((block % u64::from(self.spec.sets)) as usize, block)
    }

    /// The sectors `[addr, addr + max(bytes, 1))` covers in its block.
    fn sectors(&self, addr: u64, bytes: u32) -> u64 {
        let Some(sector) = self.spec.sector else {
            return 0;
        };
        let offset = addr % u64::from(self.spec.block);
        let first = offset / u64::from(sector);
        let last = (offset + u64::from(bytes.max(1)) - 1) / u64::from(sector);
        (first..=last).fold(0, |mask, s| mask | 1 << s)
    }

    /// The bytes a dirty line writes back: the whole block, or its dirty
    /// sectors.
    fn dirty_bytes(&self, line: &Line) -> u32 {
        match self.spec.sector {
            Some(sector) => line.sectors.count_ones() * sector,
            None => self.spec.block,
        }
    }

    /// A hit touches the line (dirtying it for a write) and returns true.
    fn hit(&mut self, addr: u64, write: bool, bytes: u32) -> bool {
        let (set, block) = self.locate(addr);
        let sectors = self.sectors(addr, bytes);
        let stamp = self.tick();
        let fifo = self.spec.fifo;
        let Some(line) = self.sets[set]
            .iter_mut()
            .flatten()
            .find(|l| l.block == block)
        else {
            return false;
        };
        if write {
            line.dirty = true;
            line.sectors |= sectors;
        }
        if !fifo {
            line.stamp = stamp;
        }
        true
    }

    /// Install `addr`'s block in the first empty way, or over the oldest
    /// stamp; returns the displaced dirty line's writeback, if any.
    fn install(&mut self, addr: u64, dirty: bool, sectors: u64) -> Option<(u64, u32)> {
        let (set, block) = self.locate(addr);
        let stamp = self.tick();
        let lines = &self.sets[set];
        let way = lines.iter().position(Option::is_none).unwrap_or_else(|| {
            (0..lines.len())
                .min_by_key(|&w| lines[w].as_ref().map_or(0, |l| l.stamp))
                .unwrap()
        });
        let new = Line {
            block,
            dirty,
            sectors,
            stamp,
        };
        self.stats.fills += 1;
        let old = self.sets[set][way].replace(new)?;
        old.dirty.then(|| {
            self.stats.writebacks_out += 1;
            (
                old.block * u64::from(self.spec.block),
                self.dirty_bytes(&old),
            )
        })
    }
}

/// Count one request of `bytes` at a level: a write (a demand store or a
/// writeback from above) or a read (a demand load or a fill).
fn count(stats: &mut LevelStats, write: bool, hit: bool, bytes: u32) {
    let bytes = u64::from(bytes);
    match (write, hit) {
        (true, true) => stats.store_hits += 1,
        (true, false) => stats.store_misses += 1,
        (false, true) => stats.load_hits += 1,
        (false, false) => stats.load_misses += 1,
    }
    if write {
        stats.stores += 1;
        stats.bytes_stored += bytes;
    } else {
        stats.loads += 1;
        stats.bytes_loaded += bytes;
    }
}

struct Model {
    levels: Vec<Level>,
    memory: CountingMemory,
}

impl Model {
    fn new(specs: &[Spec]) -> Model {
        let levels = specs
            .iter()
            .enumerate()
            .map(|(i, s)| Level::new(*s, &format!("L{}", i + 1)))
            .collect();
        Model {
            levels,
            memory: CountingMemory::default(),
        }
    }

    /// A load or store of `bytes` at `addr` arriving at `level` (a demand
    /// reference at L1, a fill below it). A miss allocates, writes the
    /// victim back, and fetches the level's block from below.
    fn access(&mut self, level: usize, addr: u64, write: bool, bytes: u32) {
        let Some(l) = self.levels.get_mut(level) else {
            self.memory.loads += 1;
            self.memory.bytes_loaded += u64::from(bytes);
            return;
        };
        let hit = l.hit(addr, write, bytes);
        count(&mut l.stats, write, hit, bytes);
        if hit {
            return;
        }
        let sectors = if write { l.sectors(addr, bytes) } else { 0 };
        let block = l.spec.block;
        if let Some((victim, victim_bytes)) = l.install(addr, write, sectors) {
            self.writeback(level + 1, victim, victim_bytes);
        }
        self.access(level + 1, addr, false, block);
    }

    /// A writeback of `bytes` at `addr` arriving at `level`.
    fn writeback(&mut self, level: usize, addr: u64, bytes: u32) {
        let Some(l) = self.levels.get_mut(level) else {
            self.memory.stores += 1;
            self.memory.bytes_stored += u64::from(bytes);
            return;
        };
        let hit = l.hit(addr, true, bytes);
        count(&mut l.stats, true, hit, bytes);
        if hit {
            return;
        }
        if !l.spec.allocate_writebacks {
            return self.writeback(level + 1, addr, bytes);
        }
        let sectors = l.sectors(addr, bytes);
        if let Some((victim, victim_bytes)) = l.install(addr, true, sectors) {
            self.writeback(level + 1, victim, victim_bytes);
        }
    }

    /// A demand reference: split at L1 block boundaries; a size-0 one
    /// probes the block holding `addr` unless it sits on a block boundary
    /// other than address 0 (the engines probe block 0 there).
    fn event(&mut self, ev: TraceEvent) {
        let (block, write) = (
            u64::from(self.levels[0].spec.block),
            ev.kind == AccessKind::Store,
        );
        if ev.size == 0 {
            if !ev.addr.is_multiple_of(block) || ev.addr == 0 {
                self.access(0, ev.addr, write, 0);
            }
            return;
        }
        let (mut addr, end) = (ev.addr, ev.end());
        while addr < end {
            let part = ((addr / block + 1) * block).min(end) - addr;
            self.access(0, addr, write, part as u32);
            addr += part;
        }
    }

    /// Write every dirty line back, level by level, set by set.
    fn drain(&mut self) {
        for level in 0..self.levels.len() {
            for set in 0..self.levels[level].sets.len() {
                let l = &mut self.levels[level];
                let lines: Vec<Line> = l.sets[set].iter_mut().filter_map(Option::take).collect();
                let dirty: Vec<(u64, u32)> = lines
                    .iter()
                    .filter(|line| line.dirty)
                    .map(|line| (line.block * u64::from(l.spec.block), l.dirty_bytes(line)))
                    .collect();
                l.stats.writebacks_out += dirty.len() as u64;
                for (addr, bytes) in dirty {
                    self.writeback(level + 1, addr, bytes);
                }
            }
        }
    }

    fn stats(&self) -> Vec<LevelStats> {
        self.levels.iter().map(|l| l.stats.clone()).collect()
    }
}

/// What a walk must match at every mark: level stats and terminal.
type Snapshot = (Vec<LevelStats>, CountingMemory);

/// The model's counters at every cut, then after the drain.
fn reference(specs: &[Spec], events: &[TraceEvent], cuts: &[usize]) -> Vec<Snapshot> {
    let mut model = Model::new(specs);
    let mut snaps = Vec::new();
    let mut at = 0;
    for &cut in cuts.iter().chain([&events.len()]) {
        events[at..cut].iter().for_each(|&ev| model.event(ev));
        at = cut;
        snaps.push((model.stats(), model.memory));
    }
    model.drain();
    snaps.pop();
    snaps.push((model.stats(), model.memory));
    snaps
}

fn cache_level() -> impl Strategy<Value = Spec> {
    (0u32..4, 0u32..3, proptest::bool::ANY, proptest::bool::ANY).prop_map(
        |(sets, ways, fifo, alloc)| Spec {
            block: 64,
            sets: 1 << sets,
            ways: 1 << ways,
            sector: None,
            fifo,
            allocate_writebacks: alloc,
        },
    )
}

fn events() -> impl Strategy<Value = Vec<TraceEvent>> {
    proptest::collection::vec((0u64..(1 << 14), 0u8..10), 1..1200).prop_map(|raw| {
        raw.into_iter()
            .map(|(addr, sel)| {
                let kind = if sel % 3 == 0 {
                    AccessKind::Store
                } else {
                    AccessKind::Load
                };
                let size = match sel {
                    0 | 1 => 0,
                    2 => 100,
                    _ => 8,
                };
                // size-0 probes land on and off block boundaries
                let addr = if sel == 1 { addr & !63 } else { addr };
                TraceEvent { addr, size, kind }
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    /// The sequential engine and the group walk (a shared prefix with no
    /// suffix levels, an unsectored L4 and a sectored L4, at one and two
    /// replicas over one to three lanes) both match the model's counters
    /// at every mark and after the drain.
    #[test]
    fn engines_match_the_reference_model(
        prefix in proptest::collection::vec(cache_level(), 1..4),
        l4 in (cache_level(), 1u32..4),
        events in events(),
        cuts in proptest::collection::vec(0usize..1200, 0..4),
        shards in 1usize..3,
        lanes in 1usize..4,
    ) {
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(events.len())).collect();
        cuts.sort_unstable();
        let (l4, page_log) = l4;
        let page = Spec { block: 64 << page_log, ..l4 };
        let suffixes = [vec![], vec![page], vec![Spec { sector: Some(64), ..page }]];
        let names = ["L1", "L2", "L3", "L4"];
        let build = |specs: &[Spec], from: usize| -> Vec<Cache> {
            specs.iter().zip(&names[from..]).map(|(s, n)| s.cache(n)).collect()
        };
        let mut walks = Vec::new();
        let mut wants = Vec::new();
        for suffix in &suffixes {
            let specs: Vec<Spec> = prefix.iter().chain(suffix).copied().collect();
            let want = reference(&specs, &events, &cuts);
            // the sequential engine, chunk by chunk, drained at the end
            let mut h = Hierarchy::new(build(&specs, 0), CountingMemory::default());
            let mut at = 0;
            for (i, &cut) in cuts.iter().enumerate() {
                h.access_chunk(&events[at..cut]);
                at = cut;
                let stats: Vec<LevelStats> = h.levels().iter().map(|c| c.stats()).collect();
                prop_assert_eq!(&(stats, *h.memory()), &want[i], "mark {}", i);
            }
            h.access_chunk(&events[at..]);
            h.flush();
            let stats: Vec<LevelStats> = h.levels().iter().map(|c| c.stats()).collect();
            prop_assert_eq!(&(stats, *h.memory()), want.last().unwrap());
            walks.push(Walk {
                levels: build(suffix, prefix.len()),
                memory: CountingMemory::default(),
                obs_prefix: None,
                span: "walk.reference".to_string(),
            });
            wants.push(want);
        }
        let mut sh = ShardedHierarchy::group(build(&prefix, 0), walks, shards, lanes, "memsim-ref");
        let mut at = 0;
        for &cut in &cuts {
            sh.access_chunk(&events[at..cut]);
            at = cut;
            sh.mark();
        }
        sh.access_chunk(&events[at..]);
        for (w, (run, want)) in sh.finish_all().into_iter().zip(&wants).enumerate() {
            let run = run.expect("the walk completes");
            for (i, mark) in run.marks.iter().enumerate() {
                prop_assert_eq!(&(mark.levels.clone(), mark.memory), &want[i], "walk {} mark {}", w, i);
            }
            prop_assert_eq!(run.marks.len() + 1, want.len());
            prop_assert_eq!(&(run.levels, run.memory), want.last().unwrap(), "walk {}", w);
        }
    }
}
