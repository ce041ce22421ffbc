//! Sharded/sequential equivalence: the set-sharded parallel engine must
//! produce bit-identical per-level statistics and terminal-memory counters
//! for *any* hierarchy geometry, shard count, and reference stream —
//! including line-straddling and size-0 events — because shards partition
//! address classes that never share a cache set at any level.

use memsim_cache::{
    shard_class_bits, Cache, CacheConfig, CountingMemory, Hierarchy, LevelStats, ShardedHierarchy,
    Walk,
};
use memsim_core::{simulate_structure, Engine, RunOpts, SampleMode, Scale, Structure};
use memsim_integration_tests::test_scale;
use memsim_trace::{AccessKind, TraceEvent, TraceSink};
use memsim_workloads::WorkloadKind;
use proptest::prelude::*;

/// Geometry of one randomized cache level (sets and ways as exponents so
/// every generated configuration validates).
#[derive(Debug, Clone, Copy)]
struct LevelSpec {
    block_bytes: u32,
    sets_log2: u32,
    ways: u32,
    full: bool,
}

fn build_levels(specs: &[LevelSpec]) -> Vec<Cache> {
    specs
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let name = format!("L{}", i + 1);
            let cfg = if s.full {
                // fully associative: one set, so the class field collapses
                // and the engine must fall back to a single shard
                CacheConfig::fully_associative(
                    &name,
                    u64::from(s.block_bytes) << s.sets_log2,
                    s.block_bytes,
                )
            } else {
                let capacity = (u64::from(s.block_bytes) * u64::from(s.ways)) << s.sets_log2;
                CacheConfig::new(&name, capacity, s.block_bytes, s.ways)
            };
            Cache::new(cfg)
        })
        .collect()
}

/// Decode one generated `(seed, class, store)` triple into an event. The
/// class picks the shape: plain in-block accesses, unaligned and aligned
/// size-0 probes, and straddlers spanning several L1 blocks.
fn decode_event(seed: u64, class: u8, store: bool, l1_block: u32) -> TraceEvent {
    let addr = seed % (1 << 20);
    let size = match class % 6 {
        0 | 1 => 1 + (seed % 16) as u32,         // small in-block
        2 => l1_block / 2,                       // half-block
        3 => 0,                                  // size-0 (any alignment)
        4 => l1_block + 1 + (seed % 64) as u32,  // straddles 2 blocks
        _ => 3 * l1_block + (seed % 128) as u32, // straddles 4+ blocks
    };
    let kind = if store {
        AccessKind::Store
    } else {
        AccessKind::Load
    };
    TraceEvent { addr, size, kind }
}

fn sequential_run(levels: Vec<Cache>, events: &[TraceEvent]) -> (Vec<LevelStats>, CountingMemory) {
    let mut h = Hierarchy::new(levels, CountingMemory::default());
    for &ev in events {
        h.access(ev);
    }
    h.drain();
    h.assert_consistent();
    let stats = h.levels().iter().map(Cache::stats).collect();
    (stats, h.into_memory())
}

fn shard_counts() -> Vec<usize> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut counts = vec![1, 2, 7];
    if !counts.contains(&cores) {
        counts.push(cores);
    }
    counts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomized geometry × randomized stream: every shard count gives
    /// the exact sequential LevelStats and memory counters.
    #[test]
    fn sharded_stats_bit_identical_to_sequential(
        raw_specs in proptest::collection::vec(
            // (block selector, log2 sets, log2 ways, full-assoc percent)
            (0u32..3, 4u32..9, 0u32..4, 0u32..100),
            1..4,
        ),
        stream in proptest::collection::vec(
            (0u64..(1 << 62), 0u8..6, 0u32..100),
            200..600,
        ),
    ) {
        // deeper levels get same-or-larger blocks and more sets, like
        // every real hierarchy the simulator models
        let mut specs: Vec<LevelSpec> = Vec::new();
        let mut min_block = 32u32;
        for (i, (block_sel, sets_log2, ways_log2, full_pct)) in raw_specs.iter().enumerate() {
            let block = (32u32 << block_sel).max(min_block);
            min_block = block;
            specs.push(LevelSpec {
                block_bytes: block,
                sets_log2: sets_log2 + i as u32,
                ways: 1 << ways_log2,
                full: *full_pct < 15,
            });
        }
        let levels = build_levels(&specs);
        let l1_block = specs[0].block_bytes;
        let events: Vec<TraceEvent> = stream
            .iter()
            .map(|(seed, class, store_pct)| decode_event(*seed, *class, *store_pct < 30, l1_block))
            .collect();

        let (seq_stats, seq_mem) = sequential_run(levels.clone(), &events);
        let (lo, hi) = shard_class_bits(&levels);
        prop_assert!(hi >= lo);

        for shards in shard_counts() {
            let walk = Walk {
                levels: Vec::new(),
                memory: CountingMemory::default(),
                obs_prefix: None,
                span: "walk.parity".to_string(),
            };
            let mut sh =
                ShardedHierarchy::group(levels.clone(), vec![walk], shards, shards, "memsim-shard");
            for &ev in &events {
                sh.access(ev);
            }
            let run = sh.finish_all().remove(0).expect("the walk completes");
            prop_assert_eq!(
                &run.levels, &seq_stats,
                "stats diverged at {} shards (class bits [{}, {}))", shards, lo, hi
            );
            prop_assert_eq!(run.memory, seq_mem, "memory diverged at {shards} shards");
        }
    }
}

/// The paper's own structures (baseline three-level, and the 4LC/NMM
/// four-level with a sectored page cache) through the full runner: the
/// sharded engine's RawRun matches the sequential walk field for field.
#[test]
fn paper_structures_match_across_engines() {
    let scale = test_scale();
    let structures = [
        Structure::ThreeLevel,
        Structure::WithL4 {
            capacity_bytes: 1 << 20,
            page_bytes: 512,
        },
        Structure::WithL4 {
            capacity_bytes: 1 << 21,
            page_bytes: 1024,
        },
    ];
    for kind in [WorkloadKind::Cg, WorkloadKind::Hash] {
        for structure in &structures {
            let seq = simulate_structure(kind, &scale, structure, RunOpts::default());
            for shards in [2usize, 7] {
                let opts = RunOpts {
                    engine: Engine::Sharded(shards),
                    sample: SampleMode::Off,
                };
                let par = simulate_structure(kind, &scale, structure, opts);
                assert_eq!(
                    par.caches, seq.caches,
                    "{kind:?} {structure:?} diverged at {shards} shards"
                );
                assert_eq!(par.mem, seq.mem, "{kind:?} {structure:?}");
                assert_eq!(par.per_region, seq.per_region, "{kind:?} {structure:?}");
                assert_eq!(par.total_refs, seq.total_refs);
                assert_eq!(par.footprint_bytes, seq.footprint_bytes);
            }
        }
    }
}

/// `Engine::auto()` never picks a sequential-diverging configuration
/// either — whatever the host's core count resolves to.
#[test]
fn auto_engine_matches_sequential() {
    let (scale, st) = (Scale::mini(), Structure::ThreeLevel);
    let seq = simulate_structure(WorkloadKind::Lu, &scale, &st, RunOpts::default());
    let opts = RunOpts {
        engine: Engine::auto(),
        sample: SampleMode::Off,
    };
    let auto = simulate_structure(WorkloadKind::Lu, &scale, &st, opts);
    assert_eq!(auto.caches, seq.caches);
    assert_eq!(auto.mem, seq.mem);
}

/// Every shard claims chunks and publishes its claim counter. Work
/// stealing is structurally impossible in the set-sharded engine (each
/// shard's cache state is bound to its address classes), so no steal
/// counter exists to export.
#[test]
fn shards_claim_chunks_and_export_no_steal_counter() {
    let _lock = memsim_obs::test_lock();
    memsim_obs::reset();
    memsim_obs::set_enabled(true);

    let specs = [
        LevelSpec {
            block_bytes: 64,
            sets_log2: 6,
            ways: 2,
            full: false,
        },
        LevelSpec {
            block_bytes: 64,
            sets_log2: 8,
            ways: 4,
            full: false,
        },
    ];
    let levels = build_levels(&specs);
    let shards = 4;
    let walk = Walk {
        levels: Vec::new(),
        memory: CountingMemory::default(),
        obs_prefix: Some("parity.sim".to_string()),
        span: "walk.parity".to_string(),
    };
    let mut sh = ShardedHierarchy::group(levels, vec![walk], shards, shards, "memsim-shard");
    for i in 0..20_000u64 {
        sh.access(TraceEvent::load((i * 67) % (1 << 16), 8));
    }
    let run = sh.finish_all().remove(0).expect("the walk completes");
    assert!(run.total_refs > 0);

    let reg = memsim_obs::global();
    let mut claims_total = 0;
    for i in 0..shards {
        claims_total += reg
            .counter_value(&format!("parity.sim.shard{i}.claims"))
            .expect("claim counter is registered");
    }
    assert!(claims_total > 0, "shards claimed no chunks");
    let steals: Vec<String> = reg
        .snapshot()
        .into_iter()
        .map(|(name, _)| name)
        .filter(|name| name.ends_with(".steals"))
        .collect();
    assert!(steals.is_empty(), "steal counters registered: {steals:?}");

    memsim_obs::set_enabled(false);
    memsim_obs::reset();
}
