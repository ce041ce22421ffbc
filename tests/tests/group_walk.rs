//! Group-walk parity: one kernel run fanned out to several hierarchies at
//! once must leave each of them exactly as a dedicated sequential walk
//! would, at any lane count and with either engine.
//!
//! The structure set covers a three-level hierarchy, unsectored L4 levels
//! (64 B pages) and sectored ones (512 B to 4 KiB pages). The reference
//! is a hand-built `Hierarchy` walk per structure, not `simulate_structure`,
//! which is itself a one-structure group walk.

use memsim_cache::{Hierarchy, LevelStats};
use memsim_core::configs::{eh_by_name, n_by_name};
use memsim_core::runner::{build_caches, evaluate_grid_sweep};
use memsim_core::{Design, Engine, RunOpts, SampleMode, Scale, SimCache, Source, Structure};
use memsim_integration_tests::test_scale;
use memsim_memory::{PartitionedMemory, RegionTraffic};
use memsim_tech::Technology;
use memsim_workloads::WorkloadKind;

/// One design per structure: 3L, N1, N6, N9, EH1, EH8.
fn designs() -> Vec<Design> {
    let nmm = |name| Design::Nmm {
        nvm: Technology::Pcm,
        config: n_by_name(name).unwrap(),
    };
    let four_lc = |name| Design::FourLc {
        llc: Technology::Edram,
        config: eh_by_name(name).unwrap(),
    };
    vec![
        Design::Baseline,
        nmm("N1"),
        nmm("N6"),
        nmm("N9"),
        four_lc("EH1"),
        four_lc("EH8"),
    ]
}

/// What a walk must reproduce: per-cache stats, terminal stats, per-region
/// traffic, and the reference count.
type Expected = (Vec<LevelStats>, LevelStats, Vec<RegionTraffic>, u64);

/// A dedicated sequential walk of `structure`, fed straight from the
/// kernel.
fn sequential(kind: WorkloadKind, scale: &Scale, structure: &Structure) -> Expected {
    let mut workload = kind.build(scale.class);
    let regions = workload.space().regions().to_vec();
    let mut h = Hierarchy::new(
        build_caches(scale, structure),
        PartitionedMemory::new(&regions, Technology::Pcm),
    );
    workload.run(&mut h);
    h.drain();
    workload.verify().unwrap();
    let caches = h.levels().iter().map(|c| c.stats()).collect();
    let total_refs = h.total_refs();
    let memory = h.into_memory();
    let mut mem = memory.dram_stats().clone();
    mem.name = "MEM".into();
    (caches, mem, memory.traffic().to_vec(), total_refs)
}

#[test]
fn group_walk_matches_dedicated_sequential_walks() {
    let _lock = memsim_obs::test_lock();
    let scale = test_scale();
    let kind = WorkloadKind::Hash;
    let designs = designs();
    let expected: Vec<Expected> = designs
        .iter()
        .map(|d| sequential(kind, &scale, &d.structure(&scale)))
        .collect();
    let points: Vec<(Source, Design)> = designs.iter().map(|d| (kind.into(), *d)).collect();

    for engine in [Engine::Sequential, Engine::Sharded(2)] {
        for lanes in 1..=3 {
            memsim_obs::reset();
            memsim_obs::set_enabled(true);
            // six structures of one workload and at most three threads:
            // the grid walks the whole set as one group over `lanes` lanes
            let opts = RunOpts {
                engine,
                sample: SampleMode::Off,
            };
            let outcome =
                evaluate_grid_sweep(&points, &scale, &SimCache::new(), Some(lanes), None, opts);
            memsim_obs::set_enabled(false);
            let runs = memsim_obs::global().counter_value("sim.workload_runs");
            assert_eq!(runs, Some(1), "{engine} lanes={lanes}: one kernel run");
            assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
            for (r, (caches, mem, per_region, total_refs)) in
                outcome.completed().iter().zip(&expected)
            {
                let what = format!("{} {engine} lanes={lanes}", r.design.label());
                assert_eq!(&r.run.caches, caches, "{what}");
                assert_eq!(&r.run.mem, mem, "{what}");
                assert_eq!(&r.run.per_region, per_region, "{what}");
                assert_eq!(r.run.total_refs, *total_refs, "{what}");
            }
        }
    }
    memsim_obs::reset();
}
