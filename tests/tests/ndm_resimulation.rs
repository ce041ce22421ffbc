//! Validates the NDM analytic shortcut against a genuine re-simulation:
//! costing a placement from one run's per-region traffic must agree with
//! physically routing requests through a placement-configured
//! `PartitionedMemory`.

use memsim_cache::{Cache, CacheConfig, Hierarchy};
use memsim_core::partition::{cost_placement, oracle, Placement};
use memsim_core::{simulate_structure, SampleMode, Structure};
use memsim_integration_tests::test_scale;
use memsim_memory::PartitionedMemory;
use memsim_tech::Technology;
use memsim_trace::TraceSink;
use memsim_workloads::{Class, WorkloadKind};

/// Re-simulate CG with the oracle's placement physically applied and check
/// the partition traffic equals the analytic attribution.
#[test]
fn analytic_placement_equals_resimulation() {
    let scale = test_scale();
    let kind = WorkloadKind::Cg;
    let run = simulate_structure(kind, &scale, &Structure::ThreeLevel, SampleMode::Off);
    let choice = oracle(&run, Technology::Pcm, &scale);

    // physical re-simulation with the placement routed in the terminal
    let mut workload = kind.build(Class::Mini);
    let caches = vec![
        Cache::new(CacheConfig::new(
            "L1",
            scale.l1_bytes,
            scale.line_bytes,
            scale.l1_ways,
        )),
        Cache::new(CacheConfig::new(
            "L2",
            scale.l2_bytes,
            scale.line_bytes,
            scale.l2_ways,
        )),
        Cache::new(CacheConfig::new(
            "L3",
            scale.l3_bytes,
            scale.line_bytes,
            scale.l3_ways,
        )),
    ];
    let regions = workload.space().regions().to_vec();
    let mut terminal = PartitionedMemory::new(&regions, Technology::Pcm);
    for (i, p) in choice.placement.iter().enumerate() {
        terminal.place(i, *p);
    }
    let mut h = Hierarchy::new(caches, terminal);
    workload.run(&mut h);
    h.flush();
    let mem = h.into_memory();

    // aggregate DRAM/NVM traffic from the analytic attribution
    let mut dram_loads = 0u64;
    let mut dram_stores = 0u64;
    let mut nvm_loads = 0u64;
    let mut nvm_stores = 0u64;
    for (i, t) in run.per_region.iter().enumerate() {
        match choice.placement[i] {
            Placement::Dram => {
                dram_loads += t.loads;
                dram_stores += t.stores;
            }
            Placement::Nvm => {
                nvm_loads += t.loads;
                nvm_stores += t.stores;
            }
        }
    }

    assert_eq!(mem.dram_stats().loads, dram_loads, "DRAM loads diverge");
    assert_eq!(mem.dram_stats().stores, dram_stores, "DRAM stores diverge");
    assert_eq!(mem.nvm_stats().loads, nvm_loads, "NVM loads diverge");
    assert_eq!(mem.nvm_stats().stores, nvm_stores, "NVM stores diverge");
}

/// Monotonicity of the analytic model: moving a trafficked region from
/// DRAM to PCM can only increase modeled time.
#[test]
fn moving_hot_region_to_nvm_increases_time() {
    let scale = test_scale();
    let sample = SampleMode::Off;
    let run = simulate_structure(WorkloadKind::Hash, &scale, &Structure::ThreeLevel, sample);
    // find the hottest region
    let hottest = run
        .per_region
        .iter()
        .enumerate()
        .max_by_key(|(_, t)| t.loads + t.stores)
        .map(|(i, _)| i)
        .unwrap();
    let mut all_dram = vec![Placement::Dram; run.per_region.len()];
    let with_dram = cost_placement(&run, &all_dram, Technology::Pcm, &scale);
    all_dram[hottest] = Placement::Nvm;
    let with_nvm = cost_placement(&run, &all_dram, Technology::Pcm, &scale);
    assert!(
        with_nvm.time_s > with_dram.time_s,
        "PCM-resident hot region must cost time: {} vs {}",
        with_nvm.time_s,
        with_dram.time_s
    );
    assert!(with_nvm.dynamic_j > with_dram.dynamic_j);
}

/// The oracle is genuinely optimal among the placements it enumerates:
/// no single-group flip of its answer improves EDP.
#[test]
fn oracle_is_locally_optimal() {
    let scale = test_scale();
    let sample = SampleMode::Off;
    let run = simulate_structure(WorkloadKind::Cg, &scale, &Structure::ThreeLevel, sample);
    let choice = oracle(&run, Technology::SttRam, &scale);
    let base_edp = choice.metrics.edp();
    let budget = memsim_core::partition::ndm_dram_budget(&scale, run.footprint_bytes);
    let groups = memsim_core::partition::merge_into_ranges(&run, 4);
    for group in &groups {
        let mut flipped = choice.placement.clone();
        let currently_dram = matches!(flipped[group.regions[0]], Placement::Dram);
        for &r in &group.regions {
            flipped[r] = if currently_dram {
                Placement::Nvm
            } else {
                Placement::Dram
            };
        }
        // recompute DRAM bytes for feasibility
        let dram_bytes: u64 = flipped
            .iter()
            .enumerate()
            .filter(|(_, p)| matches!(p, Placement::Dram))
            .map(|(i, _)| run.region_sizes[i])
            .sum();
        if dram_bytes > budget {
            continue;
        }
        let m = cost_placement(&run, &flipped, Technology::SttRam, &scale);
        assert!(
            m.edp() >= base_edp - 1e-12,
            "flipping a group improved EDP: {} < {base_edp}",
            m.edp()
        );
    }
}
