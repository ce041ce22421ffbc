//! Hybrid DRAM+NVM partitioning: the NDM oracle, step by step.
//!
//! Simulates CG once, shows the per-region main-memory traffic profile,
//! merges the regions into contiguous address ranges (as the paper does),
//! evaluates every feasible range placement analytically, and prints the
//! oracle's choice.
//!
//! ```text
//! cargo run --release -p memsim-examples --example hybrid_partitioning
//! ```

use memsim_core::partition::{
    cost_placement, merge_into_ranges, ndm_dram_budget, oracle, Placement,
};
use memsim_core::runner::evaluate_cached;
use memsim_core::{Design, RunOpts, Scale, SimCache, Structure};
use memsim_examples::{human_bytes, pct};
use memsim_tech::Technology;
use memsim_workloads::WorkloadKind;

fn main() {
    let scale = Scale::mini();
    let workload = WorkloadKind::Cg;
    let nvm = Technology::Pcm;

    println!(
        "profiling {} main-memory traffic per data region ...\n",
        workload.name()
    );
    // the baseline shares this structure, so its costing below reuses the walk
    let (cache, opts) = (SimCache::new(), RunOpts::default());
    let run = cache.get(workload, &scale, &Structure::ThreeLevel, opts);

    println!(
        "{:<12} {:>10} {:>12} {:>12} {:>10}",
        "region", "bytes", "mem loads", "mem stores", "refs/KiB"
    );
    for i in 0..run.region_names.len() {
        let t = &run.per_region[i];
        let density = (t.loads + t.stores) as f64 / (run.region_sizes[i].max(1) as f64 / 1024.0);
        println!(
            "{:<12} {:>10} {:>12} {:>12} {:>10.2}",
            run.region_names[i],
            human_bytes(run.region_sizes[i]),
            t.loads,
            t.stores,
            density,
        );
    }

    let groups = merge_into_ranges(&run, 3);
    println!(
        "\nmerged into {} contiguous address ranges (paper: 'typically 2 or 3'):",
        groups.len()
    );
    for (g, group) in groups.iter().enumerate() {
        let names: Vec<&str> = group
            .regions
            .iter()
            .map(|&i| run.region_names[i].as_str())
            .collect();
        println!(
            "  range {}: {} ({} refs) = {}",
            g,
            human_bytes(group.bytes),
            group.refs,
            names.join(" + ")
        );
    }

    let budget = ndm_dram_budget(&scale, run.footprint_bytes);
    println!(
        "\nDRAM partition budget at this scale: {}",
        human_bytes(budget)
    );

    // enumerate the placements the oracle considers
    println!(
        "\n{:<24} {:>10} {:>12} {:>12}",
        "placement (DRAM ranges)", "dram", "energy (mJ)", "EDP (µJ·s)"
    );
    for mask in 0u32..(1 << groups.len()) {
        let mut placement = vec![Placement::Nvm; run.per_region.len()];
        let mut dram_bytes = 0u64;
        let mut label = Vec::new();
        for (g, group) in groups.iter().enumerate() {
            if mask & (1 << g) != 0 {
                dram_bytes += group.bytes;
                label.push(g.to_string());
                for &r in &group.regions {
                    placement[r] = Placement::Dram;
                }
            }
        }
        let feasible = dram_bytes <= budget;
        let m = cost_placement(&run, &placement, nvm, &scale);
        println!(
            "{:<24} {:>10} {:>12.3} {:>12.4}{}",
            if label.is_empty() {
                "(all NVM)".to_string()
            } else {
                format!("{{{}}}", label.join(","))
            },
            human_bytes(dram_bytes),
            m.energy_j() * 1e3,
            m.edp() * 1e6,
            if feasible { "" } else { "  (over budget)" },
        );
    }

    let choice = oracle(&run, nvm, &scale);
    let base = evaluate_cached(workload, &scale, &Design::Baseline, &cache, opts);
    let norm = choice.metrics.normalized_to(&base.metrics);
    println!(
        "\noracle choice: {} in DRAM, {} in {} — runtime {}, energy {} vs baseline",
        human_bytes(choice.dram_bytes),
        human_bytes(choice.nvm_bytes),
        nvm.name(),
        pct(norm.time),
        pct(norm.energy),
    );
    println!("(the paper reports ~25% average runtime overhead with ~42% energy savings");
    println!(" for static-energy-dominated workloads at full 0.8-4 GB footprints)");
}
