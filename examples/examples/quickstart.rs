//! Quickstart: stream a workload through a hybrid hierarchy and model it.
//!
//! Builds the paper's NMM design (PCM main memory behind a DRAM page
//! cache) by hand from the individual crates, runs the CG benchmark
//! through it, and prints the data-movement statistics and the modeled
//! runtime/energy against the all-DRAM baseline.
//!
//! ```text
//! cargo run --release -p memsim-examples --example quickstart
//! ```

use memsim_core::configs::n_by_name;
use memsim_core::runner::evaluate_cached;
use memsim_core::{Design, SampleMode, Scale, SimCache};
use memsim_examples::{human_bytes, pct};
use memsim_tech::Technology;
use memsim_workloads::WorkloadKind;

fn main() {
    let scale = Scale::mini();

    // the design under test: NMM with PCM at Table 3 row N6 (512 MB / 512 B)
    let design = Design::Nmm {
        nvm: Technology::Pcm,
        config: n_by_name("N6").unwrap(),
    };

    println!("simulating CG through {} ...", design.label());
    let (cache, sample) = (SimCache::new(), SampleMode::Off);
    let result = evaluate_cached(WorkloadKind::Cg, &scale, &design, &cache, sample);
    let base = evaluate_cached(WorkloadKind::Cg, &scale, &Design::Baseline, &cache, sample);

    println!(
        "\nworkload footprint: {}",
        human_bytes(result.run.footprint_bytes)
    );
    println!("references simulated: {}", result.run.total_refs);

    println!("\nper-level data movement:");
    for s in result.run.all_levels() {
        println!(
            "  {:<4} {:>12} loads {:>12} stores  hit rate {:>6.2}%  moved {}",
            s.name,
            s.loads,
            s.stores,
            s.hit_rate() * 100.0,
            human_bytes(s.bytes_loaded + s.bytes_stored),
        );
    }

    let norm = result.metrics.normalized_to(&base.metrics);
    println!("\nmodel vs the all-DRAM baseline (Equations 1-4 of the paper):");
    println!(
        "  AMAT    {:>8.3} ns  ({})",
        result.metrics.amat_ns,
        pct(norm.time)
    );
    println!(
        "  runtime {:>8.3} ms  ({})",
        result.metrics.time_s * 1e3,
        pct(norm.time)
    );
    println!(
        "  energy  {:>8.3} mJ  ({})",
        result.metrics.energy_j() * 1e3,
        pct(norm.energy)
    );
    println!("  EDP ratio {:>17.4}", norm.edp);

    if norm.energy < 1.0 {
        println!("\nPCM main memory saves energy here: the footprint-sized DRAM");
        println!("and its refresh are gone, and the DRAM page cache absorbs");
        println!(
            "{:.1}% of main-memory traffic.",
            result.run.caches[3].hit_rate() * 100.0
        );
    }
}
