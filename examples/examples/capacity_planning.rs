//! Capacity planning: how much DRAM cache does a graph workload need in
//! front of PCM?
//!
//! Sweeps the Table 3 NMM configurations (DRAM-cache capacity and page
//! size) for Graph500 and reports normalized runtime, energy, and EDP —
//! the paper's Figure 1/2 study specialized to one workload, ending with
//! an EDP-based recommendation.
//!
//! ```text
//! cargo run --release -p memsim-examples --example capacity_planning
//! ```

use memsim_core::configs::n_configs;
use memsim_core::runner::{evaluate_cached, RunOpts, SimCache};
use memsim_core::{Design, Scale};
use memsim_examples::{human_bytes, pct};
use memsim_tech::Technology;
use memsim_workloads::WorkloadKind;

fn main() {
    let scale = Scale::mini();
    let (cache, opts) = (SimCache::new(), RunOpts::default());
    let workload = WorkloadKind::Graph500;

    println!(
        "sweeping NMM DRAM-cache configurations for {} + PCM\n",
        workload.name()
    );
    let base = evaluate_cached(workload, &scale, &Design::Baseline, &cache, opts);
    println!(
        "baseline: footprint {}, runtime {:.1} ms, energy {:.1} mJ",
        human_bytes(base.run.footprint_bytes),
        base.metrics.time_s * 1e3,
        base.metrics.energy_j() * 1e3
    );

    println!(
        "\n{:<5} {:>10} {:>8} {:>10} {:>10} {:>10} {:>9}",
        "cfg", "capacity", "page", "time", "energy", "EDP", "L4 hit%"
    );
    let mut best: Option<(f64, &str)> = None;
    let configs = n_configs();
    for config in &configs {
        let design = Design::Nmm {
            nvm: Technology::Pcm,
            config: *config,
        };
        let r = evaluate_cached(workload, &scale, &design, &cache, opts);
        let norm = r.metrics.normalized_to(&base.metrics);
        let l4_hit = r.run.caches[3].hit_rate() * 100.0;
        println!(
            "{:<5} {:>10} {:>7}B {:>10} {:>10} {:>10.4} {:>8.2}%",
            config.name,
            human_bytes(scale.scaled_capacity(config.capacity_bytes)),
            config.page_bytes,
            pct(norm.time),
            pct(norm.energy),
            norm.edp,
            l4_hit,
        );
        if best.map(|(b, _)| norm.edp < b).unwrap_or(true) {
            best = Some((norm.edp, config.name));
        }
    }

    let (edp, name) = best.unwrap();
    println!("\nrecommendation: {name} (EDP ratio {edp:.4} vs baseline)");
    println!("(the paper finds N6 — 512 MB with 512 B pages — the most EDP-efficient)");
}
