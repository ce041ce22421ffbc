//! NVM technology shootout: PCM vs STT-RAM vs FeRAM across the designs.
//!
//! For one memory-intensive workload (Hash), evaluates every NVM
//! technology under each design that uses one — NMM, 4LCNVM, and NDM —
//! and prints the normalized runtime/energy/EDP matrix, highlighting
//! read/write asymmetry effects.
//!
//! ```text
//! cargo run --release -p memsim-examples --example nvm_shootout
//! ```

use memsim_core::configs::{eh_by_name, n_by_name};
use memsim_core::runner::{evaluate_cached, RunOpts, SimCache};
use memsim_core::{Design, Scale};
use memsim_examples::pct;
use memsim_tech::{TechParams, Technology};
use memsim_workloads::WorkloadKind;

fn main() {
    let scale = Scale::mini();
    let (cache, opts) = (SimCache::new(), RunOpts::default());
    let workload = WorkloadKind::Hash;

    println!("Table 1 asymmetry of the NVM candidates:\n");
    for t in Technology::NVM {
        let p = TechParams::of(t);
        println!(
            "  {:<7} read {:>5.1} ns / {:>6.1} pJ/bit   write {:>5.1} ns / {:>6.1} pJ/bit",
            t.name(),
            p.read_ns,
            p.read_pj_per_bit,
            p.write_ns,
            p.write_pj_per_bit
        );
    }

    let base = evaluate_cached(workload, &scale, &Design::Baseline, &cache, opts);
    let n6 = n_by_name("N6").unwrap();
    let eh1 = eh_by_name("EH1").unwrap();

    println!("\n{} normalized to the baseline:\n", workload.name());
    println!(
        "{:<28} {:>9} {:>9} {:>9}",
        "design", "time", "energy", "EDP"
    );
    for nvm in Technology::NVM {
        for design in [
            Design::Nmm { nvm, config: n6 },
            Design::FourLcNvm {
                llc: Technology::Edram,
                nvm,
                config: eh1,
            },
            Design::Ndm { nvm },
        ] {
            let r = evaluate_cached(workload, &scale, &design, &cache, opts);
            let norm = r.metrics.normalized_to(&base.metrics);
            println!(
                "{:<28} {:>9} {:>9} {:>9.4}",
                design.label(),
                pct(norm.time),
                pct(norm.energy),
                norm.edp
            );
        }
        println!();
    }

    println!("notes:");
    println!("- PCM's 100 ns / 210 pJ-per-bit writes hurt most where dirty pages");
    println!("  reach the NVM (NDM, small page caches);");
    println!("- STT-RAM is symmetric but reads cost 58.5 pJ/bit, so read-heavy");
    println!("  probing pays on energy instead;");
    println!("- FeRAM sits between the two on latency with PCM-like write energy.");
}
