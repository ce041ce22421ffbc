//! Ablation: bandwidth-capped main memory.
//!
//! The paper's Eq. 2 is latency-only ("the memory wall" it cites is a
//! bandwidth story, but the model charges per access). This extension caps
//! the NVM interface bandwidth and shows when transfer time, not access
//! latency, dominates the NMM design — especially at large page sizes,
//! where every miss moves 4 KiB.

use criterion::{criterion_group, criterion_main, Criterion};
use memsim_bench::bench_scale;
use memsim_core::configs::n_by_name;
use memsim_core::runner::{evaluate_cached, RunOpts, SimCache};
use memsim_core::{Design, LevelCost, Metrics};
use memsim_tech::Technology;
use memsim_workloads::WorkloadKind;
use std::hint::black_box;

/// Recost one NMM evaluation with a bandwidth cap on the memory level.
fn recost(
    result: &memsim_core::EvalResult,
    scale: &memsim_core::Scale,
    gbps: Option<f64>,
) -> Metrics {
    let design = result.design;
    let mut costs = design.costing(scale, &result.run);
    if let (Some(bw), Some(mem)) = (gbps, costs.last_mut()) {
        *mem = LevelCost {
            gb_per_s: Some(bw),
            ..mem.clone()
        };
    }
    let stats = result.run.all_levels();
    let pairs: Vec<_> = stats.into_iter().zip(costs.iter()).collect();
    Metrics::compute(&pairs, result.run.total_refs)
}

fn bench(c: &mut Criterion) {
    let scale = bench_scale();
    let (cache, opts) = (SimCache::new(), RunOpts::default());
    println!("\n========== ablation: NVM interface bandwidth (NMM + PCM) ==========");
    for (cfg_name, kind) in [
        ("N3", WorkloadKind::Hash),
        ("N6", WorkloadKind::Hash),
        ("N3", WorkloadKind::Cg),
    ] {
        let config = n_by_name(cfg_name).unwrap();
        let design = Design::Nmm {
            nvm: Technology::Pcm,
            config,
        };
        let r = evaluate_cached(kind, &scale, &design, &cache, opts);
        println!(
            "\n{} @ {} ({} B pages):",
            kind.name(),
            cfg_name,
            config.page_bytes
        );
        println!(
            "{:>14} {:>12} {:>14}",
            "bandwidth", "time (ms)", "vs unlimited"
        );
        let unlimited = recost(&r, &scale, None);
        for bw in [3.2, 6.4, 12.8, 25.6] {
            let m = recost(&r, &scale, Some(bw));
            println!(
                "{:>11.1} GB/s {:>12.3} {:>13.2}x",
                bw,
                m.time_s * 1e3,
                m.time_s / unlimited.time_s
            );
        }
        println!(
            "{:>14} {:>12.3} {:>14}",
            "unlimited",
            unlimited.time_s * 1e3,
            "1.00x"
        );
    }
    println!("(large pages amplify the cap: every miss moves a whole page)");
    println!("====================================================================\n");

    let config = n_by_name("N3").unwrap();
    let r = evaluate_cached(
        WorkloadKind::Cg,
        &scale,
        &Design::Nmm {
            nvm: Technology::Pcm,
            config,
        },
        &cache,
        opts,
    );
    c.bench_function("ablation_bandwidth/recost", |b| {
        b.iter(|| black_box(recost(&r, &scale, Some(12.8))))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
