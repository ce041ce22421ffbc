//! Record once, replay everywhere: the trace-file workflow.
//!
//! Records Graph500's address stream to a trace file, then evaluates the
//! full Table 3 NMM configuration grid two ways — live (one run of the
//! workload streamed into every distinct hierarchy structure) and from
//! the recording (one decode of the file streamed the same way) —
//! verifying the results agree and reporting the wall-clock for each.
//!
//! ```text
//! cargo run --release -p memsim-examples --example trace_replay
//! ```

use memsim_core::configs::n_configs;
use memsim_core::replay::record_workload;
use memsim_core::runner::evaluate_grid_sweep;
use memsim_core::{Design, EvalResult, SampleMode, Scale, SimCache, Source};
use memsim_examples::human_bytes;
use memsim_tech::Technology;
use memsim_workloads::{Class, WorkloadKind};
use std::time::Instant;

fn main() {
    let scale = Scale::mini();
    let workload = WorkloadKind::Graph500;
    let dir = std::env::temp_dir().join(format!("memsim-trace-replay-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("graph500.trace");

    // one workload execution, persisted
    let t = Instant::now();
    let rec = record_workload(workload, Class::Mini, &path).expect("record");
    let record_s = t.elapsed().as_secs_f64();
    println!(
        "recorded {} at mini scale: {} events, {} on disk ({:.2} B/event) in {:.2} s\n",
        workload.name(),
        rec.events,
        human_bytes(rec.file_bytes),
        rec.bytes_per_event(),
        record_s,
    );

    // baseline + the nine Table 3 NMM points: ten distinct structures
    let designs: Vec<Design> = std::iter::once(Design::Baseline)
        .chain(n_configs().iter().map(|&config| Design::Nmm {
            nvm: Technology::Pcm,
            config,
        }))
        .collect();
    // the same grid over either source, timed
    let grid = |source: Source| -> (Vec<EvalResult>, f64) {
        let points: Vec<(Source, Design)> = designs.iter().map(|d| (source.clone(), *d)).collect();
        let (cache, sample) = (SimCache::new(), SampleMode::Off);
        let t = Instant::now();
        let results = evaluate_grid_sweep(&points, &scale, &cache, None, None, sample)
            .into_result()
            .expect("grid");
        (results, t.elapsed().as_secs_f64())
    };
    let (live, live_s) = grid(workload.into());
    let (replayed, replay_s) = grid(Source::trace(&path).expect("trace"));

    println!("| design | live time× | replayed time× |");
    println!("|---|---|---|");
    for (l, r) in live.iter().zip(&replayed) {
        assert_eq!(
            l.run.caches, r.run.caches,
            "replay diverged from live simulation"
        );
        let ln = l.metrics.normalized_to(&live[0].metrics);
        let rn = r.metrics.normalized_to(&replayed[0].metrics);
        println!("| {} | {:.4} | {:.4} |", l.design.label(), ln.time, rn.time);
    }

    println!();
    println!(
        "{}-point grid: live regeneration {:.2} s, replay {:.2} s ({:.2}x)",
        designs.len(),
        live_s,
        replay_s,
        live_s / replay_s,
    );
    println!(
        "replay amortization: record once ({record_s:.2} s) + replay per sweep vs resimulate every sweep"
    );

    std::fs::remove_dir_all(&dir).ok();
}
