//! Golden sampled-vs-full accuracy: an interval-sampled replay must
//! land within the paper-grade error budget (<2% AMAT / energy against
//! the full-fidelity run of the same trace), the *reported* confidence
//! interval must cover the *true* error, and a plan that simulates every
//! interval (clusters ≥ intervals, functional warmup) must be
//! bit-identical to the full walk — sampling with nothing left out is
//! not allowed to perturb a single counter. Journals written in one
//! fidelity mode must refuse to resume a sweep in the other.

use memsim_core::configs::{eh_by_name, n_by_name};
use memsim_core::replay::record_workload;
use memsim_core::runner::evaluate_cached;
use memsim_core::runner::evaluate_run;
use memsim_core::sampling::{build_plan, replay_structure_sampled, SampleSpec, Warmup};
use memsim_core::{
    simulate_structure, Design, RunOpts, SampleMode, Scale, SimCache, Source, SweepCtx,
    JOURNAL_FILE,
};
use memsim_tech::Technology;
use memsim_workloads::{Class, WorkloadKind};
use std::path::PathBuf;
use std::sync::Arc;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("memsim-sampling-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The paper structures the acceptance pins: a 4LC with eDRAM LLC and
/// the NMM design at N6 (NDM is excluded — its oracle partitioner
/// re-places regions per costing, so it has no per-run CI).
fn paper_designs() -> Vec<Design> {
    vec![
        Design::FourLc {
            llc: Technology::Edram,
            config: eh_by_name("EH1").expect("EH1 exists"),
        },
        Design::Nmm {
            nvm: Technology::Pcm,
            config: n_by_name("N6").expect("N6 exists"),
        },
    ]
}

fn rel_err(sampled: f64, full: f64) -> f64 {
    (sampled - full).abs() / full
}

fn golden_accuracy(kind: WorkloadKind) {
    let scale = Scale::mini();
    let dir = tmp_dir(&format!("golden-{}", kind.name()));
    let path = dir.join("w.trace");
    let summary = record_workload(kind, Class::Mini, &path).unwrap();
    assert!(summary.events > 0, "{}: empty recording", kind.name());

    // ~12 intervals squeezed into 4 clusters: a real extrapolation
    // (weights > 1) so the CI is exercised, not the exact degenerate case
    let spec = SampleSpec {
        interval: (summary.events / 12).max(1),
        clusters: 4,
        warmup: Warmup::Functional,
    };
    let plan = build_plan(&path, spec).unwrap();
    assert!(
        plan.intervals >= 8,
        "plan too coarse: {} intervals",
        plan.intervals
    );

    let trace = Source::trace(&path).unwrap();
    for design in paper_designs() {
        let structure = design.structure(&scale);
        let full = simulate_structure(trace.clone(), &scale, &structure, RunOpts::default());
        let sampled = replay_structure_sampled(&path, &scale, &structure, &plan).unwrap();
        let what = format!("{} × {}", kind.name(), design.label());

        let full_eval = evaluate_run(kind, &scale, &design, Arc::new(full));
        let samp_eval = evaluate_run(kind, &scale, &design, Arc::new(sampled));
        let ci = samp_eval
            .sample_ci
            .unwrap_or_else(|| panic!("{what}: sampled run must report a CI"));

        let amat_err = rel_err(samp_eval.metrics.amat_ns, full_eval.metrics.amat_ns);
        let energy_err = rel_err(samp_eval.metrics.energy_j(), full_eval.metrics.energy_j());
        assert!(
            amat_err < 0.02,
            "{what}: AMAT error {:.3}% ≥ 2%",
            100.0 * amat_err
        );
        assert!(
            energy_err < 0.02,
            "{what}: energy error {:.3}% ≥ 2%",
            100.0 * energy_err
        );
        // the honesty pin: the interval the run *reports* must cover the
        // error it actually made (z=2 halfwidth vs the golden run)
        assert!(
            amat_err <= ci.amat,
            "{what}: true AMAT error {:.4}% outside reported CI ±{:.4}%",
            100.0 * amat_err,
            100.0 * ci.amat
        );
        assert!(
            energy_err <= ci.energy,
            "{what}: true energy error {:.4}% outside reported CI ±{:.4}%",
            100.0 * energy_err,
            100.0 * ci.energy
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cg_sampled_error_is_small_and_inside_reported_ci() {
    golden_accuracy(WorkloadKind::Cg);
}

#[test]
fn hash_sampled_error_is_small_and_inside_reported_ci() {
    golden_accuracy(WorkloadKind::Hash);
}

#[test]
fn clusters_at_least_intervals_is_bit_identical_to_full_run() {
    let scale = Scale::mini();
    let dir = tmp_dir("exact");
    let path = dir.join("w.trace");
    let summary = record_workload(WorkloadKind::Hash, Class::Mini, &path).unwrap();

    // every interval its own cluster: with functional warmup the sampled
    // walk feeds every event to one hierarchy in order — the split into
    // snapshot deltas must be invisible
    let spec = SampleSpec {
        interval: (summary.events / 3).max(1),
        clusters: 64,
        warmup: Warmup::Functional,
    };
    let plan = build_plan(&path, spec).unwrap();
    assert_eq!(
        plan.clusters.len() as u64,
        plan.intervals,
        "clusters ≥ intervals must degenerate to one cluster per interval"
    );

    let trace = Source::trace(&path).unwrap();
    for design in paper_designs() {
        let structure = design.structure(&scale);
        let full = simulate_structure(trace.clone(), &scale, &structure, RunOpts::default());
        let sampled = replay_structure_sampled(&path, &scale, &structure, &plan).unwrap();
        let what = design.label();
        assert_eq!(full.caches, sampled.caches, "{what}: cache LevelStats");
        assert_eq!(full.mem, sampled.mem, "{what}: terminal LevelStats");
        assert_eq!(full.total_refs, sampled.total_refs, "{what}: total refs");

        // and the CI must be exactly zero: nothing was extrapolated
        let eval = evaluate_run(WorkloadKind::Hash, &scale, &design, Arc::new(sampled));
        let ci = eval.sample_ci.expect("sampled run reports a CI");
        assert_eq!(ci.amat, 0.0, "{what}: exact plan must report zero CI");
        assert_eq!(ci.energy, 0.0, "{what}: exact plan must report zero CI");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn journal_refuses_cross_fidelity_resume_in_both_directions() {
    let scale = Scale::mini();
    let full = RunOpts::default();
    let on = RunOpts {
        sample: SampleMode::parse("interval=65536,clusters=4").unwrap(),
        ..full
    };
    // one real point to journal in each mode — refusal is per recorded
    // line, so an empty journal legitimately resumes either way
    let cache = SimCache::new();
    let point = evaluate_cached(WorkloadKind::Hash, &scale, &Design::Baseline, &cache, full);

    // sampled journal → full-fidelity resume must refuse
    let dir = tmp_dir("xres-a");
    let journal = dir.join(JOURNAL_FILE);
    let ctx = SweepCtx::fresh(&scale, &journal, on).unwrap();
    ctx.record(&point);
    drop(ctx);
    let err = match SweepCtx::resume(&scale, &journal, full) {
        Err(e) => e,
        Ok(_) => panic!("resuming a sampled journal at full fidelity must be refused"),
    };
    assert!(
        err.contains("sample"),
        "refusal must name the fidelity mismatch: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);

    // full-fidelity journal → sampled resume must refuse
    let dir = tmp_dir("xres-b");
    let journal = dir.join(JOURNAL_FILE);
    let ctx = SweepCtx::fresh(&scale, &journal, full).unwrap();
    ctx.record(&point);
    drop(ctx);
    let err = match SweepCtx::resume(&scale, &journal, on) {
        Err(e) => e,
        Ok(_) => panic!("resuming a full-fidelity journal with sampling on must be refused"),
    };
    assert!(
        err.contains("sample"),
        "refusal must name the fidelity mismatch: {err}"
    );
    // and the matching mode still resumes fine
    assert!(SweepCtx::resume(&scale, &journal, full).is_ok());
    let _ = std::fs::remove_dir_all(&dir);
}
