//! Crash-resilience of long sweeps: panic-isolated grid workers, the
//! on-disk sweep journal, and `--resume` equivalence.
//!
//! The poison point is `Design::Nmm { nvm: Dram, .. }` — DRAM is not an
//! NVM technology, so `Design::validate` fails and the evaluation path
//! panics exactly like a modelling bug would mid-sweep.

use memsim_core::configs::n_by_name;
use memsim_core::journal::load_journal;
use memsim_core::runner::evaluate_grid_sweep;
use memsim_core::{
    sweep_fingerprint, Design, SampleMode, Scale, SimCache, Source, SweepCtx, JOURNAL_FILE,
};
use memsim_tech::Technology;
use memsim_workloads::WorkloadKind;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::OnceLock;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("memsim-sweep-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A design that panics inside the grid worker when evaluated.
fn poison() -> Design {
    Design::Nmm {
        nvm: Technology::Dram,
        config: n_by_name("N6").unwrap(),
    }
}

fn good_grid() -> Vec<(Source, Design)> {
    let nmm = Design::Nmm {
        nvm: Technology::Pcm,
        config: n_by_name("N6").unwrap(),
    };
    vec![
        (WorkloadKind::Cg.into(), Design::Baseline),
        (WorkloadKind::Cg.into(), nmm),
        (WorkloadKind::Hash.into(), Design::Baseline),
        (
            WorkloadKind::Hash.into(),
            Design::Ndm {
                nvm: Technology::Pcm,
            },
        ),
    ]
}

#[test]
fn poisoned_grid_completes_every_other_point() {
    let scale = Scale::mini();
    let cache = SimCache::new();
    let mut points = good_grid();
    points.insert(2, (WorkloadKind::Cg.into(), poison()));

    let sample = SampleMode::Off;
    let outcome = evaluate_grid_sweep(&points, &scale, &cache, Some(2), None, sample);
    assert!(!outcome.interrupted);
    assert_eq!(outcome.failures.len(), 1, "exactly the poison point fails");
    let f = &outcome.failures[0];
    assert_eq!(f.workload, WorkloadKind::Cg);
    assert_eq!(f.design, poison());
    assert!(
        f.message.contains("invalid design"),
        "failure carries the panic message: {}",
        f.message
    );
    // the failure names the point when displayed
    let shown = f.to_string();
    assert!(shown.contains("CG"), "{shown}");
    // every survivor completed, in input order, with the failed slot empty
    assert!(outcome.results[2].is_none());
    let done = outcome.completed();
    assert_eq!(done.len(), 4);
    assert!(done.iter().all(|r| r.metrics.amat_ns > 0.0));
}

#[test]
fn poisoned_sweep_journals_survivors_and_resume_skips_them() {
    let dir = tmp_dir("poison-journal");
    let journal = dir.join(JOURNAL_FILE);
    std::fs::remove_file(&journal).ok();
    let scale = Scale::mini();
    let cache = SimCache::new();
    let mut points = good_grid();
    points.push((WorkloadKind::Hash.into(), poison()));

    let sample = SampleMode::Off;
    let ctx = SweepCtx::fresh(&scale, &journal, sample).unwrap();
    let outcome = evaluate_grid_sweep(&points, &scale, &cache, Some(2), Some(&ctx), sample);
    assert_eq!(outcome.failures.len(), 1);
    assert_eq!(ctx.persisted_points(), 4);

    // the journal holds the four survivors plus one failure entry; the
    // failure is recorded but never trusted as a completed point
    let off = SampleMode::Off;
    let rec = load_journal(&journal, &sweep_fingerprint(&scale, off), off).unwrap();
    assert_eq!(rec.points.len(), 4);
    assert_eq!(rec.failed_entries, 1);
    assert_eq!(rec.corrupt_lines, 0);

    // resuming serves all four survivors from disk and re-attempts (and
    // re-fails) only the poison point
    let (ctx2, rec2) = SweepCtx::resume(&scale, &journal, sample).unwrap();
    assert_eq!(rec2.points.len(), 4);
    let cache2 = SimCache::new();
    let outcome2 = evaluate_grid_sweep(&points, &scale, &cache2, Some(2), Some(&ctx2), sample);
    assert_eq!(outcome2.skipped, 4, "all survivors served from the journal");
    assert_eq!(outcome2.failures.len(), 1);
    assert_eq!(outcome2.completed().len(), 4);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resumed_points_are_bit_identical() {
    let dir = tmp_dir("bitexact");
    let journal = dir.join(JOURNAL_FILE);
    std::fs::remove_file(&journal).ok();
    let scale = Scale::mini();
    let points = good_grid();

    let (cache, sample) = (SimCache::new(), SampleMode::Off);
    let ctx = SweepCtx::fresh(&scale, &journal, sample).unwrap();
    let fresh =
        evaluate_grid_sweep(&points, &scale, &cache, Some(2), Some(&ctx), sample).completed();

    let cache2 = SimCache::new();
    let (ctx2, _) = SweepCtx::resume(&scale, &journal, sample).unwrap();
    let outcome = evaluate_grid_sweep(&points, &scale, &cache2, Some(2), Some(&ctx2), sample);
    assert_eq!(outcome.skipped, points.len(), "nothing re-simulated");
    let resumed = outcome.completed();

    assert_eq!(fresh.len(), resumed.len());
    for (a, b) in fresh.iter().zip(&resumed) {
        assert_eq!(a.workload, b.workload);
        assert_eq!(a.design.label(), b.design.label());
        // every f64 must round-trip through the journal bit-for-bit, or a
        // resumed report would not be byte-identical to an uninterrupted one
        assert_eq!(a.metrics.amat_ns.to_bits(), b.metrics.amat_ns.to_bits());
        assert_eq!(a.metrics.time_s.to_bits(), b.metrics.time_s.to_bits());
        assert_eq!(a.metrics.dynamic_j.to_bits(), b.metrics.dynamic_j.to_bits());
        assert_eq!(a.metrics.static_j.to_bits(), b.metrics.static_j.to_bits());
        assert_eq!(a.metrics.total_refs, b.metrics.total_refs);
        assert_eq!(a.run.total_refs, b.run.total_refs);
        assert_eq!(a.run.all_levels(), b.run.all_levels());
        assert_eq!(a.placement, b.placement, "NDM placement survives");
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// (journal bytes, fingerprint, expected amat bits per point key)
type Pristine = (Vec<u8>, String, Vec<((String, String), u64)>);

/// The pristine journal the corruption property mutates, simulated once.
fn pristine_journal() -> &'static Pristine {
    static CELL: OnceLock<Pristine> = OnceLock::new();
    CELL.get_or_init(|| {
        let dir = tmp_dir("pristine");
        let journal = dir.join(JOURNAL_FILE);
        std::fs::remove_file(&journal).ok();
        let scale = Scale::mini();
        let (cache, sample) = (SimCache::new(), SampleMode::Off);
        let ctx = SweepCtx::fresh(&scale, &journal, sample).unwrap();
        let points = [
            (WorkloadKind::Cg.into(), Design::Baseline),
            (
                WorkloadKind::Cg.into(),
                Design::Nmm {
                    nvm: Technology::Pcm,
                    config: n_by_name("N6").unwrap(),
                },
            ),
        ];
        let results =
            evaluate_grid_sweep(&points, &scale, &cache, Some(1), Some(&ctx), sample).completed();
        let expected = results
            .iter()
            .map(|r| {
                (
                    (r.workload.name().to_string(), r.design.label()),
                    r.metrics.amat_ns.to_bits(),
                )
            })
            .collect();
        let bytes = std::fs::read(&journal).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        (bytes, sweep_fingerprint(&scale, SampleMode::Off), expected)
    })
}

proptest! {
    /// Any truncation or byte flip of the journal fails closed: loading
    /// never panics, damaged lines are dropped (CRC or shape), and every
    /// point that does load carries exactly the value that was written.
    #[test]
    fn corrupted_journals_fail_closed(
        cut in 0usize..4096,
        flip_at in 0usize..4096,
        flip_bits in 1u16..256,
    ) {
        let (bytes, fp, expected) = pristine_journal();
        let mut mutated = bytes.clone();
        mutated.truncate(cut.min(mutated.len()));
        if !mutated.is_empty() {
            let i = flip_at % mutated.len();
            mutated[i] ^= flip_bits as u8;
        }

        let dir = tmp_dir("corrupt");
        let path = dir.join("mutated.journal.jsonl");
        std::fs::write(&path, &mutated).unwrap();
        let rec = load_journal(&path, fp, SampleMode::Off).unwrap();

        prop_assert!(rec.points.len() <= expected.len());
        for (key, point) in &rec.points {
            let (_, want) = expected
                .iter()
                .find(|(k, _)| k == key)
                .expect("recovered point must be one that was written");
            // a surviving line is exactly what was written — corruption can
            // remove lines, never alter one undetected
            prop_assert_eq!(point.metrics.amat_ns.to_bits(), *want);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
