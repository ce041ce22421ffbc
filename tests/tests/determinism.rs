//! Determinism and parallel/serial equivalence.

use memsim_core::configs::n_configs;
use memsim_core::runner::{evaluate_cached, evaluate_grid_sweep, SimCache};
use memsim_core::SampleMode;
use memsim_core::{Design, Source};
use memsim_integration_tests::test_scale;
use memsim_tech::Technology;
use memsim_workloads::WorkloadKind;

/// Two independent evaluations (fresh memos, fresh workload builds) give
/// bit-identical counters and metrics.
#[test]
fn independent_evaluations_are_identical() {
    let scale = test_scale();
    let design = Design::Nmm {
        nvm: Technology::FeRam,
        config: n_configs()[4],
    };
    let sample = SampleMode::Off;
    let (a_cache, b_cache) = (SimCache::new(), SimCache::new());
    let a = evaluate_cached(WorkloadKind::Velvet, &scale, &design, &a_cache, sample);
    let b = evaluate_cached(WorkloadKind::Velvet, &scale, &design, &b_cache, sample);
    assert_eq!(a.run.total_refs, b.run.total_refs);
    assert_eq!(a.run.mem, b.run.mem);
    for (x, y) in a.run.caches.iter().zip(&b.run.caches) {
        assert_eq!(x, y);
    }
    assert_eq!(a.metrics.time_s.to_bits(), b.metrics.time_s.to_bits());
    assert_eq!(a.metrics.dynamic_j.to_bits(), b.metrics.dynamic_j.to_bits());
}

/// The parallel grid gives the same results as serial evaluation in any
/// thread configuration.
#[test]
fn parallel_grid_equals_serial() {
    let scale = test_scale();
    let designs: Vec<Design> = n_configs()
        .iter()
        .take(3)
        .map(|c| Design::Nmm {
            nvm: Technology::Pcm,
            config: *c,
        })
        .collect();
    let mut points = vec![(WorkloadKind::Cg, Design::Baseline)];
    for d in &designs {
        points.push((WorkloadKind::Cg, *d));
        points.push((WorkloadKind::Lu, *d));
    }

    let (cache, sample) = (SimCache::new(), SampleMode::Off);
    let serial: Vec<f64> = points
        .iter()
        .map(|(k, d)| {
            evaluate_cached(*k, &scale, d, &cache, sample)
                .metrics
                .time_s
        })
        .collect();

    let points: Vec<(Source, Design)> = points.iter().map(|&(k, d)| (k.into(), d)).collect();
    for threads in [1, 2, 8] {
        let cache = SimCache::new();
        let grid = evaluate_grid_sweep(&points, &scale, &cache, Some(threads), None, sample)
            .into_result()
            .expect("every point completes");
        for (r, expect) in grid.iter().zip(&serial) {
            assert_eq!(
                r.metrics.time_s.to_bits(),
                expect.to_bits(),
                "thread count {threads} changed a result"
            );
        }
    }
}
