//! Full-pipeline integration: every workload through every design.

use memsim_core::configs::{eh_configs, n_configs};
use memsim_core::runner::{evaluate_cached, RunOpts, SimCache};
use memsim_core::Design;
use memsim_integration_tests::test_scale;
use memsim_tech::Technology;
use memsim_workloads::WorkloadKind;

/// Every benchmark of the suite runs through one representative config of
/// each design, and the modeled metrics stay in physically plausible bands.
#[test]
fn every_workload_through_every_design() {
    let scale = test_scale();
    let cache = SimCache::new();
    let designs = [
        Design::Baseline,
        Design::FourLc {
            llc: Technology::Edram,
            config: eh_configs()[0],
        },
        Design::FourLc {
            llc: Technology::Hmc,
            config: eh_configs()[5],
        },
        Design::Nmm {
            nvm: Technology::Pcm,
            config: n_configs()[2],
        },
        Design::Nmm {
            nvm: Technology::SttRam,
            config: n_configs()[8],
        },
        Design::FourLcNvm {
            llc: Technology::Edram,
            nvm: Technology::FeRam,
            config: eh_configs()[0],
        },
        Design::Ndm {
            nvm: Technology::Pcm,
        },
    ];
    for kind in WorkloadKind::ALL {
        let base = evaluate_cached(kind, &scale, &Design::Baseline, &cache, RunOpts::default());
        assert!(base.metrics.time_s > 0.0);
        assert!(base.metrics.energy_j() > 0.0);
        for design in &designs {
            let r = evaluate_cached(kind, &scale, design, &cache, RunOpts::default());
            let norm = r.metrics.normalized_to(&base.metrics);
            assert!(
                norm.time > 0.5 && norm.time < 5.0,
                "{} on {:?}: normalized time {} out of band",
                design.label(),
                kind,
                norm.time
            );
            assert!(
                norm.energy > 0.05 && norm.energy < 10.0,
                "{} on {:?}: normalized energy {} out of band",
                design.label(),
                kind,
                norm.energy
            );
            assert!(r.metrics.amat_ns > 0.0 && r.metrics.amat_ns < 1000.0);
        }
    }
}

/// Structure sharing: the whole grid above reuses simulations — the memo
/// must hold exactly (workloads × distinct structures) entries.
#[test]
fn simulation_reuse_across_designs() {
    let scale = test_scale();
    let cache = SimCache::new();
    let kind = WorkloadKind::Lu;
    // three designs, two distinct structures (baseline+NDM share; the two
    // NMM rows at the same config share)
    let n3 = n_configs()[2];
    for design in [
        Design::Baseline,
        Design::Ndm {
            nvm: Technology::Pcm,
        },
        Design::Ndm {
            nvm: Technology::FeRam,
        },
        Design::Nmm {
            nvm: Technology::Pcm,
            config: n3,
        },
        Design::Nmm {
            nvm: Technology::SttRam,
            config: n3,
        },
        Design::Nmm {
            nvm: Technology::FeRam,
            config: n3,
        },
    ] {
        evaluate_cached(kind, &scale, &design, &cache, RunOpts::default());
    }
    assert_eq!(cache.len(), 2, "expected exactly two simulated structures");
}

/// The modeled baseline reproduces Table 4's qualitative ordering: the
/// random-access benchmarks (Hash, Graph500) have higher AMAT than the
/// structured-grid ones (BT, LU).
#[test]
fn random_access_workloads_have_higher_amat() {
    let scale = test_scale();
    let cache = SimCache::new();
    let amat = |k: WorkloadKind| {
        evaluate_cached(k, &scale, &Design::Baseline, &cache, RunOpts::default())
            .metrics
            .amat_ns
    };
    let hash = amat(WorkloadKind::Hash);
    let bt = amat(WorkloadKind::Bt);
    let lu = amat(WorkloadKind::Lu);
    assert!(hash > bt, "Hash AMAT {hash} should exceed BT {bt}");
    assert!(hash > lu, "Hash AMAT {hash} should exceed LU {lu}");
}
