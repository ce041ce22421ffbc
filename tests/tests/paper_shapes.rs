//! Qualitative shapes from the paper's results section, checked at the
//! mini scale (loose bands — EXPERIMENTS.md records the demo-scale runs
//! against the paper's numbers).

use memsim_core::configs::{eh_configs, n_configs};
use memsim_core::experiments::{self, ExperimentCtx, Metric};
use memsim_core::runner::{evaluate_cached, SimCache};
use memsim_core::SampleMode;
use memsim_core::{Design, Scale};
use memsim_integration_tests::{fast_workloads, test_scale};
use memsim_tech::Technology;
use memsim_workloads::WorkloadKind;

fn ctx(cache: &SimCache) -> ExperimentCtx<'_> {
    ExperimentCtx::new(test_scale(), cache).with_workloads(&fast_workloads())
}

/// 4LC: "the run time decreases by approximately 2%" — an eDRAM L4 in
/// front of DRAM must not slow things down materially, and HMC (0.18 ns)
/// must be at least as fast as eDRAM (4.4 ns).
#[test]
fn fourlc_runtime_shape() {
    let cache = SimCache::new();
    let f = experiments::fig_4lc(&ctx(&cache), Metric::Time).unwrap();
    let edram = &f.series.iter().find(|s| s.name == "eDRAM").unwrap().values;
    let hmc = &f.series.iter().find(|s| s.name == "HMC").unwrap().values;
    for (e, h) in edram.iter().zip(hmc) {
        assert!(
            *e < 1.15,
            "eDRAM 4LC should stay near baseline runtime: {e}"
        );
        assert!(h <= e, "HMC ({h}) must not be slower than eDRAM ({e})");
    }
}

/// 4LC energy: "using a page-size comparable with the cache line size
/// results in large energy savings … increasing the page size results in
/// an increase of dynamic and hence total energy" — EH1 (64 B pages) must
/// beat EH6 (2 KiB pages) on energy.
#[test]
fn fourlc_small_pages_save_energy() {
    let cache = SimCache::new();
    let f = experiments::fig_4lc(&ctx(&cache), Metric::Energy).unwrap();
    for s in &f.series {
        let eh1 = s.values[0];
        let eh6 = s.values[5];
        assert!(
            eh1 < eh6,
            "{}: 64 B pages ({eh1}) must use less energy than 2 KiB pages ({eh6})",
            s.name
        );
    }
}

/// NMM: growing the DRAM cache (N1→N3 at fixed 4 KiB pages) must not
/// increase runtime — "increase in DRAM capacity results in increase in
/// hit rate, which causes decrease in total access time".
#[test]
fn nmm_capacity_helps_runtime() {
    let cache = SimCache::new();
    let scale = test_scale();
    for kind in fast_workloads() {
        let base = evaluate_cached(kind, &scale, &Design::Baseline, &cache, SampleMode::Off);
        let time = |idx: usize| {
            let d = Design::Nmm {
                nvm: Technology::Pcm,
                config: n_configs()[idx],
            };
            evaluate_cached(kind, &scale, &d, &cache, SampleMode::Off)
                .metrics
                .normalized_to(&base.metrics)
                .time
        };
        let n1 = time(0);
        let n3 = time(2);
        assert!(
            n3 <= n1 * 1.01,
            "{kind:?}: N3 ({n3}) should not be slower than N1 ({n1})"
        );
    }
}

/// NMM page-size effect on the memory interface: smaller pages move fewer
/// bits per miss, so the *dynamic energy at the NVM* per unit data must
/// not grow as pages shrink from 4 KiB (N3) to 64 B (N9).
#[test]
fn nmm_small_pages_move_fewer_bits() {
    let cache = SimCache::new();
    let scale = test_scale();
    for kind in fast_workloads() {
        let run_for = |idx: usize| {
            let d = Design::Nmm {
                nvm: Technology::Pcm,
                config: n_configs()[idx],
            };
            evaluate_cached(kind, &scale, &d, &cache, SampleMode::Off).run
        };
        let n3 = run_for(2);
        let n9 = run_for(8);
        let bytes = |r: &memsim_core::RawRun| r.mem.bytes_loaded + r.mem.bytes_stored;
        assert!(
            bytes(&n9) < bytes(&n3),
            "{kind:?}: 64 B pages should move fewer memory bytes ({} vs {})",
            bytes(&n9),
            bytes(&n3)
        );
    }
}

/// 4LCNVM: "combining the two … improves the overall energy reduction"
/// — at EH1, 4LCNVM(eDRAM+PCM) must use less energy than 4LC(eDRAM)
/// (which keeps the footprint-sized refreshing DRAM).
#[test]
fn fourlcnvm_beats_fourlc_on_energy() {
    let cache = SimCache::new();
    let scale = test_scale();
    let eh1 = eh_configs()[0];
    for kind in fast_workloads() {
        let base = evaluate_cached(kind, &scale, &Design::Baseline, &cache, SampleMode::Off);
        let flc = evaluate_cached(
            kind,
            &scale,
            &Design::FourLc {
                llc: Technology::Edram,
                config: eh1,
            },
            &cache,
            SampleMode::Off,
        );
        let flcnvm = evaluate_cached(
            kind,
            &scale,
            &Design::FourLcNvm {
                llc: Technology::Edram,
                nvm: Technology::Pcm,
                config: eh1,
            },
            &cache,
            SampleMode::Off,
        );
        let e_flc = flc.metrics.normalized_to(&base.metrics).energy;
        let e_flcnvm = flcnvm.metrics.normalized_to(&base.metrics).energy;
        // the mechanism: dropping the refreshing DRAM must cut the static
        // *power* (static energy / runtime)
        let p_flc = flc.metrics.static_j / flc.metrics.time_s;
        let p_flcnvm = flcnvm.metrics.static_j / flcnvm.metrics.time_s;
        assert!(
            p_flcnvm < p_flc,
            "{kind:?}: removing DRAM must reduce static power ({p_flcnvm} vs {p_flc})"
        );
        // mini-scale compression exaggerates the memory-traffic share (and
        // with it PCM's dynamic premium), so allow a modest margin here;
        // the demo-scale figures in EXPERIMENTS.md check the paper's claim
        assert!(
            e_flcnvm < e_flc * 1.10,
            "{kind:?}: 4LCNVM ({e_flcnvm}) should not lose to 4LC ({e_flc}) on energy"
        );
    }
}

/// NDM: runtime overhead is nonnegative for every NVM (the paper reports
/// +5% to +63%), and NVM partitions actually receive traffic.
#[test]
fn ndm_has_runtime_overhead_and_real_nvm_traffic() {
    let cache = SimCache::new();
    let scale = test_scale();
    for kind in fast_workloads() {
        let sample = SampleMode::Off;
        let base = evaluate_cached(kind, &scale, &Design::Baseline, &cache, sample);
        for nvm in Technology::NVM {
            let r = evaluate_cached(kind, &scale, &Design::Ndm { nvm }, &cache, sample);
            let norm = r.metrics.normalized_to(&base.metrics);
            assert!(
                norm.time >= 1.0 - 1e-9,
                "{kind:?}/{nvm:?}: NDM cannot beat baseline runtime"
            );
            let placement = r.placement.as_ref().unwrap();
            let nvm_refs: u64 = placement
                .iter()
                .enumerate()
                .filter(|(_, p)| matches!(p, memsim_core::partition::Placement::Nvm))
                .map(|(i, _)| r.run.per_region[i].loads + r.run.per_region[i].stores)
                .sum();
            assert!(nvm_refs > 0, "{kind:?}/{nvm:?}: oracle left NVM idle");
        }
    }
}

/// Heat map headline: "an increase in read latency has higher impact than
/// an increase in write latency", and the 20×/20× corner stays a bounded
/// penalty (the paper reports 17%; the DRAM cache filters almost all
/// traffic).
#[test]
fn heatmap_read_dominance_and_bounded_corner() {
    let cache = SimCache::new();
    // read-dominated set (the paper's full-suite average is read-heavy;
    // Hash's build phase dirties nearly every page it touches, so on its
    // own it sits at the loads == stores boundary)
    let c = ExperimentCtx::new(test_scale(), &cache)
        .with_workloads(&[WorkloadKind::Cg, WorkloadKind::Graph500]);
    let h = experiments::fig9(&c).unwrap();
    let n = h.read_mults.len() - 1;
    let read_only = h.at(n, 0);
    let write_only = h.at(0, n);
    let corner = h.at(n, n);
    assert!(
        read_only > write_only,
        "read {read_only} vs write {write_only}"
    );
    assert!(
        corner < 2.0,
        "20×/20× corner should be a bounded penalty, got {corner}"
    );
    assert!(
        (h.at(0, 0) - 1.0).abs() < 0.35,
        "1×/1× should sit near baseline"
    );
}

/// Figure-generation API smoke: every figure builds with consistent shape
/// at mini scale.
#[test]
fn all_figures_build() {
    let cache = SimCache::new();
    let c = ctx(&cache);
    for f in [
        experiments::fig_nmm(&c, Metric::Time).unwrap(),
        experiments::fig_nmm(&c, Metric::Energy).unwrap(),
        experiments::fig_4lc(&c, Metric::Time).unwrap(),
        experiments::fig_4lc(&c, Metric::Energy).unwrap(),
        experiments::fig_4lcnvm(&c, Metric::Time).unwrap(),
        experiments::fig_4lcnvm(&c, Metric::Energy).unwrap(),
        experiments::fig_ndm(&c, Metric::Time).unwrap(),
        experiments::fig_ndm(&c, Metric::Energy).unwrap(),
        experiments::table1(),
        experiments::table4(&c).unwrap(),
    ] {
        f.validate();
        assert!(!f.series.is_empty());
        assert!(!f.to_markdown().is_empty());
        assert!(!f.to_csv().is_empty());
    }
    let _ = Scale::demo(); // demo preset stays constructible
}
