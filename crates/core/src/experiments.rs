//! One entry point per table and figure of the paper's evaluation.
//!
//! Every function returns a [`FigureData`] (or [`HeatmapData`]) whose rows
//! correspond to what the paper plots; the `memsim-bench` harness prints
//! them and EXPERIMENTS.md records paper-vs-measured values.

use crate::configs::{eh_configs, n_configs};
use crate::design::Design;
use crate::heatmap::{default_multipliers, heatmap, Axis, HeatmapData};
use crate::journal::SweepCtx;
use crate::model::NormMetrics;
use crate::report::{FigureData, Series};
use crate::runner::{evaluate_grid_sweep, EvalResult, SimCache, Source, SweepError};
use crate::sampling::SampleMode;
use crate::scale::Scale;
use memsim_tech::{TechParams, Technology};
use memsim_workloads::WorkloadKind;
use std::collections::HashMap;

/// Shared context for the experiment suite.
pub struct ExperimentCtx<'a> {
    /// Capacity scale (and workload class).
    pub scale: Scale,
    /// The benchmark set to average over (defaults to the Table 4 set).
    pub workloads: Vec<WorkloadKind>,
    /// Shared simulation memo.
    pub cache: &'a SimCache,
    /// Worker threads (None = available parallelism).
    pub threads: Option<usize>,
    /// Journal/resume/interrupt state shared across the suite (None =
    /// plain run, no checkpointing).
    pub sweep: Option<&'a SweepCtx>,
    /// Interval sampling of each structure simulation (off: full
    /// fidelity).
    pub sample: SampleMode,
}

impl<'a> ExperimentCtx<'a> {
    /// A context over the paper's benchmark set at the given scale.
    pub fn new(scale: Scale, cache: &'a SimCache) -> Self {
        Self {
            scale,
            workloads: WorkloadKind::PAPER_SET.to_vec(),
            cache,
            threads: None,
            sweep: None,
            sample: SampleMode::Off,
        }
    }

    /// Restrict the benchmark set (smoke tests).
    pub fn with_workloads(mut self, w: &[WorkloadKind]) -> Self {
        self.workloads = w.to_vec();
        self
    }

    /// Attach a sweep context: every grid evaluation journals completed
    /// points, serves resumed points from the journal, and honors the
    /// interrupt flag.
    pub fn with_sweep(mut self, sweep: &'a SweepCtx) -> Self {
        self.sweep = Some(sweep);
        self
    }

    /// Choose the sampling mode (default off: full fidelity).
    pub fn with_sample(mut self, sample: SampleMode) -> Self {
        self.sample = sample;
        self
    }

    /// Run a grid under the context's sweep state and lift the outcome
    /// into a `Result` ([`crate::runner::GridOutcome::into_result`]).
    pub(crate) fn grid(
        &self,
        points: &[(WorkloadKind, Design)],
    ) -> Result<Vec<EvalResult>, SweepError> {
        let points: Vec<(Source, Design)> = points.iter().map(|&(k, d)| (k.into(), d)).collect();
        evaluate_grid_sweep(
            &points,
            &self.scale,
            self.cache,
            self.threads,
            self.sweep,
            self.sample,
        )
        .into_result()
    }

    /// Each workload's baseline followed by `designs`, workload by
    /// workload: the points of every builder's grid.
    pub(crate) fn points(&self, designs: &[Design]) -> Vec<(WorkloadKind, Design)> {
        self.workloads
            .iter()
            .flat_map(|&w| {
                std::iter::once(Design::Baseline)
                    .chain(designs.iter().copied())
                    .map(move |d| (w, d))
            })
            .collect()
    }
}

/// Which normalized metric a figure plots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Normalized runtime.
    Time,
    /// Normalized total energy.
    Energy,
    /// Normalized energy-delay product.
    Edp,
}

impl Metric {
    fn pick(&self, n: &NormMetrics) -> f64 {
        match self {
            Metric::Time => n.time,
            Metric::Energy => n.energy,
            Metric::Edp => n.edp,
        }
    }
}

/// Evaluate `designs` × the context's workloads (plus baselines) in
/// parallel and return normalized metrics per (workload, design-label).
pub fn norm_grid(
    ctx: &ExperimentCtx,
    designs: &[Design],
) -> Result<HashMap<(WorkloadKind, String), NormMetrics>, SweepError> {
    let results = ctx.grid(&ctx.points(designs))?;
    let mut base: HashMap<WorkloadKind, EvalResult> = HashMap::new();
    for r in &results {
        if matches!(r.design, Design::Baseline) {
            base.insert(r.workload, r.clone());
        }
    }
    let mut out = HashMap::new();
    for r in &results {
        if matches!(r.design, Design::Baseline) {
            continue;
        }
        let b = &base[&r.workload];
        out.insert(
            (r.workload, r.design.label()),
            r.metrics.normalized_to(&b.metrics),
        );
    }
    Ok(out)
}

fn averaged_series(
    ctx: &ExperimentCtx,
    grid: &HashMap<(WorkloadKind, String), NormMetrics>,
    labels: &[String],
    metric: Metric,
) -> Vec<f64> {
    labels
        .iter()
        .map(|l| {
            let norms: Vec<NormMetrics> = ctx
                .workloads
                .iter()
                .map(|w| grid[&(*w, l.clone())])
                .collect();
            metric.pick(&NormMetrics::mean(&norms))
        })
        .collect()
}

/// The NMM designs of Figures 1 and 2: N1–N9 × each NVM technology.
pub fn nmm_designs() -> Vec<Design> {
    n_configs()
        .iter()
        .flat_map(|c| {
            Technology::NVM.iter().map(|t| Design::Nmm {
                nvm: *t,
                config: *c,
            })
        })
        .collect()
}

/// The 4LC designs of Figures 3 and 4: EH1–EH8 × each fast LLC technology.
pub fn fourlc_designs() -> Vec<Design> {
    eh_configs()
        .iter()
        .flat_map(|c| {
            Technology::FAST_LLC.iter().map(|t| Design::FourLc {
                llc: *t,
                config: *c,
            })
        })
        .collect()
}

/// The (LLC, NVM) pairs of Figures 5 and 6, one series each: both LLC
/// technologies with PCM, then eDRAM with the other NVMs.
const FOURLCNVM_COMBOS: [(Technology, Technology); 4] = [
    (Technology::Edram, Technology::Pcm),
    (Technology::Hmc, Technology::Pcm),
    (Technology::Edram, Technology::SttRam),
    (Technology::Edram, Technology::FeRam),
];

/// The 4LCNVM designs of Figures 5 and 6: EH1–EH8 × each pair of
/// `FOURLCNVM_COMBOS`.
pub fn fourlcnvm_designs() -> Vec<Design> {
    eh_configs()
        .iter()
        .flat_map(|c| {
            FOURLCNVM_COMBOS.iter().map(|(l, n)| Design::FourLcNvm {
                llc: *l,
                nvm: *n,
                config: *c,
            })
        })
        .collect()
}

/// The NDM designs of Figures 7 and 8: one per NVM technology.
pub fn ndm_designs() -> Vec<Design> {
    Technology::NVM
        .iter()
        .map(|t| Design::Ndm { nvm: *t })
        .collect()
}

/// Table 1: the technology characterization (verbatim from `memsim-tech`).
pub fn table1() -> FigureData {
    let rows = Technology::ALL;
    FigureData {
        id: "table1".into(),
        title: "Characteristics of different memory technologies".into(),
        x_labels: vec![
            "read delay (ns)".into(),
            "write delay (ns)".into(),
            "read energy (pJ/bit)".into(),
            "write energy (pJ/bit)".into(),
        ],
        series: rows
            .iter()
            .map(|t| {
                let p = TechParams::of(*t);
                Series {
                    name: t.name().to_string(),
                    values: vec![p.read_ns, p.write_ns, p.read_pj_per_bit, p.write_pj_per_bit],
                }
            })
            .collect(),
    }
}

/// Table 4: workload characteristics (footprint and modeled reference time).
pub fn table4(ctx: &ExperimentCtx) -> Result<FigureData, SweepError> {
    let results = ctx.grid(&ctx.points(&[]))?;
    Ok(FigureData {
        id: "table4".into(),
        title: "Characteristics of the benchmarks (model scale)".into(),
        x_labels: vec![
            "footprint (MiB)".into(),
            "references (M)".into(),
            "modeled time (ms)".into(),
            "AMAT (ns)".into(),
        ],
        series: results
            .iter()
            .map(|r| Series {
                name: r.workload.name().to_string(),
                values: vec![
                    r.run.footprint_bytes as f64 / (1 << 20) as f64,
                    r.run.total_refs as f64 / 1e6,
                    r.metrics.time_s * 1e3,
                    r.metrics.amat_ns,
                ],
            })
            .collect(),
    })
}

/// Figures 1 and 2: NMM normalized runtime/energy across N1–N9, averaged
/// over the benchmarks, one series per NVM technology.
pub fn fig_nmm(ctx: &ExperimentCtx, metric: Metric) -> Result<FigureData, SweepError> {
    let grid = norm_grid(ctx, &nmm_designs())?;
    let x_labels: Vec<String> = n_configs().iter().map(|c| c.name.to_string()).collect();
    let series = Technology::NVM
        .iter()
        .map(|t| {
            let labels: Vec<String> = n_configs()
                .iter()
                .map(|c| {
                    Design::Nmm {
                        nvm: *t,
                        config: *c,
                    }
                    .label()
                })
                .collect();
            Series {
                name: t.name().into(),
                values: averaged_series(ctx, &grid, &labels, metric),
            }
        })
        .collect();
    let (id, what) = match metric {
        Metric::Time => ("fig1", "run time"),
        Metric::Energy => ("fig2", "energy"),
        Metric::Edp => ("fig1-edp", "EDP"),
    };
    Ok(FigureData {
        id: id.into(),
        title: format!("Average of normalized {what} of all benchmarks for NMM"),
        x_labels,
        series,
    })
}

/// Figures 3 and 4: 4LC normalized runtime/energy across EH1–EH8, one
/// series per LLC technology.
pub fn fig_4lc(ctx: &ExperimentCtx, metric: Metric) -> Result<FigureData, SweepError> {
    let grid = norm_grid(ctx, &fourlc_designs())?;
    let x_labels: Vec<String> = eh_configs().iter().map(|c| c.name.to_string()).collect();
    let series = Technology::FAST_LLC
        .iter()
        .map(|t| {
            let labels: Vec<String> = eh_configs()
                .iter()
                .map(|c| {
                    Design::FourLc {
                        llc: *t,
                        config: *c,
                    }
                    .label()
                })
                .collect();
            Series {
                name: t.name().into(),
                values: averaged_series(ctx, &grid, &labels, metric),
            }
        })
        .collect();
    let (id, what) = match metric {
        Metric::Time => ("fig3", "run time"),
        Metric::Energy => ("fig4", "total energy"),
        Metric::Edp => ("fig3-edp", "EDP"),
    };
    Ok(FigureData {
        id: id.into(),
        title: format!("Average of normalized {what} of all benchmarks for 4LC"),
        x_labels,
        series,
    })
}

/// Figures 5 and 6: 4LCNVM normalized runtime/energy across EH1–EH8. The
/// series cover both LLC technologies with PCM plus eDRAM with the other
/// NVMs.
pub fn fig_4lcnvm(ctx: &ExperimentCtx, metric: Metric) -> Result<FigureData, SweepError> {
    let grid = norm_grid(ctx, &fourlcnvm_designs())?;
    let x_labels: Vec<String> = eh_configs().iter().map(|c| c.name.to_string()).collect();
    let series = FOURLCNVM_COMBOS
        .iter()
        .map(|(l, n)| {
            let labels: Vec<String> = eh_configs()
                .iter()
                .map(|c| {
                    Design::FourLcNvm {
                        llc: *l,
                        nvm: *n,
                        config: *c,
                    }
                    .label()
                })
                .collect();
            Series {
                name: format!("{}+{}", l.name(), n.name()),
                values: averaged_series(ctx, &grid, &labels, metric),
            }
        })
        .collect();
    let (id, what) = match metric {
        Metric::Time => ("fig5", "run time"),
        Metric::Energy => ("fig6", "total energy"),
        Metric::Edp => ("fig5-edp", "EDP"),
    };
    Ok(FigureData {
        id: id.into(),
        title: format!("Average of normalized {what} of all benchmarks for 4LCNVM"),
        x_labels,
        series,
    })
}

/// Figures 7 and 8: NDM normalized runtime/energy per benchmark, one
/// series per NVM technology.
pub fn fig_ndm(ctx: &ExperimentCtx, metric: Metric) -> Result<FigureData, SweepError> {
    let grid = norm_grid(ctx, &ndm_designs())?;
    let x_labels: Vec<String> = ctx.workloads.iter().map(|w| w.name().to_string()).collect();
    let series = Technology::NVM
        .iter()
        .map(|t| {
            let label = Design::Ndm { nvm: *t }.label();
            Series {
                name: t.name().into(),
                values: ctx
                    .workloads
                    .iter()
                    .map(|w| metric.pick(&grid[&(*w, label.clone())]))
                    .collect(),
            }
        })
        .collect();
    let (id, what) = match metric {
        Metric::Time => ("fig7", "run time"),
        Metric::Energy => ("fig8", "total energy"),
        Metric::Edp => ("fig7-edp", "EDP"),
    };
    Ok(FigureData {
        id: id.into(),
        title: format!("Normalized {what} per benchmark for the NDM design"),
        x_labels,
        series,
    })
}

/// Figure 9: the runtime heat map over read/write latency multipliers.
pub fn fig9(ctx: &ExperimentCtx) -> Result<HeatmapData, SweepError> {
    let m = default_multipliers();
    heatmap(ctx, Axis::Latency, &m, &m)
}

/// Figure 10: the energy heat map over read/write energy multipliers.
pub fn fig10(ctx: &ExperimentCtx) -> Result<HeatmapData, SweepError> {
    let m = default_multipliers();
    heatmap(ctx, Axis::Energy, &m, &m)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_ctx(cache: &SimCache) -> ExperimentCtx<'_> {
        ExperimentCtx::new(Scale::mini(), cache)
            .with_workloads(&[WorkloadKind::Cg, WorkloadKind::Hash])
    }

    #[test]
    fn table1_is_six_by_four() {
        let t = table1();
        t.validate();
        assert_eq!(t.series.len(), 6);
        assert_eq!(t.x_labels.len(), 4);
        // PCM row, write delay column
        let pcm = t.series.iter().find(|s| s.name == "PCM").unwrap();
        assert_eq!(pcm.values[1], 100.0);
    }

    #[test]
    fn table4_reports_workloads() {
        let cache = SimCache::new();
        let t = table4(&quick_ctx(&cache)).unwrap();
        t.validate();
        assert_eq!(t.series.len(), 2);
        for s in &t.series {
            assert!(s.values[0] > 1.0, "{}: footprint must exceed 1 MiB", s.name);
            assert!(
                s.values[1] > 0.1,
                "{}: references must be nontrivial",
                s.name
            );
        }
    }

    #[test]
    fn fig_nmm_shape_and_sanity() {
        let cache = SimCache::new();
        let f = fig_nmm(&quick_ctx(&cache), Metric::Time).unwrap();
        f.validate();
        assert_eq!(f.x_labels.len(), 9);
        assert_eq!(f.series.len(), 3);
        for s in &f.series {
            for v in &s.values {
                assert!(
                    *v > 0.8 && *v < 4.0,
                    "{}: implausible normalized time {v}",
                    s.name
                );
            }
        }
        // PCM (slow writes) must not beat STT-RAM on time at any config
        let pcm = &f.series.iter().find(|s| s.name == "PCM").unwrap().values;
        let stt = &f.series.iter().find(|s| s.name == "STTRAM").unwrap().values;
        // both within a loose band of each other (DRAM cache filters most traffic)
        for (p, s) in pcm.iter().zip(stt) {
            assert!((p / s - 1.0).abs() < 0.5);
        }
    }

    #[test]
    fn fig_4lc_time_band() {
        let cache = SimCache::new();
        let f = fig_4lc(&quick_ctx(&cache), Metric::Time).unwrap();
        f.validate();
        assert_eq!(f.series.len(), 2);
        // 4LC adds a faster level in front of DRAM: runtime stays near 1.0
        for s in &f.series {
            for v in &s.values {
                assert!(
                    *v > 0.7 && *v < 1.3,
                    "{}: normalized time {v} out of band",
                    s.name
                );
            }
        }
    }

    #[test]
    fn edp_metric_produces_distinct_figure() {
        let cache = SimCache::new();
        let ctx = ExperimentCtx::new(Scale::mini(), &cache).with_workloads(&[WorkloadKind::Cg]);
        let t = fig_nmm(&ctx, Metric::Time).unwrap();
        let e = fig_nmm(&ctx, Metric::Edp).unwrap();
        assert_eq!(e.id, "fig1-edp");
        // EDP = time × energy ratios: at equal x, EDP differs from time
        // whenever energy differs from 1
        let tv = t.series[0].values[0];
        let ev = e.series[0].values[0];
        assert!((tv - ev).abs() > 1e-9 || (tv - 1.0).abs() < 1e-6);
    }

    #[test]
    fn norm_grid_covers_every_point() {
        let cache = SimCache::new();
        let ctx = ExperimentCtx::new(Scale::mini(), &cache).with_workloads(&[WorkloadKind::Cg]);
        let designs = vec![
            Design::Nmm {
                nvm: Technology::Pcm,
                config: n_configs()[0],
            },
            Design::Ndm {
                nvm: Technology::Pcm,
            },
        ];
        let grid = norm_grid(&ctx, &designs).unwrap();
        assert_eq!(grid.len(), 2);
        for d in &designs {
            assert!(
                grid.contains_key(&(WorkloadKind::Cg, d.label())),
                "{}",
                d.label()
            );
        }
    }

    #[test]
    fn fig_ndm_per_benchmark() {
        let cache = SimCache::new();
        let ctx = quick_ctx(&cache);
        let f = fig_ndm(&ctx, Metric::Time).unwrap();
        f.validate();
        assert_eq!(f.x_labels, vec!["CG".to_string(), "Hash".to_string()]);
        assert_eq!(f.series.len(), 3);
        // NDM routes some traffic to NVM: runtime is at or above baseline
        for s in &f.series {
            for v in &s.values {
                assert!(
                    *v >= 0.99,
                    "{}: NDM should not beat baseline runtime: {v}",
                    s.name
                );
            }
        }
    }
}
