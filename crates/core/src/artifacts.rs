//! Named, reproducible artifacts: the paper's tables and figures as
//! (markdown, CSV) pairs addressable by a stable name.
//!
//! Extracted from the CLI's `reproduce` command so every front end — the
//! batch CLI, the `memsim-server` daemon, examples, CI — builds artifacts
//! through the same code path. That is what makes the parity pins
//! meaningful: a grid submitted to the server must produce bytes
//! identical to the batch run, which is only testable if both render
//! through one function.
//!
//! Each artifact also names its points (`artifact_points`), from the
//! same design lists its builder evaluates. A reproduction uses them to
//! walk each workload once over every artifact's points
//! ([`walk_artifacts`]) before it builds any artifact: every builder's
//! grid is then served from the memo (or the journal) and walks nothing,
//! so each kernel runs once per reproduction instead of once per
//! artifact family.

use crate::design::Design;
use crate::experiments::{self, ExperimentCtx, Metric};
use crate::heatmap::{self, HeatmapData};
use crate::report::{heatmap_to_csv, heatmap_to_markdown, FigureData};
use crate::runner::SweepError;
use memsim_tech::Technology;
use memsim_workloads::WorkloadKind;

/// The simulated artifacts `reproduce` (and server jobs) can build, in
/// the order the reproduction writes them. `table1` is static and handled
/// separately by the CLI.
pub const ARTIFACT_NAMES: [&str; 12] = [
    "table4", "fig1", "fig2", "fig1_edp", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
    "fig10",
];

/// Is `name` a buildable artifact?
pub fn is_artifact(name: &str) -> bool {
    ARTIFACT_NAMES.contains(&name)
}

/// A figure rendered both ways, so callers can print one form and persist
/// both next to the journal.
pub fn render_figure(f: &FigureData) -> (String, String) {
    (f.to_markdown(), f.to_csv())
}

/// [`render_figure`] for the heat-map figures.
pub fn render_heatmap(h: &HeatmapData) -> (String, String) {
    (heatmap_to_markdown(h), heatmap_to_csv(h))
}

/// Build one named artifact as (markdown, CSV). Unknown names are an
/// `Err`, not a panic — the server feeds this straight from request
/// bodies.
pub fn build_artifact(ctx: &ExperimentCtx, name: &str) -> Result<(String, String), SweepError> {
    let fig = |f: Result<FigureData, SweepError>| f.map(|f| render_figure(&f));
    let heat = |h: Result<HeatmapData, SweepError>| h.map(|h| render_heatmap(&h));
    match name {
        "table4" => fig(experiments::table4(ctx)),
        "fig1" => fig(experiments::fig_nmm(ctx, Metric::Time)),
        "fig2" => fig(experiments::fig_nmm(ctx, Metric::Energy)),
        "fig1_edp" => fig(experiments::fig_nmm(ctx, Metric::Edp)),
        "fig3" => fig(experiments::fig_4lc(ctx, Metric::Time)),
        "fig4" => fig(experiments::fig_4lc(ctx, Metric::Energy)),
        "fig5" => fig(experiments::fig_4lcnvm(ctx, Metric::Time)),
        "fig6" => fig(experiments::fig_4lcnvm(ctx, Metric::Energy)),
        "fig7" => fig(experiments::fig_ndm(ctx, Metric::Time)),
        "fig8" => fig(experiments::fig_ndm(ctx, Metric::Energy)),
        "fig9" => heat(experiments::fig9(ctx)),
        "fig10" => heat(experiments::fig10(ctx)),
        other => Err(SweepError::Failed(vec![crate::runner::FailedPoint {
            workload: WorkloadKind::Cg,
            design: Design::Baseline,
            message: format!("unknown artifact '{other}'"),
        }])),
    }
}

/// The designs artifact `name` evaluates besides each workload's
/// baseline (none for Table 4), or `None` for an unknown name.
fn artifact_designs(name: &str) -> Option<Vec<Design>> {
    Some(match name {
        "table4" => Vec::new(),
        "fig1" | "fig2" | "fig1_edp" => experiments::nmm_designs(),
        "fig3" | "fig4" => experiments::fourlc_designs(),
        "fig5" | "fig6" => experiments::fourlcnvm_designs(),
        "fig7" | "fig8" => experiments::ndm_designs(),
        "fig9" | "fig10" => vec![heatmap::heatmap_design()],
        _ => return None,
    })
}

/// The (workload, design) points [`build_artifact`] evaluates for `name`
/// under `ctx`: each workload's baseline followed by the artifact's
/// designs (Table 4: the baseline only). Empty for an unknown name.
pub(crate) fn artifact_points(ctx: &ExperimentCtx, name: &str) -> Vec<(WorkloadKind, Design)> {
    artifact_designs(name).map_or_else(Vec::new, |designs| ctx.points(&designs))
}

/// Walk every workload of `ctx` once, in order, over the union of the
/// points of the artifacts `names` (deduplicated in first-seen order):
/// one grid per workload, so each workload's points are journaled before
/// the next workload's kernel starts, and an interrupt loses at most the
/// workload in flight. Building those artifacts afterwards walks nothing:
/// their grids are served from the memo, or from the journal on a resume.
///
/// Stops with [`SweepError::Interrupted`] before the first workload that
/// starts after the sweep's interrupt flag was raised (or when a grid
/// reports the interrupt). A failed point is not reported here: the
/// builders that need it report it, and its structure, released by the
/// failed walk, is walked again by each of them.
pub fn walk_artifacts(ctx: &ExperimentCtx, names: &[&str]) -> Result<(), SweepError> {
    for &workload in &ctx.workloads {
        if ctx.sweep.is_some_and(|sweep| sweep.interrupted()) {
            return Err(SweepError::Interrupted);
        }
        let mut points: Vec<(WorkloadKind, Design)> = Vec::new();
        for name in names {
            for point in artifact_points(ctx, name) {
                if point.0 == workload && !points.contains(&point) {
                    points.push(point);
                }
            }
        }
        if let Err(SweepError::Interrupted) = ctx.grid(&points) {
            return Err(SweepError::Interrupted);
        }
    }
    Ok(())
}

/// The named representative designs (one per architecture family, at the
/// configs the paper highlights) that `replay --designs` and server
/// design-grid jobs accept by name.
pub fn named_designs() -> Vec<(&'static str, Design)> {
    use crate::configs::{eh_by_name, n_by_name};
    vec![
        ("baseline", Design::Baseline),
        (
            "4lc",
            Design::FourLc {
                llc: Technology::Edram,
                config: eh_by_name("EH1").expect("EH1 exists"),
            },
        ),
        (
            "nmm",
            Design::Nmm {
                nvm: Technology::Pcm,
                config: n_by_name("N6").expect("N6 exists"),
            },
        ),
        (
            "4lcnvm",
            Design::FourLcNvm {
                llc: Technology::Edram,
                nvm: Technology::Pcm,
                config: eh_by_name("EH1").expect("EH1 exists"),
            },
        ),
        (
            "ndm",
            Design::Ndm {
                nvm: Technology::Pcm,
            },
        ),
    ]
}

/// Resolve a comma-separated list of design names against
/// [`named_designs`], preserving order.
pub fn parse_design_list(list: &str) -> Result<Vec<Design>, String> {
    let all = named_designs();
    list.split(',')
        .map(|name| {
            all.iter()
                .find(|(n, _)| *n == name)
                .map(|(_, d)| *d)
                .ok_or_else(|| format!("unknown design '{name}'"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::SimCache;
    use crate::scale::Scale;

    #[test]
    fn artifact_names_are_buildable_and_unknown_rejected() {
        for name in ARTIFACT_NAMES {
            assert!(is_artifact(name));
        }
        assert!(!is_artifact("table1"));
        let cache = SimCache::new();
        let ctx = ExperimentCtx::new(Scale::mini(), &cache);
        assert!(build_artifact(&ctx, "nope").is_err());
    }

    #[test]
    fn table4_builds_and_matches_direct_call() {
        let cache = SimCache::new();
        let ctx = ExperimentCtx::new(Scale::mini(), &cache).with_workloads(&[WorkloadKind::Hash]);
        let (md, csv) = build_artifact(&ctx, "table4").unwrap();
        let direct = experiments::table4(&ctx).unwrap();
        assert_eq!(md, direct.to_markdown());
        assert_eq!(csv, direct.to_csv());
    }

    #[test]
    fn artifact_points_union_covers_the_design_space_once() {
        let cache = SimCache::new();
        let ctx = ExperimentCtx::new(Scale::mini(), &cache)
            .with_workloads(&[WorkloadKind::Cg, WorkloadKind::Hash]);
        let base = |w| (w, Design::Baseline);
        assert_eq!(
            artifact_points(&ctx, "table4"),
            vec![base(WorkloadKind::Cg), base(WorkloadKind::Hash)]
        );
        assert!(artifact_points(&ctx, "nope").is_empty());
        // each workload: baseline, 27 NMM, 16 4LC, 32 4LCNVM and 3 NDM
        // points over 18 structures (3L, N1–N9, EH1–EH8)
        let mut union: Vec<(WorkloadKind, Design)> = Vec::new();
        for name in ARTIFACT_NAMES {
            let points = artifact_points(&ctx, name);
            assert_eq!(points[0], base(WorkloadKind::Cg), "{name}");
            for p in points {
                if !union.contains(&p) {
                    union.push(p);
                }
            }
        }
        assert_eq!(union.len(), 2 * 79);
        let mut structures: Vec<crate::Structure> = Vec::new();
        for (w, d) in &union {
            let st = d.structure(&ctx.scale);
            if *w == WorkloadKind::Cg && !structures.contains(&st) {
                structures.push(st);
            }
        }
        assert_eq!(structures.len(), 18);
    }

    #[test]
    fn design_list_parses_names_and_rejects_junk() {
        let d = parse_design_list("baseline,nmm").unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d[0], Design::Baseline);
        assert!(parse_design_list("warp").is_err());
        assert!(parse_design_list("").is_err());
    }
}
