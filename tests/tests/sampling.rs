//! Golden sampled-vs-full accuracy: an interval-sampled replay must
//! land within the paper-grade error budget (<2% AMAT / energy against
//! the full-fidelity run of the same trace), the *reported* confidence
//! interval must cover the *true* error, and a plan that simulates every
//! interval (clusters ≥ intervals) must be bit-identical to the full
//! walk — sampling with nothing left out is not allowed to perturb a
//! single counter. A sampled grid must measure exactly what a naive
//! per-event walk of the plan's windows measures, whatever its lanes.
//! Journals written in one fidelity mode must refuse to resume a
//! sweep in the other.

use memsim_cache::{Hierarchy, LevelStats};
use memsim_core::configs::{eh_by_name, n_by_name};
use memsim_core::replay::record_workload;
use memsim_core::runner::evaluate_cached;
use memsim_core::runner::{build_caches, evaluate_grid_sweep, evaluate_run, EvalResult};
use memsim_core::sampling::{build_plan, replay_structure_sampled, SampleSpec};
use memsim_core::{
    simulate_structure, Design, SampleMode, SamplePlan, Scale, SimCache, Source, Structure,
    SweepCtx, JOURNAL_FILE,
};
use memsim_memory::{PartitionedMemory, RegionTraffic};
use memsim_tech::Technology;
use memsim_trace::TraceSink;
use memsim_tracefile::TraceReader;
use memsim_workloads::{Class, WorkloadKind};
use std::path::{Path, PathBuf};
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
        let full = simulate_structure(trace.clone(), &scale, &structure, SampleMode::Off);
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
        let full = simulate_structure(trace.clone(), &scale, &structure, SampleMode::Off);
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
    let full = SampleMode::Off;
    let on = SampleMode::parse("interval=65536,clusters=4").unwrap();
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

/// A hierarchy's counters at one stream position.
#[derive(Debug, Clone, PartialEq)]
struct Snapshot {
    caches: Vec<LevelStats>,
    mem: LevelStats,
    per_region: Vec<RegionTraffic>,
    refs: u64,
}

fn snapshot(h: &Hierarchy<PartitionedMemory>) -> Snapshot {
    let mut mem = h.memory().dram_stats().clone();
    mem.name = "MEM".to_string();
    Snapshot {
        caches: h.levels().iter().map(|c| c.stats()).collect(),
        mem,
        per_region: h.memory().traffic().to_vec(),
        refs: h.total_refs(),
    }
}

/// `acc += w × (end − start)` over the ten counters of one level.
fn add_level(acc: &mut LevelStats, end: &LevelStats, start: &LevelStats, w: i64) {
    let step = |a: &mut u64, e: u64, s: u64| {
        *a = (*a as i64 + w * (e as i64 - s as i64)) as u64;
    };
    step(&mut acc.loads, end.loads, start.loads);
    step(&mut acc.stores, end.stores, start.stores);
    step(&mut acc.load_hits, end.load_hits, start.load_hits);
    step(&mut acc.load_misses, end.load_misses, start.load_misses);
    step(&mut acc.store_hits, end.store_hits, start.store_hits);
    step(&mut acc.store_misses, end.store_misses, start.store_misses);
    step(
        &mut acc.writebacks_out,
        end.writebacks_out,
        start.writebacks_out,
    );
    step(&mut acc.fills, end.fills, start.fills);
    step(&mut acc.bytes_loaded, end.bytes_loaded, start.bytes_loaded);
    step(&mut acc.bytes_stored, end.bytes_stored, start.bytes_stored);
}

/// `acc += w × (end − start)`, counter by counter.
fn add_scaled(acc: &mut Snapshot, end: &Snapshot, start: &Snapshot, w: i64) {
    for ((a, e), s) in acc.caches.iter_mut().zip(&end.caches).zip(&start.caches) {
        add_level(a, e, s, w);
    }
    add_level(&mut acc.mem, &end.mem, &start.mem, w);
    for ((a, e), s) in acc
        .per_region
        .iter_mut()
        .zip(&end.per_region)
        .zip(&start.per_region)
    {
        let step = |a: &mut u64, e: u64, s: u64| {
            *a = (*a as i64 + w * (e as i64 - s as i64)) as u64;
        };
        step(&mut a.loads, e.loads, s.loads);
        step(&mut a.stores, e.stores, s.stores);
        step(&mut a.bytes_loaded, e.bytes_loaded, s.bytes_loaded);
        step(&mut a.bytes_stored, e.bytes_stored, s.bytes_stored);
    }
    acc.refs = (acc.refs as i64 + w * (end.refs as i64 - start.refs as i64)) as u64;
}

/// All-zero counters shaped like `like`.
fn zero(like: &Snapshot) -> Snapshot {
    let level = |s: &LevelStats| LevelStats {
        name: s.name.clone(),
        ..Default::default()
    };
    Snapshot {
        caches: like.caches.iter().map(level).collect(),
        mem: level(&like.mem),
        per_region: vec![RegionTraffic::default(); like.per_region.len()],
        refs: 0,
    }
}

/// The schedule reference, sharing no code with the grid's window feeder
/// or its lanes: one hierarchy, fed one event at a time from the whole
/// trace, but only inside the plan's windows (every representative
/// interval and the one interval before it), snapshotted at every
/// representative's bounds and around the drain. Returns each cluster's
/// measured delta, in plan order, and the drain's.
fn schedule_reference(
    path: &Path,
    scale: &Scale,
    structure: &Structure,
    plan: &SamplePlan,
) -> (Vec<Snapshot>, Snapshot) {
    let mut reader = TraceReader::open(path).unwrap();
    let regions = reader.header().regions.clone();
    let events = reader.read_all().unwrap();
    let interval = plan.spec.interval as usize;
    let mut fed = vec![false; events.len()];
    for c in &plan.clusters {
        let (start, end) = plan.interval_bounds(c.representative);
        fed[(start as usize).saturating_sub(interval)..end as usize].fill(true);
    }
    let mut h = Hierarchy::new(
        build_caches(scale, structure),
        PartitionedMemory::new(&regions, Technology::Pcm),
    );
    let mut starts: Vec<Option<Snapshot>> = vec![None; plan.clusters.len()];
    let mut deltas: Vec<Option<Snapshot>> = vec![None; plan.clusters.len()];
    for pos in 0..=events.len() {
        for (c, cluster) in plan.clusters.iter().enumerate() {
            let (start, end) = plan.interval_bounds(cluster.representative);
            if start as usize == pos {
                starts[c] = Some(snapshot(&h));
            }
            if end as usize == pos {
                let now = snapshot(&h);
                let begin = starts[c].as_ref().expect("started");
                let mut d = zero(&now);
                add_scaled(&mut d, &now, begin, 1);
                deltas[c] = Some(d);
            }
        }
        if pos < events.len() && fed[pos] {
            h.access(events[pos]);
        }
    }
    let pre = snapshot(&h);
    h.drain();
    let post = snapshot(&h);
    let mut drain = zero(&post);
    add_scaled(&mut drain, &post, &pre, 1);
    (deltas.into_iter().map(|d| d.unwrap()).collect(), drain)
}

/// A sampled grid result's per-cluster deltas, in plan order, and its
/// drain: what the extrapolated counters hold beyond the weighted
/// clusters.
fn grid_schedule(r: &EvalResult) -> (Vec<Snapshot>, Snapshot) {
    let detail = r.run.sample.as_ref().expect("a sampled run");
    let clusters: Vec<Snapshot> = detail
        .cluster_runs
        .iter()
        .map(|c| Snapshot {
            caches: c.caches.clone(),
            mem: c.mem.clone(),
            per_region: c.per_region.clone(),
            refs: c.refs,
        })
        .collect();
    let total = Snapshot {
        caches: r.run.caches.clone(),
        mem: r.run.mem.clone(),
        per_region: r.run.per_region.clone(),
        refs: r.run.total_refs,
    };
    let mut drain = total.clone();
    for (c, run) in clusters.iter().zip(&detail.cluster_runs) {
        add_scaled(&mut drain, &zero(c), c, run.weight as i64);
    }
    (clusters, drain)
}

/// Baseline (3L) plus the L4 structures of the two paper designs.
fn three_structure_designs() -> Vec<Design> {
    let mut designs = vec![Design::Baseline];
    designs.extend(paper_designs());
    designs
}

#[test]
fn a_sampled_grid_measures_what_a_per_event_walk_of_the_windows_measures() {
    let scale = Scale::mini();
    for kind in [WorkloadKind::Hash, WorkloadKind::Cg] {
        let dir = tmp_dir(&format!("oracle-{}", kind.name()));
        let path = dir.join("w.trace");
        let summary = record_workload(kind, Class::Mini, &path).unwrap();
        // forty intervals, four clusters: a real extrapolation whose
        // windows leave most of the trace unfed
        let spec = SampleSpec {
            interval: (summary.events / 40).max(1),
            clusters: 4,
        };
        let plan = build_plan(&path, spec).unwrap();
        assert!(plan.clusters.len() < plan.intervals as usize);
        let trace = Source::trace(&path).unwrap();
        let points: Vec<(Source, Design)> = three_structure_designs()
            .into_iter()
            .map(|d| (trace.clone(), d))
            .collect();
        let references: Vec<_> = points
            .iter()
            .map(|(_, d)| schedule_reference(&path, &scale, &d.structure(&scale), &plan))
            .collect();
        for threads in [1usize, 2, 3] {
            let grid = evaluate_grid_sweep(
                &points,
                &scale,
                &SimCache::new(),
                Some(threads),
                None,
                SampleMode::On(spec),
            )
            .into_result()
            .unwrap();
            for (r, (clusters, drain)) in grid.iter().zip(&references) {
                let what = format!("{} × {} threads={threads}", kind.name(), r.design.label());
                let detail = r.run.sample.as_ref().unwrap();
                for (run, cluster) in detail.cluster_runs.iter().zip(&plan.clusters) {
                    assert_eq!(run.representative, cluster.representative, "{what}");
                    assert_eq!(run.weight, cluster.weight, "{what}");
                }
                let (grid_clusters, grid_drain) = grid_schedule(r);
                assert_eq!(&grid_clusters, clusters, "{what}: cluster deltas");
                assert_eq!(&grid_drain, drain, "{what}: drain delta");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
