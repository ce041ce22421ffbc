//! Observability acceptance tests.
//!
//! The contract under test: counters the registry exports under a run's
//! prefix are **bit-identical** to the final report's `LevelStats` (the
//! epoch-published values are overwritten by an exact final publish), and
//! the deterministic JSON export is byte-stable across identical runs.
//!
//! Every test takes `memsim_obs::test_lock()` — the registry and span
//! tree are process-global, so obs tests must not interleave.

use memsim_core::configs::n_by_name;
use memsim_core::experiments::{fig_nmm, ExperimentCtx, Metric};
use memsim_core::jsontext::{get_u64, parse_json};
use memsim_core::runner::{evaluate_cached, evaluate_grid_sweep};
use memsim_core::{Design, SampleMode, Scale, SimCache, Source, Structure};
use memsim_tech::Technology;
use memsim_workloads::{Class, WorkloadKind};
use std::path::PathBuf;

fn counter(name: &str) -> u64 {
    memsim_obs::global()
        .counter_value(name)
        .unwrap_or_else(|| panic!("counter '{name}' not registered"))
}

/// Assert all ten exported per-level counters equal the final stats.
fn assert_level_matches(prefix: &str, s: &memsim_cache::LevelStats) {
    for (field, v) in [
        ("loads", s.loads),
        ("stores", s.stores),
        ("load_hits", s.load_hits),
        ("load_misses", s.load_misses),
        ("store_hits", s.store_hits),
        ("store_misses", s.store_misses),
        ("writebacks_out", s.writebacks_out),
        ("fills", s.fills),
        ("bytes_loaded", s.bytes_loaded),
        ("bytes_stored", s.bytes_stored),
    ] {
        assert_eq!(
            counter(&format!("{prefix}.{}.{field}", s.name)),
            v,
            "{prefix}.{}.{field} diverges from the final LevelStats",
            s.name
        );
    }
}

fn temp_trace(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("memsim-obs-itest-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn live_run_registry_counters_match_final_level_stats() {
    let _lock = memsim_obs::test_lock();
    memsim_obs::reset();
    memsim_obs::set_enabled(true);
    let (cache, sample) = (SimCache::new(), SampleMode::Off);
    let res = evaluate_cached(
        WorkloadKind::Hash,
        &Scale::mini(),
        &Design::Baseline,
        &cache,
        sample,
    );
    memsim_obs::set_enabled(false);

    let prefix = format!("sim.{}.3L", WorkloadKind::Hash.name());
    for s in res.run.all_levels() {
        assert_level_matches(&prefix, s);
    }
    assert_eq!(counter("progress.events"), res.run.total_refs);
}

#[test]
fn replay_export_json_is_bit_identical_to_level_stats() {
    let _lock = memsim_obs::test_lock();
    let scale = Scale::mini();
    let path = temp_trace("hash-export.trace");
    memsim_core::record_workload(WorkloadKind::Hash, Class::Mini, &path).unwrap();

    memsim_obs::reset();
    memsim_obs::set_enabled(true);
    let st = Structure::ThreeLevel;
    let trace = memsim_core::Source::trace(&path).unwrap();
    let run = memsim_core::simulate_structure(trace, &scale, &st, SampleMode::Off);
    memsim_obs::set_enabled(false);

    // the acceptance criterion: the values in the exported JSON document
    // (what `--metrics-out` writes) equal the final report's LevelStats,
    // digit for digit
    let doc = memsim_obs::export_json(&[("command", "replay".to_string())], memsim_obs::global());
    for s in run.all_levels() {
        assert_level_matches("replay.3L", s);
        for (field, v) in [
            ("load_hits", s.load_hits),
            ("load_misses", s.load_misses),
            ("writebacks_out", s.writebacks_out),
        ] {
            let needle = format!("\"replay.3L.{}.{field}\":{v}", s.name);
            assert!(doc.contains(&needle), "export is missing `{needle}`");
        }
    }

    // trace-health counters: every chunk that reached the sink passed CRC
    let chunks = counter("replay.3L.reader.chunks");
    assert!(chunks > 0);
    assert_eq!(counter("replay.3L.reader.crc_verified_chunks"), chunks);
    assert!(counter("replay.3L.reader.payload_bytes") > 0);
    assert_eq!(counter("progress.events"), run.total_refs);

    std::fs::remove_file(&path).ok();
}

#[test]
fn deterministic_export_is_byte_stable_across_identical_runs() {
    let _lock = memsim_obs::test_lock();
    let scale = Scale::mini();
    let manifest = [
        ("command", "run".to_string()),
        ("workload", "cg".to_string()),
    ];
    let mut docs = Vec::new();
    for _ in 0..2 {
        memsim_obs::reset();
        memsim_obs::set_enabled(true);
        memsim_obs::set_deterministic(true);
        let (cache, sample) = (SimCache::new(), SampleMode::Off);
        let _ = evaluate_cached(WorkloadKind::Cg, &scale, &Design::Baseline, &cache, sample);
        memsim_obs::set_enabled(false);
        docs.push(memsim_obs::export_json(&manifest, memsim_obs::global()));
    }
    memsim_obs::set_deterministic(false);

    assert_eq!(docs[0], docs[1], "deterministic export is not byte-stable");
    assert!(docs[0].starts_with("{\"schema\":\"memsim-obs/1\""));
    // wall times are zeroed in deterministic mode, so the only u64s left
    // are simulation counts — identical runs, identical bytes
    assert!(docs[0].contains("\"wall_ns\":0"));
}

#[test]
fn a_figure_grid_runs_each_kernel_once() {
    let _lock = memsim_obs::test_lock();
    memsim_obs::reset();
    memsim_obs::set_enabled(true);
    let cache = SimCache::new();
    let ctx = ExperimentCtx::new(Scale::mini(), &cache)
        .with_workloads(&[WorkloadKind::Cg, WorkloadKind::Hash]);
    let fig = fig_nmm(&ctx, Metric::Time);
    memsim_obs::set_enabled(false);
    assert!(fig.is_ok());

    // Figure 1 needs ten structures per workload (3L plus N1-N9): one
    // group walk each, so each kernel is built and run exactly once
    assert_eq!(counter("sim.workload_runs"), 2);
    assert_eq!(cache.len(), 20);
    // one memo count per point: each walked structure's first point is
    // the miss, and the rest of the 2 × 28 points (baseline plus nine
    // N-configs × three NVMs) are hits
    assert_eq!(counter("sim.memo.misses"), 20);
    assert_eq!(counter("sim.memo.hits"), 36);
    memsim_obs::reset();
}

#[test]
fn a_trace_grid_decodes_the_file_once_per_group() {
    let _lock = memsim_obs::test_lock();
    let path = temp_trace("hash-grid.trace");
    memsim_core::record_workload(WorkloadKind::Hash, Class::Mini, &path).unwrap();
    let trace = Source::trace(&path).unwrap();
    // three structures: 3L and the L4s of NMM@N1 and NMM@N6
    let nmm = |config| Design::Nmm {
        nvm: Technology::Pcm,
        config: n_by_name(config).unwrap(),
    };
    let points: Vec<(Source, Design)> = [Design::Baseline, nmm("N1"), nmm("N6")]
        .into_iter()
        .map(|d| (trace.clone(), d))
        .collect();
    let structures: Vec<String> = points
        .iter()
        .map(|(_, d)| d.structure(&Scale::mini()).obs_label())
        .collect();

    memsim_obs::reset();
    memsim_obs::set_enabled(true);
    let cache = SimCache::new();
    let sample = SampleMode::Off;
    let outcome = evaluate_grid_sweep(&points, &Scale::mini(), &cache, Some(2), None, sample);
    memsim_obs::set_enabled(false);
    assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);

    // one group, so one walk: the file is decoded once for all three
    // (the export nests dotted span names, `grid` > `walk` > `Hash`)
    let doc = memsim_obs::export_json(&[], memsim_obs::global());
    let parsed = parse_json(doc.trim_end()).unwrap();
    let spans = parsed.as_obj().unwrap()["spans"].as_obj().unwrap();
    let grid = spans["grid"].as_obj().unwrap();
    let walk = grid["children"].as_obj().unwrap()["walk"].as_obj().unwrap();
    let hash = walk["children"].as_obj().unwrap()["Hash"].as_obj().unwrap();
    assert_eq!(get_u64(hash, "calls"), Ok(1), "{doc}");
    // the one reader read the whole file, and every structure reports it
    let chunks = counter("replay.3L.reader.chunks");
    assert!(chunks > 0);
    for st in &structures {
        assert_eq!(
            counter(&format!("replay.{st}.reader.chunks")),
            chunks,
            "{st}"
        );
    }
    assert_eq!(counter("sim.memo.misses"), 3);
    assert_eq!(counter("progress.shards_done"), 3);
    assert_eq!(
        memsim_obs::global().counter_value("sim.workload_runs"),
        None
    );
    memsim_obs::reset();
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_trace_grid_counts_each_event_once_toward_progress() {
    let _lock = memsim_obs::test_lock();
    let path = temp_trace("hash-progress.trace");
    memsim_core::record_workload(WorkloadKind::Hash, Class::Mini, &path).unwrap();
    let trace = Source::trace(&path).unwrap();
    let nmm = |config| Design::Nmm {
        nvm: Technology::Pcm,
        config: n_by_name(config).unwrap(),
    };
    let points: Vec<(Source, Design)> = [Design::Baseline, nmm("N1"), nmm("N6")]
        .into_iter()
        .map(|d| (trace.clone(), d))
        .collect();

    memsim_obs::reset();
    memsim_obs::set_enabled(true);
    let sample = SampleMode::Off;
    let outcome = evaluate_grid_sweep(
        &points,
        &Scale::mini(),
        &SimCache::new(),
        Some(2),
        None,
        sample,
    );
    memsim_obs::set_enabled(false);
    assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);

    // three structures share one L1-L3 prefix, which counts every event
    // once: the counter ends at the gauge the footer's total set
    let total = memsim_obs::global().gauge_value("progress.total");
    assert_eq!(Some(counter("progress.events")), total);
    let run = &outcome.results[0].as_ref().unwrap().run;
    assert_eq!(counter("progress.events"), run.total_refs);
    memsim_obs::reset();
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_sampled_trace_grid_decodes_its_windows_once_per_group() {
    let _lock = memsim_obs::test_lock();
    let path = temp_trace("hash-sampled-grid.trace");
    memsim_core::record_workload(WorkloadKind::Hash, Class::Mini, &path).unwrap();
    let trace = Source::trace(&path).unwrap();
    let nmm = |config| Design::Nmm {
        nvm: Technology::Pcm,
        config: n_by_name(config).unwrap(),
    };
    let points: Vec<(Source, Design)> = [Design::Baseline, nmm("N1"), nmm("N6")]
        .into_iter()
        .map(|d| (trace.clone(), d))
        .collect();

    memsim_obs::reset();
    memsim_obs::set_enabled(true);
    let sample = SampleMode::parse("interval=1m,clusters=3").unwrap();
    let outcome = evaluate_grid_sweep(
        &points,
        &Scale::mini(),
        &SimCache::new(),
        Some(2),
        None,
        sample,
    );
    memsim_obs::set_enabled(false);
    assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);

    // one group of three structures: one walk, one plan, one decode of
    // the windows for all three
    let doc = memsim_obs::export_json(&[], memsim_obs::global());
    let parsed = parse_json(doc.trim_end()).unwrap();
    let spans = parsed.as_obj().unwrap()["spans"].as_obj().unwrap();
    let child = |node: &memsim_core::jsontext::JVal, name: &str| {
        node.as_obj().unwrap()["children"].as_obj().unwrap()[name].clone()
    };
    let walk = child(&spans["grid"], "walk");
    let hash = child(&walk, "Hash");
    assert_eq!(get_u64(hash.as_obj().unwrap(), "calls"), Ok(1), "{doc}");
    // the plan is built inside the walk, on the walking thread
    let plan = child(&child(&hash, "sample"), "plan");
    assert_eq!(get_u64(plan.as_obj().unwrap(), "calls"), Ok(1), "{doc}");
    assert_eq!(counter("sim.memo.misses"), 3);
    assert!(counter("sample.events_simulated") < counter("sample.events_total"));
    memsim_obs::reset();
    std::fs::remove_file(&path).ok();
}
