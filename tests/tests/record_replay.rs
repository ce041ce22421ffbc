//! Golden record→replay equivalence: a trace recorded at mini scale and
//! replayed through the same hierarchy configuration must produce
//! *bit-identical* `LevelStats` at every level (and identical per-region
//! terminal traffic) to the live run that generated it. Cache behaviour is
//! a pure function of the address stream and the geometry, so any
//! divergence means the trace file altered the stream — an encoding bug,
//! a lost tail chunk, or a replay-side delivery difference.

use memsim_core::configs::{eh_by_name, n_by_name};
use memsim_core::replay::record_workload;
use memsim_core::{simulate_structure, Design, RawRun, RunOpts, Scale, Source};
use memsim_tech::Technology;
use memsim_workloads::{Class, WorkloadKind};
use std::path::PathBuf;

fn designs_under_test() -> Vec<Design> {
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

fn assert_bit_identical(live: &RawRun, replayed: &RawRun, what: &str) {
    assert_eq!(live.caches, replayed.caches, "{what}: cache LevelStats");
    assert_eq!(live.mem, replayed.mem, "{what}: terminal LevelStats");
    assert_eq!(live.per_region, replayed.per_region, "{what}: per-region");
    assert_eq!(live.region_names, replayed.region_names, "{what}: names");
    assert_eq!(live.region_sizes, replayed.region_sizes, "{what}: sizes");
    assert_eq!(live.region_starts, replayed.region_starts, "{what}: starts");
    assert_eq!(live.total_refs, replayed.total_refs, "{what}: total refs");
    assert_eq!(
        live.footprint_bytes, replayed.footprint_bytes,
        "{what}: footprint"
    );
}

fn golden_roundtrip(kind: WorkloadKind) {
    let scale = Scale::mini();
    let dir = std::env::temp_dir().join(format!("memsim-golden-replay-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path: PathBuf = dir.join(format!("{}.trace", kind.name()));

    let summary = record_workload(kind, Class::Mini, &path).unwrap();
    assert!(summary.events > 0, "{}: empty recording", kind.name());

    let trace = Source::trace(&path).unwrap();
    for design in designs_under_test() {
        let structure = design.structure(&scale);
        let live = simulate_structure(kind, &scale, &structure, RunOpts::default());
        let replayed = simulate_structure(trace.clone(), &scale, &structure, RunOpts::default());
        assert_bit_identical(
            &live,
            &replayed,
            &format!("{} × {}", kind.name(), design.label()),
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn cg_replay_is_bit_identical_to_live_run() {
    golden_roundtrip(WorkloadKind::Cg);
}

#[test]
fn hash_replay_is_bit_identical_to_live_run() {
    golden_roundtrip(WorkloadKind::Hash);
}
