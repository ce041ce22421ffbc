//! Recording: persist a workload's address stream once, so any number of
//! hierarchy configurations can be driven from the file.
//!
//! The live grid runs each workload once per grid and fans that run's
//! stream out to every structure it needs (`runner`), but the stream is
//! not kept: a structure requested later — by another grid, or another
//! process — pays a fresh workload execution (data initialization, kernel
//! arithmetic, verification). A recording pays the workload once; after
//! that a grid over a [`crate::runner::Source::Trace`] decodes the file
//! once per group of structures and fans it out through the same walk.
//! Cache statistics depend only on the address stream and the geometry,
//! so a replayed run is bit-identical to the live run it was recorded
//! from (the `record_replay` integration tests pin this).

use memsim_tracefile::{TraceHeader, TraceWriter};
use memsim_workloads::{Class, WorkloadKind};
use std::path::Path;

/// What [`record_workload`] wrote.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordSummary {
    /// Events recorded.
    pub events: u64,
    /// Chunks framed.
    pub chunks: u64,
    /// Total file size in bytes (header + chunks + footer).
    pub file_bytes: u64,
    /// The workload's registered footprint.
    pub footprint_bytes: u64,
}

impl RecordSummary {
    /// Mean encoded bytes per event over the whole file (0 when empty).
    pub fn bytes_per_event(&self) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            self.file_bytes as f64 / self.events as f64
        }
    }
}

/// Run `kind` at `class` with a [`TraceWriter`] as its sink, persisting
/// the complete address stream (plus the region table and provenance) to
/// `path`. The workload's self-verification still runs, so a recording of
/// a silently broken kernel fails loudly instead of poisoning the file.
pub fn record_workload(
    kind: WorkloadKind,
    class: Class,
    path: &Path,
) -> Result<RecordSummary, String> {
    let mut span = memsim_obs::span!("record.{}", kind.name());
    let mut workload = {
        let _s = memsim_obs::span!("generate");
        kind.build(class)
    };
    let header = TraceHeader::for_space(workload.space(), kind.name(), class.name());
    let footprint_bytes = workload.footprint_bytes();
    let mut writer = TraceWriter::create(path, &header)
        .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
    if memsim_obs::enabled() {
        let reg = memsim_obs::global();
        writer.set_probe(
            reg.counter("progress.events"),
            reg.counter("progress.chunks"),
        );
    }
    {
        let _s = memsim_obs::span!("stream");
        workload.run(&mut writer);
    }
    {
        let _s = memsim_obs::span!("verify");
        workload
            .verify()
            .map_err(|e| format!("{} failed self-verification: {e}", kind.name()))?;
    }
    let chunks = {
        use memsim_trace::TraceSink;
        writer.flush();
        writer.chunks_written()
    };
    let (_, events) = writer
        .finish()
        .map_err(|e| format!("recording {}: {e}", path.display()))?;
    span.add_events(events);
    let file_bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    Ok(RecordSummary {
        events,
        chunks,
        file_bytes,
        footprint_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs::n_by_name;
    use crate::design::Design;
    use crate::model::Metrics;
    use crate::runner::{evaluate_grid_sweep, EvalResult, GridOutcome, SimCache, Source};
    use crate::sampling::SampleMode;
    use crate::scale::Scale;
    use memsim_tech::Technology;
    use std::path::PathBuf;
    use std::sync::Arc;

    fn temp_trace(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("memsim-core-replay-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn nmm(nvm: Technology, config: &str) -> Design {
        Design::Nmm {
            nvm,
            config: n_by_name(config).unwrap(),
        }
    }

    /// One grid over `designs`, every point read from `source`.
    fn grid(source: &Source, designs: &[Design], threads: usize) -> GridOutcome {
        let points: Vec<(Source, Design)> = designs.iter().map(|d| (source.clone(), *d)).collect();
        let cache = SimCache::new();
        evaluate_grid_sweep(
            &points,
            &Scale::mini(),
            &cache,
            Some(threads),
            None,
            SampleMode::Off,
        )
    }

    fn metric_bits(m: &Metrics) -> [u64; 5] {
        [
            m.amat_ns.to_bits(),
            m.time_s.to_bits(),
            m.dynamic_j.to_bits(),
            m.static_j.to_bits(),
            m.total_refs,
        ]
    }

    #[test]
    fn record_then_replay_grid_matches_live_grid() {
        let path = temp_trace("hash.trace");
        let summary = record_workload(WorkloadKind::Hash, Class::Mini, &path).unwrap();
        assert!(summary.events > 100_000);
        assert!(summary.chunks > 0);
        assert!(summary.bytes_per_event() > 0.0);
        let trace = Source::trace(&path).unwrap();
        assert_eq!(trace.kind(), WorkloadKind::Hash);

        let designs = [
            Design::Baseline,
            nmm(Technology::Pcm, "N1"),
            nmm(Technology::Pcm, "N6"),
        ];
        let live = WorkloadKind::Hash.into();
        let live: Vec<EvalResult> = grid(&live, &designs, 2).into_result().unwrap();
        for threads in [1, 2, 3] {
            let replayed = grid(&trace, &designs, threads).into_result().unwrap();
            for (r, l) in replayed.iter().zip(&live) {
                let what = format!("{} at {threads} threads", l.design.label());
                assert_eq!(r.workload, WorkloadKind::Hash);
                assert_eq!(r.design, l.design, "{what}");
                assert_eq!(r.run.caches, l.run.caches, "{what}");
                assert_eq!(r.run.mem, l.run.mem, "{what}");
                assert_eq!(r.run.per_region, l.run.per_region, "{what}");
                assert_eq!(r.run.total_refs, l.run.total_refs, "{what}");
                assert_eq!(metric_bits(&r.metrics), metric_bits(&l.metrics), "{what}");
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_corrupt_window_chunk_fails_every_structure_of_a_sampled_group() {
        let path = temp_trace("hash-corrupt-window.trace");
        let summary = record_workload(WorkloadKind::Hash, Class::Mini, &path).unwrap();
        // every interval its own cluster, so the windows cover the file;
        // the plan is built (and memoized) before the damage
        let spec = crate::sampling::SampleSpec {
            interval: summary.events / 3,
            clusters: 8,
        };
        crate::sampling::plan_for(&path, spec, 1).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        let trace = Source::trace(&path).unwrap();
        let designs = [Design::Baseline, nmm(Technology::Pcm, "N6")];
        let points: Vec<(Source, Design)> = designs.iter().map(|d| (trace.clone(), *d)).collect();
        let want = format!(
            "sampled replay of {}: CRC mismatch in chunk",
            path.display()
        );
        // on one lane, and with N6's suffix one hop away
        for threads in [1, 2] {
            let outcome = evaluate_grid_sweep(
                &points,
                &Scale::mini(),
                &SimCache::new(),
                Some(threads),
                None,
                SampleMode::On(spec),
            );
            let failed: Vec<Design> = outcome.failures.iter().map(|f| f.design).collect();
            assert_eq!(failed, designs, "threads={threads}");
            for f in &outcome.failures {
                assert!(f.message.starts_with(&want), "{f}");
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn replay_of_missing_file_errors() {
        let missing = Path::new("/nonexistent/never.trace");
        let err = Source::trace(missing).unwrap_err();
        assert!(err.contains("I/O error"), "{err}");

        // a trace source whose file is gone fails its points, not the call
        let gone = Source::Trace {
            kind: WorkloadKind::Hash,
            path: Arc::from(missing),
        };
        let outcome = grid(&gone, &[Design::Baseline], 1);
        assert_eq!(outcome.failures.len(), 1);
        let failed = outcome.failures[0].to_string();
        assert!(failed.starts_with("Hash × Baseline: I/O error"), "{failed}");
    }

    #[test]
    fn a_corrupt_chunk_strands_every_design_of_each_structure_once() {
        let path = temp_trace("hash-corrupt.trace");
        record_workload(WorkloadKind::Hash, Class::Mini, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        // the header is intact, so the source opens
        let trace = Source::trace(&path).unwrap();
        let designs = [
            Design::Baseline,
            nmm(Technology::Pcm, "N6"),
            nmm(Technology::SttRam, "N6"),
        ];
        let outcome = grid(&trace, &designs, 2);
        assert!(outcome.results.iter().all(Option::is_none));
        // the one decode feeds both structures (3L and NMM@N6's L4), so
        // the CRC mismatch fails every point, each exactly once
        let failed: Vec<Design> = outcome.failures.iter().map(|f| f.design).collect();
        assert_eq!(failed, designs);
        for f in &outcome.failures {
            assert_eq!(f.workload, WorkloadKind::Hash);
            assert!(f.message.starts_with("CRC mismatch in chunk"), "{f}");
        }
        let first = outcome.failures[0].to_string();
        assert!(
            first.starts_with("Hash × Baseline: CRC mismatch in chunk"),
            "{first}"
        );
        std::fs::remove_file(&path).ok();
    }
}
