//! Record/replay: persist a workload's address stream once, then drive
//! any number of hierarchy configurations from the file.
//!
//! The live grid runs each workload once per grid and fans that run's
//! stream out to every structure it needs (`runner`), but the stream is
//! not kept: a structure requested later — by another grid, or another
//! process — pays a fresh workload execution (data initialization, kernel
//! arithmetic, verification). The replay path pays the workload once at
//! record time; after that every structure in the config grid is a pure
//! trace walk, and the walks shard across threads with each worker
//! streaming the file independently.
//! Cache statistics depend only on the address stream and the geometry,
//! so a replayed run is bit-identical to the live run it was recorded
//! from (the `record_replay` integration tests pin this).

use crate::design::{Design, Structure};
use crate::runner::{
    build_caches, evaluate_run, raw_run_from_parts, Engine, EvalResult, RawRun, RunOpts,
};
use crate::sampling::{plan_for, replay_structure_sampled, SampleMode};
use crate::scale::Scale;
use memsim_cache::{Hierarchy, HierarchyProbes, ShardedHierarchy};
use memsim_memory::PartitionedMemory;
use memsim_tech::Technology;
use memsim_tracefile::{replay_into, TraceError, TraceHeader, TraceReader, TraceWriter};
use memsim_workloads::{Class, WorkloadKind};
use std::path::Path;
use std::sync::{Arc, OnceLock};

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

/// Replay the trace at `path` through `structure`'s hierarchy at `scale`
/// with the chosen engine: the set-sharded engine fans the file's
/// 4096-event chunks out across its workers and merges at drain,
/// producing the same [`RawRun`] counters as the sequential walk.
///
/// The terminal memory's region table comes from the trace header, so
/// per-region traffic (the NDM oracle's input) is attributed exactly as
/// in the live run.
pub fn replay_structure(
    path: &Path,
    scale: &Scale,
    structure: &Structure,
    engine: Engine,
) -> Result<RawRun, TraceError> {
    replay_structure_shard(path, scale, structure, None, engine)
}

/// [`replay_structure`] with observability shard attribution: `shard`
/// names this walk's `progress.shard{i}.events` counter and span, so the
/// sampler can show per-shard lag across `replay_grid_robust` workers.
/// (With the set-sharded engine the engine's own per-shard counters take
/// over that role instead.)
fn replay_structure_shard(
    path: &Path,
    scale: &Scale,
    structure: &Structure,
    shard: Option<usize>,
    engine: Engine,
) -> Result<RawRun, TraceError> {
    let mut span = match shard {
        Some(i) => memsim_obs::span!("replay.shard{}", i),
        None => memsim_obs::span!("replay.walk"),
    };
    let obs_prefix = memsim_obs::enabled().then(|| format!("replay.{}", structure.obs_label()));

    let mut reader = TraceReader::open(path)?;
    let regions = reader.header().regions.clone();
    let caches = build_caches(scale, structure);
    let terminal = PartitionedMemory::new(&regions, Technology::Pcm);

    let (levels, memory, total_refs) = if let Engine::Sharded(shards) = engine {
        let mut sharded = ShardedHierarchy::new(caches, terminal, shards, obs_prefix.as_deref());
        replay_into(&mut reader, &mut sharded)?;
        let run = sharded.finish();
        (run.levels, run.memory, run.total_refs)
    } else {
        let mut hierarchy = Hierarchy::new(caches, terminal);
        if let Some(prefix) = &obs_prefix {
            let reg = memsim_obs::global();
            let names: Vec<String> = hierarchy
                .levels()
                .iter()
                .map(|c| c.config().name.clone())
                .collect();
            let names: Vec<&str> = names.iter().map(String::as_str).collect();
            let mut probes = HierarchyProbes::register(reg, prefix, &names);
            if let Some(i) = shard {
                probes.add_events_counter(reg.counter(&format!("progress.shard{i}.events")));
            }
            hierarchy.set_probes(probes);
        }
        replay_into(&mut reader, &mut hierarchy)?;
        hierarchy.drain();
        hierarchy.assert_consistent();
        let total_refs = hierarchy.total_refs();
        let levels = hierarchy.levels().iter().map(|c| c.stats()).collect();
        (levels, hierarchy.into_memory(), total_refs)
    };
    if let Some(prefix) = &obs_prefix {
        // Trace-health counters from the reader: every chunk that reached
        // the sink passed its CRC check.
        let reg = memsim_obs::global();
        let store = |field: &str, v: u64| {
            reg.counter(&format!("{prefix}.reader.{field}")).store(v);
        };
        store("chunks", reader.chunks_read());
        store("crc_verified_chunks", reader.crc_verified_chunks());
        store("payload_bytes", reader.payload_bytes());
    }
    span.add_events(total_refs);
    let run = raw_run_from_parts(levels, memory, &regions, total_refs, obs_prefix.as_deref());
    Ok(run)
}

/// The workload a trace records, parsed from its header.
pub fn trace_workload(path: &Path) -> Result<WorkloadKind, String> {
    let reader = TraceReader::open(path).map_err(|e| e.to_string())?;
    let name = &reader.header().workload;
    WorkloadKind::parse(name).ok_or_else(|| {
        if name.is_empty() {
            "trace has no recorded workload name (anonymous stream)".to_string()
        } else {
            format!("trace records unknown workload '{name}'")
        }
    })
}

/// One hierarchy structure whose trace walk did not survive, with every
/// design that depended on it.
#[derive(Debug, Clone)]
pub struct ReplayFailure {
    /// The structure whose shard failed.
    pub structure: Structure,
    /// The designs that would have been costed from that structure's run.
    pub designs: Vec<Design>,
    /// The shard's error (decode error, or a panic payload).
    pub message: String,
}

impl std::fmt::Display for ReplayFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let labels: Vec<String> = self.designs.iter().map(Design::label).collect();
        write!(
            f,
            "structure {} (designs {}): {}",
            self.structure.obs_label(),
            labels.join(", "),
            self.message
        )
    }
}

/// What a fault-isolated [`replay_grid_robust`] produced: results for every
/// design whose structure replayed cleanly, plus the per-structure
/// failures.
#[derive(Debug)]
pub struct ReplayOutcome {
    /// Surviving designs' results, in input order.
    pub results: Vec<EvalResult>,
    /// Structures that failed to replay, with the designs they strand.
    pub failures: Vec<ReplayFailure>,
}

impl ReplayOutcome {
    /// Lift the outcome into a `Result` for strict callers: any failed
    /// shard turns the whole grid into an `Err` naming every stranded
    /// structure and design.
    pub fn into_result(self) -> Result<Vec<EvalResult>, String> {
        if self.failures.is_empty() {
            return Ok(self.results);
        }
        let list: Vec<String> = self.failures.iter().map(ReplayFailure::to_string).collect();
        Err(format!(
            "{} replay shard(s) failed: {}",
            self.failures.len(),
            list.join("; ")
        ))
    }
}

/// Evaluate a grid of designs against one recorded trace, sharded in
/// parallel: the distinct hierarchy *structures* among `designs` are
/// replayed concurrently (each worker streams the file independently, so
/// there is no shared decode state to contend on), then every design is
/// costed analytically from its structure's replayed run — the same
/// two-phase split as the live `evaluate_grid_sweep`, with the workload
/// execution replaced by a trace walk. `opts.engine` walks each structure
/// at full fidelity; with `opts.sample` on, each structure's walk instead
/// simulates one representative interval per cluster of the trace (per
/// the shared [`crate::sampling::SamplePlan`]) and extrapolates. The plan
/// is built once per (trace, spec) and shared by every worker.
///
/// Fault-isolated: a shard that fails to decode (corrupt chunk, truncated
/// file mid-walk) or panics strands only the designs sharing its
/// structure; every other shard completes and its designs are costed.
/// Errors that precede the walk (unreadable header, invalid design, a plan
/// that cannot be built) still fail the whole call. Strict callers lift
/// the outcome with [`ReplayOutcome::into_result`].
pub fn replay_grid_robust(
    path: &Path,
    designs: &[Design],
    scale: &Scale,
    threads: Option<usize>,
    opts: RunOpts,
) -> Result<ReplayOutcome, String> {
    let _span = memsim_obs::span!("replay");
    for d in designs {
        d.validate()?;
    }
    let kind = trace_workload(path)?;
    let plan = match opts.sample {
        SampleMode::Off => None,
        SampleMode::On(spec) => Some(plan_for(path, spec)?),
    };

    // distinct structures, in first-appearance order
    let mut structures: Vec<Structure> = Vec::new();
    for d in designs {
        let s = d.structure(scale);
        if !structures.contains(&s) {
            structures.push(s);
        }
    }

    let obs_on = memsim_obs::enabled();
    if obs_on {
        // Seed the shard progress counters so the sampler can show
        // completion and extrapolate an ETA from the first finished shard.
        let reg = memsim_obs::global();
        reg.gauge("progress.shards_total")
            .set(structures.len() as u64);
        reg.counter("progress.shards_done");
    }

    let threads = threads
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        })
        .clamp(1, structures.len().max(1));
    let next = std::sync::atomic::AtomicUsize::new(0);
    let slots: Vec<OnceLock<Result<Arc<RawRun>, String>>> =
        (0..structures.len()).map(|_| OnceLock::new()).collect();
    std::thread::scope(|s| {
        for w in 0..threads {
            // Named so flight-recorder lanes are stable and readable.
            let worker = || loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= structures.len() {
                    break;
                }
                // Isolate panics per shard for the same reason as the live
                // grid: an unwinding worker must not take the completed
                // shards' results down with the scope.
                let run =
                    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match &plan {
                        Some(plan) => replay_structure_sampled(path, scale, &structures[i], plan),
                        None => replay_structure_shard(
                            path,
                            scale,
                            &structures[i],
                            Some(i),
                            opts.engine,
                        ),
                    })) {
                        Ok(Ok(run)) => Ok(Arc::new(run)),
                        Ok(Err(e)) => Err(e.to_string()),
                        Err(payload) => Err(format!(
                            "shard panicked: {}",
                            crate::runner::panic_message(payload)
                        )),
                    };
                slots[i].set(run).expect("replay slot written twice");
                if obs_on {
                    memsim_obs::global().counter("progress.shards_done").inc();
                }
            };
            std::thread::Builder::new()
                .name(format!("memsim-replay{w}"))
                .spawn_scoped(s, worker)
                .expect("spawn replay worker");
        }
    });
    let runs: Vec<Result<Arc<RawRun>, String>> = slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("missing replay result"))
        .collect();

    let mut results = Vec::new();
    let mut failures: Vec<ReplayFailure> = Vec::new();
    for d in designs {
        let idx = structures
            .iter()
            .position(|s| *s == d.structure(scale))
            .expect("structure recorded for every design");
        match &runs[idx] {
            Ok(run) => results.push(evaluate_run(kind, scale, d, Arc::clone(run))),
            Err(message) => {
                if let Some(f) = failures.iter_mut().find(|f| f.structure == structures[idx]) {
                    f.designs.push(*d);
                } else {
                    failures.push(ReplayFailure {
                        structure: structures[idx],
                        designs: vec![*d],
                        message: message.clone(),
                    });
                }
            }
        }
    }
    let cis: Vec<crate::sampling::SampleCi> = results.iter().filter_map(|r| r.sample_ci).collect();
    crate::sampling::publish_ci_summary(&cis);
    Ok(ReplayOutcome { results, failures })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs::n_configs;
    use std::path::PathBuf;

    fn temp_trace(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("memsim-core-replay-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn record_then_replay_grid_matches_live_grid() {
        let scale = Scale::mini();
        let path = temp_trace("hash.trace");
        let summary = record_workload(WorkloadKind::Hash, Class::Mini, &path).unwrap();
        assert!(summary.events > 100_000);
        assert!(summary.chunks > 0);
        assert!(summary.bytes_per_event() > 0.0);
        assert_eq!(trace_workload(&path).unwrap(), WorkloadKind::Hash);

        let designs = vec![
            Design::Baseline,
            Design::Nmm {
                nvm: Technology::Pcm,
                config: n_configs()[0],
            },
        ];
        let replayed = replay_grid_robust(&path, &designs, &scale, Some(2), RunOpts::default())
            .and_then(ReplayOutcome::into_result)
            .unwrap();

        let cache = crate::runner::SimCache::new();
        for (r, d) in replayed.iter().zip(&designs) {
            let opts = RunOpts::default();
            let live = crate::runner::evaluate_cached(WorkloadKind::Hash, &scale, d, &cache, opts);
            assert_eq!(r.workload, WorkloadKind::Hash);
            assert_eq!(r.run.caches, live.run.caches, "{}", d.label());
            assert_eq!(r.run.mem, live.run.mem, "{}", d.label());
            assert_eq!(r.run.total_refs, live.run.total_refs);
            assert!((r.metrics.time_s - live.metrics.time_s).abs() < 1e-15);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sharded_replay_matches_sequential_replay() {
        let scale = Scale::mini();
        let path = temp_trace("hash-sharded.trace");
        record_workload(WorkloadKind::Hash, Class::Mini, &path).unwrap();
        let st = Structure::ThreeLevel;
        let seq = replay_structure(&path, &scale, &st, Engine::Sequential).unwrap();
        for shards in [2usize, 7] {
            let sh = replay_structure(&path, &scale, &st, Engine::Sharded(shards)).unwrap();
            assert_eq!(sh.caches, seq.caches, "shards={shards}");
            assert_eq!(sh.mem, seq.mem, "shards={shards}");
            assert_eq!(sh.per_region, seq.per_region, "shards={shards}");
            assert_eq!(sh.total_refs, seq.total_refs, "shards={shards}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn replay_of_missing_file_errors() {
        let scale = Scale::mini();
        let err = replay_grid_robust(
            Path::new("/nonexistent/never.trace"),
            &[Design::Baseline],
            &scale,
            None,
            RunOpts::default(),
        )
        .unwrap_err();
        assert!(err.contains("I/O error"), "{err}");
    }

    #[test]
    fn a_corrupt_chunk_strands_every_design_of_each_structure_once() {
        let scale = Scale::mini();
        let path = temp_trace("hash-corrupt.trace");
        record_workload(WorkloadKind::Hash, Class::Mini, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        let n6 = crate::configs::n_by_name("N6").unwrap();
        let designs = [
            Design::Baseline,
            Design::Nmm {
                nvm: Technology::Pcm,
                config: n6,
            },
            Design::Nmm {
                nvm: Technology::SttRam,
                config: n6,
            },
        ];
        let outcome = replay_grid_robust(&path, &designs, &scale, Some(2), RunOpts::default())
            .expect("a mid-file corruption fails the shards, not the call");
        assert!(outcome.results.is_empty());
        // one failure per structure (3L and NMM@N6's L4), each naming the
        // CRC mismatch, and every design stranded exactly once
        assert_eq!(outcome.failures.len(), 2);
        for f in &outcome.failures {
            assert!(f.message.contains("CRC mismatch"), "{f}");
        }
        let stranded: Vec<Design> = outcome
            .failures
            .iter()
            .flat_map(|f| f.designs.iter().copied())
            .collect();
        assert_eq!(stranded, designs);
        let err = outcome.into_result().unwrap_err();
        assert!(
            err.starts_with("2 replay shard(s) failed: structure 3L"),
            "{err}"
        );
        std::fs::remove_file(&path).ok();
    }
}
