//! Crash-durable sweep journal: checkpoint/resume for long design-space
//! sweeps.
//!
//! A full `reproduce` run evaluates the paper's whole design space in one
//! long parallel sweep. Each completed (workload, design) point is worth
//! minutes of simulation; losing all of them to one panic or a Ctrl-C is
//! the failure mode this module removes. The journal is an append-only
//! JSONL file (`sweep.journal.jsonl` in the output directory): one
//! self-describing, CRC-tagged line per completed point, flushed as the
//! point lands. On `--resume`, lines that validate (CRC intact, schema
//! version and config fingerprint matching) restore their [`EvalResult`]
//! bit-exactly — every float is stored as its IEEE-754 bit pattern — so a
//! resumed sweep's report is byte-identical to an uninterrupted one.
//!
//! Line format (one per line, `\n`-terminated):
//!
//! ```text
//! {"crc":"<8 hex>","p":{<payload object>}}
//! ```
//!
//! The CRC-32 (IEEE, the trace-file polynomial) is computed over the exact
//! payload bytes between `"p":` and the closing `}` of the envelope, so a
//! truncated tail line, a flipped bit, or a hand-edited entry fails closed:
//! the point is re-simulated, never trusted.

use crate::design::Design;
use crate::jsontext::{get, get_str, get_u64, parse_json, JVal};
use crate::model::Metrics;
use crate::runner::{EvalResult, RawRun, RunOpts};
use crate::sampling::{SampleCi, SampleMode};
use crate::scale::Scale;
use memsim_cache::LevelStats;
use memsim_memory::{Placement, RegionTraffic};
use memsim_obs::json;
use memsim_tracefile::crc32;
use memsim_workloads::WorkloadKind;
use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Journal schema version; bumped whenever a field changes meaning.
pub const JOURNAL_VERSION: u64 = 1;

/// Conventional journal file name inside a sweep output directory.
pub const JOURNAL_FILE: &str = "sweep.journal.jsonl";

/// Identity of one sweep point: `(workload name, design label)`. The scale
/// is covered by the per-line fingerprint instead of the key, so a journal
/// written at one scale is never trusted at another.
pub type PointKey = (String, String);

/// Fingerprint of everything that could invalidate a journaled point:
/// journal schema, crate version, the full [`Scale`] geometry (which also
/// pins the workload class), and the sampling parameters. Two runs with
/// equal fingerprints produce bit-identical simulation results, so their
/// journal entries are interchangeable.
///
/// Full-fidelity runs hash the exact legacy string, so existing journals
/// stay valid. Sampled results are extrapolations, not measurements — a
/// sampled point must never be served to a full-fidelity resume or vice
/// versa, and distinct sampling parameters must not mix either.
pub fn sweep_fingerprint(scale: &Scale, sample: SampleMode) -> String {
    let mut canon = format!(
        "memsim-sweep-v{JOURNAL_VERSION}|{}|l1={}:{}|l2={}:{}|l3={}:{}|line={}|div={}|l4w={}|fpm={}|class={}",
        env!("CARGO_PKG_VERSION"),
        scale.l1_bytes,
        scale.l1_ways,
        scale.l2_bytes,
        scale.l2_ways,
        scale.l3_bytes,
        scale.l3_ways,
        scale.line_bytes,
        scale.capacity_divisor,
        scale.l4_ways,
        scale.footprint_multiplier,
        scale.class.name(),
    );
    if sample.is_on() {
        canon.push_str("|sample=");
        canon.push_str(&sample.canon());
    }
    format!("{:08x}", crc32(canon.as_bytes()))
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn level_stats_json(s: &LevelStats) -> String {
    let mut o = json::Obj::new();
    o.str("name", &s.name)
        .u64("loads", s.loads)
        .u64("stores", s.stores)
        .u64("load_hits", s.load_hits)
        .u64("load_misses", s.load_misses)
        .u64("store_hits", s.store_hits)
        .u64("store_misses", s.store_misses)
        .u64("writebacks_out", s.writebacks_out)
        .u64("fills", s.fills)
        .u64("bytes_loaded", s.bytes_loaded)
        .u64("bytes_stored", s.bytes_stored);
    o.finish()
}

/// Floats are journaled as IEEE-754 bit patterns (`f64::to_bits`): decimal
/// round-trips would be close but not certainly byte-identical in derived
/// reports, and "close" is exactly what a resume must not be.
fn metrics_json(m: &Metrics) -> String {
    let mut o = json::Obj::new();
    o.u64("amat_ns_bits", m.amat_ns.to_bits())
        .u64("time_s_bits", m.time_s.to_bits())
        .u64("dynamic_j_bits", m.dynamic_j.to_bits())
        .u64("static_j_bits", m.static_j.to_bits())
        .u64("total_refs", m.total_refs);
    o.finish()
}

fn run_json(r: &RawRun) -> String {
    let caches: Vec<String> = r.caches.iter().map(level_stats_json).collect();
    let regions: Vec<String> = r
        .per_region
        .iter()
        .map(|t| {
            let mut o = json::Obj::new();
            o.u64("loads", t.loads)
                .u64("stores", t.stores)
                .u64("bytes_loaded", t.bytes_loaded)
                .u64("bytes_stored", t.bytes_stored);
            o.finish()
        })
        .collect();
    let names: Vec<String> = r
        .region_names
        .iter()
        .map(|n| format!("\"{}\"", json::escape(n)))
        .collect();
    let sizes: Vec<String> = r.region_sizes.iter().map(u64::to_string).collect();
    let starts: Vec<String> = r.region_starts.iter().map(u64::to_string).collect();
    let mut o = json::Obj::new();
    o.raw("caches", &json::array(&caches))
        .raw("mem", &level_stats_json(&r.mem))
        .raw("per_region", &json::array(&regions))
        .raw("region_names", &json::array(&names))
        .raw("region_sizes", &json::array(&sizes))
        .raw("region_starts", &json::array(&starts))
        .u64("total_refs", r.total_refs)
        .u64("footprint_bytes", r.footprint_bytes);
    o.finish()
}

fn point_payload(
    fingerprint: &str,
    scale: &Scale,
    res: &EvalResult,
    shards: u64,
    sample: SampleMode,
) -> String {
    let mut o = json::Obj::new();
    o.u64("v", JOURNAL_VERSION)
        .str("fp", fingerprint)
        // provenance only (0 = sequential engine): the decoder ignores it,
        // and it is deliberately NOT part of the sweep fingerprint — both
        // engines journal bit-identical stats, so a resume may freely mix
        // shard counts (asserted by `shard_count_never_gates_resume`)
        .u64("shards", shards)
        // NOT provenance: the sampling mode changes the numbers, so it
        // both joins the fingerprint and gates resume explicitly (a
        // mismatch is a hard refusal, never a silent skip)
        .str("sample", &sample.canon())
        .str("scale", scale.class.name())
        .str("workload", res.workload.name())
        .str("design", &res.design.label())
        .raw("metrics", &metrics_json(&res.metrics))
        .raw("run", &run_json(&res.run));
    match &res.sample_ci {
        None => o.raw("ci", "null"),
        Some(ci) => {
            let mut c = json::Obj::new();
            c.u64("amat_bits", ci.amat.to_bits())
                .u64("time_bits", ci.time.to_bits())
                .u64("energy_bits", ci.energy.to_bits())
                .u64("edp_bits", ci.edp.to_bits());
            o.raw("ci", &c.finish())
        }
    };
    match &res.placement {
        None => o.raw("placement", "null"),
        Some(p) => {
            let items: Vec<String> = p
                .iter()
                .map(|pl| match pl {
                    Placement::Dram => "\"Dram\"".to_string(),
                    Placement::Nvm => "\"Nvm\"".to_string(),
                })
                .collect();
            o.raw("placement", &json::array(&items))
        }
    };
    o.finish()
}

fn failure_payload(
    fingerprint: &str,
    scale: &Scale,
    key: &PointKey,
    message: &str,
    sample: SampleMode,
) -> String {
    let mut o = json::Obj::new();
    o.u64("v", JOURNAL_VERSION)
        .str("fp", fingerprint)
        .str("sample", &sample.canon())
        .str("scale", scale.class.name())
        .str("workload", &key.0)
        .str("design", &key.1)
        .str("failed", message);
    o.finish()
}

/// Wrap a payload in the CRC envelope: `{"crc":"xxxxxxxx","p":<payload>}`.
fn envelope(payload: &str) -> String {
    format!(
        "{{\"crc\":\"{:08x}\",\"p\":{payload}}}\n",
        crc32(payload.as_bytes())
    )
}

// ---------------------------------------------------------------------------
// Decoding — built on the shared minimal JSON reader (`crate::jsontext`),
// which accepts exactly the shapes the writer above emits: anything else
// is corruption by definition.
// ---------------------------------------------------------------------------

fn level_stats_from(v: &JVal) -> Result<LevelStats, String> {
    let o = v.as_obj().ok_or("level stats entry is not an object")?;
    Ok(LevelStats {
        name: get_str(o, "name")?.to_string(),
        loads: get_u64(o, "loads")?,
        stores: get_u64(o, "stores")?,
        load_hits: get_u64(o, "load_hits")?,
        load_misses: get_u64(o, "load_misses")?,
        store_hits: get_u64(o, "store_hits")?,
        store_misses: get_u64(o, "store_misses")?,
        writebacks_out: get_u64(o, "writebacks_out")?,
        fills: get_u64(o, "fills")?,
        bytes_loaded: get_u64(o, "bytes_loaded")?,
        bytes_stored: get_u64(o, "bytes_stored")?,
    })
}

fn run_from(v: &JVal) -> Result<RawRun, String> {
    let o = v.as_obj().ok_or("'run' is not an object")?;
    let caches = get(o, "caches")?
        .as_arr()
        .ok_or("'caches' is not an array")?
        .iter()
        .map(level_stats_from)
        .collect::<Result<Vec<_>, _>>()?;
    let per_region = get(o, "per_region")?
        .as_arr()
        .ok_or("'per_region' is not an array")?
        .iter()
        .map(|t| {
            let to = t.as_obj().ok_or("region traffic entry is not an object")?;
            Ok::<RegionTraffic, String>(RegionTraffic {
                loads: get_u64(to, "loads")?,
                stores: get_u64(to, "stores")?,
                bytes_loaded: get_u64(to, "bytes_loaded")?,
                bytes_stored: get_u64(to, "bytes_stored")?,
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    let str_arr = |key: &str| -> Result<Vec<String>, String> {
        get(o, key)?
            .as_arr()
            .ok_or_else(|| format!("'{key}' is not an array"))?
            .iter()
            .map(|v| {
                v.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| format!("'{key}' item is not a string"))
            })
            .collect()
    };
    let u64_arr = |key: &str| -> Result<Vec<u64>, String> {
        get(o, key)?
            .as_arr()
            .ok_or_else(|| format!("'{key}' is not an array"))?
            .iter()
            .map(|v| {
                v.as_u64()
                    .ok_or_else(|| format!("'{key}' item is not an integer"))
            })
            .collect()
    };
    Ok(RawRun {
        caches,
        mem: level_stats_from(get(o, "mem")?)?,
        per_region,
        region_names: str_arr("region_names")?,
        region_sizes: u64_arr("region_sizes")?,
        region_starts: u64_arr("region_starts")?,
        total_refs: get_u64(o, "total_refs")?,
        footprint_bytes: get_u64(o, "footprint_bytes")?,
        // the journal persists the extrapolated counters and the derived
        // CI (see `ci` in the payload), not the per-cluster detail
        sample: None,
    })
}

/// A point restored from the journal: everything of an [`EvalResult`]
/// except the [`Design`] value itself (the label is the lookup key; the
/// caller supplies the design it asked for).
#[derive(Debug, Clone)]
pub struct RestoredPoint {
    /// Bit-exact modeled metrics.
    pub metrics: Metrics,
    /// The underlying simulation counters.
    pub run: Arc<RawRun>,
    /// NDM only: the oracle's region placement.
    pub placement: Option<Vec<Placement>>,
    /// Sampled sweeps only: the point's bit-exact confidence intervals.
    pub sample_ci: Option<SampleCi>,
}

/// One decoded journal line: the point key, the restored point (None for
/// failure entries), the line's fingerprint, and the line's sampling
/// mode in canonical form (`"off"` for lines written before sampling
/// existed).
type DecodedLine = (PointKey, Option<RestoredPoint>, String, String);

fn decode_line(line: &str) -> Result<DecodedLine, String> {
    // Envelope: {"crc":"xxxxxxxx","p":<payload>}
    let line = line.trim_end_matches(['\n', '\r']);
    let rest = line
        .strip_prefix("{\"crc\":\"")
        .ok_or("missing crc envelope")?;
    let (crc_hex, rest) = rest.split_at_checked(8).ok_or("truncated crc")?;
    let want = u32::from_str_radix(crc_hex, 16).map_err(|_| "bad crc hex".to_string())?;
    let payload = rest
        .strip_prefix("\",\"p\":")
        .and_then(|r| r.strip_suffix('}'))
        .ok_or("malformed envelope")?;
    if crc32(payload.as_bytes()) != want {
        return Err("crc mismatch".into());
    }
    let v = parse_json(payload)?;
    let o = v.as_obj().ok_or("payload is not an object")?;
    if get_u64(o, "v")? != JOURNAL_VERSION {
        return Err(format!("unsupported journal version {}", get_u64(o, "v")?));
    }
    let fp = get_str(o, "fp")?.to_string();
    let sample = match o.get("sample") {
        Some(v) => v.as_str().ok_or("'sample' is not a string")?.to_string(),
        // journals written before sampling existed are full-fidelity
        None => "off".to_string(),
    };
    let key = (
        get_str(o, "workload")?.to_string(),
        get_str(o, "design")?.to_string(),
    );
    if o.contains_key("failed") {
        // A recorded failure is provenance, not a checkpoint.
        return Ok((key, None, fp, sample));
    }
    let m = get(o, "metrics")?
        .as_obj()
        .ok_or("'metrics' not an object")?;
    let metrics = Metrics {
        amat_ns: f64::from_bits(get_u64(m, "amat_ns_bits")?),
        time_s: f64::from_bits(get_u64(m, "time_s_bits")?),
        dynamic_j: f64::from_bits(get_u64(m, "dynamic_j_bits")?),
        static_j: f64::from_bits(get_u64(m, "static_j_bits")?),
        total_refs: get_u64(m, "total_refs")?,
    };
    let run = Arc::new(run_from(get(o, "run")?)?);
    let sample_ci = match o.get("ci") {
        None | Some(JVal::Null) => None,
        Some(v) => {
            let c = v.as_obj().ok_or("'ci' is neither null nor an object")?;
            Some(SampleCi {
                amat: f64::from_bits(get_u64(c, "amat_bits")?),
                time: f64::from_bits(get_u64(c, "time_bits")?),
                energy: f64::from_bits(get_u64(c, "energy_bits")?),
                edp: f64::from_bits(get_u64(c, "edp_bits")?),
            })
        }
    };
    let placement = match get(o, "placement")? {
        JVal::Null => None,
        JVal::Arr(items) => Some(
            items
                .iter()
                .map(|p| match p.as_str() {
                    Some("Dram") => Ok(Placement::Dram),
                    Some("Nvm") => Ok(Placement::Nvm),
                    _ => Err("bad placement entry".to_string()),
                })
                .collect::<Result<Vec<_>, _>>()?,
        ),
        _ => return Err("'placement' is neither null nor an array".into()),
    };
    Ok((
        key,
        Some(RestoredPoint {
            metrics,
            run,
            placement,
            sample_ci,
        }),
        fp,
        sample,
    ))
}

// ---------------------------------------------------------------------------
// The journal file
// ---------------------------------------------------------------------------

/// Append-only journal writer. Every append is flushed before returning,
/// so a kill after the call cannot lose the point.
#[derive(Debug)]
pub struct SweepJournal {
    path: PathBuf,
    file: Mutex<std::fs::File>,
}

impl SweepJournal {
    /// Start a fresh journal at `path`, truncating any existing file.
    pub fn create(path: &Path) -> Result<Self, String> {
        let file = std::fs::File::create(path)
            .map_err(|e| format!("cannot create journal {}: {e}", path.display()))?;
        Ok(Self {
            path: path.to_path_buf(),
            file: Mutex::new(file),
        })
    }

    /// Open `path` for appending (creating it if missing) — the resume path.
    pub fn append_to(path: &Path) -> Result<Self, String> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("cannot open journal {}: {e}", path.display()))?;
        Ok(Self {
            path: path.to_path_buf(),
            file: Mutex::new(file),
        })
    }

    /// Where this journal lives.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn write_line(&self, line: &str) {
        let mut f = self.file.lock().unwrap_or_else(|e| e.into_inner());
        // A failing journal write must not abort the sweep it protects:
        // losing durability is strictly better than losing the run.
        if f.write_all(line.as_bytes())
            .and_then(|()| f.flush())
            .is_err()
        {
            eprintln!("warning: journal append to {} failed", self.path.display());
        }
    }
}

/// What [`load_journal`] recovered.
#[derive(Debug, Default)]
pub struct JournalRecovery {
    /// Validated completed points, keyed by (workload, design label).
    pub points: HashMap<PointKey, RestoredPoint>,
    /// Lines dropped for CRC/format/version damage.
    pub corrupt_lines: usize,
    /// Valid lines dropped because their fingerprint does not match.
    pub mismatched_lines: usize,
    /// Recorded failure entries (informational; never skipped on resume).
    pub failed_entries: usize,
}

/// Read and validate a journal. A missing file is an empty recovery, not
/// an error — `--resume` on a sweep that never started is a fresh run.
/// Damaged or foreign lines are counted and dropped, never trusted.
///
/// Exception: a *sampling-mode* mismatch on any intact line is a hard
/// error, not a skipped line. Sampled results are extrapolations with
/// error bars; resuming a full-fidelity sweep from them (or burying a
/// full-fidelity journal under sampled points) would silently change
/// what the artifact means. The caller must pick a different output
/// directory or delete the journal, and the error says so.
pub fn load_journal(
    path: &Path,
    expected_fp: &str,
    expected_sample: SampleMode,
) -> Result<JournalRecovery, String> {
    let mut rec = JournalRecovery::default();
    let expected_canon = expected_sample.canon();
    // Bytes, not a String: a bit flip can make a line invalid UTF-8, and
    // that must drop the damaged line like any other corruption instead of
    // failing the whole recovery.
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(rec),
        Err(e) => return Err(format!("cannot read journal {}: {e}", path.display())),
    };
    for raw in bytes.split(|b| *b == b'\n') {
        let Ok(line) = std::str::from_utf8(raw) else {
            rec.corrupt_lines += 1;
            continue;
        };
        if line.trim().is_empty() {
            continue;
        }
        match decode_line(line) {
            Err(_) => rec.corrupt_lines += 1,
            Ok((_, _, _, sample)) if sample != expected_canon => {
                let describe = |canon: &str| {
                    if canon == "off" {
                        "a full-fidelity".to_string()
                    } else {
                        format!("an interval-sampled ({canon})")
                    }
                };
                return Err(format!(
                    "journal {} holds points from {} sweep, but this run is {} sweep: \
                     refusing to resume across sampling modes — use a different output \
                     directory or delete the journal to start fresh",
                    path.display(),
                    describe(&sample),
                    describe(&expected_canon),
                ));
            }
            Ok((_, _, fp, _)) if fp != expected_fp => rec.mismatched_lines += 1,
            Ok((_, None, _, _)) => rec.failed_entries += 1,
            Ok((key, Some(point), _, _)) => {
                rec.points.insert(key, point);
            }
        }
    }
    Ok(rec)
}

// ---------------------------------------------------------------------------
// Sweep context: resume map + journal + interrupt flag + obs counters
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct CtxState {
    /// Keys already persisted (restored on resume, or appended this run) —
    /// the journal dedup set: a point evaluated by several figures is
    /// journaled once.
    persisted: HashSet<PointKey>,
    /// Keys whose skip has been counted, so `sweep.points_skipped` means
    /// "distinct points served from the journal", not lookup calls.
    skip_counted: HashSet<PointKey>,
    /// Failed keys already recorded, for the same dedup reason.
    failed: HashSet<PointKey>,
}

/// Shared state of one resumable sweep: the validated resume map, the
/// append journal, the Ctrl-C flag, and the `sweep.*` observability
/// counters. Threaded through [`crate::experiments::ExperimentCtx`] and
/// [`crate::runner::evaluate_grid_sweep`].
#[derive(Debug)]
pub struct SweepCtx {
    scale: Scale,
    fingerprint: String,
    journal: SweepJournal,
    resumed: HashMap<PointKey, RestoredPoint>,
    interrupt: Option<Arc<AtomicBool>>,
    /// The engine's shard count is journaled with each point for
    /// provenance (0 = sequential engine), never part of the fingerprint:
    /// results are engine-independent, so resume must not refuse on a
    /// mismatch. The sampling mode is part of the fingerprint *and* an
    /// explicit resume gate: sampled and full-fidelity points must never
    /// mix.
    opts: RunOpts,
    state: Mutex<CtxState>,
}

impl SweepCtx {
    /// A context for a sweep run with `opts`, appending to `journal` and
    /// serving nothing yet.
    fn new(scale: &Scale, journal: SweepJournal, opts: RunOpts) -> Self {
        Self {
            scale: *scale,
            fingerprint: sweep_fingerprint(scale, opts.sample),
            journal,
            resumed: HashMap::new(),
            interrupt: None,
            opts,
            state: Mutex::new(CtxState::default()),
        }
    }

    /// Start a fresh journaled sweep run with `opts`, truncating any
    /// journal at `path`.
    pub fn fresh(scale: &Scale, path: &Path, opts: RunOpts) -> Result<Self, String> {
        Ok(Self::new(scale, SweepJournal::create(path)?, opts))
    }

    /// Resume a journaled sweep run with `opts`: load and validate `path`,
    /// then append. Returns the context plus the recovery statistics.
    /// Refuses (does not silently skip) a journal whose sampling mode
    /// differs — see [`load_journal`].
    pub fn resume(
        scale: &Scale,
        path: &Path,
        opts: RunOpts,
    ) -> Result<(Self, JournalRecovery), String> {
        let rec = load_journal(path, &sweep_fingerprint(scale, opts.sample), opts.sample)?;
        let mut ctx = Self::new(scale, SweepJournal::append_to(path)?, opts);
        let state = ctx.state.get_mut().unwrap_or_else(|e| e.into_inner());
        state.persisted.extend(rec.points.keys().cloned());
        ctx.resumed = rec.points.clone();
        Ok((ctx, rec))
    }

    /// Arm graceful-interrupt draining: workers stop claiming new points
    /// once `flag` is set; in-flight points finish and are journaled.
    pub fn set_interrupt(&mut self, flag: Arc<AtomicBool>) {
        self.interrupt = Some(flag);
    }

    /// Has the interrupt flag been raised?
    pub fn interrupted(&self) -> bool {
        self.interrupt
            .as_ref()
            .is_some_and(|f| f.load(Ordering::Relaxed))
    }

    /// This sweep's config fingerprint (what journal lines are tagged with).
    pub fn fingerprint(&self) -> &str {
        &self.fingerprint
    }

    /// Number of distinct points persisted so far (restored + appended).
    pub fn persisted_points(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .persisted
            .len()
    }

    /// Serve a point from the journal if a validated entry exists.
    /// Increments `sweep.points_skipped` the first time each key hits.
    pub fn lookup(&self, kind: WorkloadKind, design: &Design) -> Option<EvalResult> {
        let key = (kind.name().to_string(), design.label());
        let point = self.resumed.get(&key)?;
        {
            let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
            if st.skip_counted.insert(key) {
                memsim_obs::global().counter("sweep.points_skipped").inc();
            }
        }
        Some(EvalResult {
            design: *design,
            workload: kind,
            metrics: point.metrics,
            run: Arc::clone(&point.run),
            placement: point.placement.clone(),
            sample_ci: point.sample_ci,
        })
    }

    /// Whether this point has been served from the journal during this run
    /// (i.e. [`SweepCtx::lookup`] hit for it at least once).
    pub fn was_skipped(&self, kind: WorkloadKind, design: &Design) -> bool {
        let key = (kind.name().to_string(), design.label());
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .skip_counted
            .contains(&key)
    }

    /// Journal a completed point (first completion only; later evaluations
    /// of the same point are no-ops). Increments `sweep.points_done`.
    pub fn record(&self, res: &EvalResult) {
        let key = (res.workload.name().to_string(), res.design.label());
        {
            let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
            if !st.persisted.insert(key) {
                return;
            }
        }
        memsim_obs::global().counter("sweep.points_done").inc();
        self.journal.write_line(&envelope(&point_payload(
            &self.fingerprint,
            &self.scale,
            res,
            self.opts.engine.journal_shards(),
            self.opts.sample,
        )));
    }

    /// Journal a failed point (panic payload or shard error) for
    /// post-mortem provenance. Increments `sweep.points_failed` once per
    /// distinct point. Failure entries are never trusted on resume.
    pub fn record_failure(&self, kind: WorkloadKind, design: &Design, message: &str) {
        let key = (kind.name().to_string(), design.label());
        {
            let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
            if !st.failed.insert(key.clone()) {
                return;
            }
        }
        memsim_obs::global().counter("sweep.points_failed").inc();
        self.journal.write_line(&envelope(&failure_payload(
            &self.fingerprint,
            &self.scale,
            &key,
            message,
            self.opts.sample,
        )));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{evaluate_cached, Engine, SimCache};
    use memsim_tech::Technology;

    const OFF: SampleMode = SampleMode::Off;

    fn evaluate(kind: WorkloadKind, scale: &Scale, design: &Design) -> EvalResult {
        evaluate_cached(kind, scale, design, &SimCache::new(), RunOpts::default())
    }

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("memsim-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn fingerprint_distinguishes_scales() {
        let mini = sweep_fingerprint(&Scale::mini(), OFF);
        let demo = sweep_fingerprint(&Scale::demo(), OFF);
        assert_ne!(mini, demo);
        assert_eq!(mini, sweep_fingerprint(&Scale::mini(), OFF));
        assert_eq!(mini.len(), 8);
    }

    #[test]
    fn parser_roundtrips_writer_output() {
        let mut o = json::Obj::new();
        o.str("s", "a\"b\\c\nd")
            .u64("n", u64::MAX)
            .raw("a", "[1,2,3]")
            .raw("z", "null");
        let v = parse_json(&o.finish()).unwrap();
        let m = v.as_obj().unwrap();
        assert_eq!(get_str(m, "s").unwrap(), "a\"b\\c\nd");
        assert_eq!(get_u64(m, "n").unwrap(), u64::MAX);
        assert_eq!(m["a"].as_arr().unwrap().len(), 3);
        assert_eq!(m["z"], JVal::Null);
    }

    #[test]
    fn parser_rejects_floats_and_garbage() {
        assert!(parse_json("{\"x\":1.5}").is_err());
        assert!(parse_json("{\"x\":-3}").is_err());
        assert!(parse_json("{\"x\":1e9}").is_err());
        assert!(parse_json("{\"x\":1}garbage").is_err());
        assert!(parse_json("").is_err());
        assert!(parse_json("{\"x\"").is_err());
    }

    #[test]
    fn point_roundtrips_bit_exactly() {
        let scale = Scale::mini();
        let res = evaluate(
            WorkloadKind::Hash,
            &scale,
            &Design::Ndm {
                nvm: Technology::Pcm,
            },
        );
        let fp = sweep_fingerprint(&scale, OFF);
        let line = envelope(&point_payload(&fp, &scale, &res, 3, SampleMode::Off));
        let (key, point, got_fp, got_sample) = decode_line(&line).unwrap();
        assert_eq!(got_fp, fp);
        assert_eq!(got_sample, "off");
        assert_eq!(key.0, "Hash");
        assert_eq!(key.1, res.design.label());
        let point = point.expect("completed point");
        assert_eq!(
            point.metrics.amat_ns.to_bits(),
            res.metrics.amat_ns.to_bits()
        );
        assert_eq!(point.metrics.time_s.to_bits(), res.metrics.time_s.to_bits());
        assert_eq!(point.run.caches, res.run.caches);
        assert_eq!(point.run.mem, res.run.mem);
        assert_eq!(point.run.per_region, res.run.per_region);
        assert_eq!(point.run.region_names, res.run.region_names);
        assert_eq!(point.run.total_refs, res.run.total_refs);
        assert_eq!(point.placement, res.placement);
    }

    #[test]
    fn shard_count_never_gates_resume() {
        // The shard count is provenance, not identity: a point journaled
        // by the sharded engine must decode to the same RestoredPoint as a
        // sequential one, and a resume with a different shard count must
        // accept it (results are engine-independent by the parity tests).
        let scale = Scale::mini();
        let res = evaluate(WorkloadKind::Hash, &scale, &Design::Baseline);
        let fp = sweep_fingerprint(&scale, OFF);
        let seq_line = envelope(&point_payload(&fp, &scale, &res, 0, SampleMode::Off));
        let sharded_line = envelope(&point_payload(&fp, &scale, &res, 4, SampleMode::Off));
        let (seq_key, seq_point, seq_fp, _) = decode_line(&seq_line).unwrap();
        let (sh_key, sh_point, sh_fp, _) = decode_line(&sharded_line).unwrap();
        assert_eq!(seq_fp, sh_fp, "fingerprint must not encode the engine");
        assert_eq!(seq_key, sh_key);
        let (seq_point, sh_point) = (seq_point.unwrap(), sh_point.unwrap());
        assert_eq!(seq_point.run.caches, sh_point.run.caches);
        assert_eq!(seq_point.run.mem, sh_point.run.mem);
        assert_eq!(
            seq_point.metrics.time_s.to_bits(),
            sh_point.metrics.time_s.to_bits()
        );

        // end to end: journal under shards=4, resume with the default
        // (sequential) context — the point must be served, not refused
        let path = temp_path("xengine.journal.jsonl");
        {
            let opts = RunOpts {
                engine: Engine::Sharded(4),
                sample: OFF,
            };
            SweepCtx::fresh(&scale, &path, opts).unwrap().record(&res);
        }
        let (ctx, rec) = SweepCtx::resume(&scale, &path, RunOpts::default()).unwrap();
        assert_eq!(rec.points.len(), 1, "sharded entry refused on resume");
        assert!(ctx.lookup(WorkloadKind::Hash, &Design::Baseline).is_some());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_lines_fail_closed() {
        let scale = Scale::mini();
        let res = evaluate(WorkloadKind::Hash, &scale, &Design::Baseline);
        let fp = sweep_fingerprint(&scale, OFF);
        let line = envelope(&point_payload(&fp, &scale, &res, 0, SampleMode::Off));

        // truncation at any prefix length must never decode
        for cut in [0, 1, 9, 20, line.len() / 2, line.len() - 2] {
            assert!(decode_line(&line[..cut]).is_err(), "cut at {cut} decoded");
        }
        // a flipped payload byte must fail the CRC
        let mut bytes = line.clone().into_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        if let Ok(flipped) = String::from_utf8(bytes) {
            assert!(decode_line(&flipped).is_err(), "bit flip decoded");
        }
    }

    #[test]
    fn journal_load_skips_damage_and_foreign_fingerprints() {
        let scale = Scale::mini();
        let path = temp_path("load.journal.jsonl");
        let ctx = SweepCtx::fresh(&scale, &path, RunOpts::default()).unwrap();
        let good = evaluate(WorkloadKind::Hash, &scale, &Design::Baseline);
        ctx.record(&good);
        ctx.record_failure(
            WorkloadKind::Cg,
            &Design::Ndm {
                nvm: Technology::Pcm,
            },
            "injected",
        );
        // hand-append damage: a truncated line and a foreign fingerprint
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            writeln!(f, "{{\"crc\":\"00000000\",\"p\":{{garbage").unwrap();
            let foreign = envelope(&point_payload(
                "ffffffff",
                &scale,
                &good,
                0,
                SampleMode::Off,
            ));
            f.write_all(foreign.as_bytes()).unwrap();
        }
        let rec = load_journal(&path, &sweep_fingerprint(&scale, OFF), OFF).unwrap();
        assert_eq!(rec.points.len(), 1);
        assert_eq!(rec.corrupt_lines, 1);
        assert_eq!(rec.mismatched_lines, 1);
        assert_eq!(rec.failed_entries, 1);
        assert!(rec
            .points
            .contains_key(&("Hash".to_string(), "Baseline".to_string())));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_serves_points_and_dedups_appends() {
        let scale = Scale::mini();
        let path = temp_path("resume.journal.jsonl");
        let res = evaluate(WorkloadKind::Hash, &scale, &Design::Baseline);
        {
            let ctx = SweepCtx::fresh(&scale, &path, RunOpts::default()).unwrap();
            ctx.record(&res);
            ctx.record(&res); // dedup: second append is a no-op
        }
        let lines = std::fs::read_to_string(&path).unwrap().lines().count();
        assert_eq!(lines, 1);

        let (ctx, rec) = SweepCtx::resume(&scale, &path, RunOpts::default()).unwrap();
        assert_eq!(rec.points.len(), 1);
        let restored = ctx
            .lookup(WorkloadKind::Hash, &Design::Baseline)
            .expect("journaled point must resolve");
        assert_eq!(
            restored.metrics.time_s.to_bits(),
            res.metrics.time_s.to_bits()
        );
        assert!(ctx.lookup(WorkloadKind::Cg, &Design::Baseline).is_none());
        // recording the restored point again must not grow the file
        ctx.record(&restored);
        let lines2 = std::fs::read_to_string(&path).unwrap().lines().count();
        assert_eq!(lines2, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sampling_mode_gates_resume_both_directions() {
        use crate::sampling::SampleSpec;
        let scale = Scale::mini();
        let spec = SampleMode::On(SampleSpec::default());
        let full = RunOpts::default();
        let sampled = RunOpts {
            sample: spec,
            ..full
        };

        // distinct fingerprints per mode (and per parameters)
        let off = sweep_fingerprint(&scale, OFF);
        let on = sweep_fingerprint(&scale, spec);
        assert_ne!(off, on);
        let other = SampleMode::parse("interval=2m,clusters=4").unwrap();
        assert_ne!(on, sweep_fingerprint(&scale, other));

        // a full-fidelity journal must refuse a sampled resume...
        let path = temp_path("xsample-full.journal.jsonl");
        {
            let ctx = SweepCtx::fresh(&scale, &path, full).unwrap();
            ctx.record(&evaluate(WorkloadKind::Hash, &scale, &Design::Baseline));
        }
        let err = SweepCtx::resume(&scale, &path, sampled).unwrap_err();
        assert!(err.contains("full-fidelity"), "{err}");
        assert!(err.contains("interval-sampled"), "{err}");
        assert!(err.contains("refusing"), "{err}");

        // ...and a sampled journal must refuse a full-fidelity resume,
        // even when the sampled side only recorded a failure
        let path2 = temp_path("xsample-sampled.journal.jsonl");
        {
            let ctx = SweepCtx::fresh(&scale, &path2, sampled).unwrap();
            ctx.record_failure(WorkloadKind::Hash, &Design::Baseline, "injected");
        }
        let err2 = SweepCtx::resume(&scale, &path2, full).unwrap_err();
        assert!(err2.contains("refusing"), "{err2}");

        // same mode resumes fine
        let (_, rec) = SweepCtx::resume(&scale, &path2, sampled).unwrap();
        assert_eq!(rec.failed_entries, 1);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&path2).ok();
    }

    #[test]
    fn missing_journal_is_empty_recovery() {
        let rec = load_journal(Path::new("/nonexistent/never.jsonl"), "00000000", OFF).unwrap();
        assert!(rec.points.is_empty());
        assert_eq!(rec.corrupt_lines, 0);
    }
}
