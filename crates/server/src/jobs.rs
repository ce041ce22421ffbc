//! Durable job queue and execution over the experiment engine.
//!
//! A *job* is one reproducible unit of work: either a named artifact
//! (`table4`, `fig1`, …) built live through [`memsim_core::build_artifact`]
//! — the exact code path the batch CLI uses, which is what makes
//! byte-parity testable — or a design-grid replay of a recorded trace.
//!
//! # Durability
//!
//! Every job owns a directory under `<state>/jobs/<id>/`:
//!
//! * `job.json` — the immutable canonical spec, written at submit.
//! * `sweep.journal.jsonl` — the PR 4 checkpoint journal; artifact jobs
//!   resume from it after a crash and never re-simulate a completed point.
//! * `result.json` — the deterministic result, written atomically on
//!   success (temp + rename).
//! * `error.json` / `cancelled` — terminal failure / cancel markers.
//!
//! A restarted daemon rescans `jobs/`, reconstructs terminal states from
//! the markers, and re-enqueues everything else. Because the result
//! embeds artifacts rendered from journal-replayed bit-exact metrics, a
//! kill-and-restart run produces `result.json` bytes identical to an
//! uninterrupted one.
//!
//! # Sharing
//!
//! All jobs share one [`SimCache`], so overlapping grid points across
//! concurrent jobs coalesce onto a single structure simulation (the
//! `sim.memo.hits` counter observes this), and one [`TraceStore`], so a
//! workload+scale trace is recorded at most once.

use memsim_cache::panic_text;
use memsim_core::experiments::ExperimentCtx;
use memsim_core::runner::evaluate_grid_sweep;
use memsim_core::store::{digest, TraceStore};
use memsim_core::{
    build_artifact, check_shards, parse_design_list, Design, EvalResult, SampleMode, Scale,
    SimCache, Source, SweepCtx, SweepError, JOURNAL_FILE,
};
use memsim_obs::json;
use memsim_workloads::WorkloadKind;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    // A worker that panicked inside a lock poisons it; the daemon keeps
    // serving, so recover the guard instead of propagating the poison.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Resolve a scale preset by name.
pub fn parse_scale(name: &str) -> Result<Scale, String> {
    match name {
        "mini" => Ok(Scale::mini()),
        "demo" => Ok(Scale::demo()),
        "paper" => Ok(Scale::paper()),
        other => Err(format!("unknown scale '{other}'")),
    }
}

/// What a job computes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobKind {
    /// Build one named artifact (live simulation through the shared memo).
    Artifact(String),
    /// Replay a recorded trace of `workload` over a design grid
    /// (canonical comma-separated design names).
    Replay {
        /// The workload whose trace is replayed.
        workload: WorkloadKind,
        /// Canonical design-name list, e.g. `"baseline,nmm"`.
        designs: String,
    },
}

/// A parsed, validated job specification. Canonical form is stable: it
/// names the job's directory fingerprint and round-trips through
/// `job.json` across restarts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// What to compute.
    pub kind: JobKind,
    /// Scale preset name (`mini` / `demo` / `paper`).
    pub scale_name: String,
    /// Benchmark set for artifact jobs (canonicalized; ignored by replay).
    pub workloads: Vec<WorkloadKind>,
    /// The `shards` value as given (`seq`, `auto` or `1`, all naming the
    /// one group walk), echoed in the canonical form so job ids stay
    /// stable; [`check_shards`] refuses any other.
    pub shards: String,
    /// Interval-sampling mode (`off` or `interval=N,clusters=K,...`).
    pub sample: SampleMode,
}

impl JobSpec {
    /// The scale preset this spec names. Valid by construction.
    pub fn scale(&self) -> Scale {
        parse_scale(&self.scale_name).expect("spec validated at parse")
    }

    /// Canonical JSON — byte-stable across parse/serialize round trips.
    pub fn canonical(&self) -> String {
        let mut o = json::Obj::new();
        match &self.kind {
            JobKind::Artifact(name) => {
                o.str("artifact", name);
                let names: Vec<String> = self
                    .workloads
                    .iter()
                    .map(|w| w.name().to_ascii_lowercase())
                    .collect();
                o.str("workloads", &names.join(","));
            }
            JobKind::Replay { workload, designs } => {
                o.str("replay", &workload.name().to_ascii_lowercase());
                o.str("designs", designs);
            }
        }
        o.str("scale", &self.scale_name);
        o.str("shards", &self.shards);
        o.str("sample", &self.sample.canon());
        o.finish()
    }
}

/// Parse and validate a job spec from already-parsed JSON. Unknown
/// fields are rejected — a misspelled option should fail loudly at
/// submit, not silently run the default.
pub fn parse_spec(v: &memsim_core::jsontext::JVal) -> Result<JobSpec, String> {
    use memsim_core::jsontext::JVal;
    let obj = v.as_obj().ok_or("job spec must be a JSON object")?;
    const KNOWN: [&str; 7] = [
        "artifact",
        "replay",
        "designs",
        "scale",
        "workloads",
        "shards",
        "sample",
    ];
    for key in obj.keys() {
        if !KNOWN.contains(&key.as_str()) {
            return Err(format!("unknown field '{key}'"));
        }
    }
    let field_str = |key: &str| -> Result<Option<String>, String> {
        match obj.get(key) {
            None => Ok(None),
            Some(JVal::Str(s)) => Ok(Some(s.clone())),
            Some(JVal::U64(n)) => Ok(Some(n.to_string())),
            Some(_) => Err(format!("field '{key}' must be a string")),
        }
    };

    let scale_name = field_str("scale")?.unwrap_or_else(|| "mini".into());
    parse_scale(&scale_name)?;
    let shards = field_str("shards")?.unwrap_or_else(|| "seq".into());
    check_shards(&shards)?;
    let sample = match field_str("sample")? {
        None => SampleMode::Off,
        Some(s) => SampleMode::parse(&s)?,
    };

    let artifact = field_str("artifact")?;
    let replay = field_str("replay")?;
    let kind = match (artifact, replay) {
        (Some(_), Some(_)) => return Err("give either 'artifact' or 'replay', not both".into()),
        (None, None) => return Err("job needs an 'artifact' or 'replay' field".into()),
        (Some(name), None) => {
            if !memsim_core::artifacts::is_artifact(&name) {
                return Err(format!("unknown artifact '{name}'"));
            }
            if obj.contains_key("designs") {
                return Err("'designs' only applies to replay jobs".into());
            }
            JobKind::Artifact(name)
        }
        (None, Some(w)) => {
            let workload =
                WorkloadKind::parse(&w).ok_or_else(|| format!("unknown workload '{w}'"))?;
            if obj.contains_key("workloads") {
                return Err("'workloads' only applies to artifact jobs".into());
            }
            let designs = field_str("designs")?.unwrap_or_else(|| "baseline,nmm,ndm".into());
            parse_design_list(&designs)?;
            JobKind::Replay { workload, designs }
        }
    };

    let workloads = match field_str("workloads")? {
        None => WorkloadKind::PAPER_SET.to_vec(),
        Some(list) => list
            .split(',')
            .map(|w| WorkloadKind::parse(w).ok_or_else(|| format!("unknown workload '{w}'")))
            .collect::<Result<_, _>>()?,
    };

    Ok(JobSpec {
        kind,
        scale_name,
        workloads,
        shards,
        sample,
    })
}

/// Parse a spec straight from request-body bytes.
pub fn parse_spec_bytes(body: &[u8]) -> Result<JobSpec, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let v = memsim_core::jsontext::parse_json(text)?;
    parse_spec(&v)
}

/// Job lifecycle states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is simulating it.
    Running,
    /// `result.json` exists.
    Done,
    /// Terminal failure (`error.json`).
    Failed,
    /// Cancelled before completion (journal keeps drained points).
    Cancelled,
}

impl JobState {
    /// Wire name of the state.
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Is this a final state?
    pub fn terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }
}

struct Progress {
    state: JobState,
    points_done: usize,
    error: Option<String>,
}

/// Most state-transition events a job's in-memory log retains. State
/// machines are short (queued→running→done), so this is generous; a
/// pathological churn just drops the oldest entries and counts them.
const EVENT_BACKLOG: usize = 64;

/// One entry in a job's bounded event log: a state transition observed
/// at a point in the job's life. Served (with live progress samples
/// interleaved) by `GET /jobs/<id>/events`.
#[derive(Debug, Clone)]
pub struct JobEvent {
    /// Monotonic per-job sequence number (0-based, never reused).
    pub seq: u64,
    /// State entered.
    pub state: &'static str,
    /// Journaled points at the time of the transition.
    pub points_done: u64,
}

struct EventLog {
    next_seq: u64,
    dropped: u64,
    entries: VecDeque<JobEvent>,
}

/// One job: immutable spec plus mutable progress, cancel flag, and — while
/// running — a handle on the live sweep context for point-level progress.
pub struct Job {
    /// Stable identifier (`j<seq>-<spec digest>`), also the directory name.
    pub id: String,
    /// The validated spec.
    pub spec: JobSpec,
    /// The job's state directory.
    pub dir: PathBuf,
    cancel: Arc<AtomicBool>,
    progress: Mutex<Progress>,
    sweep: Mutex<Option<Arc<SweepCtx>>>,
    events: Mutex<EventLog>,
}

impl Job {
    fn new(id: String, spec: JobSpec, dir: PathBuf, state: JobState) -> Arc<Job> {
        let job = Arc::new(Job {
            id,
            spec,
            dir,
            cancel: Arc::new(AtomicBool::new(false)),
            progress: Mutex::new(Progress {
                state,
                points_done: 0,
                error: None,
            }),
            sweep: Mutex::new(None),
            events: Mutex::new(EventLog {
                next_seq: 0,
                dropped: 0,
                entries: VecDeque::new(),
            }),
        });
        job.push_event(state);
        job
    }

    /// Append a state transition to the bounded event log.
    fn push_event(&self, state: JobState) {
        let points = self.points_done() as u64;
        let mut log = lock(&self.events);
        let seq = log.next_seq;
        log.next_seq += 1;
        if log.entries.len() >= EVENT_BACKLOG {
            log.entries.pop_front();
            log.dropped += 1;
        }
        log.entries.push_back(JobEvent {
            seq,
            state: state.name(),
            points_done: points,
        });
    }

    /// Logged events with `seq >= after`, plus how many older entries
    /// the bounded backlog has already discarded.
    pub fn events_since(&self, after: u64) -> (Vec<JobEvent>, u64) {
        let log = lock(&self.events);
        let events = log
            .entries
            .iter()
            .filter(|e| e.seq >= after)
            .cloned()
            .collect();
        (events, log.dropped)
    }

    /// Current state.
    pub fn state(&self) -> JobState {
        lock(&self.progress).state
    }

    /// Completed (journaled) grid points — live while running.
    pub fn points_done(&self) -> usize {
        let live = lock(&self.sweep)
            .as_ref()
            .map(|s| s.persisted_points())
            .unwrap_or(0);
        lock(&self.progress).points_done.max(live)
    }

    /// Status document served by `GET /jobs/<id>`.
    pub fn status_json(&self) -> String {
        let (state, error) = {
            let p = lock(&self.progress);
            (p.state, p.error.clone())
        };
        let mut o = json::Obj::new();
        o.str("id", &self.id);
        o.str("state", state.name());
        o.u64("points_done", self.points_done() as u64);
        o.raw("spec", &self.spec.canonical());
        if let Some(e) = error {
            o.str("error", &e);
        }
        o.finish()
    }

    /// Path of the terminal result document.
    pub fn result_path(&self) -> PathBuf {
        self.dir.join("result.json")
    }

    fn set_state(&self, state: JobState) {
        lock(&self.progress).state = state;
        self.push_event(state);
    }
}

/// Outcome of a cancel request.
#[derive(Debug, PartialEq, Eq)]
pub enum CancelOutcome {
    /// Job was still queued; it is now terminally cancelled.
    Cancelled,
    /// Job is running; the flag is set and in-flight points drain.
    Cancelling,
    /// Job had already reached `state` — nothing to do.
    AlreadyTerminal(JobState),
}

/// Why a submit was refused.
#[derive(Debug)]
pub enum SubmitError {
    /// Spec invalid (400).
    Bad(String),
    /// Queue at capacity (503 + Retry-After).
    Full,
}

/// What [`Registry::open`] recovered from a previous daemon's jobs.
#[derive(Debug, Default)]
pub struct Recovered {
    /// Ids of incomplete jobs, re-enqueued.
    pub resumed: Vec<String>,
    /// Ids of jobs whose `job.json` no longer parses, with the error. Their
    /// directories stay in place.
    pub skipped: Vec<(String, String)>,
}

/// The registry: durable state root, shared simulation memo and trace
/// store, the bounded queue, and every known job.
pub struct Registry {
    jobs_dir: PathBuf,
    /// Shared trace store (`<state>/traces`).
    pub store: TraceStore,
    /// Shared structure-simulation memo — the cross-job result cache.
    pub cache: SimCache,
    jobs: Mutex<HashMap<String, Arc<Job>>>,
    queue: Mutex<VecDeque<Arc<Job>>>,
    queue_cap: usize,
    cv: Condvar,
    next_seq: AtomicU64,
    shutdown: AtomicBool,
    started: std::time::Instant,
    // observed drain throughput, feeding the 503 Retry-After hint
    drain_millis: AtomicU64,
    drained_jobs: AtomicU64,
}

impl Registry {
    /// Open the registry rooted at `state_dir`, creating directories as
    /// needed and recovering any jobs a previous daemon left behind.
    /// Returns the registry and what it recovered.
    pub fn open(state_dir: &Path, queue_cap: usize) -> Result<(Arc<Registry>, Recovered), String> {
        let jobs_dir = state_dir.join("jobs");
        std::fs::create_dir_all(&jobs_dir).map_err(|e| format!("creating {jobs_dir:?}: {e}"))?;
        let store = TraceStore::open(&state_dir.join("traces"))
            .map_err(|e| format!("opening trace store: {e}"))?;
        let reg = Arc::new(Registry {
            jobs_dir,
            store,
            cache: SimCache::new(),
            jobs: Mutex::new(HashMap::new()),
            queue: Mutex::new(VecDeque::new()),
            queue_cap,
            cv: Condvar::new(),
            next_seq: AtomicU64::new(1),
            shutdown: AtomicBool::new(false),
            started: std::time::Instant::now(),
            drain_millis: AtomicU64::new(0),
            drained_jobs: AtomicU64::new(0),
        });
        let recovered = reg.recover()?;
        Ok((reg, recovered))
    }

    /// Scan the jobs directory and rebuild state. Terminal jobs become
    /// queryable again; incomplete ones re-enqueue (their journal makes
    /// the re-run skip every completed point). A job whose spec no longer
    /// parses (say, one an older daemon accepted with an option since
    /// removed) is reported as skipped and left on disk.
    fn recover(self: &Arc<Self>) -> Result<Recovered, String> {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&self.jobs_dir)
            .map_err(|e| format!("scanning jobs: {e}"))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        entries.sort(); // deterministic recovery order
        let mut recovered = Recovered::default();
        let mut max_seq = 0u64;
        for dir in entries {
            let id = match dir.file_name().and_then(|n| n.to_str()) {
                Some(n) => n.to_string(),
                None => continue,
            };
            if let Some(seq) = id
                .strip_prefix('j')
                .and_then(|r| r.split('-').next())
                .and_then(|s| s.parse::<u64>().ok())
            {
                max_seq = max_seq.max(seq);
            }
            let doc = match std::fs::read_to_string(dir.join("job.json")) {
                Ok(d) => d,
                Err(_) => continue, // half-created dir: ignore
            };
            let spec = (|| -> Result<JobSpec, String> {
                let v = memsim_core::jsontext::parse_json(&doc)?;
                let obj = v.as_obj().ok_or("job.json is not an object")?;
                parse_spec(memsim_core::jsontext::get(obj, "spec")?)
            })();
            let spec = match spec {
                Ok(s) => s,
                Err(e) => {
                    recovered.skipped.push((id, e));
                    continue;
                }
            };
            let state = if dir.join("result.json").exists() {
                JobState::Done
            } else if dir.join("error.json").exists() {
                JobState::Failed
            } else if dir.join("cancelled").exists() {
                JobState::Cancelled
            } else {
                JobState::Queued
            };
            let job = Job::new(id.clone(), spec, dir, state);
            if let Some(e) = std::fs::read_to_string(job.dir.join("error.json"))
                .ok()
                .and_then(|d| memsim_core::jsontext::parse_json(&d).ok())
                .and_then(|v| v.as_obj().and_then(|o| o.get("error").cloned()))
                .and_then(|v| v.as_str().map(String::from))
            {
                lock(&job.progress).error = Some(e);
            }
            lock(&self.jobs).insert(id.clone(), Arc::clone(&job));
            if state == JobState::Queued {
                // Recovery ignores the capacity bound: these jobs were
                // already accepted by a previous daemon.
                lock(&self.queue).push_back(job);
                recovered.resumed.push(id);
            }
        }
        self.next_seq.store(max_seq + 1, Ordering::SeqCst);
        Ok(recovered)
    }

    /// Submit a spec: persist it, enqueue it, return the job. `Full`
    /// maps to 503 + Retry-After at the HTTP layer.
    pub fn submit(self: &Arc<Self>, spec: JobSpec) -> Result<Arc<Job>, SubmitError> {
        let canonical = spec.canonical();
        let mut queue = lock(&self.queue);
        if queue.len() >= self.queue_cap {
            if memsim_obs::enabled() {
                memsim_obs::global().counter("server.queue.rejected").inc();
            }
            return Err(SubmitError::Full);
        }
        let seq = self.next_seq.fetch_add(1, Ordering::SeqCst);
        let id = format!("j{seq}-{}", &digest(&canonical)[..8]);
        let dir = self.jobs_dir.join(&id);
        std::fs::create_dir_all(&dir)
            .map_err(|e| SubmitError::Bad(format!("creating job dir: {e}")))?;
        let mut doc = json::Obj::new();
        doc.str("id", &id).raw("spec", &canonical);
        write_atomic(&dir.join("job.json"), doc.finish().as_bytes())
            .map_err(|e| SubmitError::Bad(format!("persisting job: {e}")))?;
        let job = Job::new(id.clone(), spec, dir, JobState::Queued);
        lock(&self.jobs).insert(id, Arc::clone(&job));
        queue.push_back(Arc::clone(&job));
        drop(queue);
        self.cv.notify_one();
        if memsim_obs::enabled() {
            memsim_obs::global().counter("server.jobs.submitted").inc();
        }
        Ok(job)
    }

    /// Look a job up by id.
    pub fn get(&self, id: &str) -> Option<Arc<Job>> {
        lock(&self.jobs).get(id).cloned()
    }

    /// Cooperative cancel. Queued jobs terminate immediately; running
    /// jobs get their interrupt flag raised and drain in-flight points
    /// into the journal before going terminal.
    pub fn cancel(&self, job: &Arc<Job>) -> CancelOutcome {
        let mut p = lock(&job.progress);
        match p.state {
            JobState::Queued => {
                p.state = JobState::Cancelled;
                drop(p);
                job.push_event(JobState::Cancelled);
                let _ = std::fs::write(job.dir.join("cancelled"), b"");
                if memsim_obs::enabled() {
                    memsim_obs::global().counter("server.jobs.cancelled").inc();
                }
                CancelOutcome::Cancelled
            }
            JobState::Running => {
                job.cancel.store(true, Ordering::SeqCst);
                CancelOutcome::Cancelling
            }
            s => CancelOutcome::AlreadyTerminal(s),
        }
    }

    /// Current queue depth (for metrics).
    pub fn queue_len(&self) -> usize {
        lock(&self.queue).len()
    }

    /// Whole seconds since the registry opened. Zeroed in deterministic
    /// mode so `/healthz` stays byte-comparable in CI.
    pub fn uptime_secs(&self) -> u64 {
        if memsim_obs::deterministic() {
            0
        } else {
            self.started.elapsed().as_secs()
        }
    }

    /// Job counts per lifecycle state, in wire order
    /// (queued/running/done/failed/cancelled).
    pub fn jobs_by_state(&self) -> [(&'static str, u64); 5] {
        let mut counts = [0u64; 5];
        for job in lock(&self.jobs).values() {
            let i = match job.state() {
                JobState::Queued => 0,
                JobState::Running => 1,
                JobState::Done => 2,
                JobState::Failed => 3,
                JobState::Cancelled => 4,
            };
            counts[i] += 1;
        }
        [
            ("queued", counts[0]),
            ("running", counts[1]),
            ("done", counts[2]),
            ("failed", counts[3]),
            ("cancelled", counts[4]),
        ]
    }

    /// How long a rejected submit should wait before retrying: the
    /// current queue depth times the observed mean per-job drain time
    /// (assumed 1 s per job until the first job completes), floored at
    /// 1 s and capped at 60 s so the hint stays a hint, not a lockout.
    pub fn retry_after_secs(&self) -> u64 {
        let jobs = self.drained_jobs.load(Ordering::Relaxed);
        let mean_secs = if jobs == 0 {
            1.0
        } else {
            self.drain_millis.load(Ordering::Relaxed) as f64 / jobs as f64 / 1000.0
        };
        ((self.queue_len() as f64 * mean_secs).ceil() as u64).clamp(1, 60)
    }

    /// Raise the shutdown flag: workers drain their current point (the
    /// cancel flag doubles as the cooperative interrupt) and exit.
    pub fn stop(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Interrupt running jobs so they checkpoint and come back as
        // resumable `queued` work on the next start. Their in-memory
        // state stays Running; the next daemon's recovery re-queues them.
        for job in lock(&self.jobs).values() {
            if job.state() == JobState::Running {
                job.cancel.store(true, Ordering::SeqCst);
            }
        }
        self.cv.notify_all();
    }

    /// Has [`stop`](Registry::stop) been called?
    pub fn stopping(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Block for the next runnable job; `None` means shutdown.
    pub fn next_job(&self) -> Option<Arc<Job>> {
        let mut queue = lock(&self.queue);
        loop {
            if self.stopping() {
                return None;
            }
            while let Some(job) = queue.pop_front() {
                // Cancelled-while-queued jobs are left in place and
                // skipped here.
                if job.state() == JobState::Queued {
                    return Some(job);
                }
            }
            let (guard, _) = self
                .cv
                .wait_timeout(queue, Duration::from_millis(100))
                .unwrap_or_else(|e| e.into_inner());
            queue = guard;
        }
    }

    /// Worker loop body: run jobs until shutdown.
    pub fn work(self: &Arc<Self>) {
        while let Some(job) = self.next_job() {
            self.run_job(&job);
        }
    }

    fn run_job(self: &Arc<Self>, job: &Arc<Job>) {
        job.set_state(JobState::Running);
        let started = std::time::Instant::now();
        // A panic that escapes the engine's own per-point isolation must
        // not take the worker thread down with it.
        let out = catch_unwind(AssertUnwindSafe(|| run_inner(self, job)));
        *lock(&job.sweep) = None;
        let out = match out {
            Ok(r) => r,
            Err(panic) => {
                let msg = panic_text(&panic);
                // Post-mortem: when the flight recorder is armed (the
                // daemon arms it at startup), freeze its tail into the
                // job's state dir so the timeline leading up to the
                // panic survives for offline inspection.
                let lanes = memsim_obs::recorder::snapshot_tail(4096);
                if !lanes.is_empty() {
                    let manifest = [("job", job.id.clone()), ("reason", "panic".to_string())];
                    let _ = std::fs::write(
                        job.dir.join("flightrec.json"),
                        memsim_obs::chrome_trace_json(&manifest, &lanes),
                    );
                }
                Err(format!("panic: {msg}"))
            }
        };
        match out {
            Ok(RunOutcome::Finished(result)) => {
                match write_atomic(&job.result_path(), result.as_bytes()) {
                    Ok(()) => {
                        job.set_state(JobState::Done);
                        if memsim_obs::enabled() {
                            memsim_obs::global().counter("server.jobs.completed").inc();
                        }
                    }
                    Err(e) => self.fail_job(job, &format!("writing result: {e}")),
                }
            }
            Ok(RunOutcome::Interrupted) => {
                if self.stopping() {
                    // Shutdown drain, not a user cancel: leave the job
                    // resumable. No terminal marker — the next daemon's
                    // recovery re-enqueues it and the journal skips every
                    // drained point.
                    job.set_state(JobState::Queued);
                } else {
                    job.set_state(JobState::Cancelled);
                    let _ = std::fs::write(job.dir.join("cancelled"), b"");
                    if memsim_obs::enabled() {
                        memsim_obs::global().counter("server.jobs.cancelled").inc();
                    }
                }
            }
            Err(message) => self.fail_job(job, &message),
        }
        self.drain_millis
            .fetch_add(started.elapsed().as_millis() as u64, Ordering::Relaxed);
        self.drained_jobs.fetch_add(1, Ordering::Relaxed);
    }

    fn fail_job(&self, job: &Arc<Job>, message: &str) {
        let mut doc = json::Obj::new();
        doc.str("id", &job.id).str("error", message);
        let _ = write_atomic(&job.dir.join("error.json"), doc.finish().as_bytes());
        let mut p = lock(&job.progress);
        p.state = JobState::Failed;
        p.error = Some(message.to_string());
        drop(p);
        job.push_event(JobState::Failed);
        if memsim_obs::enabled() {
            memsim_obs::global().counter("server.jobs.failed").inc();
        }
    }
}

enum RunOutcome {
    Finished(String),
    Interrupted,
}

fn run_inner(reg: &Arc<Registry>, job: &Arc<Job>) -> Result<RunOutcome, String> {
    let scale = job.spec.scale();
    let sample = job.spec.sample;
    match &job.spec.kind {
        JobKind::Artifact(name) => {
            let journal = job.dir.join(JOURNAL_FILE);
            let mut sweep = if journal.exists() {
                SweepCtx::resume(&scale, &journal, sample)?.0
            } else {
                SweepCtx::fresh(&scale, &journal, sample)?
            };
            sweep.set_interrupt(Arc::clone(&job.cancel));
            let sweep = Arc::new(sweep);
            lock(&job.progress).points_done = sweep.persisted_points();
            *lock(&job.sweep) = Some(Arc::clone(&sweep));
            let ctx = ExperimentCtx::new(scale, &reg.cache)
                .with_workloads(&job.spec.workloads)
                .with_sweep(&sweep)
                .with_sample(sample);
            let built = build_artifact(&ctx, name);
            lock(&job.progress).points_done = sweep.persisted_points();
            match built {
                Ok((markdown, csv)) => Ok(RunOutcome::Finished(artifact_result(
                    job, name, &markdown, &csv,
                ))),
                Err(SweepError::Interrupted) => Ok(RunOutcome::Interrupted),
                Err(e) => Err(e.to_string()),
            }
        }
        JobKind::Replay { workload, designs } => {
            if job.cancel.load(Ordering::SeqCst) {
                return Ok(RunOutcome::Interrupted);
            }
            // the store's files are content-addressed, so the shared memo
            // may key this trace's runs by path
            let source = Source::Trace {
                kind: *workload,
                path: reg.store.ensure(*workload, &scale)?.into(),
            };
            let wanted = parse_design_list(designs)?;
            // Baseline anchors normalization even when not requested.
            let mut grid = vec![Design::Baseline];
            grid.extend(wanted.iter().filter(|d| **d != Design::Baseline).copied());
            let points: Vec<(Source, Design)> = grid.iter().map(|d| (source.clone(), *d)).collect();
            let evaluated = evaluate_grid_sweep(&points, &scale, &reg.cache, None, None, sample)
                .into_result()
                .map_err(|e| e.to_string())?;
            let results: Vec<(Design, &EvalResult)> =
                grid.iter().copied().zip(&evaluated).collect();
            Ok(RunOutcome::Finished(replay_result(
                job, *workload, &wanted, &results,
            )))
        }
    }
}

/// Compose the deterministic result document for an artifact job.
fn artifact_result(job: &Job, name: &str, markdown: &str, csv: &str) -> String {
    let mut o = json::Obj::new();
    o.str("id", &job.id)
        .str("kind", "artifact")
        .str("artifact", name)
        .raw("spec", &job.spec.canonical())
        .str("markdown", markdown)
        .str("csv", csv);
    o.finish()
}

/// Compose the deterministic result document for a replay job: the same
/// table shape the CLI's `replay` command prints.
fn replay_result(
    job: &Job,
    workload: WorkloadKind,
    wanted: &[Design],
    results: &[(Design, &EvalResult)],
) -> String {
    let base = results[0].1;
    let mut md = String::from(
        "| design | AMAT (ns) | time (ms) | energy (mJ) | EDP (µJ·s) | time× | energy× | EDP× |\n|---|---|---|---|---|---|---|---|\n",
    );
    let mut csv = String::from("design,amat_ns,time_ms,energy_mj,edp_ujs,time_x,energy_x,edp_x\n");
    for (d, r) in results {
        if !wanted.contains(d) {
            continue;
        }
        let norm = r.metrics.normalized_to(&base.metrics);
        md.push_str(&format!(
            "| {} | {:.3} | {:.3} | {:.3} | {:.4} | {:.4} | {:.4} | {:.4} |\n",
            d.label(),
            r.metrics.amat_ns,
            r.metrics.time_s * 1e3,
            r.metrics.energy_j() * 1e3,
            r.metrics.edp() * 1e6,
            norm.time,
            norm.energy,
            norm.edp,
        ));
        csv.push_str(&format!(
            "{},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6}\n",
            d.label(),
            r.metrics.amat_ns,
            r.metrics.time_s * 1e3,
            r.metrics.energy_j() * 1e3,
            r.metrics.edp() * 1e6,
            norm.time,
            norm.energy,
            norm.edp,
        ));
    }
    let mut o = json::Obj::new();
    o.str("id", &job.id)
        .str("kind", "replay")
        .str("workload", workload.name())
        .u64("events", base.run.total_refs)
        .raw("spec", &job.spec.canonical())
        .str("markdown", &md)
        .str("csv", &csv);
    o.finish()
}

/// Write `bytes` to `path` atomically (temp file + rename) so readers —
/// and a daemon that crashes mid-write — never observe a partial file.
fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim_core::jsontext::parse_json;

    fn spec(body: &str) -> Result<JobSpec, String> {
        parse_spec(&parse_json(body).unwrap())
    }

    #[test]
    fn parses_minimal_artifact_spec_with_defaults() {
        let s = spec(r#"{"artifact":"table4"}"#).unwrap();
        assert_eq!(s.kind, JobKind::Artifact("table4".into()));
        assert_eq!(s.scale_name, "mini");
        assert_eq!(s.shards, "seq");
        assert_eq!(s.workloads, WorkloadKind::PAPER_SET.to_vec());
    }

    #[test]
    fn canonical_round_trips() {
        let s = spec(r#"{"artifact":"table4","workloads":"bt,hash","scale":"mini"}"#).unwrap();
        let round = spec(&s.canonical()).unwrap();
        assert_eq!(s, round);
        assert_eq!(s.canonical(), round.canonical());
    }

    #[test]
    fn rejects_bad_specs() {
        for bad in [
            r#"{"artifact":"nope"}"#,
            r#"{"artifact":"table4","scale":"huge"}"#,
            r#"{"artifact":"table4","shards":"0"}"#,
            r#"{"artifact":"table4","workloads":"bt,warp"}"#,
            r#"{"artifact":"table4","designs":"nmm"}"#,
            r#"{"replay":"hash","workloads":"bt"}"#,
            r#"{"replay":"warp"}"#,
            r#"{"replay":"hash","designs":"warp"}"#,
            r#"{"artifact":"table4","replay":"hash"}"#,
            r#"{"scale":"mini"}"#,
            r#"{"artifact":"table4","surprise":"yes"}"#,
            r#"[1,2]"#,
        ] {
            assert!(spec(bad).is_err(), "{bad} accepted");
        }
    }

    #[test]
    fn numeric_shards_accepted() {
        // every value that names the one group walk is accepted and echoed
        for (given, echoed) in [
            ("\"seq\"", "seq"),
            ("\"auto\"", "auto"),
            ("\"1\"", "1"),
            ("1", "1"),
        ] {
            let s = spec(&format!(r#"{{"artifact":"fig1","shards":{given}}}"#)).unwrap();
            assert_eq!(s.shards, echoed);
            assert!(s.canonical().contains(&format!(r#""shards":"{echoed}""#)));
        }
        // anything else asked for the removed set-sharded engine
        for refused in ["\"0\"", "2", "\"2\"", "\"many\""] {
            let err = spec(&format!(r#"{{"artifact":"fig1","shards":{refused}}}"#)).unwrap_err();
            assert!(
                err.contains("set-sharded engine was removed"),
                "{refused}: {err}"
            );
        }
    }

    #[test]
    fn submit_run_and_result_round_trip() {
        let dir = std::env::temp_dir().join(format!("memsim-jobs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (reg, recovered) = Registry::open(&dir, 4).unwrap();
        assert!(recovered.resumed.is_empty() && recovered.skipped.is_empty());
        let s = spec(r#"{"artifact":"table4","workloads":"hash","scale":"mini"}"#).unwrap();
        let job = reg.submit(s).unwrap();
        assert_eq!(job.state(), JobState::Queued);
        // Run synchronously through the worker path.
        let picked = reg.next_job().unwrap();
        assert_eq!(picked.id, job.id);
        reg.run_job(&picked);
        assert_eq!(job.state(), JobState::Done);
        assert!(job.points_done() > 0);
        let result = std::fs::read_to_string(job.result_path()).unwrap();
        let v = parse_json(&result).unwrap();
        let o = v.as_obj().unwrap();
        assert_eq!(o["kind"].as_str().unwrap(), "artifact");
        assert!(o["markdown"].as_str().unwrap().contains("|"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn queue_capacity_rejects_with_full() {
        let dir = std::env::temp_dir().join(format!("memsim-jobs-full-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (reg, _) = Registry::open(&dir, 1).unwrap();
        let s = spec(r#"{"artifact":"table4","workloads":"hash"}"#).unwrap();
        reg.submit(s.clone()).unwrap();
        assert!(matches!(reg.submit(s), Err(SubmitError::Full)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancel_queued_job_is_terminal_and_skipped() {
        let dir = std::env::temp_dir().join(format!("memsim-jobs-cancel-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (reg, _) = Registry::open(&dir, 4).unwrap();
        let s = spec(r#"{"artifact":"table4","workloads":"hash"}"#).unwrap();
        let job = reg.submit(s).unwrap();
        assert_eq!(reg.cancel(&job), CancelOutcome::Cancelled);
        assert_eq!(job.state(), JobState::Cancelled);
        assert!(matches!(
            reg.cancel(&job),
            CancelOutcome::AlreadyTerminal(JobState::Cancelled)
        ));
        // The queue must not hand the cancelled job to a worker.
        reg.stop();
        assert!(reg.next_job().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_restores_terminal_and_requeues_incomplete() {
        let dir = std::env::temp_dir().join(format!("memsim-jobs-rec-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let done_id;
        let pending_id;
        {
            let (reg, _) = Registry::open(&dir, 4).unwrap();
            let s = spec(r#"{"artifact":"table4","workloads":"hash"}"#).unwrap();
            let done = reg.submit(s.clone()).unwrap();
            let picked = reg.next_job().unwrap();
            reg.run_job(&picked);
            done_id = done.id.clone();
            pending_id = reg.submit(s).unwrap().id.clone();
        }
        let (reg2, recovered) = Registry::open(&dir, 4).unwrap();
        assert_eq!(recovered.resumed, vec![pending_id.clone()]);
        assert_eq!(reg2.get(&done_id).unwrap().state(), JobState::Done);
        assert_eq!(reg2.get(&pending_id).unwrap().state(), JobState::Queued);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_reports_jobs_whose_spec_no_longer_parses() {
        let dir = std::env::temp_dir().join(format!("memsim-jobs-skip-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let queued_id;
        {
            let (reg, _) = Registry::open(&dir, 4).unwrap();
            let s = spec(r#"{"artifact":"table4","workloads":"hash"}"#).unwrap();
            queued_id = reg.submit(s).unwrap().id.clone();
        }
        // a job an older daemon accepted for the removed set-sharded engine
        let old = dir.join("jobs").join("j7-0ld5hard");
        std::fs::create_dir_all(&old).unwrap();
        std::fs::write(
            old.join("job.json"),
            r#"{"id":"j7-0ld5hard","spec":{"artifact":"table4","workloads":"hash","shards":"2"}}"#,
        )
        .unwrap();
        let (reg, recovered) = Registry::open(&dir, 4).unwrap();
        assert_eq!(recovered.resumed, vec![queued_id.clone()]);
        assert_eq!(recovered.skipped.len(), 1, "{:?}", recovered.skipped);
        let (id, error) = &recovered.skipped[0];
        assert_eq!(id, "j7-0ld5hard");
        assert!(error.contains("--shards 2 is not available"), "{error}");
        assert!(reg.get(id).is_none());
        assert!(old.join("job.json").exists(), "user state is never deleted");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
