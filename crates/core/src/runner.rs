//! Simulation driver: walk a workload's reference stream through hierarchy
//! structures, then cost any number of designs analytically.
//!
//! Cache statistics depend only on the address stream and the cache
//! geometry — never on latency or energy parameters — so one walk of a
//! [`Structure`] serves every technology assignment that shares it. The
//! paper's grid (9 N-configs × 3 NVMs, 8 EH-configs × 2 LLCs × 3 NVMs, NDM
//! × 3 NVMs, heat maps) needs 18 structures per workload, and a grid walks
//! all of a source's structures from **one** stream. They all share the
//! scale's L1–L3, so the group walks those levels once, and each
//! structure's own L4 and memory walk the requests L3 sends below
//! ([`memsim_cache::GroupWalk::group`]).
//!
//! A grid point's stream comes from a [`Source`]: a live run of the
//! workload's kernel, or one decode of a trace recorded from it. Both
//! front-ends feed the same walk, so a trace point is bit-identical to the
//! live point it was recorded from.
//!
//! A grid evaluation runs in two phases:
//!
//! 1. **Walk.** The structures needed by unjournaled, valid points are
//!    grouped by source and claimed in the [`SimCache`] (one lock per
//!    group). A group owning at least `threads` structures takes all
//!    `threads` lanes, one group at a time; smaller groups run side by
//!    side and split the lanes evenly (one each once there are at least
//!    `threads` of them). A structure claimed by a concurrent request is
//!    awaited, not walked again.
//! 2. **Cost.** Every point is costed from the memo, journaled, and
//!    fault-isolated: a failed walk or a panicking costing fails only the
//!    points that need it.
//!
//! An interrupt stops phase 1 from starting further groups; the groups in
//! flight finish and all their points are costed and journaled, so a
//! resume never walks finished work again. Only live points are journaled:
//! a trace point is never looked up in or recorded to a sweep journal.

use crate::design::{Design, Structure, MEM_NAME};
use crate::journal::SweepCtx;
use crate::model::Metrics;
use crate::partition::{self, Placement};
use crate::sampling::{feed_windows, SampleMode, SamplePlan, SampleSpec, Window};
use crate::scale::Scale;
use memsim_cache::{panic_text, Cache, CacheConfig, GroupWalk, LevelStats, Walk};
use memsim_memory::{PartitionedMemory, RegionTraffic};
use memsim_tech::Technology;
use memsim_trace::{Region, TraceSink};
use memsim_tracefile::{footer_total, replay_into, TraceReader};
use memsim_workloads::WorkloadKind;
use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// The raw output of one workload × structure simulation.
#[derive(Debug, Clone)]
pub struct RawRun {
    /// Per-cache statistics, top-down (`L1`, `L2`, `L3`[, `L4`]).
    pub caches: Vec<LevelStats>,
    /// Aggregate terminal-memory statistics (name `MEM`).
    pub mem: LevelStats,
    /// Terminal traffic attributed to each workload region.
    pub per_region: Vec<RegionTraffic>,
    /// Region names, aligned with `per_region`.
    pub region_names: Vec<String>,
    /// Region sizes in bytes, aligned with `per_region`.
    pub region_sizes: Vec<u64>,
    /// Region start addresses, aligned with `per_region`.
    pub region_starts: Vec<u64>,
    /// Total demand references issued by the workload.
    pub total_refs: u64,
    /// Workload footprint in bytes.
    pub footprint_bytes: u64,
    /// Set when the counters were *extrapolated* from an
    /// interval-sampled run rather than measured over the whole stream;
    /// carries what confidence-interval derivation needs.
    pub sample: Option<crate::sampling::SampleDetail>,
}

impl RawRun {
    /// A run of the workload whose address space `regions` lays out.
    pub(crate) fn new(
        caches: Vec<LevelStats>,
        mem: LevelStats,
        per_region: Vec<RegionTraffic>,
        total_refs: u64,
        regions: &[Region],
        sample: Option<crate::sampling::SampleDetail>,
    ) -> Self {
        RawRun {
            caches,
            mem,
            per_region,
            region_names: regions.iter().map(|r| r.name.clone()).collect(),
            region_sizes: regions.iter().map(|r| r.len).collect(),
            region_starts: regions.iter().map(|r| r.start).collect(),
            total_refs,
            footprint_bytes: regions.iter().map(|r| r.len).sum(),
            sample,
        }
    }

    /// Stats/cost alignment helper: caches followed by the terminal memory.
    pub fn all_levels(&self) -> Vec<&LevelStats> {
        self.caches
            .iter()
            .chain(std::iter::once(&self.mem))
            .collect()
    }
}

/// Check a `--shards` value or a job spec's `shards` field. `--threads`
/// sets the lanes of the one group walk; `seq`, `auto` and `1` all name
/// that walk and stay accepted so that existing command lines and job
/// specs keep working. Any other value is refused before anything is
/// walked: the set-sharded engine it asked for was removed.
pub fn check_shards(spec: &str) -> Result<(), String> {
    match spec {
        "seq" | "auto" | "1" => Ok(()),
        other => Err(format!(
            "--shards {other} is not available: the set-sharded engine was removed (use --threads)"
        )),
    }
}

/// Where a grid point's reference stream comes from. Both sources feed
/// the same group walk, so their counters are bit-identical.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Source {
    /// A run of the workload's kernel at the scale's class.
    Live(WorkloadKind),
    /// A decode of the trace at `path`, recorded from `kind`. The memo
    /// keys a trace run by path, so the file must not change while a
    /// [`SimCache`] holding its runs is alive.
    Trace {
        /// The workload the trace records.
        kind: WorkloadKind,
        /// The trace file.
        path: Arc<Path>,
    },
}

impl Source {
    /// The trace at `path`, with the workload its header records.
    pub fn trace(path: &Path) -> Result<Source, String> {
        let reader = TraceReader::open(path).map_err(|e| e.to_string())?;
        let name = &reader.header().workload;
        let kind = WorkloadKind::parse(name).ok_or_else(|| {
            if name.is_empty() {
                "trace has no recorded workload name (anonymous stream)".to_string()
            } else {
                format!("trace records unknown workload '{name}'")
            }
        })?;
        Ok(Source::Trace {
            kind,
            path: Arc::from(path),
        })
    }

    /// The workload whose stream this is.
    pub fn kind(&self) -> WorkloadKind {
        match self {
            Source::Live(kind) | Source::Trace { kind, .. } => *kind,
        }
    }
}

impl From<WorkloadKind> for Source {
    fn from(kind: WorkloadKind) -> Self {
        Source::Live(kind)
    }
}

/// Build the cache stack of a `structure` at `scale` (L1/L2/L3, plus the
/// added sectored page-cache level for [`Structure::WithL4`]).
///
/// Shared between the live simulation path and the trace-replay path
/// (`crate::replay`): both must walk references through byte-identical
/// geometry for their stats to agree.
pub fn build_caches(scale: &Scale, structure: &Structure) -> Vec<Cache> {
    let mut caches = vec![
        Cache::new(CacheConfig::new(
            "L1",
            scale.l1_bytes,
            scale.line_bytes,
            scale.l1_ways,
        )),
        Cache::new(CacheConfig::new(
            "L2",
            scale.l2_bytes,
            scale.line_bytes,
            scale.l2_ways,
        )),
        Cache::new(CacheConfig::new(
            "L3",
            scale.l3_bytes,
            scale.line_bytes,
            scale.l3_ways,
        )),
    ];
    if let Structure::WithL4 {
        capacity_bytes,
        page_bytes,
    } = structure
    {
        let mut ways = scale.l4_ways;
        // keep the set count a power of two for small scaled capacities
        while ways > 1
            && !(capacity_bytes / (u64::from(*page_bytes) * u64::from(ways))).is_power_of_two()
        {
            ways /= 2;
        }
        let cap = capacity_bytes - capacity_bytes % (u64::from(*page_bytes) * u64::from(ways));
        let mut cfg = CacheConfig::new(
            "L4",
            cap.max(u64::from(*page_bytes) * u64::from(ways)),
            *page_bytes,
            ways,
        );
        // pages write back at line granularity: the paper's simulator
        // tracks dirty cache *lines*, and those are what reach memory
        if *page_bytes > scale.line_bytes {
            cfg = cfg.with_sectors(scale.line_bytes);
        }
        caches.push(Cache::new(cfg));
    }
    caches
}

/// Publish one level's final statistics into the global observability
/// registry as `{prefix}.{level}.{field}` counters. For cache levels this
/// overwrites the epoch-published values with the identical finals; for
/// the terminal memory it is the only publication. The export's per-level
/// counters are therefore bit-identical to the [`LevelStats`] in the
/// final report.
fn publish_final_stats(prefix: &str, stats: &LevelStats) {
    let reg = memsim_obs::global();
    let store = |field: &str, v: u64| {
        reg.counter(&format!("{prefix}.{}.{field}", stats.name))
            .store(v);
    };
    store("loads", stats.loads);
    store("stores", stats.stores);
    store("load_hits", stats.load_hits);
    store("load_misses", stats.load_misses);
    store("store_hits", stats.store_hits);
    store("store_misses", stats.store_misses);
    store("writebacks_out", stats.writebacks_out);
    store("fills", stats.fills);
    store("bytes_loaded", stats.bytes_loaded);
    store("bytes_stored", stats.bytes_stored);
}

/// Some structures of one source, walked together from one stream at one
/// scale.
pub(crate) struct Group<'a> {
    pub(crate) source: &'a Source,
    pub(crate) scale: &'a Scale,
    pub(crate) structures: &'a [Structure],
    /// At most this many lane threads walk the structures.
    pub(crate) lanes: usize,
}

impl Group<'_> {
    /// Every structure failed with `message`.
    fn fail(&self, message: String) -> Vec<Result<RawRun, String>> {
        vec![Err(message); self.structures.len()]
    }

    /// Walk one reference stream through every structure at once: the
    /// scale's L1–L3, which every structure shares, form the group's one
    /// prefix; each structure's levels below them (its L4, if any) and its
    /// terminal form its suffix (a structure whose caches cannot be built
    /// fails alone). `stream` feeds them all through one
    /// [`GroupWalk::group`] over at most `lanes` lane threads
    /// (`memsim-walk-{W}-{i}`), and each hierarchy is drained into a
    /// [`RawRun`]: its finals, published under `sim.{W}.{structure}` or
    /// `replay.{structure}`, or with a `plan` the unpublished
    /// extrapolation of its snapshots at the stream's marks, in
    /// `structures` order.
    fn walk_stream(
        &self,
        regions: &[Region],
        plan: Option<&SamplePlan>,
        stream: impl FnOnce(&mut GroupWalk<PartitionedMemory>),
    ) -> Vec<Result<RawRun, String>> {
        let name = self.source.kind().name();
        let base = match self.source {
            Source::Live(_) => format!("sim.{name}"),
            Source::Trace { .. } => "replay".to_string(),
        };
        let publish = memsim_obs::enabled() && plan.is_none();
        let prefixes: Vec<Option<String>> = self
            .structures
            .iter()
            .map(|st| publish.then(|| format!("{base}.{}", st.obs_label())))
            .collect();
        let shared = match panic::catch_unwind(|| build_caches(self.scale, &Structure::ThreeLevel))
        {
            Ok(levels) => levels,
            Err(payload) => return self.fail(panic_text(&payload)),
        };
        let mut errors: Vec<Option<String>> = Vec::with_capacity(self.structures.len());
        let mut walks: Vec<Walk<PartitionedMemory>> = Vec::with_capacity(self.structures.len());
        for (st, prefix) in self.structures.iter().zip(&prefixes) {
            match panic::catch_unwind(|| build_caches(self.scale, st)) {
                Ok(mut levels) => {
                    // the terminal collects per-region traffic for every
                    // structure; the aggregate equals a flat memory's
                    // counters because everything is placed on the DRAM side
                    walks.push(Walk {
                        levels: levels.split_off(shared.len()),
                        memory: PartitionedMemory::new(regions, Technology::Pcm),
                        obs_prefix: prefix.clone(),
                        span: format!("walk.{}", st.obs_label()),
                    });
                    errors.push(None);
                }
                Err(payload) => errors.push(Some(panic_text(&payload))),
            }
        }
        let mut runs = if walks.is_empty() {
            Vec::new().into_iter()
        } else {
            let lane_name = format!("memsim-walk-{name}-");
            let mut sink = GroupWalk::group(shared, walks, self.lanes, &lane_name);
            {
                let _s = memsim_obs::span!("simulate");
                stream(&mut sink);
            }
            let _s = memsim_obs::span!("drain");
            sink.finish_all().into_iter()
        };
        errors
            .into_iter()
            .zip(&prefixes)
            .map(|(error, prefix)| {
                if let Some(message) = error {
                    return Err(message);
                }
                let run = runs.next().expect("one run per built hierarchy");
                let run = run.map_err(|payload| panic_text(&payload))?;
                if let Some(plan) = plan {
                    return crate::sampling::extrapolate(plan, &run, regions);
                }
                let mut mem = run.memory.dram_stats().clone();
                mem.name = MEM_NAME.to_string();
                if let Some(prefix) = prefix {
                    for stats in run.levels.iter().chain([&mem]) {
                        publish_final_stats(prefix, stats);
                    }
                }
                let per_region = run.memory.traffic().to_vec();
                Ok(RawRun::new(
                    run.levels,
                    mem,
                    per_region,
                    run.total_refs,
                    regions,
                    None,
                ))
            })
            .collect()
    }

    /// Walk every structure from a single run of `kind`, the live source:
    /// one build, one run streamed into every hierarchy, one verify. A
    /// failed verification fails every structure of the run.
    fn walk_live(&self, kind: WorkloadKind) -> Vec<Result<RawRun, String>> {
        let mut workload = {
            let _s = memsim_obs::span!("generate");
            kind.build(self.scale.class)
        };
        if memsim_obs::enabled() {
            memsim_obs::global().counter("sim.workload_runs").inc();
        }
        let regions = workload.space().regions().to_vec();
        let mut runs = self.walk_stream(&regions, None, |sink| workload.run(sink));
        if runs.iter().all(Result::is_err) {
            // nothing was walked (no hierarchy could be built), so there is
            // no run to verify
            return runs;
        }
        let verified = {
            let _s = memsim_obs::span!("verify");
            workload.verify()
        };
        if let Err(e) = verified {
            let message = format!("{} failed self-verification: {e}", workload.name());
            runs.iter_mut().for_each(|r| *r = Err(message.clone()));
        }
        runs
    }

    /// Walk every structure from one decode of the trace at `path`: all of
    /// it, or with a `plan` only its sampled windows. A decode error (CRC
    /// mismatch, truncation) fails every structure with the reader's
    /// message. With observability on, each structure a full decode walked
    /// carries the reader's totals for the whole file in its
    /// `replay.{structure}.reader.*` counters.
    pub(crate) fn walk_trace(
        &self,
        path: &Path,
        plan: Option<&SamplePlan>,
    ) -> Vec<Result<RawRun, String>> {
        let total = (memsim_obs::enabled() && plan.is_none())
            .then(|| std::fs::File::open(path).ok())
            .flatten()
            .and_then(|mut f| footer_total(&mut f));
        if let Some(total) = total {
            // the group's one prefix counts each event into
            // `progress.events` once, so the footer's total gives
            // `--progress` an ETA although the group's structures all
            // finish at once
            let reg = memsim_obs::global();
            let counted = reg.counter("progress.events").get();
            reg.gauge("progress.total").set(counted + total);
        }
        let decoded = TraceReader::open(path).and_then(|mut reader| {
            let regions = reader.header().regions.clone();
            let mut delivered = Ok(());
            let runs = self.walk_stream(&regions, plan, |sink| {
                delivered = match plan {
                    None => replay_into(&mut reader, sink).map(drop),
                    Some(plan) => feed_windows(&mut reader, plan, &mut |window| match window {
                        Window::Events(events) => sink.access_chunk(events),
                        Window::Mark => sink.mark(),
                    }),
                };
            });
            delivered.map(|()| (runs, reader))
        });
        let (runs, reader) = match decoded {
            Ok(walked) => walked,
            Err(e) if plan.is_some() => {
                return self.fail(format!("sampled replay of {}: {e}", path.display()))
            }
            Err(e) => return self.fail(e.to_string()),
        };
        if memsim_obs::enabled() && plan.is_none() {
            // trace-health counters: every chunk that reached the sinks
            // passed its CRC check
            let reg = memsim_obs::global();
            for (st, _) in self.structures.iter().zip(&runs).filter(|(_, r)| r.is_ok()) {
                let prefix = format!("replay.{}.reader", st.obs_label());
                let store =
                    |field: &str, v: u64| reg.counter(&format!("{prefix}.{field}")).store(v);
                store("chunks", reader.chunks_read());
                store("crc_verified_chunks", reader.crc_verified_chunks());
                store("payload_bytes", reader.payload_bytes());
            }
        }
        runs
    }

    /// Walk every structure interval-sampled from one decode of the
    /// plan's windows (see [`crate::sampling`]): of a trace source's file,
    /// or of a live source's recording in the process-wide trace store.
    /// The plan is built over the group's lanes and memoized. A failed
    /// recording or plan fails every structure.
    fn walk_sampled(&self, spec: SampleSpec) -> Vec<Result<RawRun, String>> {
        let planned = || -> Result<_, String> {
            let path = match self.source {
                Source::Live(kind) => crate::sampling::trace_store()?.ensure(*kind, self.scale)?,
                Source::Trace { path, .. } => path.to_path_buf(),
            };
            Ok((crate::sampling::plan_for(&path, spec, self.lanes)?, path))
        };
        match planned() {
            Ok((plan, path)) => self.walk_trace(&path, Some(&plan)),
            Err(message) => self.fail(message),
        }
    }
}

/// Walk `source` through `structures` from one stream, over at most
/// `lanes` lanes: every event at full fidelity, or the windows of an
/// interval plan when sampled. Results are in `structures` order; a
/// failure is the message of whatever stopped that structure, and a panic
/// in the kernel or the source fails every structure of the group.
fn walk(
    source: &Source,
    scale: &Scale,
    structures: &[Structure],
    sample: SampleMode,
    lanes: usize,
) -> Vec<Result<RawRun, String>> {
    let mut span = memsim_obs::span!("grid.walk.{}", source.kind().name());
    let group = Group {
        source,
        scale,
        structures,
        lanes,
    };
    let runs = panic::catch_unwind(AssertUnwindSafe(|| match (sample, source) {
        (SampleMode::On(spec), _) => group.walk_sampled(spec),
        (SampleMode::Off, Source::Live(kind)) => group.walk_live(*kind),
        (SampleMode::Off, Source::Trace { path, .. }) => group.walk_trace(path, None),
    }))
    .unwrap_or_else(|payload| group.fail(panic_text(&payload)));
    if let Some(Ok(run)) = runs.iter().find(|r| r.is_ok()) {
        span.add_events(run.total_refs);
    }
    runs
}

/// Simulate `source` (a workload at `scale.class`, or a trace of one)
/// through `structure`, every event or, with `sample` on, the windows of
/// an interval plan. This is the expensive step: every memory reference
/// of the workload walks the hierarchy. This is a one-structure group
/// walk on one lane.
///
/// Panics on a failed walk (a failed workload, an unreadable or corrupt
/// trace) — grid workers turn those into [`FailedPoint`]s.
pub fn simulate_structure(
    source: impl Into<Source>,
    scale: &Scale,
    structure: &Structure,
    sample: SampleMode,
) -> RawRun {
    let structures = std::slice::from_ref(structure);
    let mut runs = walk(&source.into(), scale, structures, sample, 1);
    runs.pop()
        .expect("one run per structure")
        .unwrap_or_else(|e| panic!("{e}"))
}

type SimKey = (Source, Scale, Structure, SampleMode);

/// One memo entry: in flight while its claimant walks, then the run — or
/// released, after a failed or abandoned walk, so that waiters retry.
#[derive(Default)]
struct Cell {
    state: Mutex<CellState>,
    settled: Condvar,
}

#[derive(Default)]
enum CellState {
    #[default]
    Walking,
    Done(Arc<RawRun>),
    Released,
}

impl Cell {
    fn settle(&self, state: CellState) {
        *self.state.lock().expect("memo cell poisoned") = state;
        self.settled.notify_all();
    }

    /// The run, blocking while the claimant walks when `block` is set;
    /// `None` once the cell was released (or, without `block`, while it is
    /// still in flight).
    fn get(&self, block: bool) -> Option<Arc<RawRun>> {
        let mut state = self.state.lock().expect("memo cell poisoned");
        loop {
            match &*state {
                CellState::Done(run) => return Some(Arc::clone(run)),
                CellState::Walking if block => {
                    state = self.settled.wait(state).expect("memo cell poisoned");
                }
                _ => return None,
            }
        }
    }
}

/// A memo request for some of one source's structures, made under one
/// lock: every requested structure with its cell, and whether this
/// request owns (must walk) it.
struct Claim {
    source: Source,
    scale: Scale,
    sample: SampleMode,
    entries: Vec<(Structure, Arc<Cell>, bool)>,
}

impl Claim {
    fn key(&self, structure: Structure) -> SimKey {
        (self.source.clone(), self.scale, structure, self.sample)
    }

    /// The structures this request must walk, with their cells.
    fn owned(&self) -> impl Iterator<Item = (Structure, &Arc<Cell>)> {
        self.entries
            .iter()
            .filter(|(_, _, owned)| *owned)
            .map(|(st, cell, _)| (*st, cell))
    }
}

/// A requested structure's run (or why it has none), and whether this
/// request walked it rather than being served another request's walk.
#[derive(Debug)]
struct Fetched {
    structure: Structure,
    run: Result<Arc<RawRun>, String>,
    walked: bool,
}

/// Count one point served from the memo: a miss when its request walked
/// the structure for it, a hit otherwise.
fn count_memo(walked: bool) {
    if memsim_obs::enabled() {
        let field = if walked { "misses" } else { "hits" };
        memsim_obs::global()
            .counter(&format!("sim.memo.{field}"))
            .inc();
    }
}

/// A concurrency-safe memo of structure walks.
///
/// A request claims, under the map lock, every absent key of its group by
/// inserting an in-flight cell, then walks all its claims from one
/// stream of their source; keys already present are served, or awaited
/// while their claimant walks. Concurrent requesters therefore walk each distinct
/// structure exactly once, and the map lock is never held across a walk.
/// A failed walk releases its cells (they leave the map and their waiters
/// wake), so a later request retries instead of blocking.
///
/// With observability on, every point costed from the memo counts once in
/// `sim.memo.misses` (the first point of a structure its own request
/// walked) or `sim.memo.hits` (every other point): a point served a run
/// another request walked, or is walking, is a hit because the overlap
/// was walked once — the property the server's job coalescing asserts.
///
/// The key names the [`Source`]: a trace run is keyed by its path, which
/// assumes the file does not change while the memo lives (the trace
/// store's files are content-addressed, so this holds for them). It
/// *includes* the sampling mode, because a sampled run's extrapolated
/// counters are not the full run's counters and must never be served in
/// its place.
#[derive(Default)]
pub struct SimCache {
    map: Mutex<HashMap<SimKey, Arc<Cell>>>,
}

impl SimCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fetch or simulate one structure of a live run of `kind`: a
    /// one-structure group, walked on one lane. Panics when the walk fails;
    /// otherwise counts one memo hit or miss.
    pub fn get(
        &self,
        kind: WorkloadKind,
        scale: &Scale,
        structure: &Structure,
        sample: SampleMode,
    ) -> Arc<RawRun> {
        let structures = std::slice::from_ref(structure);
        let source = Source::Live(kind);
        let mut runs = self.fetch(&source, scale, structures, sample, 1);
        let fetched = runs.pop().expect("a fetch yields every structure");
        let run = fetched.run.unwrap_or_else(|e| panic!("{e}"));
        count_memo(fetched.walked);
        run
    }

    /// Fetch or walk every structure in `structures`: the absent ones are
    /// claimed under one lock and walked from one stream of `source` over
    /// at most `lanes` lanes, the others served or awaited. Results are in
    /// `structures` order.
    fn fetch(
        &self,
        source: &Source,
        scale: &Scale,
        structures: &[Structure],
        sample: SampleMode,
        lanes: usize,
    ) -> Vec<Fetched> {
        let claim = self.claim(source, scale, sample, structures);
        let walked = self.walk_claim(&claim, lanes);
        self.collect(&claim, walked, lanes, false)
    }

    /// Claim every absent key among `structures` under one lock.
    fn claim(
        &self,
        source: &Source,
        scale: &Scale,
        sample: SampleMode,
        structures: &[Structure],
    ) -> Claim {
        let mut claim = Claim {
            source: source.clone(),
            scale: *scale,
            sample,
            entries: Vec::with_capacity(structures.len()),
        };
        let mut map = self.map.lock().expect("sim cache poisoned");
        for st in structures {
            let entry = match map.get(&claim.key(*st)) {
                Some(cell) => (*st, Arc::clone(cell), false),
                None => {
                    let cell = Arc::new(Cell::default());
                    map.insert(claim.key(*st), Arc::clone(&cell));
                    (*st, cell, true)
                }
            };
            claim.entries.push(entry);
        }
        claim
    }

    /// Walk the structures `claim` owns from one stream and settle
    /// their cells: a walked run fills its cell, a failed walk releases it.
    /// Returns the owned structures' outcomes.
    fn walk_claim(&self, claim: &Claim, lanes: usize) -> Vec<Fetched> {
        let owned: Vec<Structure> = claim.owned().map(|(st, _)| st).collect();
        if owned.is_empty() {
            return Vec::new();
        }
        let runs = walk(&claim.source, &claim.scale, &owned, claim.sample, lanes);
        claim
            .owned()
            .zip(runs)
            .map(|((structure, cell), run)| {
                let run = run.map(Arc::new);
                match &run {
                    Ok(run) => cell.settle(CellState::Done(Arc::clone(run))),
                    Err(_) => self.release_cell(claim.key(structure), cell),
                }
                Fetched {
                    structure,
                    run,
                    walked: true,
                }
            })
            .collect()
    }

    /// Release every cell `claim` owns without walking it (an interrupted
    /// grid), so waiting requests retry instead of blocking.
    fn release(&self, claim: &Claim) {
        for (st, cell) in claim.owned() {
            self.release_cell(claim.key(st), cell);
        }
    }

    fn release_cell(&self, key: SimKey, cell: &Arc<Cell>) {
        {
            let mut map = self.map.lock().expect("sim cache poisoned");
            if map.get(&key).is_some_and(|c| Arc::ptr_eq(c, cell)) {
                map.remove(&key);
            }
        }
        cell.settle(CellState::Released);
    }

    /// Every requested structure's outcome, in request order: owned ones
    /// from `walked`, the others from their cells. A structure released by
    /// its claimant is claimed again and walked here (all such structures
    /// from one run). With `interrupted` set, nothing new is walked or
    /// awaited: structures not already walked are left out.
    fn collect(
        &self,
        claim: &Claim,
        mut walked: Vec<Fetched>,
        lanes: usize,
        interrupted: bool,
    ) -> Vec<Fetched> {
        let mut out: Vec<Option<Fetched>> = Vec::new();
        let mut released = Vec::new();
        for (st, cell, owned) in &claim.entries {
            let fetched = if *owned {
                walked
                    .iter()
                    .position(|f| f.structure == *st)
                    .map(|i| walked.swap_remove(i))
            } else {
                let run = cell.get(!interrupted);
                if run.is_none() && !interrupted {
                    released.push(*st);
                }
                run.map(|run| Fetched {
                    structure: *st,
                    run: Ok(run),
                    walked: false,
                })
            };
            out.push(fetched);
        }
        if !released.is_empty() {
            for fetched in self.fetch(&claim.source, &claim.scale, &released, claim.sample, lanes) {
                let i = claim
                    .entries
                    .iter()
                    .position(|(s, _, _)| *s == fetched.structure)
                    .expect("retried structure was requested");
                out[i] = Some(fetched);
            }
        }
        out.into_iter().flatten().collect()
    }

    /// Number of memoized runs (including any still simulating).
    pub fn len(&self) -> usize {
        self.map.lock().expect("sim cache poisoned").len()
    }

    /// Whether the memo is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One evaluated (workload, design) point.
#[derive(Debug, Clone)]
pub struct EvalResult {
    /// The design evaluated.
    pub design: Design,
    /// The workload it ran.
    pub workload: WorkloadKind,
    /// Modeled metrics (Eq. 1–4).
    pub metrics: Metrics,
    /// The underlying simulation.
    pub run: Arc<RawRun>,
    /// NDM only: the oracle's chosen region placement.
    pub placement: Option<Vec<Placement>>,
    /// Sampled runs only: per-metric relative confidence-interval
    /// halfwidths of `metrics` (absent for NDM, whose per-placement
    /// costing has no single cost vector to spread the clusters over).
    pub sample_ci: Option<crate::sampling::SampleCi>,
}

/// Cost a design analytically against an already-simulated (or replayed)
/// run of its structure. This is the cheap step: no reference walks, only
/// the Eq. 1–4 models (and, for NDM, the oracle partitioner).
pub fn evaluate_run(
    kind: WorkloadKind,
    scale: &Scale,
    design: &Design,
    run: Arc<RawRun>,
) -> EvalResult {
    match design {
        Design::Ndm { nvm } => {
            let choice = partition::oracle(&run, *nvm, scale);
            EvalResult {
                design: *design,
                workload: kind,
                metrics: choice.metrics,
                run,
                placement: Some(choice.placement),
                sample_ci: None,
            }
        }
        _ => {
            let costs = design.costing(scale, &run);
            let stats = run.all_levels();
            let pairs: Vec<_> = stats.into_iter().zip(costs.iter()).collect();
            let metrics = Metrics::compute(&pairs, run.total_refs);
            let sample_ci = crate::sampling::sample_ci(&run, &costs);
            EvalResult {
                design: *design,
                workload: kind,
                metrics,
                run,
                placement: None,
                sample_ci,
            }
        }
    }
}

/// Evaluate one design point, memoizing the (full or sampled) simulation
/// in `cache`.
pub fn evaluate_cached(
    kind: WorkloadKind,
    scale: &Scale,
    design: &Design,
    cache: &SimCache,
    sample: SampleMode,
) -> EvalResult {
    design.validate().expect("invalid design");
    let run = cache.get(kind, scale, &design.structure(scale), sample);
    evaluate_run(kind, scale, design, run)
}

/// Identity and cause of a grid point that did not produce a result.
#[derive(Debug, Clone)]
pub struct FailedPoint {
    /// The workload of the failed point.
    pub workload: WorkloadKind,
    /// The design of the failed point.
    pub design: Design,
    /// The panic payload (or walk error) that killed it.
    pub message: String,
}

impl std::fmt::Display for FailedPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} × {}: {}",
            self.workload.name(),
            self.design.label(),
            self.message
        )
    }
}

/// Why a sweep-level entry point (a table/figure builder) could not
/// produce its artifact.
#[derive(Debug)]
pub enum SweepError {
    /// An armed interrupt flag stopped the run before every point
    /// completed; the journal holds everything that finished.
    Interrupted,
    /// One or more points panicked. Every other point completed (and was
    /// journaled, when journaling was on).
    Failed(Vec<FailedPoint>),
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Interrupted => write!(f, "sweep interrupted"),
            SweepError::Failed(points) => {
                write!(f, "{} sweep point(s) failed:", points.len())?;
                for p in points {
                    write!(f, "\n  {p}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for SweepError {}

/// Everything a fault-isolated grid run produced: per-point results
/// (aligned with the input points, `None` where the point failed or was
/// never claimed before an interrupt), the failures, and how the run ended.
#[derive(Debug)]
pub struct GridOutcome {
    /// One slot per input point, in input order.
    pub results: Vec<Option<EvalResult>>,
    /// Points that panicked, with their payloads.
    pub failures: Vec<FailedPoint>,
    /// Points served from the sweep journal instead of simulation.
    pub skipped: usize,
    /// True when an armed interrupt flag stopped the run before every
    /// point was claimed.
    pub interrupted: bool,
}

impl GridOutcome {
    /// The completed results in input order, dropping failed/unclaimed
    /// slots.
    pub fn completed(self) -> Vec<EvalResult> {
        self.results.into_iter().flatten().collect()
    }

    /// Lift the outcome into a `Result` for an artifact builder: an
    /// interrupt wins over failures (the journal already holds both kinds
    /// of entry), and failures abort the artifact while every surviving
    /// point stays journaled for the next attempt. On success the results
    /// are in input order.
    pub fn into_result(self) -> Result<Vec<EvalResult>, SweepError> {
        if self.interrupted {
            return Err(SweepError::Interrupted);
        }
        if !self.failures.is_empty() {
            return Err(SweepError::Failed(self.failures));
        }
        Ok(self
            .results
            .into_iter()
            .map(|slot| slot.expect("missing result"))
            .collect())
    }
}

/// Evaluate a grid of points in parallel over `threads` workers (defaults
/// to the available parallelism when `None`), sharing one simulation memo,
/// with `sample` choosing each structure walk's sampling mode.
///
/// Two phases (see the module docs): every structure the grid's
/// unjournaled, valid points need is walked first, one stream per source
/// (a kernel run, or one decode of a trace), over `threads` lanes; then
/// every point is costed from those runs.
///
/// Fault-isolated: a point whose walk or costing fails is recorded as a
/// [`FailedPoint`] (and journaled, when a sweep context is given and the
/// point is live), and the remaining points still run to completion. With
/// a sweep context, journaled live points are served from the journal and
/// fresh completions are appended as they land; an armed interrupt flag
/// stops new groups from starting while the groups in flight finish and
/// journal their points. Callers that treat a failed point as a bug lift
/// the outcome with [`GridOutcome::into_result`].
pub fn evaluate_grid_sweep(
    points: &[(Source, Design)],
    scale: &Scale,
    cache: &SimCache,
    threads: Option<usize>,
    sweep: Option<&SweepCtx>,
    sample: SampleMode,
) -> GridOutcome {
    let threads = threads
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        })
        .max(1);
    let runs = walk_grid(points, scale, cache, threads, sweep, sample);

    // Each point gets its own result slot, and worker `w` costs every
    // `workers`-th point from `w`: publishing a result is a lock-free
    // single-writer `OnceLock::set` instead of a contended mutex around
    // the whole vector, and the fixed assignment puts each point on the
    // same timeline lane in every run (costing is cheap next to the
    // walks, so a shared work counter would balance nothing worth its
    // nondeterminism). A point whose structure was never walked (an
    // interrupt) keeps an empty slot.
    let slots: Vec<OnceLock<Result<EvalResult, FailedPoint>>> =
        (0..points.len()).map(|_| OnceLock::new()).collect();
    let workers = threads.min(points.len());
    std::thread::scope(|s| {
        for w in 0..workers {
            let (slots, runs) = (&slots, &runs);
            let worker = move || {
                for i in (w..points.len()).step_by(workers) {
                    let (source, design) = &points[i];
                    // One recorder span per sweep point so the timeline
                    // shows which worker costed which (workload, design)
                    // pair, when.
                    let _point_span =
                        memsim_obs::span!("grid.point.{}.{}", source.kind().name(), design.label());
                    let journal = journal_of(source, sweep);
                    if let Some(outcome) = cost_point(source, design, scale, journal, runs) {
                        slots[i].set(outcome).expect("result slot written twice");
                    }
                }
            };
            // Named so each worker gets a stable flight-recorder lane
            // ("memsim-sweep0", ...) in `--trace-out` timelines.
            std::thread::Builder::new()
                .name(format!("memsim-sweep{w}"))
                .spawn_scoped(s, worker)
                .expect("spawn sweep worker");
        }
    });
    let mut results = Vec::with_capacity(points.len());
    let mut failures = Vec::new();
    let mut unclaimed = 0usize;
    let mut skipped = 0usize;
    for (slot, (source, _)) in slots.into_iter().zip(points) {
        match slot.into_inner() {
            None => {
                unclaimed += 1;
                results.push(None);
            }
            Some(Ok(r)) => {
                if journal_of(source, sweep)
                    .is_some_and(|ctx| ctx.was_skipped(r.workload, &r.design))
                {
                    skipped += 1;
                }
                results.push(Some(r));
            }
            Some(Err(failed)) => {
                failures.push(failed);
                results.push(None);
            }
        }
    }
    let cis: Vec<crate::sampling::SampleCi> = results
        .iter()
        .flatten()
        .filter_map(|r| r.sample_ci)
        .collect();
    crate::sampling::publish_ci_summary(&cis);
    GridOutcome {
        results,
        failures,
        skipped,
        interrupted: unclaimed > 0 && sweep.is_some_and(|ctx| ctx.interrupted()),
    }
}

/// The sweep journal a point uses: the grid's, for a live point. A trace
/// point is never looked up in or recorded to a journal, whose lines name
/// only workloads.
fn journal_of<'a>(source: &Source, sweep: Option<&'a SweepCtx>) -> Option<&'a SweepCtx> {
    sweep.filter(|_| matches!(source, Source::Live(_)))
}

/// A structure's outcome from phase 1, as phase 2 costs it.
struct Walked {
    run: Result<Arc<RawRun>, String>,
    /// Set while the memo miss of a walk this grid made is still to be
    /// counted: the first point costed from the run takes it, the rest
    /// count as hits.
    miss: AtomicBool,
}

type WalkedRuns = HashMap<(Source, Structure), Walked>;

/// Phase 1 of a grid: walk every structure the unjournaled, valid points
/// need, grouped by source, over a budget of `threads` lanes, and return
/// each structure's run (or why it has none).
///
/// A group owning at least `threads` structures takes every lane, one
/// group at a time. Smaller groups run side by side and share the lanes:
/// up to `threads` groups at once, each with `threads / in_flight` lanes.
/// So a grid of many one-structure groups (Table 4 built alone) overlaps
/// workloads as far as `threads` allows, and a grid of a few small groups
/// still gets every lane. (Running every group side by side instead — one
/// lane each at `--threads 2` — made a three-workload mini reproduce about
/// 11% faster but raised its peak RSS by 44%, two kernels' data at once.
/// That was measured when a reproduce ran one grid per artifact, and
/// Table 4's one-structure groups ran side by side; a reproduce now walks
/// each workload's 18 structures as one group
/// ([`crate::artifacts::walk_artifacts`]) and has no such groups.)
/// Once interrupted, no further group starts; structures left unwalked
/// are absent from the map.
///
/// With observability on, `progress.shards_done` counts the structures
/// walked, and `progress.shards_total` is that count plus the structures
/// this grid has still to walk (the counter accumulates over a process's
/// grids).
fn walk_grid(
    points: &[(Source, Design)],
    scale: &Scale,
    cache: &SimCache,
    threads: usize,
    sweep: Option<&SweepCtx>,
    sample: SampleMode,
) -> WalkedRuns {
    let interrupted = || sweep.is_some_and(|ctx| ctx.interrupted());
    let mut groups: Vec<(&Source, Vec<Structure>)> = Vec::new();
    for (source, design) in points {
        let journal = journal_of(source, sweep);
        if design.validate().is_err()
            || journal.is_some_and(|ctx| ctx.lookup(source.kind(), design).is_some())
        {
            continue;
        }
        let st = design.structure(scale);
        match groups.iter_mut().find(|(s, _)| *s == source) {
            Some((_, sts)) if sts.contains(&st) => {}
            Some((_, sts)) => sts.push(st),
            None => groups.push((source, vec![st])),
        }
    }
    let claims: Vec<Claim> = groups
        .iter()
        .map(|(source, sts)| cache.claim(source, scale, sample, sts))
        .collect();
    let progress = memsim_obs::enabled().then(|| {
        let reg = memsim_obs::global();
        let done = reg.counter("progress.shards_done");
        let owned = claims.iter().map(|c| c.owned().count()).sum::<usize>();
        reg.gauge("progress.shards_total")
            .set(done.get() + owned as u64);
        done
    });
    let walked: Vec<OnceLock<Vec<Fetched>>> = claims.iter().map(|_| OnceLock::new()).collect();
    let walk_one = |i: usize, lanes: usize| {
        if interrupted() {
            cache.release(&claims[i]);
        } else {
            let runs = cache.walk_claim(&claims[i], lanes);
            if let Some(done) = &progress {
                done.add(runs.len() as u64);
            }
            walked[i].set(runs).expect("group walked twice");
        }
    };
    let (big, small): (Vec<usize>, Vec<usize>) = (0..claims.len())
        .filter(|&i| claims[i].owned().next().is_some())
        .partition(|&i| claims[i].owned().count() >= threads);
    for &i in &big {
        walk_one(i, threads);
    }
    let in_flight = threads.min(small.len());
    let lanes = threads / in_flight.max(1);
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for w in 0..in_flight {
            let worker = || loop {
                let j = next.fetch_add(1, Ordering::Relaxed);
                let Some(&i) = small.get(j) else {
                    break;
                };
                walk_one(i, lanes);
            };
            std::thread::Builder::new()
                .name(format!("memsim-sweep{w}"))
                .spawn_scoped(s, worker)
                .expect("spawn sweep worker");
        }
    });
    let mut runs = HashMap::new();
    for (claim, walked) in claims.iter().zip(walked) {
        let walked = walked.into_inner().unwrap_or_default();
        for f in cache.collect(claim, walked, threads, interrupted()) {
            let run = Walked {
                run: f.run,
                miss: AtomicBool::new(f.walked),
            };
            runs.insert((claim.source.clone(), f.structure), run);
        }
    }
    runs
}

/// Phase 2 for one point: serve it from the journal, or cost it from its
/// structure's walked run and journal it. `None` when its structure was
/// never walked (an interrupt). A point whose walk or costing failed is
/// journaled as failed and returned as a [`FailedPoint`].
fn cost_point(
    source: &Source,
    design: &Design,
    scale: &Scale,
    journal: Option<&SweepCtx>,
    runs: &WalkedRuns,
) -> Option<Result<EvalResult, FailedPoint>> {
    let kind = source.kind();
    if let Some(hit) = journal.and_then(|ctx| ctx.lookup(kind, design)) {
        return Some(Ok(hit));
    }
    let costed = match design.validate() {
        Err(e) => Err(format!("invalid design: {e:?}")),
        Ok(()) => {
            let walked = runs.get(&(source.clone(), design.structure(scale)))?;
            walked.run.clone().and_then(|run| {
                count_memo(walked.miss.swap(false, Ordering::Relaxed));
                // Catch the panic *inside* the worker: letting it unwind
                // through `thread::scope` would re-raise on join and drop
                // every completed slot with it.
                panic::catch_unwind(AssertUnwindSafe(|| evaluate_run(kind, scale, design, run)))
                    .map_err(|payload| panic_text(&payload))
            })
        }
    };
    Some(match costed {
        Ok(r) => {
            if let Some(ctx) = journal {
                ctx.record(&r);
            }
            Ok(r)
        }
        Err(message) => {
            if let Some(ctx) = journal {
                ctx.record_failure(kind, design, &message);
            }
            Err(FailedPoint {
                workload: kind,
                design: *design,
                message,
            })
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs::{eh_configs, n_configs};

    fn scale() -> Scale {
        Scale::mini()
    }

    const FULL: SampleMode = SampleMode::Off;

    const HASH: Source = Source::Live(WorkloadKind::Hash);

    #[test]
    fn baseline_run_is_consistent() {
        let run = simulate_structure(WorkloadKind::Cg, &scale(), &Structure::ThreeLevel, FULL);
        assert_eq!(run.caches.len(), 3);
        assert!(run.total_refs > 100_000);
        // L1 sees every demand reference (after line splitting)
        assert_eq!(run.caches[0].accesses(), run.total_refs);
        // memory loads equal L3 load misses (store misses bypass on writeback)
        assert_eq!(run.mem.loads, run.caches[2].load_misses);
        // per-region traffic sums to the aggregate
        let sum_loads: u64 = run.per_region.iter().map(|t| t.loads).sum();
        assert_eq!(sum_loads, run.mem.loads);
        let sum_stores: u64 = run.per_region.iter().map(|t| t.stores).sum();
        assert_eq!(sum_stores, run.mem.stores);
    }

    #[test]
    fn l4_structure_adds_level_and_filters() {
        let st = Structure::WithL4 {
            capacity_bytes: 1 << 20,
            page_bytes: 1024,
        };
        let run = simulate_structure(WorkloadKind::Cg, &scale(), &st, FULL);
        assert_eq!(run.caches.len(), 4);
        assert_eq!(run.caches[3].name, "L4");
        // the L4 must filter some traffic: memory loads < L3 load misses
        assert!(run.mem.loads < run.caches[2].load_misses);
        // with 1 KiB pages, memory fills move 1 KiB each
        assert_eq!(run.mem.bytes_loaded, run.mem.loads * 1024);
    }

    #[test]
    fn sim_cache_memoizes() {
        let cache = SimCache::new();
        let a = cache.get(WorkloadKind::Hash, &scale(), &Structure::ThreeLevel, FULL);
        let b = cache.get(WorkloadKind::Hash, &scale(), &Structure::ThreeLevel, FULL);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 1);
    }

    fn l4(page_bytes: u32) -> Structure {
        Structure::WithL4 {
            capacity_bytes: 1 << 20,
            page_bytes,
        }
    }

    fn by_structure(runs: &[Fetched], st: Structure) -> &Fetched {
        runs.iter().find(|f| f.structure == st).expect("requested")
    }

    fn fetched(runs: &[Fetched], st: Structure) -> Arc<RawRun> {
        Arc::clone(by_structure(runs, st).run.as_ref().expect("walked"))
    }

    #[test]
    fn overlapping_concurrent_requests_walk_each_structure_once() {
        let cache = SimCache::new();
        let a = [Structure::ThreeLevel, l4(512), l4(1024)];
        let b = [l4(1024), Structure::ThreeLevel, l4(2048)];
        let barrier = std::sync::Barrier::new(2);
        let fetch = |sts: &[Structure]| {
            barrier.wait();
            cache.fetch(&HASH, &scale(), sts, FULL, 1)
        };
        let (ra, rb) = std::thread::scope(|s| {
            let ha = s.spawn(|| fetch(&a));
            let hb = s.spawn(|| fetch(&b));
            (ha.join().unwrap(), hb.join().unwrap())
        });
        let order = |runs: &[Fetched]| runs.iter().map(|f| f.structure).collect::<Vec<_>>();
        assert_eq!(order(&ra), a);
        assert_eq!(order(&rb), b);
        // one walk per distinct structure: whichever request claimed a
        // shared structure walked it (its memo miss), and the other was
        // handed that run (a hit)
        for st in [Structure::ThreeLevel, l4(1024)] {
            assert!(Arc::ptr_eq(&fetched(&ra, st), &fetched(&rb, st)), "{st:?}");
            assert!(
                by_structure(&ra, st).walked != by_structure(&rb, st).walked,
                "{st:?}"
            );
        }
        assert!(by_structure(&ra, l4(512)).walked && by_structure(&rb, l4(2048)).walked);
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn an_unbuildable_structure_fails_alone_and_releases_its_claim() {
        let cache = SimCache::new();
        // 3000-byte pages fail `CacheConfig::validate` (not a power of two)
        let bad = l4(3000);
        let runs = cache.fetch(&HASH, &scale(), &[Structure::ThreeLevel, bad], FULL, 1);
        let good = fetched(&runs, Structure::ThreeLevel);
        let serial = simulate_structure(WorkloadKind::Hash, &scale(), &Structure::ThreeLevel, FULL);
        assert_eq!(good.caches, serial.caches);
        let err = runs[1].run.as_ref().unwrap_err();
        assert!(err.contains("power of two"), "{err}");
        // the failed claim left the memo, so a later request claims and
        // walks it again instead of blocking on a dead cell
        assert_eq!(cache.len(), 1);
        let again = cache.fetch(&HASH, &scale(), &[bad], FULL, 1);
        assert!(again[0].run.is_err());
        assert_eq!(cache.len(), 1);

        // A request already waiting on the claim when it fails is woken
        // by the release and retries the walk itself, rather than
        // blocking forever on the dead cell.
        let owner = cache.claim(&HASH, &scale(), FULL, &[bad]);
        let waiter = cache.claim(&HASH, &scale(), FULL, &[bad]);
        assert!(waiter.owned().next().is_none(), "the second request waits");
        std::thread::scope(|s| {
            let waiting = s.spawn(|| cache.collect(&waiter, Vec::new(), 1, false));
            assert!(cache.walk_claim(&owner, 1)[0].run.is_err());
            let retried = waiting.join().unwrap();
            let err = retried[0].run.as_ref().unwrap_err();
            assert!(err.contains("power of two"), "{err}");
        });
        assert_eq!(cache.len(), 1);

        // A claim released without a walk (an interrupted grid) wakes its
        // waiter, which walks the structure itself: that request reports
        // the one walk — a memo miss, never also a hit — and a later
        // request is served the run.
        let st = l4(512);
        let owner = cache.claim(&HASH, &scale(), FULL, &[st]);
        let waiter = cache.claim(&HASH, &scale(), FULL, &[st]);
        let retried = std::thread::scope(|s| {
            let waiting = s.spawn(|| cache.collect(&waiter, Vec::new(), 1, false));
            cache.release(&owner);
            waiting.join().unwrap()
        });
        assert_eq!(retried.len(), 1);
        assert!(retried[0].walked, "the retrying request walked it");
        let run = Arc::clone(retried[0].run.as_ref().expect("walked"));
        let later = cache.fetch(&HASH, &scale(), &[st], FULL, 1);
        assert!(!later[0].walked, "served, not walked again");
        assert!(Arc::ptr_eq(&run, later[0].run.as_ref().unwrap()));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn a_fully_journaled_grid_walks_nothing() {
        let dir = std::env::temp_dir().join(format!("memsim-runner-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join(crate::journal::JOURNAL_FILE);
        let points = [
            (HASH, Design::Baseline),
            (
                HASH,
                Design::Nmm {
                    nvm: Technology::Pcm,
                    config: n_configs()[5],
                },
            ),
        ];
        let ctx = crate::journal::SweepCtx::fresh(&scale(), &journal, FULL).unwrap();
        let cache = SimCache::new();
        let fresh = evaluate_grid_sweep(&points, &scale(), &cache, Some(2), Some(&ctx), FULL);
        assert_eq!(fresh.completed().len(), 2);

        let (ctx, _) = crate::journal::SweepCtx::resume(&scale(), &journal, FULL).unwrap();
        let cache = SimCache::new();
        let resumed = evaluate_grid_sweep(&points, &scale(), &cache, Some(2), Some(&ctx), FULL);
        assert_eq!(resumed.skipped, 2);
        assert!(cache.is_empty(), "a journaled point claimed a walk");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn evaluate_baseline_and_nmm() {
        let cache = SimCache::new();
        let base = evaluate_cached(WorkloadKind::Cg, &scale(), &Design::Baseline, &cache, FULL);
        let nmm = evaluate_cached(
            WorkloadKind::Cg,
            &scale(),
            &Design::Nmm {
                nvm: Technology::Pcm,
                config: n_configs()[2],
            },
            &cache,
            FULL,
        );
        let norm = nmm.metrics.normalized_to(&base.metrics);
        // PCM behind a DRAM cache costs some time but is in a sane band
        assert!(
            norm.time >= 0.9 && norm.time < 3.0,
            "norm.time = {}",
            norm.time
        );
        assert!(
            norm.energy > 0.05 && norm.energy < 5.0,
            "norm.energy = {}",
            norm.energy
        );
    }

    #[test]
    fn fourlc_and_fourlcnvm_share_sim() {
        let cache = SimCache::new();
        let eh = eh_configs()[0];
        let a = evaluate_cached(
            WorkloadKind::Hash,
            &scale(),
            &Design::FourLc {
                llc: Technology::Edram,
                config: eh,
            },
            &cache,
            FULL,
        );
        let b = evaluate_cached(
            WorkloadKind::Hash,
            &scale(),
            &Design::FourLcNvm {
                llc: Technology::Edram,
                nvm: Technology::Pcm,
                config: eh,
            },
            &cache,
            FULL,
        );
        assert!(
            Arc::ptr_eq(&a.run, &b.run),
            "same structure must share the simulation"
        );
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn a_live_sampled_grid_with_an_exact_plan_matches_full_fidelity() {
        let n6 = crate::configs::n_by_name("N6").unwrap();
        let points = [
            (HASH, Design::Baseline),
            (
                HASH,
                Design::Nmm {
                    nvm: Technology::Pcm,
                    config: n6,
                },
            ),
        ];
        // Hash at mini is ~8.5M events: nine intervals, each its own
        // cluster, so nothing is extrapolated
        let spec = crate::sampling::SampleSpec {
            interval: 1_000_000,
            clusters: 16,
        };
        let sampled = SampleMode::On(spec);
        let grid = |sample| {
            evaluate_grid_sweep(&points, &scale(), &SimCache::new(), Some(2), None, sample)
                .into_result()
                .unwrap()
        };
        let full = grid(FULL);
        let first = grid(sampled);

        let store = crate::sampling::trace_store().unwrap();
        let trace = store.ensure(WorkloadKind::Hash, &scale()).unwrap();
        let plan = crate::sampling::plan_for(&trace, spec, 1).unwrap();
        assert_eq!(plan.clusters.len() as u64, plan.intervals);
        let recorded = std::fs::metadata(&trace).unwrap().modified().unwrap();
        let second = grid(sampled);
        let after = std::fs::metadata(&trace).unwrap().modified().unwrap();
        assert_eq!(after, recorded, "the second grid recorded the trace again");

        for ((f, a), b) in full.iter().zip(&first).zip(&second) {
            for s in [a, b] {
                let what = f.design.label();
                assert_eq!(s.run.caches, f.run.caches, "{what}");
                assert_eq!(s.run.mem, f.run.mem, "{what}");
                assert_eq!(s.run.per_region, f.run.per_region, "{what}");
                assert!(s.sample_ci.is_some(), "{what}");
            }
        }
        std::fs::remove_file(&trace).ok();
    }

    #[test]
    fn grid_matches_serial() {
        let cg = Source::Live(WorkloadKind::Cg);
        let points = vec![
            (cg.clone(), Design::Baseline),
            (
                cg,
                Design::Nmm {
                    nvm: Technology::Pcm,
                    config: n_configs()[0],
                },
            ),
            (HASH, Design::Baseline),
        ];
        // Both groups are smaller than the lane budget, so they run side
        // by side: at 3 threads with one lane each, at 6 with three lanes
        // each.
        for threads in [3, 6] {
            let cache = SimCache::new();
            let grid = evaluate_grid_sweep(&points, &scale(), &cache, Some(threads), None, FULL)
                .into_result()
                .expect("every point completes");
            assert_eq!(grid.len(), 3);
            assert_eq!(cache.len(), 3);
            for (r, (source, d)) in grid.iter().zip(&points) {
                let k = source.kind();
                assert_eq!(r.workload, k);
                assert_eq!(r.design, *d);
                let serial = evaluate_cached(k, &scale(), d, &SimCache::new(), FULL);
                assert_eq!(r.run.caches, serial.run.caches, "{k:?} {d:?} {threads}");
                assert_eq!(r.run.mem, serial.run.mem, "{k:?} {d:?} {threads}");
                assert_eq!(r.run.per_region, serial.run.per_region);
                assert!((r.metrics.time_s - serial.metrics.time_s).abs() < 1e-15);
            }
        }
    }
}
