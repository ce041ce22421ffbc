//! Interval-sampled simulation with error bounds.
//!
//! A full run walks every reference of the workload through the
//! hierarchy. This module trades a bounded, *reported* error for a large
//! speedup, SimPoint-style: split the recorded stream into fixed-size
//! intervals, fingerprint each with a locality signature
//! ([`memsim_trace::SignatureBuilder`] — normalized Olken stack-distance
//! histogram plus cold/store fractions), k-means-cluster the signatures,
//! simulate **one representative interval per cluster**, and extrapolate
//! every [`LevelStats`] counter weighted by cluster population. Because
//! each cluster contributes an independent estimate, the spread across
//! clusters yields per-metric confidence intervals ([`SampleCi`]).
//!
//! Warm-up is functional: each representative is preceded by a
//! one-interval warm window fed through the same hierarchy without being
//! measured, and the representative's contribution is the *delta* between
//! snapshots at its boundaries. With `clusters >= intervals` every
//! interval is its own representative, the windows tile the whole stream,
//! and the deltas telescope to the exact full-run counters — sampled and
//! full runs agree bit-for-bit (pinned by tests).
//!
//! The plan is a window schedule in front of the grid's one group walk
//! ([`crate::runner`]): the source decodes only the window chunks and
//! sends a mark through the walk's lanes at every representative's
//! bounds ([`memsim_cache::GroupWalk::mark`]), so a group of structures
//! shares one decode of the windows.
//! Live entry points record the workload's stream once into a
//! [`TraceStore`] keyed by workload, scale and build (shared across all
//! structures and processes) and sample that. The interval plan is itself
//! built with a cheap pass, split over the group's lanes, that decodes
//! only a strided subset of chunks for the signatures and *skips* the
//! rest without decoding ([`memsim_tracefile::TraceReader::next_chunk_where`])
//! — the plan costs far less than one full decode.

use crate::design::{Structure, MEM_NAME};
use crate::model::{LevelCost, Metrics};
use crate::runner::{Group, RawRun, Source};
use crate::scale::Scale;
use crate::store::TraceStore;
use memsim_cache::{LevelStats, WalkRun};
use memsim_memory::{PartitionedMemory, RegionTraffic};
use memsim_trace::{Region, SignatureBuilder, TraceEvent, TraceSink, SIGNATURE_DIMS};
use memsim_tracefile::{ChunkStep, TraceError, TraceReader, TRACE_CHUNK_EVENTS};
use std::collections::HashMap;
use std::io::{Read, Seek};
use std::panic::resume_unwind;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

/// The parameters of a sampled run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SampleSpec {
    /// Events per interval.
    pub interval: u64,
    /// Number of k-means clusters over the full intervals (a partial
    /// tail interval always forms its own extra cluster).
    pub clusters: usize,
}

impl Default for SampleSpec {
    fn default() -> Self {
        Self {
            interval: 1_000_000,
            clusters: 8,
        }
    }
}

/// Whether (and how) a run is sampled. The canonical string form
/// ([`SampleMode::canon`]) is what flows through CLI flags, job specs,
/// and the sweep journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SampleMode {
    /// Full-fidelity simulation.
    #[default]
    Off,
    /// Interval-sampled simulation with these parameters.
    On(SampleSpec),
}

impl SampleMode {
    /// Whether sampling is on.
    pub fn is_on(&self) -> bool {
        matches!(self, SampleMode::On(_))
    }

    /// Parse `"off"`, `"on"` (all defaults), or a comma-separated
    /// `interval=N,clusters=K` list (each key optional; `N` accepts
    /// `k`/`m` suffixes). `warmup=functional`, the only warm-up, is
    /// accepted so that canonical strings round-trip.
    pub fn parse(s: &str) -> Result<SampleMode, String> {
        let s = s.trim();
        match s {
            "off" => return Ok(SampleMode::Off),
            "on" => return Ok(SampleMode::On(SampleSpec::default())),
            _ => {}
        }
        let mut spec = SampleSpec::default();
        for part in s.split(',') {
            let (k, v) = part
                .split_once('=')
                .ok_or_else(|| format!("--sample: expected key=value, got '{part}'"))?;
            let v = v.trim();
            match k.trim() {
                "interval" => {
                    spec.interval = parse_count(v)?;
                    if spec.interval == 0 {
                        return Err("--sample: interval must be positive".into());
                    }
                }
                "clusters" => {
                    spec.clusters = v
                        .parse()
                        .map_err(|_| format!("--sample: bad cluster count '{v}'"))?;
                    if spec.clusters == 0 {
                        return Err("--sample: clusters must be positive".into());
                    }
                }
                "warmup" if v == "functional" => {}
                "warmup" => {
                    return Err(format!(
                        "--sample: warmup={v} is not available: functional warm-up is the \
                         only policy (cold was removed)"
                    ))
                }
                other => {
                    return Err(format!(
                        "--sample: unknown key '{other}' (interval=, clusters=, warmup=)"
                    ))
                }
            }
        }
        Ok(SampleMode::On(spec))
    }

    /// The canonical string form; `parse(canon())` round-trips. It
    /// still names the warm-up, so journal fingerprints and job ids keep
    /// their values.
    pub fn canon(&self) -> String {
        match self {
            SampleMode::Off => "off".to_string(),
            SampleMode::On(s) => format!(
                "interval={},clusters={},warmup=functional",
                s.interval, s.clusters
            ),
        }
    }
}

impl std::fmt::Display for SampleMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.canon())
    }
}

fn parse_count(v: &str) -> Result<u64, String> {
    let lower = v.to_ascii_lowercase();
    let (digits, mult) = match lower.strip_suffix(['k', 'm']) {
        Some(d) if lower.ends_with('k') => (d, 1_000u64),
        Some(d) => (d, 1_000_000u64),
        None => (lower.as_str(), 1),
    };
    digits
        .parse::<u64>()
        .map(|n| n * mult)
        .map_err(|_| format!("--sample: bad count '{v}'"))
}

/// One cluster of similar intervals in a [`SamplePlan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampleCluster {
    /// The interval simulated on the cluster's behalf.
    pub representative: u64,
    /// Member count — the extrapolation weight.
    pub weight: u64,
    /// Member interval indices, ascending.
    pub members: Vec<u64>,
}

/// The clustering of one trace at one [`SampleSpec`]: which intervals
/// exist, and which representative stands in for which population.
/// Structure- and scale-independent, so one plan serves the whole
/// design grid (memoized per `(trace, spec)` by [`plan_for`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SamplePlan {
    /// The spec the plan was built under.
    pub spec: SampleSpec,
    /// Events in the trace.
    pub total_events: u64,
    /// Number of intervals (`ceil(total_events / interval)`).
    pub intervals: u64,
    /// The clusters; representatives are distinct intervals.
    pub clusters: Vec<SampleCluster>,
}

/// The window schedule of a plan: what the source feeds the walk and
/// where it marks it.
struct Schedule {
    /// The disjoint, ascending event ranges fed: each representative
    /// preceded by a one-interval warm window, overlaps merged.
    segments: Vec<(u64, u64)>,
    /// The clusters in stream order of their representatives.
    order: Vec<usize>,
    /// Where the source sends a mark: each representative's start and
    /// end, in `order`. Representatives are distinct intervals, so the
    /// positions ascend, and an end meets the next start first.
    marks: Vec<u64>,
}

impl SamplePlan {
    /// Event-index bounds `[start, end)` of interval `i`.
    pub fn interval_bounds(&self, i: u64) -> (u64, u64) {
        let start = i * self.spec.interval;
        let end = ((i + 1) * self.spec.interval).min(self.total_events);
        (start, end)
    }

    /// Events a sampled walk feeds (warm windows included), for speedup
    /// estimates.
    pub fn simulated_events(&self) -> u64 {
        self.schedule().segments.iter().map(|(a, b)| b - a).sum()
    }

    fn schedule(&self) -> Schedule {
        let mut order: Vec<usize> = (0..self.clusters.len()).collect();
        order.sort_by_key(|&c| self.clusters[c].representative);
        let mut segments: Vec<(u64, u64)> = Vec::new();
        let mut marks = Vec::with_capacity(2 * order.len());
        for &c in &order {
            let (rs, re) = self.interval_bounds(self.clusters[c].representative);
            let ws = rs.saturating_sub(self.spec.interval);
            match segments.last_mut() {
                Some(last) if ws <= last.1 => last.1 = last.1.max(re),
                _ => segments.push((ws, re)),
            }
            marks.extend([rs, re]);
        }
        Schedule {
            segments,
            order,
            marks,
        }
    }
}

/// Build the interval plan for the trace at `path` on the calling thread.
///
/// A strided subset of each interval's chunks is decoded into that
/// interval's [`SignatureBuilder`] (decoded chunks straddling an interval
/// boundary are split at it); all other chunks are skipped without
/// decoding. Full intervals are k-means-clustered on their signatures
/// with deterministic seeding; a partial tail interval is always its own
/// singleton cluster so it never stands in for (or hides behind)
/// full-length intervals.
pub fn build_plan(path: &Path, spec: SampleSpec) -> Result<SamplePlan, String> {
    build_plan_over(path, spec, 1)
}

/// [`build_plan`] with the signature pass split over `workers` threads,
/// the calling thread being worker 0. Each worker decodes only the
/// strided chunks that overlap an interval it owns (`interval % workers
/// == worker`), so every signature is built from the same events as in
/// one pass and the plan does not depend on `workers`.
fn build_plan_over(path: &Path, spec: SampleSpec, workers: usize) -> Result<SamplePlan, String> {
    let _span = memsim_obs::span!("sample.plan");
    let workers = workers.max(1) as u64;
    let pass = |worker| signature_pass(path, spec, worker, workers);
    let passes: Vec<Result<SignaturePass, (u64, String)>> = std::thread::scope(|s| {
        let others: Vec<_> = (1..workers).map(|w| s.spawn(move || pass(w))).collect();
        let first = pass(0);
        let joined = others
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| resume_unwind(p)));
        std::iter::once(first).chain(joined).collect()
    });
    // the error a single pass would meet first: the earliest chunk's
    let first_error = passes.iter().filter_map(|p| p.as_ref().err());
    if let Some((_, e)) = first_error.min_by_key(|(chunk, _)| *chunk) {
        return Err(e.clone());
    }
    let passes: Vec<SignaturePass> = passes.into_iter().flatten().collect();
    let total_events = passes[0].0;
    if total_events == 0 {
        return Err(format!("sample plan: {} records no events", path.display()));
    }
    let intervals = total_events.div_ceil(spec.interval);
    // an interval with no decoded events keeps the zero signature
    let mut sigs = vec![[0.0; SIGNATURE_DIMS]; intervals as usize];
    for (iv, sig) in passes.into_iter().flat_map(|(_, owned)| owned) {
        sigs[iv as usize] = sig;
    }

    let nfull = (total_events / spec.interval) as usize;
    let mut clusters = if nfull > 0 {
        kmeans(&sigs[..nfull], spec.clusters.min(nfull))
    } else {
        Vec::new()
    };
    if !total_events.is_multiple_of(spec.interval) {
        clusters.push(SampleCluster {
            representative: nfull as u64,
            weight: 1,
            members: vec![nfull as u64],
        });
    }
    Ok(SamplePlan {
        spec,
        total_events,
        intervals,
        clusters,
    })
}

/// One worker's share of the signature pass: the trace's event count and
/// the signatures of its intervals that had decoded events.
type SignaturePass = (u64, Vec<(u64, [f64; SIGNATURE_DIMS])>);

/// Worker `worker` of `workers` of the signature pass. An error carries
/// the index of the chunk it was met at.
fn signature_pass(
    path: &Path,
    spec: SampleSpec,
    worker: u64,
    workers: u64,
) -> Result<SignaturePass, (u64, String)> {
    let fail = |chunk: u64, e: TraceError| (chunk, format!("sample plan: {}: {e}", path.display()));
    let mut reader = TraceReader::open(path).map_err(|e| fail(0, e))?;
    reader.enable_seek_skip();

    // decode ~8 chunks per interval for the signature, skip the rest
    let chunks_per_interval = (spec.interval / TRACE_CHUNK_EVENTS as u64).max(1);
    let stride = (chunks_per_interval / 8).max(1);
    let owns = |iv: u64| iv % workers == worker;

    let mut chunk_idx = 0u64;
    let mut signatures = Vec::new();
    let mut cur: Option<(u64, SignatureBuilder)> = None;
    loop {
        let strided = chunk_idx.is_multiple_of(stride);
        // the next chunk's first event index, whether it ends up decoded
        // or skipped
        let base = reader.events_read() + reader.events_skipped();
        let step = reader
            .next_chunk_where(|first, count| {
                let last = first + u64::from(count) - 1;
                strided && (first / spec.interval..=last / spec.interval).any(owns)
            })
            .map_err(|e| fail(chunk_idx, e))?;
        chunk_idx += 1;
        let evs = match step {
            ChunkStep::End => break,
            ChunkStep::Skipped { .. } => continue,
            ChunkStep::Events(evs) => evs,
        };
        let mut off = 0usize;
        while off < evs.len() {
            let g = base + off as u64;
            let iv = g / spec.interval;
            let take = (((iv + 1) * spec.interval - g) as usize).min(evs.len() - off);
            let part = &evs[off..off + take];
            off += take;
            if !owns(iv) {
                continue;
            }
            if let Some((ci, b)) = cur.take_if(|(ci, _)| *ci != iv) {
                signatures.push((ci, b.signature().features));
            }
            // signature granularity is the ubiquitous 64-byte line; the
            // plan must not depend on scale so it can be shared across them
            let (_, b) = cur.get_or_insert_with(|| (iv, SignatureBuilder::new(64)));
            part.iter().for_each(|&ev| b.access(ev));
        }
    }
    if let Some((ci, b)) = cur {
        signatures.push((ci, b.signature().features));
    }
    Ok((reader.events_read() + reader.events_skipped(), signatures))
}

fn dist2(a: &[f64; SIGNATURE_DIMS], b: &[f64; SIGNATURE_DIMS]) -> f64 {
    a.iter().zip(b.iter()).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Deterministic Lloyd k-means: centers seeded by farthest-point
/// traversal from the first signature (evenly spaced indices would
/// collapse when a long phase yields several identical signatures),
/// nearest-center assignment with lowest-index tie-breaks, at most 32
/// refinement rounds. Empty clusters are dropped; each surviving
/// cluster's representative is its member closest to the centroid.
fn kmeans(points: &[[f64; SIGNATURE_DIMS]], k: usize) -> Vec<SampleCluster> {
    let n = points.len();
    debug_assert!(k >= 1 && k <= n);
    let mut centers: Vec<[f64; SIGNATURE_DIMS]> = vec![points[0]];
    while centers.len() < k {
        let far = points
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| {
                let da = centers
                    .iter()
                    .map(|c| dist2(a, c))
                    .fold(f64::INFINITY, f64::min);
                let db = centers
                    .iter()
                    .map(|c| dist2(b, c))
                    .fold(f64::INFINITY, f64::min);
                da.partial_cmp(&db).unwrap()
            })
            .map(|(i, _)| i)
            .unwrap();
        centers.push(points[far]);
    }
    let mut assign = vec![0usize; n];
    for _ in 0..32 {
        let mut changed = false;
        for (i, p) in points.iter().enumerate() {
            let mut best = 0usize;
            let mut best_d = f64::INFINITY;
            for (c, center) in centers.iter().enumerate() {
                let d = dist2(p, center);
                if d < best_d {
                    best_d = d;
                    best = c;
                }
            }
            if assign[i] != best {
                assign[i] = best;
                changed = true;
            }
        }
        for (c, center) in centers.iter_mut().enumerate() {
            let mut sum = [0.0; SIGNATURE_DIMS];
            let mut count = 0u64;
            for (i, p) in points.iter().enumerate() {
                if assign[i] == c {
                    for (s, v) in sum.iter_mut().zip(p.iter()) {
                        *s += v;
                    }
                    count += 1;
                }
            }
            if count > 0 {
                for s in sum.iter_mut() {
                    *s /= count as f64;
                }
                *center = sum;
            }
        }
        if !changed {
            break;
        }
    }
    let mut clusters = Vec::new();
    for (c, center) in centers.iter().enumerate() {
        let members: Vec<u64> = (0..n)
            .filter(|&i| assign[i] == c)
            .map(|i| i as u64)
            .collect();
        if members.is_empty() {
            continue;
        }
        let representative = members
            .iter()
            .copied()
            .min_by(|&a, &b| {
                dist2(&points[a as usize], center)
                    .partial_cmp(&dist2(&points[b as usize], center))
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("nonempty cluster");
        clusters.push(SampleCluster {
            representative,
            weight: members.len() as u64,
            members,
        });
    }
    clusters
}

/// One simulated representative's measured contribution: the per-level
/// stat deltas over exactly its interval, plus the cluster population it
/// stands in for.
#[derive(Debug, Clone)]
pub struct ClusterRun {
    /// The representative interval index.
    pub representative: u64,
    /// Cluster population (extrapolation weight).
    pub weight: u64,
    /// Demand references issued inside the representative interval.
    pub refs: u64,
    /// Per-cache stat deltas, top-down.
    pub caches: Vec<LevelStats>,
    /// Terminal-memory stat delta.
    pub mem: LevelStats,
    /// Per-region terminal traffic delta.
    pub per_region: Vec<RegionTraffic>,
}

/// Everything a sampled run knows beyond the extrapolated counters —
/// carried on [`RawRun::sample`] so downstream costing can derive
/// confidence intervals.
#[derive(Debug, Clone)]
pub struct SampleDetail {
    /// The sampling parameters.
    pub spec: SampleSpec,
    /// Intervals in the trace.
    pub intervals: u64,
    /// Per-cluster measured contributions.
    pub cluster_runs: Vec<ClusterRun>,
}

/// Per-metric relative confidence-interval halfwidths (z = 2, i.e.
/// ~95%) of a sampled run's extrapolated metrics: the spread of the
/// per-cluster estimates, weighted by the stream population each
/// cluster represents. All zero when the sample is exact (every cluster
/// a singleton).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SampleCi {
    /// Relative halfwidth of AMAT.
    pub amat: f64,
    /// Relative halfwidth of total time (equals `amat`: time is AMAT ×
    /// a fixed reference count).
    pub time: f64,
    /// Relative halfwidth of total energy.
    pub energy: f64,
    /// Relative halfwidth of EDP (first-order: time + energy).
    pub edp: f64,
}

/// Derive the confidence intervals of a sampled run under a concrete
/// cost assignment (`costs` aligned like [`RawRun::all_levels`]).
/// `None` for full-fidelity runs.
pub fn sample_ci(run: &RawRun, costs: &[LevelCost]) -> Option<SampleCi> {
    let detail = run.sample.as_ref()?;
    // every cluster a singleton → the extrapolation is a sum of directly
    // measured intervals: exact, no sampling error
    if detail.cluster_runs.iter().all(|c| c.weight <= 1) {
        return Some(SampleCi::default());
    }
    // per-cluster intensive estimates: AMAT and energy per reference
    let mut w = Vec::new();
    let mut amat = Vec::new();
    let mut energy = Vec::new();
    for c in &detail.cluster_runs {
        if c.refs == 0 {
            continue;
        }
        let stats: Vec<&LevelStats> = c.caches.iter().chain(std::iter::once(&c.mem)).collect();
        let pairs: Vec<_> = stats.into_iter().zip(costs.iter()).collect();
        let m = Metrics::compute(&pairs, c.refs);
        w.push((c.weight * c.refs) as f64);
        amat.push(m.amat_ns);
        energy.push(m.energy_j() / c.refs as f64);
    }
    let amat_rel = weighted_rel_halfwidth(&w, &amat);
    let energy_rel = weighted_rel_halfwidth(&w, &energy);
    Some(SampleCi {
        amat: amat_rel,
        time: amat_rel,
        energy: energy_rel,
        edp: amat_rel + energy_rel,
    })
}

/// z·sqrt(s²/n_eff) / μ for a weighted sample: the weighted standard
/// error of the mean with Kish's effective sample size, z = 2.
fn weighted_rel_halfwidth(weights: &[f64], xs: &[f64]) -> f64 {
    let total: f64 = weights.iter().sum();
    if total <= 0.0 || xs.len() < 2 {
        return 0.0;
    }
    let norm: Vec<f64> = weights.iter().map(|w| w / total).collect();
    let mean: f64 = norm.iter().zip(xs.iter()).map(|(w, x)| w * x).sum();
    if mean <= 0.0 {
        return 0.0;
    }
    let var: f64 = norm
        .iter()
        .zip(xs.iter())
        .map(|(w, x)| w * (x - mean) * (x - mean))
        .sum();
    let n_eff = 1.0 / norm.iter().map(|w| w * w).sum::<f64>();
    2.0 * (var / n_eff).sqrt() / mean
}

/// Publish the worst (largest) CI halfwidths across a batch of results
/// into the observability registry, in parts-per-million, plus the
/// plan shape: `sample.intervals`, `sample.clusters`,
/// `sample.ci_halfwidth.{amat,time,energy,edp}`. A deterministic
/// summary (max over the batch) so exports diff cleanly.
pub fn publish_ci_summary(cis: &[SampleCi]) {
    if !memsim_obs::enabled() || cis.is_empty() {
        return;
    }
    let reg = memsim_obs::global();
    let max = |f: fn(&SampleCi) -> f64| cis.iter().map(f).fold(0.0f64, f64::max);
    let store = |key: &str, rel: f64| {
        reg.counter(&format!("sample.ci_halfwidth.{key}"))
            .store((rel * 1e6).round() as u64);
        // CI-halfwidth counter track on the caller's timeline lane
        memsim_obs::recorder::counter(&format!("sample.ci_halfwidth.{key}"), rel);
    };
    store("amat", max(|c| c.amat));
    store("time", max(|c| c.time));
    store("energy", max(|c| c.energy));
    store("edp", max(|c| c.edp));
}

// ---------------------------------------------------------------------------
// sampled walks
// ---------------------------------------------------------------------------

/// A walk's counters at one mark, or its finals.
type Counters = WalkRun<PartitionedMemory>;

fn stats_delta(end: &LevelStats, start: &LevelStats) -> LevelStats {
    LevelStats {
        name: end.name.clone(),
        loads: end.loads - start.loads,
        stores: end.stores - start.stores,
        load_hits: end.load_hits - start.load_hits,
        load_misses: end.load_misses - start.load_misses,
        store_hits: end.store_hits - start.store_hits,
        store_misses: end.store_misses - start.store_misses,
        writebacks_out: end.writebacks_out - start.writebacks_out,
        fills: end.fills - start.fills,
        bytes_loaded: end.bytes_loaded - start.bytes_loaded,
        bytes_stored: end.bytes_stored - start.bytes_stored,
    }
}

fn stats_scaled_add(acc: &mut LevelStats, d: &LevelStats, w: u64) {
    acc.loads += d.loads * w;
    acc.stores += d.stores * w;
    acc.load_hits += d.load_hits * w;
    acc.load_misses += d.load_misses * w;
    acc.store_hits += d.store_hits * w;
    acc.store_misses += d.store_misses * w;
    acc.writebacks_out += d.writebacks_out * w;
    acc.fills += d.fills * w;
    acc.bytes_loaded += d.bytes_loaded * w;
    acc.bytes_stored += d.bytes_stored * w;
}

fn traffic_delta(end: &[RegionTraffic], start: &[RegionTraffic]) -> Vec<RegionTraffic> {
    end.iter()
        .zip(start.iter())
        .map(|(e, s)| RegionTraffic {
            loads: e.loads - s.loads,
            stores: e.stores - s.stores,
            bytes_loaded: e.bytes_loaded - s.bytes_loaded,
            bytes_stored: e.bytes_stored - s.bytes_stored,
        })
        .collect()
}

/// What the counters gained from `start` to `end`, with weight 1.
fn snap_delta(end: &Counters, start: &Counters) -> ClusterRun {
    // the terminal delta takes the canonical name so downstream costing
    // (which aligns stats to costs by name, like the extrapolated run's
    // own terminal) accepts cluster runs too
    let mut mem = stats_delta(end.memory.dram_stats(), start.memory.dram_stats());
    mem.name = MEM_NAME.to_string();
    ClusterRun {
        representative: 0,
        weight: 1,
        refs: end.total_refs - start.total_refs,
        caches: end
            .levels
            .iter()
            .zip(start.levels.iter())
            .map(|(e, s)| stats_delta(e, s))
            .collect(),
        mem,
        per_region: traffic_delta(end.memory.traffic(), start.memory.traffic()),
    }
}

/// What the source of a sampled walk sends the walk, in stream order.
pub(crate) enum Window<'a> {
    /// Events inside a window, for every walker.
    Events(&'a [TraceEvent]),
    /// A mark ([`memsim_cache::GroupWalk::mark`]).
    Mark,
}

/// Send the plan's windows of the trace behind `reader`, in stream order,
/// as the source of a sampled group walk: only window events (chunks
/// outside every window are skipped undecoded), cut at every
/// [`Schedule::marks`] position with a mark there, and one more mark
/// before the drain. The calling thread's timeline shows `sample.warm`
/// and `sample.measure` phases.
pub(crate) fn feed_windows<R: Read + Seek>(
    reader: &mut TraceReader<R>,
    plan: &SamplePlan,
    send: &mut dyn FnMut(Window<'_>),
) -> Result<(), TraceError> {
    let schedule = plan.schedule();
    let (segments, marks) = (&schedule.segments, &schedule.marks);
    // the first segment that has not ended at `pos`
    let pending = |pos: u64| segments.get(segments.partition_point(|s| s.1 <= pos));
    // the open timeline phase span
    let recording = memsim_obs::recorder::recording();
    let mut phase: Option<&'static str> = None;
    let mut enter = |to: Option<&'static str>| {
        if recording && phase != to {
            if let Some(open) = phase {
                memsim_obs::recorder::span_end(open);
            }
            if let Some(name) = to {
                memsim_obs::recorder::span_begin(name);
            }
            phase = to;
        }
    };
    // the next mark to send: even marks start a representative, odd ones
    // end it
    let mut next = 0usize;
    loop {
        let base = reader.events_read() + reader.events_skipped();
        let step = reader.next_chunk_where(|first, count| {
            pending(first).is_some_and(|s| s.0 < first + u64::from(count))
        })?;
        let evs = match step {
            ChunkStep::End => break,
            ChunkStep::Skipped { .. } => continue,
            ChunkStep::Events(evs) => evs,
        };
        let len = evs.len() as u64;
        let mut off = 0u64;
        while off < len {
            let g = base + off;
            // no event between a mark and `g` has been fed, so the
            // walkers' counters at `g` are those at the mark
            while marks.get(next).is_some_and(|&at| at <= g) {
                enter(next.is_multiple_of(2).then_some("sample.measure"));
                send(Window::Mark);
                next += 1;
            }
            let Some(&(s0, s1)) = pending(g) else {
                break;
            };
            if g < s0 {
                off = (s0 - base).min(len);
                continue;
            }
            let until = marks.get(next).map_or(s1, |&at| at.min(s1)).min(base + len) - base;
            enter(Some(if next.is_multiple_of(2) {
                "sample.warm"
            } else {
                "sample.measure"
            }));
            send(Window::Events(&evs[off as usize..until as usize]));
            off = until;
        }
    }
    for i in next..marks.len() {
        enter(i.is_multiple_of(2).then_some("sample.measure"));
        send(Window::Mark);
    }
    enter(None);
    // the drain's baseline
    send(Window::Mark);

    if memsim_obs::enabled() {
        let reg = memsim_obs::global();
        reg.counter("sample.intervals").store(plan.intervals);
        reg.counter("sample.clusters")
            .store(plan.clusters.len() as u64);
        // the deterministic speedup proxy: events fed to the hierarchy
        // (warm windows included) vs events in the trace — wall-clock
        // converges to this ratio as fixed costs amortize
        reg.counter("sample.events_simulated")
            .store(plan.simulated_events());
        reg.counter("sample.events_total").store(plan.total_events);
        // the seek-skip decode: chunks decoded for the windows, and
        // chunks stepped over without decoding
        reg.counter("sample.chunks_read")
            .store(reader.chunks_read());
        reg.counter("sample.chunks_skipped")
            .store(reader.chunks_skipped());
    }
    Ok(())
}

/// One structure's extrapolated [`RawRun`] from its walk's counters at
/// the marks [`feed_windows`] sent: each representative's delta weighted
/// by its cluster's population, plus the drain once, unweighted (a
/// terminal artifact of the whole run, not of any interval). At clusters
/// == intervals this telescopes to the exact finals. An error when the
/// stream stopped short of its last mark.
pub(crate) fn extrapolate(
    plan: &SamplePlan,
    run: &Counters,
    regions: &[Region],
) -> Result<RawRun, String> {
    let Schedule { order, .. } = plan.schedule();
    let Some((pre_drain, bounds)) =
        (run.marks.split_last()).filter(|(_, bounds)| bounds.len() == 2 * order.len())
    else {
        return Err("the sampled stream stopped before its last mark".into());
    };
    let mut measured: Vec<Option<ClusterRun>> = vec![None; order.len()];
    for (&c, snaps) in order.iter().zip(bounds.chunks(2)) {
        let cluster = &plan.clusters[c];
        measured[c] = Some(ClusterRun {
            representative: cluster.representative,
            weight: cluster.weight,
            ..snap_delta(&snaps[1], &snaps[0])
        });
    }
    let cluster_runs: Vec<ClusterRun> = measured.into_iter().flatten().collect();

    // from zero: Σ weight × delta, and the drain once
    let mut total = snap_delta(run, run);
    let drain = snap_delta(run, pre_drain);
    for d in cluster_runs.iter().chain([&drain]) {
        for (acc, x) in total.caches.iter_mut().zip(&d.caches) {
            stats_scaled_add(acc, x, d.weight);
        }
        stats_scaled_add(&mut total.mem, &d.mem, d.weight);
        for (acc, x) in total.per_region.iter_mut().zip(&d.per_region) {
            acc.loads += x.loads * d.weight;
            acc.stores += x.stores * d.weight;
            acc.bytes_loaded += x.bytes_loaded * d.weight;
            acc.bytes_stored += x.bytes_stored * d.weight;
        }
        total.refs += d.refs * d.weight;
    }
    let detail = SampleDetail {
        spec: plan.spec,
        intervals: plan.intervals,
        cluster_runs,
    };
    Ok(RawRun::new(
        total.caches,
        total.mem,
        total.per_region,
        total.refs,
        regions,
        Some(detail),
    ))
}

/// Replay the plan's windows of the trace at `path` through `structure`
/// and extrapolate a full-stream [`RawRun`] (with [`RawRun::sample`]
/// set): a one-structure sampled group walk on one lane. The trace must
/// record its workload ([`Source::trace`]).
pub fn replay_structure_sampled(
    path: &Path,
    scale: &Scale,
    structure: &Structure,
    plan: &SamplePlan,
) -> Result<RawRun, String> {
    let source = Source::trace(path)?;
    let group = Group {
        source: &source,
        scale,
        structures: std::slice::from_ref(structure),
        lanes: 1,
    };
    group
        .walk_trace(path, Some(plan))
        .pop()
        .expect("one run per structure")
}

// ---------------------------------------------------------------------------
// process-wide caches: recorded traces and interval plans
// ---------------------------------------------------------------------------

/// The directory holding the process-wide [`TraceStore`] of live sampled
/// grids and the interval-plan sidecars, shared across processes: the
/// one-time recording cost of each workload (per scale and build)
/// amortizes over every sampled run on the machine (a cold `--sample`
/// sweep records; every later one goes straight to the window replays).
pub fn sample_trace_dir() -> PathBuf {
    std::env::temp_dir().join(format!(
        "memsim-sample-traces-v{}",
        env!("CARGO_PKG_VERSION")
    ))
}

/// The process-wide trace store rooted at [`sample_trace_dir`], which a
/// live sampled walk asks for its workload's recorded stream.
pub(crate) fn trace_store() -> Result<&'static TraceStore, String> {
    static STORE: OnceLock<Result<TraceStore, String>> = OnceLock::new();
    STORE
        .get_or_init(|| {
            let dir = sample_trace_dir();
            TraceStore::open(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))
        })
        .as_ref()
        .map_err(Clone::clone)
}

type PlanCell = Arc<OnceLock<Result<Arc<SamplePlan>, String>>>;

/// Memoized plan build over `lanes` workers: one plan per `(trace path,
/// spec)` per process, shared across every structure of a grid, and
/// persisted to a sidecar in [`sample_trace_dir`] (keyed by the trace's
/// size and mtime and the build identity, silently rebuilt when stale) so
/// later processes skip the signature pass too. A failed build is not
/// memoized: the next caller builds again.
pub fn plan_for(path: &Path, spec: SampleSpec, lanes: usize) -> Result<Arc<SamplePlan>, String> {
    static PLANS: OnceLock<Mutex<HashMap<(PathBuf, SampleSpec), PlanCell>>> = OnceLock::new();
    let map = PLANS.get_or_init(|| Mutex::new(HashMap::new()));
    let key = (path.to_path_buf(), spec);
    let cell = {
        let mut map = map.lock().expect("plan cache poisoned");
        Arc::clone(map.entry(key.clone()).or_default())
    };
    let plan = cell
        .get_or_init(|| {
            let build = crate::store::build_identity().ok();
            load_or_build_plan(path, spec, lanes, build).map(Arc::new)
        })
        .clone();
    if plan.is_err() {
        let mut map = map.lock().expect("plan cache poisoned");
        if map.get(&key).is_some_and(|c| Arc::ptr_eq(c, &cell)) {
            map.remove(&key);
        }
    }
    plan
}

/// The plan from its sidecar under `build`, or built over `lanes` workers
/// and persisted there. Without a build identity there is no sidecar.
fn load_or_build_plan(
    path: &Path,
    spec: SampleSpec,
    lanes: usize,
    build: Option<&str>,
) -> Result<SamplePlan, String> {
    let sidecar = build
        .zip(trace_identity(path))
        .map(|(build, id)| plan_sidecar_path(path, spec, id, build));
    if let Some(plan) = sidecar
        .as_deref()
        .and_then(|sc| load_plan_sidecar(sc, spec))
    {
        return Ok(plan);
    }
    let plan = build_plan_over(path, spec, lanes)?;
    if let Some(sc) = &sidecar {
        store_plan_sidecar(sc, &plan);
    }
    Ok(plan)
}

/// `(len, mtime ns)` of the trace file — the staleness key for plan
/// sidecars. `None` (unreadable metadata) just disables the sidecar.
fn trace_identity(path: &Path) -> Option<(u64, u64)> {
    let meta = std::fs::metadata(path).ok()?;
    let mtime = meta
        .modified()
        .ok()?
        .duration_since(std::time::UNIX_EPOCH)
        .ok()?;
    Some((meta.len(), mtime.as_nanos() as u64))
}

/// Sidecar file for one `(trace, identity, spec, build)` key.
/// DefaultHasher is keyed with process-independent constants, so the name
/// is stable across processes; the build identity keeps a changed planner
/// from reading an old build's plans.
fn plan_sidecar_path(path: &Path, spec: SampleSpec, identity: (u64, u64), build: &str) -> PathBuf {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    path.hash(&mut h);
    identity.hash(&mut h);
    spec.hash(&mut h);
    build.hash(&mut h);
    sample_trace_dir().join(format!("plan-{:016x}.txt", h.finish()))
}

/// Best-effort persist: a pid-suffixed temp file renamed into place, so
/// a concurrent loader never sees a torn sidecar. Failure is silent —
/// the sidecar is purely an optimization.
fn store_plan_sidecar(file: &Path, plan: &SamplePlan) {
    use std::fmt::Write as _;
    let mut out = format!(
        "memsim-plan v1 {}\n{} {}\n",
        SampleMode::On(plan.spec).canon(),
        plan.total_events,
        plan.intervals
    );
    for c in &plan.clusters {
        let members: Vec<String> = c.members.iter().map(|m| m.to_string()).collect();
        let _ = writeln!(
            out,
            "{} {} {}",
            c.representative,
            c.weight,
            members.join(",")
        );
    }
    let Some(dir) = file.parent() else { return };
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let tmp = dir.join(format!("plan-{}.tmp", std::process::id()));
    if std::fs::write(&tmp, &out).is_ok() {
        let _ = std::fs::rename(&tmp, file);
    }
}

/// Parse a sidecar back into a plan; any mismatch or malformation —
/// wrong version, wrong spec, bad counts — returns `None` and the
/// caller rebuilds from the trace.
fn load_plan_sidecar(file: &Path, spec: SampleSpec) -> Option<SamplePlan> {
    let text = std::fs::read_to_string(file).ok()?;
    let mut lines = text.lines();
    let head = lines.next()?;
    let canon = head.strip_prefix("memsim-plan v1 ")?;
    if SampleMode::parse(canon).ok()? != SampleMode::On(spec) {
        return None;
    }
    let (events, intervals) = lines.next()?.split_once(' ')?;
    let total_events: u64 = events.parse().ok()?;
    let intervals: u64 = intervals.parse().ok()?;
    let mut clusters = Vec::new();
    for line in lines {
        let mut f = line.splitn(3, ' ');
        let representative: u64 = f.next()?.parse().ok()?;
        let weight: u64 = f.next()?.parse().ok()?;
        let members: Vec<u64> = f
            .next()?
            .split(',')
            .map(|m| m.parse().ok())
            .collect::<Option<_>>()?;
        if weight as usize != members.len() || !members.contains(&representative) {
            return None;
        }
        clusters.push(SampleCluster {
            representative,
            weight,
            members,
        });
    }
    // the members partition the intervals, so representatives are
    // distinct
    let mut covered: Vec<u64> = clusters.iter().flat_map(|c| c.members.clone()).collect();
    covered.sort_unstable();
    if clusters.is_empty() || !covered.into_iter().eq(0..intervals) {
        return None;
    }
    Some(SamplePlan {
        spec,
        total_events,
        intervals,
        clusters,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim_trace::TraceEvent;
    use memsim_tracefile::{TraceHeader, TraceWriter};

    #[test]
    fn parse_and_canon_round_trip() {
        assert_eq!(SampleMode::parse("off").unwrap(), SampleMode::Off);
        assert_eq!(
            SampleMode::parse("on").unwrap(),
            SampleMode::On(SampleSpec::default())
        );
        let m = SampleMode::parse("interval=64k,clusters=3,warmup=functional").unwrap();
        assert_eq!(
            m,
            SampleMode::On(SampleSpec {
                interval: 64_000,
                clusters: 3,
            })
        );
        assert_eq!(m.canon(), "interval=64000,clusters=3,warmup=functional");
        assert_eq!(SampleMode::parse(&m.canon()).unwrap(), m);
        assert_eq!(SampleMode::parse("interval=64k,clusters=3").unwrap(), m);
        assert_eq!(SampleMode::Off.canon(), "off");
        assert!(SampleMode::parse("interval=0").is_err());
        assert!(SampleMode::parse("clusters=0").is_err());
        // the cold ablation is gone, and saying so beats "unknown"
        let cold = SampleMode::parse("interval=64k,clusters=3,warmup=cold").unwrap_err();
        assert!(cold.contains("removed"), "{cold}");
        assert!(SampleMode::parse("warmup=warm").is_err());
        assert!(SampleMode::parse("bogus=1").is_err());
        assert!(SampleMode::parse("interval").is_err());
    }

    #[test]
    fn plan_sidecar_round_trips_and_rejects_mismatches() {
        let spec = SampleSpec {
            interval: 1000,
            clusters: 2,
        };
        let plan = SamplePlan {
            spec,
            total_events: 4500,
            intervals: 5,
            clusters: vec![
                SampleCluster {
                    representative: 1,
                    weight: 3,
                    members: vec![0, 1, 3],
                },
                SampleCluster {
                    representative: 2,
                    weight: 1,
                    members: vec![2],
                },
                SampleCluster {
                    representative: 4,
                    weight: 1,
                    members: vec![4],
                },
            ],
        };
        let dir = std::env::temp_dir().join(format!("memsim-plan-rt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("plan.txt");
        store_plan_sidecar(&file, &plan);
        let back = load_plan_sidecar(&file, spec).expect("sidecar loads");
        assert_eq!(back.total_events, plan.total_events);
        assert_eq!(back.intervals, plan.intervals);
        assert_eq!(back.clusters, plan.clusters);

        // a different spec must not match the stored plan
        let other = SampleSpec {
            clusters: 3,
            ..spec
        };
        assert!(load_plan_sidecar(&file, other).is_none());
        // and a torn/garbled sidecar falls back to rebuilding
        std::fs::write(
            &file,
            "memsim-plan v1 interval=1000,clusters=2,warmup=functional\n4500 5\n1 3 0,1",
        )
        .unwrap();
        assert!(load_plan_sidecar(&file, spec).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parse_count_suffixes() {
        assert_eq!(parse_count("1000").unwrap(), 1000);
        assert_eq!(parse_count("64k").unwrap(), 64_000);
        assert_eq!(parse_count("2M").unwrap(), 2_000_000);
        assert!(parse_count("64q").is_err());
    }

    fn write_trace(path: &Path, events: &[TraceEvent]) {
        let header = TraceHeader::anonymous(1 << 24);
        let mut w = TraceWriter::create(path, &header).unwrap();
        for &ev in events {
            w.access(ev);
        }
        w.finish().unwrap();
    }

    fn temp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("memsim-sampling-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn plan_covers_every_interval_once() {
        // two phases: sequential then a tight loop, 3.5 intervals of 10k
        let mut events = Vec::new();
        for i in 0..20_000u64 {
            events.push(TraceEvent::load(i * 64, 8));
        }
        for i in 0..15_000u64 {
            events.push(TraceEvent::load(i % 16 * 64, 8));
        }
        let path = temp("plan.trace");
        write_trace(&path, &events);
        let spec = SampleSpec {
            interval: 10_000,
            clusters: 2,
        };
        let plan = build_plan(&path, spec).unwrap();
        assert_eq!(plan.total_events, 35_000);
        assert_eq!(plan.intervals, 4);
        // every interval in exactly one cluster; tail is a singleton
        let mut seen: Vec<u64> = plan
            .clusters
            .iter()
            .flat_map(|c| c.members.iter().copied())
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3]);
        let tail = plan.clusters.last().unwrap();
        assert_eq!((tail.representative, tail.weight), (3, 1));
        for c in &plan.clusters {
            assert!(c.members.contains(&c.representative));
            assert_eq!(c.weight as usize, c.members.len());
        }
        // the two phases should land in different clusters
        let cluster_of = |iv: u64| {
            plan.clusters
                .iter()
                .position(|c| c.members.contains(&iv))
                .unwrap()
        };
        assert_ne!(cluster_of(0), cluster_of(2));
        assert_eq!(plan.interval_bounds(3), (30_000, 35_000));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_plan_split_over_workers_is_the_one_pass_plan() {
        // a strided pass (17 chunks per interval, so every other chunk is
        // decoded) whose chunks straddle interval boundaries, with a
        // partial tail interval
        let events: Vec<TraceEvent> = (0..300_000u64)
            .map(|i| match (i / 70_000) % 2 {
                0 => TraceEvent::load(i * 64, 8),
                _ => TraceEvent::store((i * 7919) % (1 << 22), 8),
            })
            .collect();
        let path = temp("split.trace");
        write_trace(&path, &events);
        let hash = temp("split-hash.trace");
        crate::replay::record_workload(
            memsim_workloads::WorkloadKind::Hash,
            memsim_workloads::Class::Mini,
            &hash,
        )
        .unwrap();
        for (path, spec) in [
            (
                &path,
                SampleSpec {
                    interval: 70_000,
                    clusters: 2,
                },
            ),
            (
                &hash,
                SampleSpec {
                    interval: 64_000,
                    clusters: 4,
                },
            ),
        ] {
            let one = build_plan(path, spec).unwrap();
            for workers in [2, 3] {
                assert_eq!(
                    build_plan_over(path, spec, workers).unwrap(),
                    one,
                    "{} over {workers} workers",
                    path.display()
                );
            }
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&hash).ok();
    }

    #[test]
    fn plan_for_retries_a_failed_build() {
        let path = temp("late.trace");
        std::fs::remove_file(&path).ok();
        let spec = SampleSpec {
            interval: 8_192,
            clusters: 2,
        };
        assert!(plan_for(&path, spec, 2).is_err());
        let events: Vec<TraceEvent> = (0..20_000u64)
            .map(|i| TraceEvent::load(i * 64, 8))
            .collect();
        write_trace(&path, &events);
        let plan = plan_for(&path, spec, 2).expect("the failed build was not memoized");
        assert_eq!(plan.total_events, 20_000);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn plan_sidecars_are_keyed_on_the_build() {
        let path = temp("builds.trace");
        let events: Vec<TraceEvent> = (0..40_000u64)
            .map(|i| TraceEvent::load((i * 7919) % (1 << 20), 8))
            .collect();
        write_trace(&path, &events);
        let spec = SampleSpec {
            interval: 8_192,
            clusters: 2,
        };
        let id = trace_identity(&path).unwrap();
        let (a, b) = (
            plan_sidecar_path(&path, spec, id, "build-a"),
            plan_sidecar_path(&path, spec, id, "build-b"),
        );
        assert_ne!(a, b);

        // build a's planner leaves its sidecar; doctor it, and build a
        // reads the doctored plan back while build b builds its own
        let built = load_or_build_plan(&path, spec, 1, Some("build-a")).unwrap();
        let doctored = SamplePlan {
            clusters: vec![SampleCluster {
                representative: 0,
                weight: built.intervals,
                members: (0..built.intervals).collect(),
            }],
            ..built.clone()
        };
        store_plan_sidecar(&a, &doctored);
        assert_eq!(
            load_or_build_plan(&path, spec, 1, Some("build-a")).unwrap(),
            doctored
        );
        assert_eq!(
            load_or_build_plan(&path, spec, 1, Some("build-b")).unwrap(),
            built
        );
        // and without a build identity there is no sidecar at all
        assert_eq!(load_or_build_plan(&path, spec, 1, None).unwrap(), built);
        for f in [&a, &b, &path] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn plan_is_deterministic() {
        let events: Vec<TraceEvent> = (0..50_000u64)
            .map(|i| TraceEvent::load((i * 7919) % (1 << 20), 8))
            .collect();
        let path = temp("det.trace");
        write_trace(&path, &events);
        let spec = SampleSpec {
            interval: 8_192,
            clusters: 3,
        };
        let a = build_plan(&path, spec).unwrap();
        let b = build_plan(&path, spec).unwrap();
        assert_eq!(a.clusters, b.clusters);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_trace_is_rejected() {
        let path = temp("empty.trace");
        write_trace(&path, &[]);
        let err = build_plan(&path, SampleSpec::default()).unwrap_err();
        assert!(err.contains("no events"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn kmeans_all_singletons_when_k_equals_n() {
        let points: Vec<[f64; SIGNATURE_DIMS]> = (0..5)
            .map(|i| {
                let mut p = [0.0; SIGNATURE_DIMS];
                p[i] = 1.0;
                p
            })
            .collect();
        let clusters = kmeans(&points, 5);
        assert_eq!(clusters.len(), 5);
        for c in &clusters {
            assert_eq!(c.weight, 1);
        }
    }

    #[test]
    fn ci_zero_when_exact_and_positive_when_spread() {
        let mk = |weight, refs, miss: u64| ClusterRun {
            representative: 0,
            weight,
            refs,
            caches: vec![LevelStats {
                name: "L1".into(),
                loads: refs,
                load_hits: refs - miss,
                load_misses: miss,
                fills: miss,
                bytes_loaded: miss * 64,
                ..Default::default()
            }],
            mem: LevelStats {
                name: MEM_NAME.into(),
                loads: miss,
                load_misses: miss,
                bytes_loaded: miss * 64,
                ..Default::default()
            },
            per_region: vec![],
        };
        let costs = vec![
            LevelCost::from_tech(
                "L1",
                &memsim_tech::TechParams::of(memsim_tech::Technology::Sram),
                1 << 15,
            ),
            LevelCost::from_tech(
                MEM_NAME,
                &memsim_tech::TechParams::of(memsim_tech::Technology::Dram),
                1 << 30,
            ),
        ];
        let base = RawRun {
            caches: vec![],
            mem: LevelStats::default(),
            per_region: vec![],
            region_names: vec![],
            region_sizes: vec![],
            region_starts: vec![],
            total_refs: 1,
            footprint_bytes: 0,
            sample: None,
        };
        assert!(sample_ci(&base, &costs).is_none());

        let exact = RawRun {
            sample: Some(SampleDetail {
                spec: SampleSpec::default(),
                intervals: 2,
                cluster_runs: vec![mk(1, 1000, 10), mk(1, 1000, 500)],
            }),
            ..base.clone()
        };
        assert_eq!(sample_ci(&exact, &costs).unwrap(), SampleCi::default());

        let spread = RawRun {
            sample: Some(SampleDetail {
                spec: SampleSpec::default(),
                intervals: 20,
                cluster_runs: vec![mk(10, 1000, 10), mk(10, 1000, 500)],
            }),
            ..base
        };
        let ci = sample_ci(&spread, &costs).unwrap();
        assert!(ci.amat > 0.0, "{ci:?}");
        assert_eq!(ci.time, ci.amat);
        assert!(ci.edp >= ci.energy && ci.edp >= ci.time);
    }
}
