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
//! Two warmup policies handle the state a representative inherits from
//! the stream it never saw:
//!
//! * [`Warmup::Functional`] (default): one shared hierarchy walks the
//!   file once; each representative is preceded by a one-interval warm
//!   window fed without being measured, and the representative's
//!   contribution is the *delta* between snapshots at its boundaries.
//!   With `clusters >= intervals` every interval is its own
//!   representative, the windows tile the whole stream, and the deltas
//!   telescope to the exact full-run counters — sampled and full runs
//!   agree bit-for-bit (pinned by tests).
//! * [`Warmup::Cold`]: each representative starts from an empty
//!   hierarchy and is drained afterwards. Cheaper and embarrassingly
//!   independent, but cold misses and the final writeback flush are
//!   charged to every cluster (a documented bias), so `Functional` is
//!   the default.
//!
//! The sampled path is trace-backed: live entry points record the
//! workload's stream once into a [`TraceStore`] keyed by workload, scale
//! and build (shared across all structures and processes) and replay
//! windows of it. The interval plan is itself built with a
//! cheap pass that decodes only a strided subset of chunks for the
//! signatures and *skips* the rest without decoding
//! ([`memsim_tracefile::TraceReader::next_chunk_where`]) — the plan
//! costs far less than one full decode.

use crate::design::{Structure, MEM_NAME};
use crate::model::{LevelCost, Metrics};
use crate::runner::{build_caches, RawRun};
use crate::scale::Scale;
use crate::store::TraceStore;
use memsim_cache::{Hierarchy, LevelStats};
use memsim_memory::{PartitionedMemory, RegionTraffic};
use memsim_tech::Technology;
use memsim_trace::{SignatureBuilder, TraceSink, SIGNATURE_DIMS};
use memsim_tracefile::{ChunkStep, TraceError, TraceReader, TRACE_CHUNK_EVENTS};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

/// How a representative interval's inherited cache state is handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Warmup {
    /// One shared hierarchy, a one-interval warm window before each
    /// representative, contributions measured as snapshot deltas.
    /// Exact (bit-for-bit) when every interval is its own cluster.
    #[default]
    Functional,
    /// A fresh hierarchy per representative, drained afterwards; cold
    /// misses and the writeback flush are charged to every cluster.
    Cold,
}

impl Warmup {
    fn name(self) -> &'static str {
        match self {
            Warmup::Functional => "functional",
            Warmup::Cold => "cold",
        }
    }
}

/// The parameters of a sampled run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SampleSpec {
    /// Events per interval.
    pub interval: u64,
    /// Number of k-means clusters over the full intervals (a partial
    /// tail interval always forms its own extra cluster).
    pub clusters: usize,
    /// Warmup policy for representative intervals.
    pub warmup: Warmup,
}

impl Default for SampleSpec {
    fn default() -> Self {
        Self {
            interval: 1_000_000,
            clusters: 8,
            warmup: Warmup::Functional,
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
    /// `interval=N,clusters=K,warmup=functional|cold` list (each key
    /// optional; `N` accepts `k`/`m` suffixes).
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
                "warmup" => {
                    spec.warmup = match v {
                        "functional" => Warmup::Functional,
                        "cold" => Warmup::Cold,
                        other => {
                            return Err(format!(
                                "--sample: unknown warmup '{other}' (functional|cold)"
                            ))
                        }
                    };
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

    /// The canonical string form; `parse(canon())` round-trips.
    pub fn canon(&self) -> String {
        match self {
            SampleMode::Off => "off".to_string(),
            SampleMode::On(s) => format!(
                "interval={},clusters={},warmup={}",
                s.interval,
                s.clusters,
                s.warmup.name()
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
#[derive(Debug, Clone)]
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

impl SamplePlan {
    /// Event-index bounds `[start, end)` of interval `i`.
    pub fn interval_bounds(&self, i: u64) -> (u64, u64) {
        let start = i * self.spec.interval;
        let end = ((i + 1) * self.spec.interval).min(self.total_events);
        (start, end)
    }

    /// Events simulated by a [`Warmup::Functional`] pass (warm windows
    /// included), for speedup estimates.
    pub fn simulated_events(&self) -> u64 {
        self.functional_segments().iter().map(|(a, b)| b - a).sum()
    }

    /// The disjoint, ascending event ranges a Functional pass feeds:
    /// each representative preceded by a one-interval warm window,
    /// overlaps merged.
    fn functional_segments(&self) -> Vec<(u64, u64)> {
        let mut reps: Vec<u64> = self.clusters.iter().map(|c| c.representative).collect();
        reps.sort_unstable();
        let mut segments: Vec<(u64, u64)> = Vec::new();
        for r in reps {
            let (rs, re) = self.interval_bounds(r);
            let ws = rs.saturating_sub(self.spec.interval);
            match segments.last_mut() {
                Some(last) if ws <= last.1 => last.1 = last.1.max(re),
                _ => segments.push((ws, re)),
            }
        }
        segments
    }
}

/// Build the interval plan for the trace at `path`.
///
/// One pass over the file: a strided subset of each interval's chunks is
/// decoded into that interval's [`SignatureBuilder`] (decoded chunks
/// straddling an interval boundary are split at it); all other chunks
/// are skipped without decoding. Full intervals are k-means-clustered on
/// their signatures with deterministic seeding; a partial tail interval
/// is always its own singleton cluster so it never stands in for (or
/// hides behind) full-length intervals.
pub fn build_plan(path: &Path, spec: SampleSpec) -> Result<SamplePlan, String> {
    let _span = memsim_obs::span!("sample.plan");
    let mut reader =
        TraceReader::open(path).map_err(|e| format!("sample plan: {}: {e}", path.display()))?;
    reader.enable_seek_skip();

    // decode ~8 chunks per interval for the signature, skip the rest
    let chunks_per_interval = (spec.interval / TRACE_CHUNK_EVENTS as u64).max(1);
    let stride = (chunks_per_interval / 8).max(1);

    let mut chunk_idx = 0u64;
    let mut sigs: Vec<[f64; SIGNATURE_DIMS]> = Vec::new();
    let mut cur: Option<(u64, SignatureBuilder)> = None;
    let finalize = |cur: &mut Option<(u64, SignatureBuilder)>,
                    sigs: &mut Vec<[f64; SIGNATURE_DIMS]>,
                    upto: u64| {
        if let Some((iv, b)) = cur.take() {
            while (sigs.len() as u64) < iv {
                sigs.push([0.0; SIGNATURE_DIMS]);
            }
            sigs.push(b.signature().features);
        }
        while (sigs.len() as u64) < upto {
            sigs.push([0.0; SIGNATURE_DIMS]);
        }
    };
    loop {
        let want = chunk_idx.is_multiple_of(stride);
        // the next chunk's first event index, whether it ends up decoded
        // or skipped
        let base = reader.events_read() + reader.events_skipped();
        let step = reader
            .next_chunk_where(|_, _| want)
            .map_err(|e| format!("sample plan: {}: {e}", path.display()))?;
        chunk_idx += 1;
        match step {
            ChunkStep::End => break,
            ChunkStep::Skipped { .. } => {}
            ChunkStep::Events(evs) => {
                let mut off = 0usize;
                while off < evs.len() {
                    let g = base + off as u64;
                    let iv = g / spec.interval;
                    let take = (((iv + 1) * spec.interval - g) as usize).min(evs.len() - off);
                    match &mut cur {
                        Some((ci, b)) if *ci == iv => b.access_chunk(&evs[off..off + take]),
                        _ => {
                            finalize(&mut cur, &mut sigs, iv);
                            // signature granularity is the ubiquitous
                            // 64-byte line; the plan must not depend on
                            // scale so it can be shared across them
                            let mut b = SignatureBuilder::new(64);
                            b.access_chunk(&evs[off..off + take]);
                            cur = Some((iv, b));
                        }
                    }
                    off += take;
                }
            }
        }
    }
    let total_events = reader.events_read() + reader.events_skipped();
    if total_events == 0 {
        return Err(format!("sample plan: {} records no events", path.display()));
    }
    let intervals = total_events.div_ceil(spec.interval);
    finalize(&mut cur, &mut sigs, intervals);

    let nfull = (total_events / spec.interval) as usize;
    let mut clusters = if nfull > 0 {
        kmeans(&sigs[..nfull], spec.clusters.min(nfull))
    } else {
        Vec::new()
    };
    if total_events % spec.interval != 0 {
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
// sampled replay
// ---------------------------------------------------------------------------

/// A pure-read snapshot of a running hierarchy's counters.
struct Snap {
    levels: Vec<LevelStats>,
    mem: LevelStats,
    traffic: Vec<RegionTraffic>,
    refs: u64,
}

fn snap(h: &Hierarchy<PartitionedMemory>) -> Snap {
    Snap {
        levels: h.levels().iter().map(|c| c.stats()).collect(),
        mem: h.memory().dram_stats().clone(),
        traffic: h.memory().traffic().to_vec(),
        refs: h.total_refs(),
    }
}

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

fn snap_delta(c: &SampleCluster, end: &Snap, start: &Snap) -> ClusterRun {
    // the terminal delta takes the canonical name so downstream costing
    // (which aligns stats to costs by name, like the extrapolated run's
    // own terminal) accepts cluster runs too
    let mut mem = stats_delta(&end.mem, &start.mem);
    mem.name = MEM_NAME.to_string();
    ClusterRun {
        representative: c.representative,
        weight: c.weight,
        refs: end.refs - start.refs,
        caches: end
            .levels
            .iter()
            .zip(start.levels.iter())
            .map(|(e, s)| stats_delta(e, s))
            .collect(),
        mem,
        per_region: traffic_delta(&end.traffic, &start.traffic),
    }
}

enum Mark {
    Start(usize),
    End(usize),
}

/// Replay only the plan's representative windows of the trace at `path`
/// through `structure`'s hierarchy and extrapolate a full-stream
/// [`RawRun`] (with [`RawRun::sample`] set).
///
/// Always a sequential walk: snapshot deltas need one hierarchy with a
/// well-defined event order, so the engine choice upstream applies only
/// to full-fidelity runs.
pub fn replay_structure_sampled(
    path: &Path,
    scale: &Scale,
    structure: &Structure,
    plan: &SamplePlan,
) -> Result<RawRun, TraceError> {
    let mut span = memsim_obs::span!("sample.replay.{}", structure.obs_label());

    // window layout: ascending representatives, each with its warm
    // window (Functional) or bare interval (Cold); marks at interval
    // boundaries, End sorted before Start at equal positions so
    // back-to-back representatives hand over correctly
    let mut reps: Vec<(usize, u64)> = plan
        .clusters
        .iter()
        .enumerate()
        .map(|(c, cl)| (c, cl.representative))
        .collect();
    reps.sort_by_key(|&(_, r)| r);
    let functional = plan.spec.warmup == Warmup::Functional;
    let mut segments: Vec<(u64, u64)> = Vec::new();
    let mut marks: Vec<(u64, Mark)> = Vec::new();
    for &(c, r) in &reps {
        let (rs, re) = plan.interval_bounds(r);
        let ws = if functional {
            rs.saturating_sub(plan.spec.interval)
        } else {
            rs
        };
        match segments.last_mut() {
            Some(last) if ws <= last.1 => last.1 = last.1.max(re),
            _ => segments.push((ws, re)),
        }
        marks.push((rs, Mark::Start(c)));
        marks.push((re, Mark::End(c)));
    }
    marks.sort_by_key(|&(p, ref m)| (p, matches!(m, Mark::Start(_)) as u8));

    let mut reader = TraceReader::open(path)?;
    reader.enable_seek_skip();
    let regions = reader.header().regions.clone();
    let fresh = |scale: &Scale, structure: &Structure| {
        Hierarchy::new(
            build_caches(scale, structure),
            PartitionedMemory::new(&regions, Technology::Pcm),
        )
    };
    let mut hierarchy: Option<Hierarchy<PartitionedMemory>> =
        functional.then(|| fresh(scale, structure));
    let mut starts: Vec<Option<Snap>> = (0..plan.clusters.len()).map(|_| None).collect();
    let mut runs: Vec<Option<ClusterRun>> = (0..plan.clusters.len()).map(|_| None).collect();
    let mut mark_i = 0usize;
    let mut seg_i = 0usize;
    // Flight-recorder phase spans: the timeline distinguishes warm-window
    // feeding (`sample.warm`, Functional warmup only) from measured
    // representative windows (`sample.measure`). Mark application and
    // feed ranges are deterministic given the plan, so the emitted event
    // stream is too.
    let mut warm_open = false;
    let mut measuring = false;

    // applies every mark at stream position <= `pos` (no events between
    // the mark position and `pos` have been fed, so the counters at
    // `pos` equal the counters at the mark)
    macro_rules! apply_marks_through {
        ($pos:expr) => {
            while mark_i < marks.len() && marks[mark_i].0 <= $pos {
                match marks[mark_i].1 {
                    Mark::Start(c) => {
                        if warm_open {
                            memsim_obs::recorder::span_end("sample.warm");
                            warm_open = false;
                        }
                        if memsim_obs::recorder::recording() {
                            memsim_obs::recorder::span_begin("sample.measure");
                        }
                        measuring = true;
                        if functional {
                            starts[c] = Some(snap(hierarchy.as_ref().expect("live hierarchy")));
                        } else {
                            hierarchy = Some(fresh(scale, structure));
                        }
                    }
                    Mark::End(c) => {
                        if measuring && memsim_obs::recorder::recording() {
                            memsim_obs::recorder::span_end("sample.measure");
                        }
                        measuring = false;
                        if functional {
                            let s0 = starts[c].take().expect("start snapshot");
                            let s1 = snap(hierarchy.as_ref().expect("live hierarchy"));
                            runs[c] = Some(snap_delta(&plan.clusters[c], &s1, &s0));
                        } else {
                            let mut h = hierarchy.take().expect("live hierarchy");
                            h.drain();
                            h.assert_consistent();
                            let refs = h.total_refs();
                            let caches: Vec<LevelStats> =
                                h.levels().iter().map(|x| x.stats()).collect();
                            let mem_part = h.into_memory();
                            runs[c] = Some(ClusterRun {
                                representative: plan.clusters[c].representative,
                                weight: plan.clusters[c].weight,
                                refs,
                                caches,
                                mem: mem_part.dram_stats().clone(),
                                per_region: mem_part.traffic().to_vec(),
                            });
                        }
                    }
                }
                mark_i += 1;
            }
        };
    }

    loop {
        let si = seg_i;
        let segs = &segments;
        let base = reader.events_read() + reader.events_skipped();
        let step = reader.next_chunk_where(move |first, count| {
            let end = first + u64::from(count);
            let mut i = si;
            while i < segs.len() && segs[i].1 <= first {
                i += 1;
            }
            i < segs.len() && segs[i].0 < end
        })?;
        match step {
            ChunkStep::End => break,
            ChunkStep::Skipped { .. } => {}
            ChunkStep::Events(evs) => {
                let len = evs.len() as u64;
                let mut off = 0u64;
                while off < len {
                    let g = base + off;
                    apply_marks_through!(g);
                    let mut s = seg_i;
                    while s < segments.len() && segments[s].1 <= g {
                        s += 1;
                    }
                    if s >= segments.len() {
                        break;
                    }
                    let (s0, s1) = segments[s];
                    if g < s0 {
                        off = (s0 - base).min(len);
                        continue;
                    }
                    let mut until = (s1 - base).min(len);
                    if mark_i < marks.len() {
                        until = until.min(marks[mark_i].0 - base);
                    }
                    if !measuring && !warm_open && memsim_obs::recorder::recording() {
                        memsim_obs::recorder::span_begin("sample.warm");
                        warm_open = true;
                    }
                    hierarchy
                        .as_mut()
                        .expect("feeding outside a representative window")
                        .access_chunk(&evs[off as usize..until as usize]);
                    off = until;
                }
            }
        }
        let pos = reader.events_read() + reader.events_skipped();
        while seg_i < segments.len() && segments[seg_i].1 <= pos {
            seg_i += 1;
        }
    }
    apply_marks_through!(plan.total_events);
    if warm_open {
        memsim_obs::recorder::span_end("sample.warm");
    }

    let cluster_runs: Vec<ClusterRun> = runs
        .into_iter()
        .map(|r| r.expect("every representative measured"))
        .collect();

    // extrapolate: population-weighted cluster deltas, plus (Functional
    // only) the end-of-run drain flush, once and unweighted — it is a
    // terminal artifact of the whole run, not of any interval. At
    // clusters == intervals the weighted sum telescopes to the exact
    // pre-drain counters and this lands the exact finals.
    let level_names: Vec<String> = cluster_runs[0]
        .caches
        .iter()
        .map(|s| s.name.clone())
        .collect();
    let mut caches: Vec<LevelStats> = level_names
        .into_iter()
        .map(|name| LevelStats {
            name,
            ..Default::default()
        })
        .collect();
    let mut mem = LevelStats {
        name: MEM_NAME.to_string(),
        ..Default::default()
    };
    let mut per_region = vec![RegionTraffic::default(); regions.len()];
    let mut total_refs = 0u64;
    for cr in &cluster_runs {
        for (acc, d) in caches.iter_mut().zip(cr.caches.iter()) {
            stats_scaled_add(acc, d, cr.weight);
        }
        stats_scaled_add(&mut mem, &cr.mem, cr.weight);
        for (acc, d) in per_region.iter_mut().zip(cr.per_region.iter()) {
            acc.loads += d.loads * cr.weight;
            acc.stores += d.stores * cr.weight;
            acc.bytes_loaded += d.bytes_loaded * cr.weight;
            acc.bytes_stored += d.bytes_stored * cr.weight;
        }
        total_refs += cr.refs * cr.weight;
    }
    if functional {
        let h = hierarchy.as_mut().expect("live hierarchy");
        let pre = snap(h);
        h.drain();
        h.assert_consistent();
        let post = snap(h);
        for (acc, (e, s)) in caches
            .iter_mut()
            .zip(post.levels.iter().zip(pre.levels.iter()))
        {
            stats_scaled_add(acc, &stats_delta(e, s), 1);
        }
        stats_scaled_add(&mut mem, &stats_delta(&post.mem, &pre.mem), 1);
        for (acc, d) in per_region
            .iter_mut()
            .zip(traffic_delta(&post.traffic, &pre.traffic).iter())
        {
            acc.loads += d.loads;
            acc.stores += d.stores;
            acc.bytes_loaded += d.bytes_loaded;
            acc.bytes_stored += d.bytes_stored;
        }
        total_refs += post.refs - pre.refs;
    }

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
    }
    span.add_events(cluster_runs.iter().map(|c| c.refs).sum());

    Ok(RawRun {
        caches,
        mem,
        per_region,
        region_names: regions.iter().map(|r| r.name.clone()).collect(),
        region_sizes: regions.iter().map(|r| r.len).collect(),
        region_starts: regions.iter().map(|r| r.start).collect(),
        total_refs,
        footprint_bytes: regions.iter().map(|r| r.len).sum(),
        sample: Some(SampleDetail {
            spec: plan.spec,
            intervals: plan.intervals,
            cluster_runs,
        }),
    })
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

/// Memoized [`build_plan`]: one plan per `(trace path, spec)` per
/// process, shared across every structure of a grid, and persisted to a
/// sidecar in [`sample_trace_dir`] so later *processes* skip the
/// signature pass over the trace as well (the sidecar is keyed by the
/// trace's size and mtime and silently rebuilt when stale).
pub fn plan_for(path: &Path, spec: SampleSpec) -> Result<Arc<SamplePlan>, String> {
    static PLANS: OnceLock<Mutex<HashMap<(PathBuf, SampleSpec), PlanCell>>> = OnceLock::new();
    let map = PLANS.get_or_init(|| Mutex::new(HashMap::new()));
    let cell = {
        let mut map = map.lock().expect("plan cache poisoned");
        Arc::clone(map.entry((path.to_path_buf(), spec)).or_default())
    };
    cell.get_or_init(|| {
        let sidecar = trace_identity(path).map(|id| plan_sidecar_path(path, spec, id));
        if let Some(sc) = &sidecar {
            if let Some(plan) = load_plan_sidecar(sc, spec) {
                return Ok(Arc::new(plan));
            }
        }
        let plan = build_plan(path, spec)?;
        if let Some(sc) = &sidecar {
            store_plan_sidecar(sc, &plan);
        }
        Ok(Arc::new(plan))
    })
    .clone()
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

/// Sidecar file for one `(trace, identity, spec)` triple. DefaultHasher
/// is keyed with process-independent constants, so the name is stable
/// across processes; a store trace's path carries its build identity.
fn plan_sidecar_path(path: &Path, spec: SampleSpec, identity: (u64, u64)) -> PathBuf {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    path.hash(&mut h);
    identity.hash(&mut h);
    spec.hash(&mut h);
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
        if representative >= intervals || weight as usize != members.len() {
            return None;
        }
        clusters.push(SampleCluster {
            representative,
            weight,
            members,
        });
    }
    let covered: u64 = clusters.iter().map(|c| c.weight).sum();
    if clusters.is_empty() || covered != intervals {
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
        let m = SampleMode::parse("interval=64k,clusters=3,warmup=cold").unwrap();
        assert_eq!(
            m,
            SampleMode::On(SampleSpec {
                interval: 64_000,
                clusters: 3,
                warmup: Warmup::Cold,
            })
        );
        assert_eq!(SampleMode::parse(&m.canon()).unwrap(), m);
        assert_eq!(SampleMode::Off.canon(), "off");
        assert!(SampleMode::parse("interval=0").is_err());
        assert!(SampleMode::parse("clusters=0").is_err());
        assert!(SampleMode::parse("warmup=warm").is_err());
        assert!(SampleMode::parse("bogus=1").is_err());
        assert!(SampleMode::parse("interval").is_err());
    }

    #[test]
    fn plan_sidecar_round_trips_and_rejects_mismatches() {
        let spec = SampleSpec {
            interval: 1000,
            clusters: 2,
            warmup: Warmup::Functional,
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
            warmup: Warmup::Functional,
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
    fn plan_is_deterministic() {
        let events: Vec<TraceEvent> = (0..50_000u64)
            .map(|i| TraceEvent::load((i * 7919) % (1 << 20), 8))
            .collect();
        let path = temp("det.trace");
        write_trace(&path, &events);
        let spec = SampleSpec {
            interval: 8_192,
            clusters: 3,
            warmup: Warmup::Functional,
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
