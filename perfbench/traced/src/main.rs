//! `perfbench-trace --workload NAME --dir RUN_DIR [--trace FILE]`: the
//! per-layer traced run of one benchmark workload (perfbench/WORKLOADS.md).
//!
//! It feeds the workload's inputs (the same kernels, scales, traces and
//! cache structures its end-to-end step uses) through the crates' public
//! functions and times every call into a layer with the benchmark's own
//! spans: name, start, end and parent, kept in memory and printed at the
//! end as one JSON document with the per-layer metrics. A layer's self
//! time is its span time minus its child spans' time.
//!
//! Two passes per input stream:
//!
//! * **stream** runs each layer once over the whole stream: kernel
//!   build/emit/verify, trace encode/decode, one cache walk per structure,
//!   Eq. 1–4 costing of every design (and, for `sampled_sweep`, the plan
//!   and the sampled window replays). The self time of the layers the
//!   end-to-end measured step runs is printed beside its `wall_s`.
//! * **diag** repeats short walks over a prefix of the stream to split
//!   time by level (prefix hierarchies L1, L1–L2, L1–L3, L1–L4), to time
//!   the memory terminal, and to compare the walk with and without the
//!   observability probes.
//!
//! Layers a workload does not exercise (sampling outside `sampled_sweep`,
//! trace files in `live_sweep`) are measured over that workload's own
//! streams, so every run reports every metric.

use memsim_cache::{Cache, Hierarchy, HierarchyProbes, MainMemory};
use memsim_core::configs::{eh_configs, n_configs};
use memsim_core::runner::{build_caches, evaluate_run};
use memsim_core::sampling::{build_plan, replay_structure_sampled};
use memsim_core::{named_designs, parse_design_list, Design, RawRun, SampleMode, Scale, Structure};
use memsim_memory::PartitionedMemory;
use memsim_obs::MetricsRegistry;
use memsim_tech::Technology;
use memsim_trace::{CountingSink, Region, TraceEvent, TraceSink};
use memsim_tracefile::{TraceHeader, TraceReader, TraceWriter};
use memsim_workloads::{Class, WorkloadKind};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// The sampled workload's spec, as its end-to-end command passes it.
const SAMPLE_SPEC: &str = "interval=1m,clusters=12";
/// Trace chunks (4096 events each) decoded into memory per stream: whole
/// streams, except the demo-scale AMG2013 trace, whose first 16.7M events
/// stand in for it in the cache walks (its end-to-end step replays
/// sampled windows, not the whole stream).
const MAX_CHUNKS: usize = 4096;
/// Diag walks cover at most this many pieces (1M events) of each stream.
const DIAG_PIECES: usize = 256;
/// Diag rounds; each diag number is the median over the rounds.
const DIAG_ROUNDS: usize = 5;

// ------------------------------------------------------------------ spans

struct Span {
    name: String,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// The benchmark's own span recorder.
struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.stack.last().copied(),
            start_ns: self.now(),
            end_ns: 0,
        });
        self.stack.push(id);
        id
    }

    /// Close span `id` (the innermost open one); returns its duration in ns.
    fn end(&mut self, id: usize) -> u64 {
        assert_eq!(self.stack.pop(), Some(id), "spans must nest");
        let end = self.now();
        self.spans[id].end_ns = end;
        end - self.spans[id].start_ns
    }

    /// Run `f` inside a span called `name`; returns its result and the
    /// span's duration in nanoseconds.
    fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> (T, u64) {
        let id = self.begin(name);
        let out = f(self);
        (out, self.end(id))
    }

    /// Self time per span name, in seconds: duration minus child spans.
    fn self_times(&self) -> BTreeMap<String, f64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = (s.end_ns - s.start_ns).saturating_sub(child[i]);
            *out.entry(s.name.clone()).or_insert(0.0) += own as f64 / 1e9;
        }
        out
    }

    fn json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                    s.name, s.start_ns, s.end_ns
                )
            })
            .collect();
        format!("[{}]", rows.join(","))
    }
}

// ------------------------------------------------------------ layer glue

/// A run of the stream, delivered to a sink the way the source delivered
/// it: as one `access_chunk` batch, or event by event. The hierarchy's
/// batched L1 probe serves only the former, so a walk must replay both
/// kinds as they came.
struct Piece {
    batched: bool,
    events: Vec<TraceEvent>,
}

/// A sink that keeps a kernel's stream, delivery by delivery.
#[derive(Default)]
struct Capture {
    pieces: Vec<Piece>,
}

impl TraceSink for Capture {
    fn access(&mut self, ev: TraceEvent) {
        match self.pieces.last_mut() {
            Some(p) if !p.batched && p.events.len() < CHUNK => p.events.push(ev),
            _ => self.pieces.push(Piece {
                batched: false,
                events: vec![ev],
            }),
        }
    }

    fn access_chunk(&mut self, events: &[TraceEvent]) {
        self.pieces.push(Piece {
            batched: true,
            events: events.to_vec(),
        });
    }
}

const CHUNK: usize = memsim_tracefile::TRACE_CHUNK_EVENTS;

/// The memory terminal behind a per-request timer.
struct TimedMemory {
    inner: PartitionedMemory,
    ns: u64,
    requests: u64,
}

impl MainMemory for TimedMemory {
    fn load(&mut self, addr: u64, bytes: u32) {
        let t = Instant::now();
        self.inner.load(addr, bytes);
        self.ns += t.elapsed().as_nanos() as u64;
        self.requests += 1;
    }

    fn store(&mut self, addr: u64, bytes: u32) {
        let t = Instant::now();
        self.inner.store(addr, bytes);
        self.ns += t.elapsed().as_nanos() as u64;
        self.requests += 1;
    }
}

/// Cost of one empty `Instant::now()` / `elapsed()` pair, in ns: what the
/// timed memory wrapper adds to each request it times.
fn timer_overhead_ns() -> f64 {
    let n = 200_000u64;
    let mut total = 0u64;
    for _ in 0..n {
        let t = Instant::now();
        total += std::hint::black_box(t).elapsed().as_nanos() as u64;
    }
    total as f64 / n as f64
}

fn feed<S: TraceSink>(sink: &mut S, pieces: &[Piece]) {
    for p in pieces {
        let events = std::hint::black_box(&p.events);
        if p.batched {
            sink.access_chunk(events);
        } else {
            for &ev in events {
                sink.access(ev);
            }
        }
    }
}

fn walk<M: MainMemory>(caches: Vec<Cache>, memory: M, pieces: &[Piece]) -> Hierarchy<M> {
    let mut h = Hierarchy::new(caches, memory);
    feed(&mut h, pieces);
    h.drain();
    h
}

fn stream(pieces: &[Piece]) -> impl Iterator<Item = &TraceEvent> {
    pieces.iter().flat_map(|p| p.events.iter())
}

fn events_in(pieces: &[Piece]) -> u64 {
    pieces.iter().map(|p| p.events.len() as u64).sum()
}

/// The [`RawRun`] a drained hierarchy stands for, assembled as the
/// simulator's own live and replay paths assemble it.
fn raw_run(h: Hierarchy<PartitionedMemory>, regions: &[Region]) -> RawRun {
    let total_refs = h.total_refs();
    let caches = h.levels().iter().map(|c| c.stats()).collect();
    let part = h.into_memory();
    let mut mem = part.dram_stats().clone();
    mem.name = "MEM".to_string();
    RawRun {
        caches,
        mem,
        per_region: part.traffic().to_vec(),
        region_names: regions.iter().map(|r| r.name.clone()).collect(),
        region_sizes: regions.iter().map(|r| r.len).collect(),
        region_starts: regions.iter().map(|r| r.start).collect(),
        total_refs,
        footprint_bytes: regions.iter().map(|r| r.len).sum(),
        sample: None,
    }
}

fn scale_of(class: Class) -> Scale {
    match class {
        Class::Mini => Scale::mini(),
        Class::Demo => Scale::demo(),
        Class::Large => Scale::paper(),
    }
}

/// Every design of the paper's grid (Figs. 1–8): baseline, NMM over
/// N1–N9 × 3 NVMs, 4LC and 4LCNVM over EH1–EH8 × 2 LLCs (× 3 NVMs), NDM.
fn paper_grid() -> Vec<Design> {
    let mut grid = vec![Design::Baseline];
    for config in n_configs() {
        for nvm in Technology::NVM {
            grid.push(Design::Nmm { nvm, config });
        }
    }
    for config in eh_configs() {
        for llc in Technology::FAST_LLC {
            grid.push(Design::FourLc { llc, config });
            for nvm in Technology::NVM {
                grid.push(Design::FourLcNvm { llc, nvm, config });
            }
        }
    }
    for nvm in Technology::NVM {
        grid.push(Design::Ndm { nvm });
    }
    grid
}

fn structures(designs: &[Design], scale: &Scale) -> Vec<Structure> {
    let mut out: Vec<Structure> = Vec::new();
    for d in designs {
        let s = d.structure(scale);
        if !out.contains(&s) {
            out.push(s);
        }
    }
    out
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

// ---------------------------------------------------------------- inputs

/// Where a stream comes from: a live kernel, or a trace recorded in the
/// end-to-end set-up step.
enum Source {
    Live(WorkloadKind, Class),
    File(PathBuf),
}

struct Input {
    source: Source,
    designs: Vec<Design>,
}

struct Workload {
    inputs: Vec<Input>,
    /// Main pass replays sampled windows (`sampled_sweep`).
    sampled: bool,
    /// The layers whose spans the end-to-end measured step also runs:
    /// their self time is the traced total printed beside `wall_s`.
    step_layers: &'static [&'static str],
}

fn workload(name: &str, trace: Option<PathBuf>) -> Result<Workload, String> {
    let file = |what: &str| {
        trace
            .clone()
            .ok_or_else(|| format!("{what} needs --trace FILE"))
    };
    let live = |kind, designs: &[Design]| Input {
        source: Source::Live(kind, Class::Mini),
        designs: designs.to_vec(),
    };
    let named: Vec<Design> = named_designs().into_iter().map(|(_, d)| d).collect();
    Ok(match name {
        "live_sweep" => Workload {
            inputs: [WorkloadKind::Cg, WorkloadKind::Graph500, WorkloadKind::Lu]
                .into_iter()
                .map(|k| live(k, &paper_grid()))
                .collect(),
            sampled: false,
            step_layers: &[
                "workloads.build",
                "workloads.emit",
                "workloads.verify",
                "cache.walk",
                "model.cost",
            ],
        },
        "replay_full" => Workload {
            inputs: vec![Input {
                source: Source::File(file(name)?),
                designs: named,
            }],
            sampled: false,
            step_layers: &["tracefile.decode", "cache.walk", "model.cost"],
        },
        "sampled_sweep" => Workload {
            inputs: vec![Input {
                source: Source::File(file(name)?),
                designs: named,
            }],
            sampled: true,
            step_layers: &["sampling.plan", "sampling.window", "model.cost"],
        },
        "serve" => Workload {
            inputs: vec![
                live(WorkloadKind::Cg, &[Design::Baseline]),
                live(WorkloadKind::Hash, &[Design::Baseline]),
                live(
                    WorkloadKind::Lu,
                    &parse_design_list("baseline,nmm,ndm").expect("valid design list"),
                ),
            ],
            sampled: false,
            step_layers: &[
                "workloads.build",
                "workloads.emit",
                "workloads.verify",
                "cache.walk",
                "model.cost",
            ],
        },
        other => return Err(format!("unknown workload '{other}'")),
    })
}

// ---------------------------------------------------------------- the run

/// Counts gathered beside the spans (the spans give the times).
#[derive(Default)]
struct Counts {
    builds: u64,
    emitted: u64,
    verifies: u64,
    encoded: u64,
    encoded_bytes: u64,
    decoded: u64,
    walked: u64,
    level_hits: [u64; 4],
    level_accesses: [u64; 4],
    line_buffer_hits: u64,
    memory_requests: u64,
    points: u64,
    plan_events: u64,
    plan_simulated: u64,
    window_events: u64,
    sample_err: f64,
    /// Per cache level: Σ over streams of the marginal diag walk time
    /// (ns) the level adds, and the refs those walks covered.
    level_ns: [f64; 4],
    level_refs: [u64; 4],
    memory_ns_per_request: Vec<f64>,
    probe_overhead_pct: Vec<f64>,
    checks: Vec<(String, bool)>,
    designs: Vec<(String, f64, f64)>,
}

struct Run<'a> {
    tr: Tracer,
    c: Counts,
    dir: &'a Path,
    timer_ns: f64,
}

/// Sample error of `sampled` against `full`: worst relative |Δ| over AMAT
/// and energy of `designs`, in percent.
fn sample_err(
    kind: WorkloadKind,
    scale: &Scale,
    designs: &[Design],
    full: &[(Structure, Arc<RawRun>)],
    sampled: &[(Structure, Arc<RawRun>)],
) -> f64 {
    let mut worst = 0.0f64;
    for d in designs {
        let s = d.structure(scale);
        let find = |runs: &[(Structure, Arc<RawRun>)]| {
            runs.iter()
                .find(|(rs, _)| *rs == s)
                .map(|(_, r)| Arc::clone(r))
        };
        let (Some(f), Some(p)) = (find(full), find(sampled)) else {
            continue;
        };
        let f = evaluate_run(kind, scale, d, f).metrics;
        let p = evaluate_run(kind, scale, d, p).metrics;
        worst = worst
            .max((p.amat_ns - f.amat_ns).abs() / f.amat_ns)
            .max((p.energy_j() - f.energy_j()).abs() / f.energy_j());
    }
    100.0 * worst
}

impl Run<'_> {
    /// Kernel layer: build, emit into a counting sink, verify; then a
    /// second run captures the stream for the trace and cache layers.
    fn kernel(
        &mut self,
        kind: WorkloadKind,
        class: Class,
        capture: bool,
    ) -> Option<(Vec<Piece>, Vec<Region>, TraceHeader)> {
        let (mut w, _) = self.tr.span("workloads.build", |_| kind.build(class));
        let mut sink = CountingSink::new();
        self.tr.span("workloads.emit", |_| w.run(&mut sink));
        let (verified, _) = self.tr.span("workloads.verify", |_| w.verify());
        self.c.builds += 1;
        self.c.verifies += 1;
        self.c.emitted += sink.total();
        self.c
            .checks
            .push((format!("{} verifies", kind.name()), verified.is_ok()));
        if !capture {
            return None;
        }
        let header = TraceHeader::for_space(w.space(), kind.name(), class.name());
        let regions = w.space().regions().to_vec();
        let mut w = kind.build(class);
        let mut cap = Capture::default();
        self.tr.span("capture", |_| w.run(&mut cap));
        Some((cap.pieces, regions, header))
    }

    fn encode(&mut self, pieces: &[Piece], header: &TraceHeader, path: &Path) {
        let (bytes, _) = self.tr.span("tracefile.encode", |_| {
            let mut wr = TraceWriter::create(path, header).expect("create trace file");
            feed(&mut wr, pieces);
            wr.finish().expect("finish trace file");
            std::fs::metadata(path).expect("trace file written").len()
        });
        self.c.encoded += events_in(pieces);
        self.c.encoded_bytes += bytes;
    }

    /// Decode up to MAX_CHUNKS chunks, delivered as the replay path
    /// delivers them: one batch per chunk.
    fn decode(&mut self, path: &Path) -> Vec<Piece> {
        let (pieces, _) = self.tr.span("tracefile.decode", |_| {
            let mut rd = TraceReader::open(path).expect("open trace file");
            let mut pieces = Vec::new();
            while pieces.len() < MAX_CHUNKS {
                match rd.next_chunk().expect("decode trace chunk") {
                    Some(c) => pieces.push(Piece {
                        batched: true,
                        events: c.to_vec(),
                    }),
                    None => break,
                }
            }
            pieces
        });
        self.c.decoded += events_in(&pieces);
        pieces
    }

    /// One full cache walk per structure; harvests counts and RawRuns.
    fn walks(
        &mut self,
        scale: &Scale,
        structs: &[Structure],
        pieces: &[Piece],
        regions: &[Region],
    ) -> Vec<(Structure, Arc<RawRun>)> {
        let mut runs = Vec::new();
        for s in structs {
            let caches = build_caches(scale, s);
            let mem = PartitionedMemory::new(regions, Technology::Pcm);
            let (h, _) = self.tr.span("cache.walk", |_| walk(caches, mem, pieces));
            h.assert_consistent();
            self.c.walked += h.total_refs();
            self.c.line_buffer_hits += h.line_buffer_hits();
            for (i, lvl) in h.levels().iter().enumerate() {
                let st = lvl.stats();
                self.c.level_hits[i] += st.hits();
                self.c.level_accesses[i] += st.accesses();
            }
            let mem = h.memory().dram_stats();
            self.c.memory_requests += mem.loads + mem.stores;
            runs.push((*s, Arc::new(raw_run(h, regions))));
        }
        runs
    }

    fn cost(
        &mut self,
        kind: WorkloadKind,
        scale: &Scale,
        designs: &[Design],
        runs: &[(Structure, Arc<RawRun>)],
        record: bool,
    ) {
        for d in designs {
            let s = d.structure(scale);
            let Some((_, run)) = runs.iter().find(|(rs, _)| *rs == s) else {
                continue;
            };
            let run = Arc::clone(run);
            let (r, _) = self
                .tr
                .span("model.cost", |_| evaluate_run(kind, scale, d, run));
            self.c.points += 1;
            if record {
                self.c
                    .designs
                    .push((d.label(), r.metrics.amat_ns, r.metrics.energy_j()));
            }
        }
    }

    /// Sampling layer over one trace: plan, then sampled window replays.
    fn sampled(
        &mut self,
        path: &Path,
        scale: &Scale,
        structs: &[Structure],
    ) -> Vec<(Structure, Arc<RawRun>)> {
        let SampleMode::On(spec) = SampleMode::parse(SAMPLE_SPEC).expect("valid sample spec")
        else {
            unreachable!("the spec turns sampling on")
        };
        let (plan, _) = self.tr.span("sampling.plan", |_| {
            build_plan(path, spec).expect("sample plan")
        });
        self.c.plan_events += plan.total_events;
        self.c.plan_simulated += plan.simulated_events();
        let mut runs = Vec::new();
        for s in structs {
            let (run, _) = self.tr.span("sampling.window", |_| {
                replay_structure_sampled(path, scale, s, &plan).expect("sampled replay")
            });
            self.c.window_events += plan.simulated_events();
            runs.push((*s, Arc::new(run)));
        }
        runs
    }

    /// Level split, memory terminal and probe overhead over a prefix.
    fn diag(&mut self, scale: &Scale, structs: &[Structure], pieces: &[Piece], regions: &[Region]) {
        let prefix = &pieces[..pieces.len().min(DIAG_PIECES)];
        let three = build_caches(scale, &Structure::ThreeLevel);
        let four = structs
            .iter()
            .find(|s| matches!(s, Structure::WithL4 { .. }))
            .map(|s| build_caches(scale, s));
        let mem = || PartitionedMemory::new(regions, Technology::Pcm);
        let mut times: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let mut mem_ns = Vec::new();
        let mut probe_pct = Vec::new();
        for _ in 0..DIAG_ROUNDS {
            let mut time = |tr: &mut Tracer, name: &'static str, caches: Vec<Cache>| {
                let (_, ns) = tr.span(name, |_| walk(caches, mem(), prefix));
                times.entry(name).or_default().push(ns as f64);
            };
            time(&mut self.tr, "diag.L1", three[..1].to_vec());
            time(&mut self.tr, "diag.L1-L2", three[..2].to_vec());
            time(&mut self.tr, "diag.L1-L3", three.clone());
            if let Some(four) = &four {
                time(&mut self.tr, "diag.L1-L4", four.clone());
            }
            // the same walk with probes, right after the plain one: the
            // pair's ratio is taken per round, so host drift cancels
            let (_, ns) = self.tr.span("diag.L1-L3+probes", |_| {
                let reg = MetricsRegistry::new();
                let mut h = Hierarchy::new(three.clone(), mem());
                h.set_probes(HierarchyProbes::register(
                    &reg,
                    "bench",
                    &["L1", "L2", "L3"],
                ));
                feed(&mut h, prefix);
                h.drain();
            });
            let plain = *times["diag.L1-L3"].last().expect("timed above");
            probe_pct.push(100.0 * (ns as f64 - plain) / plain);
            let (h, _) = self.tr.span("diag.memory", |_| {
                let timed = TimedMemory {
                    inner: mem(),
                    ns: 0,
                    requests: 0,
                };
                walk(three.clone(), timed, prefix)
            });
            let m = h.memory();
            if m.requests > 0 {
                mem_ns.push(m.ns as f64 / m.requests as f64 - self.timer_ns);
            }
        }
        // marginal cost of each level: the prefix hierarchy with it minus
        // the one without it, on the same events
        let refs = events_in(prefix);
        let mut below = 0.0;
        for (i, name) in ["diag.L1", "diag.L1-L2", "diag.L1-L3", "diag.L1-L4"]
            .iter()
            .enumerate()
        {
            let Some(v) = times.remove(name) else { break };
            let t = median(v);
            self.c.level_ns[i] += t - below;
            self.c.level_refs[i] += refs;
            below = t;
        }
        if !mem_ns.is_empty() {
            self.c.memory_ns_per_request.push(median(mem_ns));
        }
        self.c.probe_overhead_pct.push(median(probe_pct));
    }

    fn input(&mut self, input: &Input, first: bool, sampled_main: bool) {
        let (kind, class, header) = match &input.source {
            Source::Live(kind, class) => (*kind, *class, None),
            Source::File(path) => {
                let header = TraceReader::open(path)
                    .expect("open trace")
                    .header()
                    .clone();
                let kind = WorkloadKind::parse(&header.workload).expect("trace names its kernel");
                let class = Class::parse(&header.class).expect("trace names its class");
                (kind, class, Some(header))
            }
        };
        let id = self.tr.begin(&format!("stream.{}", kind.name()));
        let (pieces, regions, trace) = match (&input.source, header) {
            (Source::File(path), Some(header)) => {
                self.kernel(kind, class, false);
                let pieces = self.decode(path);
                let copy = self.dir.join("reencoded.trace");
                self.encode(&pieces, &header, &copy);
                std::fs::remove_file(&copy).expect("remove re-encoded trace");
                (pieces, header.regions, path.clone())
            }
            _ => {
                let (pieces, regions, header) =
                    self.kernel(kind, class, true).expect("captured stream");
                let path = self.dir.join(format!("{}.trace", kind.name()));
                self.encode(&pieces, &header, &path);
                let decoded = self.decode(&path);
                self.c.checks.push((
                    format!("{} trace round trip", kind.name()),
                    stream(&decoded).eq(stream(&pieces)),
                ));
                (pieces, regions, path)
            }
        };
        let scale = scale_of(class);
        let structs = structures(&input.designs, &scale);
        let whole = pieces.len() < MAX_CHUNKS;
        let full = self.walks(&scale, &structs, &pieces, &regions);
        if sampled_main {
            let runs = self.sampled(&trace, &scale, &structs);
            self.cost(kind, &scale, &input.designs, &runs, true);
        } else {
            self.cost(kind, &scale, &input.designs, &full, whole);
        }
        self.tr.end(id);
        if first && !sampled_main {
            // the sampling layer over this workload's own stream
            let id = self.tr.begin("probe.sampling");
            let three = [Structure::ThreeLevel];
            let runs = self.sampled(&trace, &scale, &three);
            self.c.sample_err = sample_err(kind, &scale, &[Design::Baseline], &full, &runs);
            self.tr.end(id);
        }
        let id = self.tr.begin(&format!("diag.{}", kind.name()));
        self.diag(&scale, &structs, &pieces, &regions);
        self.tr.end(id);
    }
}

fn metrics_json(c: &Counts, self_s: &BTreeMap<String, f64>) -> String {
    let t = |name: &str| self_s.get(name).copied().unwrap_or(0.0);
    let per = |secs: f64, n: u64| if n == 0 { 0.0 } else { secs * 1e9 / n as f64 };
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let level = |i: usize| c.level_ns[i] / c.level_refs[i].max(1) as f64;
    let mut m: Vec<(String, f64)> = vec![
        (
            "workloads.build_ms".into(),
            1e3 * t("workloads.build") / c.builds.max(1) as f64,
        ),
        (
            "workloads.emit_ns_per_ref".into(),
            per(t("workloads.emit"), c.emitted),
        ),
        (
            "workloads.verify_ms".into(),
            1e3 * t("workloads.verify") / c.verifies.max(1) as f64,
        ),
        (
            "tracefile.encode_ns_per_ref".into(),
            per(t("tracefile.encode"), c.encoded),
        ),
        (
            "tracefile.decode_ns_per_ref".into(),
            per(t("tracefile.decode"), c.decoded),
        ),
        (
            "tracefile.bytes_per_ref".into(),
            ratio(c.encoded_bytes, c.encoded),
        ),
        (
            "cache.walk_ns_per_ref".into(),
            per(t("cache.walk"), c.walked),
        ),
        ("cache.L1.ns_per_ref".into(), level(0)),
        ("cache.L2.ns_per_ref".into(), level(1)),
        ("cache.L3.ns_per_ref".into(), level(2)),
        ("cache.L4.ns_per_ref".into(), level(3)),
    ];
    for (i, lvl) in ["L1", "L2", "L3", "L4"].iter().enumerate() {
        m.push((
            format!("cache.{lvl}.hit_ratio"),
            ratio(c.level_hits[i], c.level_accesses[i]),
        ));
    }
    m.extend([
        (
            "cache.line_buffer_frac".into(),
            ratio(c.line_buffer_hits, c.walked),
        ),
        (
            "memory.ns_per_access".into(),
            median(c.memory_ns_per_request.clone()),
        ),
        (
            "memory.accesses_per_kref".into(),
            1e3 * ratio(c.memory_requests, c.walked),
        ),
        (
            "model.cost_us_per_point".into(),
            1e6 * t("model.cost") / c.points.max(1) as f64,
        ),
        ("sampling.plan_ms".into(), 1e3 * t("sampling.plan")),
        (
            "sampling.sim_event_frac".into(),
            ratio(c.plan_simulated, c.plan_events),
        ),
        (
            "sampling.window_ns_per_ref".into(),
            per(t("sampling.window"), c.window_events),
        ),
        ("sampling.err_pct".into(), c.sample_err),
        (
            "obs.probe_overhead_pct".into(),
            median(c.probe_overhead_pct.clone()),
        ),
    ]);
    let rows: Vec<String> = m
        .iter()
        .map(|(k, v)| format!("\"{k}\":{}", if v.is_finite() { *v } else { 0.0 }))
        .collect();
    format!("{{{}}}", rows.join(","))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let (Some(name), Some(dir)) = (get("--workload"), get("--dir")) else {
        eprintln!("usage: perfbench-trace --workload NAME --dir RUN_DIR [--trace FILE]");
        std::process::exit(2);
    };
    let wl = match workload(&name, get("--trace").map(PathBuf::from)) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench-trace: {e}");
            std::process::exit(2);
        }
    };
    let dir = PathBuf::from(dir);
    let mut run = Run {
        tr: Tracer::new(),
        c: Counts::default(),
        dir: &dir,
        timer_ns: timer_overhead_ns(),
    };
    let root = run.tr.begin(&format!("trace.{name}"));
    for (i, input) in wl.inputs.iter().enumerate() {
        run.input(input, i == 0, wl.sampled);
    }
    let total = run.tr.end(root) as f64 / 1e9;
    let self_s = run.tr.self_times();
    let step_s: f64 = wl
        .step_layers
        .iter()
        .filter_map(|name| self_s.get(*name))
        .sum();
    let checks: Vec<String> = run
        .c
        .checks
        .iter()
        .map(|(k, ok)| format!("[\"{k}\",{ok}]"))
        .collect();
    let designs: Vec<String> = run
        .c
        .designs
        .iter()
        .map(|(k, a, e)| format!("\"{k}\":{{\"amat_ns\":{a},\"energy_j\":{e}}}"))
        .collect();
    let self_rows: Vec<String> = self_s.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    println!(
        "{{\"metrics\":{},\"total_s\":{step_s},\"tracer_s\":{total},\"self_s\":{{{}}},\"checks\":[{}],\"designs\":{{{}}},\"spans\":{}}}",
        metrics_json(&run.c, &self_s),
        self_rows.join(","),
        checks.join(","),
        designs.join(","),
        run.tr.json()
    );
}
