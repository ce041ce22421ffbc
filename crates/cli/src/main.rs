//! `memsim` — command-line front end for the hybrid memory simulator.
//!
//! ```text
//! memsim list
//! memsim table tech|eh-configs|nmm-configs|table4 [--scale S] [--workloads W]
//! memsim figure fig1|fig2|...|fig10 [--scale S] [--workloads W] [--csv] [--threads N]
//! memsim run --workload cg --design nmm --nvm pcm --config N5 [--scale S]
//! memsim heatmap latency|energy [--scale S] [--workloads W] [--csv]
//! memsim reproduce --out repro [--resume] [--progress]
//! memsim record cg -o cg.trace [--scale S]
//! memsim replay cg.trace [--designs D,D] [--threads N]
//! memsim trace-info cg.trace
//! ```
//!
//! Sweep commands (`reproduce`, and `table`/`figure`/`heatmap` with
//! `--out DIR`) journal every completed point to
//! `DIR/sweep.journal.jsonl`; `--resume` restores those points instead of
//! re-simulating, and ctrl-c drains in-flight points before exiting with
//! the exact resume command.

mod interrupt;
mod output;

use memsim_core::configs::{eh_by_name, eh_configs, n_by_name, n_configs};
use memsim_core::experiments::{self, ExperimentCtx, Metric};
use memsim_core::report::{heatmap_to_csv, heatmap_to_markdown};
use memsim_core::runner::evaluate_grid_sweep;
use memsim_core::{
    Design, EvalResult, SampleMode, Scale, SimCache, Source, SweepCtx, SweepError, JOURNAL_FILE,
};
use memsim_obs::json;
use memsim_tech::Technology;
use memsim_tracefile::TraceReader;
use memsim_workloads::{Class, WorkloadKind};
use output::{Mode, Report};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {}", e.message);
            if e.show_usage {
                eprintln!();
                eprintln!("{}", usage());
            }
            ExitCode::FAILURE
        }
    }
}

/// A CLI failure: usage errors print the help text after the message,
/// runtime failures (failed sweep points, an interrupt) do not — the
/// command line was fine, the run was not.
#[derive(Debug)]
struct CliError {
    message: String,
    show_usage: bool,
}

impl CliError {
    /// A failure of the run itself, not of the invocation.
    fn runtime(message: String) -> Self {
        Self {
            message,
            show_usage: false,
        }
    }
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        Self {
            message,
            show_usage: true,
        }
    }
}

impl From<&str> for CliError {
    fn from(message: &str) -> Self {
        Self::from(message.to_string())
    }
}

fn usage() -> &'static str {
    "usage:\n  memsim list\n  memsim table <tech|eh-configs|nmm-configs|table4> [options]\n  memsim figure <fig1..fig10> [options]\n  memsim run --workload <W> --design <baseline|4lc|nmm|4lcnvm|ndm> [--llc T] [--nvm T] [--config C] [options]\n  memsim heatmap <latency|energy> [options]\n  memsim reproduce [--out DIR] [--resume] [options]\n  memsim analyze --workload <W> [options]\n  memsim record <W> -o FILE [options]      record W's address stream to a trace file\n  memsim replay <FILE> [--designs a,b,c]   evaluate designs against a recorded trace\n  memsim trace-info <FILE>                 inspect a trace file\n  memsim serve [--port P|auto] [--state DIR] [--threads N] [--queue N]\n                                           run the simulation-as-a-service daemon\n  memsim submit --addr H:P --artifact A | --replay W [--designs a,b] [options]\n                                           submit a job, wait, print/fetch the result\n  memsim status <JOB-ID> --addr H:P        query one job's status\noptions:\n  --scale mini|demo|paper   capacity scale (default demo)\n  --workloads a,b,c         benchmark subset (default: the Table 4 set)\n  --threads N               lane budget: threads that walk structures and cost points\n  --shards seq|auto|1       accepted for compatibility: every value names the one\n                            group walk, whose lanes --threads sets; others are refused\n                            (reproduce/figure/heatmap/replay/submit)\n  --sample MODE             interval sampling: off (default), on, or\n                            interval=N,clusters=K — simulate one representative\n                            interval per cluster after a one-interval warm-up and\n                            extrapolate with confidence intervals\n  --out DIR                 journal completed sweep points to DIR/sweep.journal.jsonl\n                            (table4/figure/heatmap; reproduce always journals)\n  --resume                  skip points already journaled in --out DIR\n  --csv                     CSV instead of markdown\n  --json                    one JSON object instead of human text (run/replay/record/trace-info)\n  --quiet                   suppress stdout (run/replay/record/trace-info)\n  --progress                live progress line + end-of-run phase timings (run/replay/record/reproduce)\n  --metrics-out FILE        write the metrics/span dump as deterministic JSON (run/replay/record/reproduce)\n  --trace-out FILE          record a flight-recorder timeline and write it as Chrome\n                            trace-event JSON for ui.perfetto.dev / chrome://tracing\n                            (run/replay/reproduce/figure/heatmap)"
}

/// Minimal flag parser: `--key value` pairs after the positional arguments.
#[derive(Debug)]
struct Opts {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut positional = Vec::new();
        let mut flags: Vec<(String, String)> = Vec::new();
        let mut switches: Vec<String> = Vec::new();
        // A repeated flag is ambiguous (which value did the user mean?), so
        // it is rejected rather than silently resolved first- or last-wins.
        let seen_dup = |flags: &[(String, String)], switches: &[String], key: &str| {
            if flags.iter().any(|(k, _)| k == key) || switches.iter().any(|s| s == key) {
                Err(format!("duplicate flag '--{key}'"))
            } else {
                Ok(())
            }
        };
        let mut i = 0;
        while i < args.len() {
            let a = &args[i];
            if let Some(key) = a.strip_prefix("--") {
                if ["csv", "json", "quiet", "progress", "resume"].contains(&key) {
                    seen_dup(&flags, &switches, key)?;
                    switches.push(key.to_string());
                    i += 1;
                } else {
                    let val = args
                        .get(i + 1)
                        .ok_or_else(|| format!("--{key} needs a value"))?;
                    seen_dup(&flags, &switches, key)?;
                    flags.push((key.to_string(), val.clone()));
                    i += 2;
                }
            } else if a == "-o" {
                // short alias for --out (so `-o x --out y` is a duplicate too)
                let val = args.get(i + 1).ok_or("-o needs a value")?;
                seen_dup(&flags, &switches, "out")?;
                flags.push(("out".to_string(), val.clone()));
                i += 2;
            } else if a.starts_with('-') && a.len() > 1 {
                return Err(format!("unknown flag '{a}'"));
            } else {
                positional.push(a.clone());
                i += 1;
            }
        }
        Ok(Self {
            positional,
            flags,
            switches,
        })
    }

    /// Reject flags and switches a command does not understand — a typo'd
    /// option must fail loudly, not silently fall back to its default.
    fn expect(&self, cmd: &str, flags: &[&str], switches: &[&str]) -> Result<(), String> {
        for (k, _) in &self.flags {
            if !flags.contains(&k.as_str()) {
                return Err(format!("unknown flag '--{k}' for '{cmd}'"));
            }
        }
        for s in &self.switches {
            if !switches.contains(&s.as_str()) {
                return Err(format!("unknown flag '--{s}' for '{cmd}'"));
            }
        }
        Ok(())
    }

    fn get(&self, key: &str) -> Option<&str> {
        // parse() rejects duplicates, so the first match is the only match
        self.flags
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn has(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key)
    }

    fn scale(&self) -> Result<Scale, String> {
        match self.get("scale").unwrap_or("demo") {
            "mini" => Ok(Scale::mini()),
            "demo" => Ok(Scale::demo()),
            "paper" => Ok(Scale::paper()),
            other => Err(format!("unknown scale '{other}'")),
        }
    }

    fn workloads(&self) -> Result<Vec<WorkloadKind>, String> {
        match self.get("workloads") {
            None => Ok(WorkloadKind::PAPER_SET.to_vec()),
            Some(list) => list
                .split(',')
                .map(|w| WorkloadKind::parse(w).ok_or_else(|| format!("unknown workload '{w}'")))
                .collect(),
        }
    }

    fn report_mode(&self) -> Result<Mode, String> {
        Mode::from_switches(self.has("json"), self.has("quiet"))
    }

    fn threads(&self) -> Result<Option<usize>, String> {
        match self.get("threads") {
            None => Ok(None),
            Some(t) => t
                .parse()
                .map(Some)
                .map_err(|_| format!("bad thread count '{t}'")),
        }
    }

    /// `--sample`: "off" (the default) walks every event;
    /// `interval=N,clusters=K` (or just "on" for the defaults) simulates
    /// one representative interval per cluster and extrapolates with
    /// confidence intervals.
    fn sample(&self) -> Result<SampleMode, String> {
        match self.get("sample") {
            None => Ok(SampleMode::Off),
            Some(v) => SampleMode::parse(v),
        }
    }

    /// `--shards`, accepted for compatibility ([`memsim_core::check_shards`]).
    fn check_shards(&self) -> Result<(), String> {
        self.get("shards").map_or(Ok(()), memsim_core::check_shards)
    }
}

/// Per-command observability lifecycle: armed by `--metrics-out`,
/// `--progress`, or `--trace-out`, it resets and enables the global
/// registry, optionally starts the live progress sampler and the flight
/// recorder, accumulates the run manifest, and on [`ObsSession::finish`]
/// renders the phase-timing summary, writes the deterministic metrics
/// JSON, and drains the recorder into a Chrome trace-event file.
struct ObsSession {
    metrics_out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    sampler: Option<memsim_obs::ProgressSampler>,
    progress: bool,
    active: bool,
    manifest: Vec<(&'static str, String)>,
}

impl ObsSession {
    fn start(opts: &Opts, command: &str) -> Self {
        let metrics_out = opts.get("metrics-out").map(PathBuf::from);
        let trace_out = opts.get("trace-out").map(PathBuf::from);
        let progress = opts.has("progress");
        let active = metrics_out.is_some() || trace_out.is_some() || progress;
        if active {
            memsim_obs::reset();
            memsim_obs::set_enabled(true);
            if std::env::var_os("MEMSIM_OBS_DETERMINISTIC").is_some() {
                memsim_obs::set_deterministic(true);
            }
        }
        if trace_out.is_some() {
            memsim_obs::recorder::start(0);
        }
        let sampler = progress.then(|| memsim_obs::ProgressSampler::start(command));
        Self {
            metrics_out,
            trace_out,
            sampler,
            progress,
            active,
            manifest: vec![
                ("command", command.to_string()),
                ("version", env!("CARGO_PKG_VERSION").to_string()),
            ],
        }
    }

    /// Add a manifest entry (workload, design, scale, ...).
    fn annotate(&mut self, key: &'static str, value: String) {
        if self.active {
            self.manifest.push((key, value));
        }
    }

    fn finish(mut self) -> Result<(), String> {
        drop(self.sampler.take());
        if self.progress {
            eprint!("{}", memsim_obs::render_summary(memsim_obs::global()));
        }
        let manifest: Vec<(&str, String)> =
            self.manifest.iter().map(|(k, v)| (*k, v.clone())).collect();
        if let Some(path) = &self.metrics_out {
            let doc = memsim_obs::export_json(&manifest, memsim_obs::global());
            std::fs::write(path, doc)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            eprintln!("metrics written to {}", path.display());
        }
        if let Some(path) = &self.trace_out {
            let lanes = memsim_obs::recorder::stop_and_drain();
            let doc = memsim_obs::chrome_trace_json(&manifest, &lanes);
            std::fs::write(path, doc)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            eprintln!(
                "timeline trace written to {} (open in ui.perfetto.dev)",
                path.display()
            );
        }
        if self.active {
            // leave global state quiescent for subsequent in-process calls
            memsim_obs::set_enabled(false);
        }
        Ok(())
    }
}

/// Trace-file name for the export manifest. Only the basename goes in:
/// the directory varies per run (tmpdirs, CI workspaces) and would break
/// the byte-stable deterministic exports that CI diffs against goldens.
fn trace_basename(path: &str) -> String {
    std::path::Path::new(path)
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.to_string())
}

fn run(args: &[String]) -> Result<(), CliError> {
    let cmd = args.first().ok_or("no command given")?.clone();
    let opts = Opts::parse(&args[1..])?;
    match cmd.as_str() {
        "list" => {
            opts.expect("list", &[], &[])?;
            cmd_list().map_err(CliError::from)
        }
        "table" => {
            opts.expect(
                "table",
                &["scale", "workloads", "threads", "out", "sample"],
                &["csv", "resume"],
            )?;
            cmd_table(&opts)
        }
        "figure" => {
            opts.expect(
                "figure",
                &[
                    "scale",
                    "workloads",
                    "threads",
                    "shards",
                    "out",
                    "sample",
                    "trace-out",
                ],
                &["csv", "resume"],
            )?;
            cmd_figure(&opts)
        }
        "run" => {
            opts.expect(
                "run",
                &[
                    "workload",
                    "design",
                    "llc",
                    "nvm",
                    "config",
                    "scale",
                    "metrics-out",
                    "trace-out",
                ],
                &["json", "quiet", "progress"],
            )?;
            cmd_run(&opts).map_err(CliError::from)
        }
        "heatmap" => {
            opts.expect(
                "heatmap",
                &[
                    "scale",
                    "workloads",
                    "threads",
                    "shards",
                    "out",
                    "sample",
                    "trace-out",
                ],
                &["csv", "resume"],
            )?;
            cmd_heatmap(&opts)
        }
        "reproduce" => {
            opts.expect(
                "reproduce",
                &[
                    "out",
                    "scale",
                    "workloads",
                    "threads",
                    "shards",
                    "sample",
                    "metrics-out",
                    "trace-out",
                ],
                &["resume", "progress"],
            )?;
            cmd_reproduce(&opts)
        }
        "analyze" => {
            opts.expect("analyze", &["workload", "scale"], &[])?;
            cmd_analyze(&opts).map_err(CliError::from)
        }
        "record" => {
            opts.expect(
                "record",
                &["out", "scale", "metrics-out"],
                &["json", "quiet", "progress"],
            )?;
            cmd_record(&opts).map_err(CliError::from)
        }
        "replay" => {
            opts.expect(
                "replay",
                &[
                    "designs",
                    "scale",
                    "threads",
                    "shards",
                    "sample",
                    "metrics-out",
                    "trace-out",
                ],
                &["json", "quiet", "progress"],
            )?;
            cmd_replay(&opts)
        }
        "trace-info" => {
            opts.expect("trace-info", &[], &["json", "quiet"])?;
            cmd_trace_info(&opts).map_err(CliError::from)
        }
        "serve" => {
            opts.expect("serve", &["port", "state", "threads", "queue"], &[])?;
            cmd_serve(&opts)
        }
        "submit" => {
            opts.expect(
                "submit",
                &[
                    "addr",
                    "artifact",
                    "replay",
                    "designs",
                    "scale",
                    "workloads",
                    "shards",
                    "sample",
                    "out",
                ],
                &["json", "quiet"],
            )?;
            cmd_submit(&opts)
        }
        "status" => {
            opts.expect("status", &["addr"], &["json"])?;
            cmd_status(&opts).map_err(CliError::from)
        }
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command '{other}'").into()),
    }
}

fn cmd_list() -> Result<(), String> {
    println!("workloads (Table 4 set marked *):");
    for k in WorkloadKind::ALL {
        let star = if WorkloadKind::PAPER_SET.contains(&k) {
            "*"
        } else {
            " "
        };
        println!("  {star} {}", k.name());
    }
    println!("\ndesigns: baseline, 4lc, nmm, 4lcnvm, ndm");
    println!("\nTable 2 (4LC/4LCNVM eDRAM-HMC configs):");
    for c in eh_configs() {
        println!(
            "  {}: {} MB, {} B pages",
            c.name,
            c.capacity_bytes >> 20,
            c.page_bytes
        );
    }
    println!("\nTable 3 (NMM DRAM-cache configs):");
    for c in n_configs() {
        println!(
            "  {}: {} MB, {} B pages",
            c.name,
            c.capacity_bytes >> 20,
            c.page_bytes
        );
    }
    println!("\nfigures: fig1 fig2 (NMM) fig3 fig4 (4LC) fig5 fig6 (4LCNVM) fig7 fig8 (NDM) fig9 fig10 (heat maps)");
    Ok(())
}

/// Open (or resume) the sweep journal in `out` and arm the ctrl-c flag.
/// The sampling mode joins the journal fingerprint: a sampled journal
/// refuses to resume a full-fidelity sweep and vice versa.
fn start_sweep(
    out: &Path,
    scale: &Scale,
    resume: bool,
    sample: SampleMode,
) -> Result<SweepCtx, String> {
    std::fs::create_dir_all(out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let journal = out.join(JOURNAL_FILE);
    let mut ctx = if resume {
        let (ctx, rec) = SweepCtx::resume(scale, &journal, sample)?;
        if rec.corrupt_lines > 0 {
            eprintln!(
                "resume: dropped {} corrupt journal line(s)",
                rec.corrupt_lines
            );
        }
        if rec.mismatched_lines > 0 {
            eprintln!(
                "resume: ignored {} line(s) journaled under a different config or scale",
                rec.mismatched_lines
            );
        }
        eprintln!(
            "resume: restored {} completed point(s) from {}",
            rec.points.len(),
            journal.display()
        );
        ctx
    } else {
        SweepCtx::fresh(scale, &journal, sample)?
    };
    ctx.set_interrupt(interrupt::install());
    Ok(ctx)
}

/// The `engine` a run manifest records. There is one walk; the key and
/// the value older builds wrote for it stay, so timelines and metrics
/// dumps remain comparable across builds.
const ONE_WALK: &str = "seq";

/// What the sweep commands (`table table4`, `figure`, `heatmap`,
/// `reproduce`) share: the scale, the sampling mode, the journal directory
/// and its sweep context, the simulation memo, and the benchmark set and
/// thread count of their [`ExperimentCtx`].
struct SweepSetup {
    cmd: &'static str,
    scale: Scale,
    sample: SampleMode,
    /// Where the journal and the written artifacts live.
    out: Option<PathBuf>,
    sweep: Option<SweepCtx>,
    cache: SimCache,
    workloads: Vec<WorkloadKind>,
    threads: Option<usize>,
}

impl SweepSetup {
    /// Parse the sweep options and open the journal. `reproduce` always
    /// journals (to `--out`, by default `reproduction`); the others only
    /// with `--out`.
    fn new(opts: &Opts, cmd: &'static str) -> Result<Self, String> {
        opts.check_shards()?;
        let scale = opts.scale()?;
        let sample = opts.sample()?;
        let out = match (cmd, opts.get("out")) {
            ("reproduce", out) => Some(PathBuf::from(out.unwrap_or("reproduction"))),
            (_, out) => out.map(PathBuf::from),
        };
        let sweep = match &out {
            Some(out) => Some(start_sweep(out, &scale, opts.has("resume"), sample)?),
            None if opts.has("resume") => {
                return Err("--resume needs --out DIR (the journal lives there)".into())
            }
            None => None,
        };
        Ok(Self {
            cmd,
            scale,
            sample,
            out,
            sweep,
            cache: SimCache::new(),
            workloads: opts.workloads()?,
            threads: opts.threads()?,
        })
    }

    fn ctx(&self) -> ExperimentCtx<'_> {
        ExperimentCtx {
            scale: self.scale,
            workloads: self.workloads.clone(),
            cache: &self.cache,
            threads: self.threads,
            sweep: self.sweep.as_ref(),
            sample: self.sample,
        }
    }

    /// Render a sweep failure or interrupt as a runtime [`CliError`]; on
    /// interrupt, report the journal state and print the resume command.
    fn err(&self, e: SweepError, opts: &Opts) -> CliError {
        match e {
            SweepError::Interrupted => {
                if let Some(ctx) = &self.sweep {
                    eprintln!(
                        "interrupted: {} completed point(s) journaled",
                        ctx.persisted_points()
                    );
                    eprintln!("resume with: {}", resume_hint(self.cmd, opts));
                }
                CliError::runtime("interrupted before the sweep completed".into())
            }
            SweepError::Failed(failures) => {
                eprintln!("{} sweep point(s) failed:", failures.len());
                for f in &failures {
                    eprintln!("  {f}");
                }
                CliError::runtime(format!("{} sweep point(s) failed", failures.len()))
            }
        }
    }

    /// Write a rendered artifact next to the journal, when there is one.
    fn write(&self, name: &str, md: &str, csv: &str) -> Result<(), String> {
        match &self.out {
            Some(out) => write_artifact(out, name, md, csv),
            None => Ok(()),
        }
    }
}

/// The exact command line that resumes this sweep: the original invocation
/// with `--resume` appended.
fn resume_hint(cmd: &str, opts: &Opts) -> String {
    let mut parts = vec!["memsim".to_string(), cmd.to_string()];
    parts.extend(opts.positional.iter().cloned());
    for (k, v) in &opts.flags {
        parts.push(format!("--{k}"));
        parts.push(v.clone());
    }
    for s in &opts.switches {
        if s != "resume" {
            parts.push(format!("--{s}"));
        }
    }
    parts.push("--resume".to_string());
    parts.join(" ")
}

/// Write a rendered artifact's markdown and CSV next to the journal.
fn write_artifact(out: &Path, name: &str, md: &str, csv: &str) -> Result<(), String> {
    std::fs::write(out.join(format!("{name}.md")), md)
        .map_err(|e| format!("cannot write {name}.md: {e}"))?;
    std::fs::write(out.join(format!("{name}.csv")), csv)
        .map_err(|e| format!("cannot write {name}.csv: {e}"))?;
    Ok(())
}

fn cmd_table(opts: &Opts) -> Result<(), CliError> {
    let which = opts.positional.first().ok_or("table needs a name")?;
    if (opts.get("out").is_some() || opts.has("resume"))
        && !matches!(which.as_str(), "table4" | "workloads")
    {
        return Err("--out/--resume only apply to 'table table4' (the others are static)".into());
    }
    match which.as_str() {
        "tech" | "table1" => {
            println!("{}", experiments::table1().to_markdown());
        }
        "eh-configs" | "table2" => {
            println!("| name | capacity (MB) | page (B) |");
            println!("|---|---|---|");
            for c in eh_configs() {
                println!(
                    "| {} | {} | {} |",
                    c.name,
                    c.capacity_bytes >> 20,
                    c.page_bytes
                );
            }
        }
        "nmm-configs" | "table3" => {
            println!("| name | DRAM capacity (MB) | page (B) |");
            println!("|---|---|---|");
            for c in n_configs() {
                println!(
                    "| {} | {} | {} |",
                    c.name,
                    c.capacity_bytes >> 20,
                    c.page_bytes
                );
            }
        }
        "table4" | "workloads" => {
            let setup = SweepSetup::new(opts, "table")?;
            let t = experiments::table4(&setup.ctx()).map_err(|e| setup.err(e, opts))?;
            println!(
                "{}",
                if opts.has("csv") {
                    t.to_csv()
                } else {
                    t.to_markdown()
                }
            );
            setup.write("table4", &t.to_markdown(), &t.to_csv())?;
        }
        other => return Err(format!("unknown table '{other}'").into()),
    }
    Ok(())
}

use memsim_core::artifacts::{render_figure as render_fig, render_heatmap as render_heat};

fn cmd_figure(opts: &Opts) -> Result<(), CliError> {
    let which = opts
        .positional
        .first()
        .ok_or("figure needs an id (fig1..fig10)")?;
    let setup = SweepSetup::new(opts, "figure")?;
    let mut obs = ObsSession::start(opts, "figure");
    obs.annotate("figure", which.clone());
    obs.annotate("scale", setup.scale.class.name().to_string());
    let ctx = setup.ctx();
    let to_err = |e| setup.err(e, opts);
    let (md, csv) = match which.as_str() {
        "fig1" => render_fig(&experiments::fig_nmm(&ctx, Metric::Time).map_err(to_err)?),
        "fig2" => render_fig(&experiments::fig_nmm(&ctx, Metric::Energy).map_err(to_err)?),
        "fig3" => render_fig(&experiments::fig_4lc(&ctx, Metric::Time).map_err(to_err)?),
        "fig4" => render_fig(&experiments::fig_4lc(&ctx, Metric::Energy).map_err(to_err)?),
        "fig5" => render_fig(&experiments::fig_4lcnvm(&ctx, Metric::Time).map_err(to_err)?),
        "fig6" => render_fig(&experiments::fig_4lcnvm(&ctx, Metric::Energy).map_err(to_err)?),
        "fig7" => render_fig(&experiments::fig_ndm(&ctx, Metric::Time).map_err(to_err)?),
        "fig8" => render_fig(&experiments::fig_ndm(&ctx, Metric::Energy).map_err(to_err)?),
        "fig9" => render_heat(&experiments::fig9(&ctx).map_err(to_err)?),
        "fig10" => render_heat(&experiments::fig10(&ctx).map_err(to_err)?),
        other => return Err(format!("unknown figure '{other}'").into()),
    };
    println!("{}", if opts.has("csv") { &csv } else { &md });
    setup.write(which, &md, &csv)?;
    obs.finish()?;
    Ok(())
}

fn parse_tech(opts: &Opts, key: &str, default: Technology) -> Result<Technology, String> {
    match opts.get(key) {
        None => Ok(default),
        Some(t) => Technology::parse(t).ok_or_else(|| format!("unknown technology '{t}'")),
    }
}

fn cmd_run(opts: &Opts) -> Result<(), String> {
    let workload = WorkloadKind::parse(opts.get("workload").ok_or("--workload required")?)
        .ok_or("unknown workload")?;
    let scale = opts.scale()?;
    let design = match opts.get("design").ok_or("--design required")? {
        "baseline" => Design::Baseline,
        "4lc" => Design::FourLc {
            llc: parse_tech(opts, "llc", Technology::Edram)?,
            config: eh_by_name(opts.get("config").unwrap_or("EH1")).ok_or("unknown EH config")?,
        },
        "nmm" => Design::Nmm {
            nvm: parse_tech(opts, "nvm", Technology::Pcm)?,
            config: n_by_name(opts.get("config").unwrap_or("N6")).ok_or("unknown N config")?,
        },
        "4lcnvm" => Design::FourLcNvm {
            llc: parse_tech(opts, "llc", Technology::Edram)?,
            nvm: parse_tech(opts, "nvm", Technology::Pcm)?,
            config: eh_by_name(opts.get("config").unwrap_or("EH1")).ok_or("unknown EH config")?,
        },
        "ndm" => Design::Ndm {
            nvm: parse_tech(opts, "nvm", Technology::Pcm)?,
        },
        other => return Err(format!("unknown design '{other}'")),
    };
    design.validate()?;

    let mut r = Report::new(opts.report_mode()?);
    let mut obs = ObsSession::start(opts, "run");
    obs.annotate("workload", workload.name().to_string());
    obs.annotate("design", design.label());
    obs.annotate("scale", scale.class.name().to_string());

    // one grid: the kernel runs once for both points, and a design that
    // shares the baseline's structure (NDM) walks it once
    let points = [
        (workload.into(), Design::Baseline),
        (workload.into(), design),
    ];
    let cache = SimCache::new();
    let grid = evaluate_grid_sweep(&points, &scale, &cache, None, None, SampleMode::Off);
    let [base, result]: [EvalResult; 2] = grid
        .into_result()
        .map_err(|e| e.to_string())?
        .try_into()
        .expect("one result per point");
    let norm = result.metrics.normalized_to(&base.metrics);

    r.text(format!("# {} on {}", design.label(), workload.name()));
    r.blank();
    r.text("| metric | baseline | design | normalized |");
    r.text("|---|---|---|---|");
    r.text(format!(
        "| AMAT (ns) | {:.3} | {:.3} | {:.4} |",
        base.metrics.amat_ns,
        result.metrics.amat_ns,
        result.metrics.amat_ns / base.metrics.amat_ns
    ));
    r.text(format!(
        "| time (ms) | {:.3} | {:.3} | {:.4} |",
        base.metrics.time_s * 1e3,
        result.metrics.time_s * 1e3,
        norm.time
    ));
    r.text(format!(
        "| dynamic energy (mJ) | {:.3} | {:.3} | {:.4} |",
        base.metrics.dynamic_j * 1e3,
        result.metrics.dynamic_j * 1e3,
        norm.dynamic
    ));
    r.text(format!(
        "| static energy (mJ) | {:.3} | {:.3} | {:.4} |",
        base.metrics.static_j * 1e3,
        result.metrics.static_j * 1e3,
        norm.static_
    ));
    r.text(format!(
        "| total energy (mJ) | {:.3} | {:.3} | {:.4} |",
        base.metrics.energy_j() * 1e3,
        result.metrics.energy_j() * 1e3,
        norm.energy
    ));
    r.text(format!(
        "| EDP (µJ·s) | {:.4} | {:.4} | {:.4} |",
        base.metrics.edp() * 1e6,
        result.metrics.edp() * 1e6,
        norm.edp
    ));
    r.blank();
    r.text(format!("## hierarchy ({} refs)", result.run.total_refs));
    r.blank();
    r.text("| level | loads | stores | hit rate | MiB read | MiB written |");
    r.text("|---|---|---|---|---|---|");
    for s in result.run.all_levels() {
        r.text(format!(
            "| {} | {} | {} | {:.4} | {:.1} | {:.1} |",
            s.name,
            s.loads,
            s.stores,
            s.hit_rate(),
            s.bytes_loaded as f64 / (1 << 20) as f64,
            s.bytes_stored as f64 / (1 << 20) as f64,
        ));
    }
    // per-level energy breakdown (non-NDM designs expose aligned costing)
    if !matches!(design, Design::Ndm { .. }) {
        let costs = design.costing(&scale, &result.run);
        let stats = result.run.all_levels();
        let pairs: Vec<_> = stats.into_iter().zip(costs.iter()).collect();
        r.blank();
        r.text("## energy breakdown");
        r.blank();
        r.text("| level | time share | dynamic (mJ) | static power (mW) |");
        r.text("|---|---|---|---|");
        let total_ns: f64 = pairs.iter().map(|(st, c)| c.time_ns(st)).sum();
        for row in memsim_core::breakdown(&pairs) {
            r.text(format!(
                "| {} | {:.1}% | {:.3} | {:.2} |",
                row.name,
                100.0 * row.time_ns / total_ns,
                row.dynamic_j * 1e3,
                row.static_w * 1e3,
            ));
        }
    }

    if let Some(placement) = &result.placement {
        r.blank();
        r.text("## NDM placement");
        r.blank();
        r.text("| region | bytes | placement | memory refs |");
        r.text("|---|---|---|---|");
        for (i, p) in placement.iter().enumerate() {
            r.text(format!(
                "| {} | {} | {:?} | {} |",
                result.run.region_names[i],
                result.run.region_sizes[i],
                p,
                result.run.per_region[i].loads + result.run.per_region[i].stores,
            ));
        }
    }

    r.str_field("workload", workload.name());
    r.str_field("design", &design.label());
    r.str_field("scale", scale.class.name());
    r.u64_field("total_refs", result.run.total_refs);
    r.raw("baseline", metrics_json(&base.metrics));
    r.raw("design_metrics", metrics_json(&result.metrics));
    let mut normalized = json::Obj::new();
    normalized
        .f64("time", norm.time)
        .f64("dynamic", norm.dynamic)
        .f64("static", norm.static_)
        .f64("energy", norm.energy)
        .f64("edp", norm.edp);
    r.raw("normalized", normalized.finish());
    r.raw("levels", levels_json(&result.run));
    r.finish();
    obs.finish()
}

/// A [`memsim_core::Metrics`] value as a JSON object.
fn metrics_json(m: &memsim_core::Metrics) -> String {
    let mut o = json::Obj::new();
    o.f64("amat_ns", m.amat_ns)
        .f64("time_s", m.time_s)
        .f64("dynamic_j", m.dynamic_j)
        .f64("static_j", m.static_j)
        .f64("energy_j", m.energy_j())
        .f64("edp", m.edp());
    o.finish()
}

/// Every level's counters of a run as a JSON array (same fields the
/// `--metrics-out` registry dump publishes, for cross-checking).
fn levels_json(run: &memsim_core::RawRun) -> String {
    let levels: Vec<String> = run
        .all_levels()
        .into_iter()
        .map(|s| {
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
        })
        .collect();
    json::array(&levels)
}

/// Characterize a workload's address stream: reference counts, load/store
/// mix, stride locality, per-region traffic, and the LRU miss-ratio curve
/// from exact stack-distance analysis.
fn cmd_analyze(opts: &Opts) -> Result<(), String> {
    use memsim_trace::sinks::RegionProfiler;
    use memsim_trace::stats::StreamStats;
    use memsim_trace::{ReuseDistance, TraceEvent, TraceSink};

    let workload = WorkloadKind::parse(opts.get("workload").ok_or("--workload required")?)
        .ok_or("unknown workload")?;
    let scale = opts.scale()?;
    let mut w = workload.build(scale.class);

    struct Analyzer {
        stats: StreamStats,
        reuse: ReuseDistance,
        regions: RegionProfiler,
    }
    impl TraceSink for Analyzer {
        fn access(&mut self, ev: TraceEvent) {
            self.stats.access(ev);
            self.reuse.access(ev);
            self.regions.access(ev);
        }
    }

    let mut sink = Analyzer {
        stats: StreamStats::new(),
        reuse: ReuseDistance::new(64),
        regions: RegionProfiler::new(w.space()),
    };
    let names: Vec<String> = w.space().regions().iter().map(|r| r.name.clone()).collect();
    let sizes: Vec<u64> = w.space().regions().iter().map(|r| r.len).collect();
    w.run(&mut sink);
    w.verify()?;

    println!("# {} ({} scale)", workload.name(), scale.class.name());
    println!();
    println!(
        "references: {} ({} loads, {} stores; store fraction {:.1}%)",
        sink.stats.total_refs(),
        sink.stats.loads,
        sink.stats.stores,
        100.0 * sink.stats.stores as f64 / sink.stats.total_refs().max(1) as f64
    );
    println!(
        "footprint: {:.1} MiB over {} regions; touched span {:.1} MiB",
        w.footprint_bytes() as f64 / (1 << 20) as f64,
        names.len(),
        sink.stats.touched_span() as f64 / (1 << 20) as f64
    );
    println!(
        "stride locality (fraction of consecutive refs within 64 B): {:.1}%",
        100.0 * sink.stats.locality_below(64)
    );
    println!(
        "distinct 64 B lines touched: {}",
        sink.reuse.distinct_blocks()
    );
    println!();
    println!("## LRU miss-ratio curve (fully associative, 64 B lines)");
    println!();
    println!("| capacity | miss ratio |");
    println!("|---|---|");
    let curve = sink.reuse.miss_ratio_curve(24);
    for (i, m) in curve.iter().enumerate().step_by(2) {
        println!("| {} | {:.4} |", human_capacity(64u64 << i), m);
    }
    println!();
    println!("## per-region traffic");
    println!();
    println!("| region | bytes | loads | stores | refs/KiB |");
    println!("|---|---|---|---|---|");
    let hot = sink.regions.hottest();
    for (id, total) in hot.iter().take(12) {
        let i = id.index();
        println!(
            "| {} | {} | {} | {} | {:.1} |",
            names[i],
            sizes[i],
            sink.regions.loads[i],
            sink.regions.stores[i],
            *total as f64 / (sizes[i].max(1) as f64 / 1024.0)
        );
    }
    Ok(())
}

fn human_capacity(bytes: u64) -> String {
    if bytes >= 1 << 20 {
        format!("{} MiB", bytes >> 20)
    } else if bytes >= 1 << 10 {
        format!("{} KiB", bytes >> 10)
    } else {
        format!("{bytes} B")
    }
}

/// Regenerate every table and figure into `--out DIR` (markdown + CSV),
/// sharing one simulation memo across all of them.
///
/// Crash-resilient: every completed (workload, design) point is journaled
/// to `DIR/sweep.journal.jsonl` as it finishes, `--resume` restores those
/// points instead of re-simulating (the final report is byte-identical to
/// an uninterrupted run), a panicking point is recorded and skipped while
/// every other artifact still builds, and ctrl-c drains in-flight points
/// and prints the exact resume command.
fn cmd_reproduce(opts: &Opts) -> Result<(), CliError> {
    let setup = SweepSetup::new(opts, "reproduce")?;
    let (Some(out), Some(sweep)) = (&setup.out, &setup.sweep) else {
        unreachable!("reproduce always journals")
    };
    let mut obs = ObsSession::start(opts, "reproduce");
    obs.annotate("scale", setup.scale.class.name().to_string());
    obs.annotate("out", out.display().to_string());
    obs.annotate("engine", ONE_WALK.to_string());
    obs.annotate("sample", setup.sample.canon());
    let ctx = setup.ctx();

    let write = |name: &str, md: String, csv: String| -> Result<(), String> {
        write_artifact(out, name, &md, &csv)?;
        eprintln!("wrote {name}");
        Ok(())
    };

    let t1 = experiments::table1();
    write("table1", t1.to_markdown(), t1.to_csv())?;

    // A failed artifact does not abort the reproduction: the failure is
    // journaled and every artifact the failed point does not feed still
    // builds. Only an interrupt stops the loop.
    let mut failed: Vec<String> = Vec::new();
    let mut interrupted = false;
    for name in memsim_core::ARTIFACT_NAMES {
        if sweep.interrupted() {
            interrupted = true;
            break;
        }
        match memsim_core::build_artifact(&ctx, name) {
            Ok((md, csv)) => write(name, md, csv)?,
            Err(SweepError::Interrupted) => {
                interrupted = true;
                break;
            }
            Err(SweepError::Failed(failures)) => {
                // the same broken point surfaces in every artifact that
                // needs it — report it once
                for f in failures {
                    let line = f.to_string();
                    if !failed.contains(&line) {
                        failed.push(line);
                    }
                }
            }
        }
    }
    obs.finish()?;

    if interrupted {
        eprintln!(
            "interrupted: {} completed point(s) journaled in {}",
            sweep.persisted_points(),
            out.join(JOURNAL_FILE).display()
        );
        eprintln!("resume with: {}", resume_hint("reproduce", opts));
        return Err(CliError::runtime(
            "interrupted before the reproduction completed".into(),
        ));
    }
    if !failed.is_empty() {
        eprintln!("reproduction incomplete: {} point(s) failed:", failed.len());
        for f in &failed {
            eprintln!("  {f}");
        }
        eprintln!("completed points are journaled; fix the cause and rerun with --resume");
        return Err(CliError::runtime(format!(
            "{} sweep point(s) failed",
            failed.len()
        )));
    }
    eprintln!("reproduction complete: {}", out.display());
    Ok(())
}

/// The scale whose capacities the trace's recorded class corresponds to.
fn scale_for_class(class: Class) -> Scale {
    match class {
        Class::Mini => Scale::mini(),
        Class::Demo => Scale::demo(),
        Class::Large => Scale::paper(),
    }
}

fn cmd_record(opts: &Opts) -> Result<(), String> {
    let wname = opts
        .positional
        .first()
        .ok_or("record needs a workload name")?;
    let kind = WorkloadKind::parse(wname).ok_or_else(|| format!("unknown workload '{wname}'"))?;
    let out = opts.get("out").ok_or("record needs -o <file>")?;
    let scale = opts.scale()?;
    let mut r = Report::new(opts.report_mode()?);
    let mut obs = ObsSession::start(opts, "record");
    obs.annotate("workload", kind.name().to_string());
    obs.annotate("scale", scale.class.name().to_string());
    obs.annotate("trace", trace_basename(out));
    if r.mode() == Mode::Human {
        eprintln!(
            "recording {} at {} scale to {out} ...",
            kind.name(),
            scale.class.name()
        );
    }
    let s = memsim_core::record_workload(kind, scale.class, Path::new(out))?;
    r.text(format!(
        "recorded {} events in {} chunks ({:.1} MiB, {:.2} B/event, {:.1} MiB footprint)",
        s.events,
        s.chunks,
        s.file_bytes as f64 / (1 << 20) as f64,
        s.bytes_per_event(),
        s.footprint_bytes as f64 / (1 << 20) as f64,
    ));
    r.str_field("workload", kind.name());
    r.str_field("scale", scale.class.name());
    r.str_field("trace", out);
    r.u64_field("events", s.events);
    r.u64_field("chunks", s.chunks);
    r.u64_field("file_bytes", s.file_bytes);
    r.f64_field("bytes_per_event", s.bytes_per_event());
    r.u64_field("footprint_bytes", s.footprint_bytes);
    r.finish();
    obs.finish()
}

fn cmd_replay(opts: &Opts) -> Result<(), CliError> {
    opts.check_shards()?;
    let file = opts.positional.first().ok_or("replay needs a trace file")?;
    let path = Path::new(file);

    // scale defaults to the class the trace was recorded at
    let header = TraceReader::open(path)
        .map_err(|e| format!("{file}: {e}"))?
        .header()
        .clone();
    let scale = match opts.get("scale") {
        Some(_) => opts.scale()?,
        None => scale_for_class(
            Class::parse(&header.class)
                .ok_or_else(|| format!("trace records unknown class '{}'", header.class))?,
        ),
    };
    if scale.class.name() != header.class {
        eprintln!(
            "warning: trace was recorded at {} scale but is replayed against {} capacities",
            header.class,
            scale.class.name()
        );
    }

    // by default one representative per architecture family, at the
    // configs the paper highlights (the server's design-grid names)
    let designs: Vec<Design> = match opts.get("designs") {
        None => memsim_core::named_designs()
            .into_iter()
            .map(|(_, d)| d)
            .collect(),
        Some(list) => memsim_core::parse_design_list(list)?,
    };
    // Baseline anchors normalization even when not requested explicitly.
    let mut grid = vec![Design::Baseline];
    grid.extend(designs.iter().filter(|d| **d != Design::Baseline).copied());

    let sample = opts.sample()?;
    let mut rep = Report::new(opts.report_mode()?);
    let mut obs = ObsSession::start(opts, "replay");
    obs.annotate("trace", trace_basename(file));
    obs.annotate("workload", header.workload.clone());
    obs.annotate("scale", scale.class.name().to_string());
    obs.annotate("engine", ONE_WALK.to_string());
    obs.annotate("sample", sample.canon());
    obs.annotate(
        "designs",
        grid.iter().map(|d| d.label()).collect::<Vec<_>>().join(","),
    );

    // One grid over the trace: one decode feeds every structure at full
    // fidelity. Fault-isolated: a point whose walk fails (corrupt chunk,
    // truncation mid-walk) or panics fails alone; the surviving rows still
    // print, and the exit is non-zero.
    let source = Source::trace(path)?;
    let points: Vec<(Source, Design)> = grid.iter().map(|d| (source.clone(), *d)).collect();
    let outcome = {
        let _span = memsim_obs::span!("replay");
        let cache = SimCache::new();
        evaluate_grid_sweep(&points, &scale, &cache, opts.threads()?, None, sample)
    };
    let failures: Vec<String> = outcome.failures.iter().map(|f| f.to_string()).collect();
    let Some(base) = outcome.results[0].as_ref() else {
        // nothing can be normalized without the baseline
        obs.finish()?;
        return Err(CliError::runtime(format!(
            "baseline failed, cannot normalize:\n  {}",
            failures.join("\n  ")
        )));
    };
    // surviving results are in grid order
    let results: Vec<(Design, &EvalResult)> = grid
        .iter()
        .zip(&outcome.results)
        .filter_map(|(d, r)| r.as_ref().map(|r| (*d, r)))
        .collect();

    rep.text(format!(
        "# replay of {} ({} events, {} scale{})",
        header.workload,
        base.run.total_refs,
        header.class,
        if sample.is_on() {
            format!(", sampled {}", sample.canon())
        } else {
            String::new()
        }
    ));
    rep.blank();
    if sample.is_on() {
        rep.text("| design | AMAT (ns) | time (ms) | energy (mJ) | EDP (µJ·s) | time× | energy× | EDP× | AMAT CI ±% |");
        rep.text("|---|---|---|---|---|---|---|---|---|");
    } else {
        rep.text(
            "| design | AMAT (ns) | time (ms) | energy (mJ) | EDP (µJ·s) | time× | energy× | EDP× |",
        );
        rep.text("|---|---|---|---|---|---|---|---|");
    }
    let mut rows: Vec<String> = Vec::new();
    for (d, r) in &results {
        if !designs.contains(d) {
            continue;
        }
        let norm = r.metrics.normalized_to(&base.metrics);
        let mut line = format!(
            "| {} | {:.3} | {:.3} | {:.3} | {:.4} | {:.4} | {:.4} | {:.4} |",
            d.label(),
            r.metrics.amat_ns,
            r.metrics.time_s * 1e3,
            r.metrics.energy_j() * 1e3,
            r.metrics.edp() * 1e6,
            norm.time,
            norm.energy,
            norm.edp,
        );
        if sample.is_on() {
            match &r.sample_ci {
                Some(ci) => line.push_str(&format!(" {:.3} |", 100.0 * ci.amat)),
                None => line.push_str(" - |"),
            }
        }
        rep.text(line);
        let mut row = json::Obj::new();
        row.str("design", &d.label())
            .raw("metrics", &metrics_json(&r.metrics))
            .f64("time_x", norm.time)
            .f64("energy_x", norm.energy)
            .f64("edp_x", norm.edp);
        if let Some(ci) = &r.sample_ci {
            let mut c = json::Obj::new();
            c.f64("amat", ci.amat)
                .f64("time", ci.time)
                .f64("energy", ci.energy)
                .f64("edp", ci.edp);
            row.raw("ci_halfwidth", &c.finish());
        }
        rows.push(row.finish());
    }
    rep.str_field("trace", file);
    rep.str_field("workload", &header.workload);
    rep.str_field("scale", scale.class.name());
    rep.str_field("sample", &sample.canon());
    rep.u64_field("events", base.run.total_refs);
    rep.raw("results", json::array(&rows));
    if !failures.is_empty() {
        let failure_rows: Vec<String> = failures
            .iter()
            .map(|f| {
                let mut o = json::Obj::new();
                o.str("failure", f);
                o.finish()
            })
            .collect();
        rep.raw("failures", json::array(&failure_rows));
    }
    rep.finish();
    obs.finish()?;
    if !failures.is_empty() {
        eprintln!("{} replay point(s) failed:", failures.len());
        for f in &failures {
            eprintln!("  {f}");
        }
        return Err(CliError::runtime(format!(
            "{} replay point(s) failed",
            failures.len()
        )));
    }
    Ok(())
}

fn cmd_trace_info(opts: &Opts) -> Result<(), String> {
    let file = opts
        .positional
        .first()
        .ok_or("trace-info needs a trace file")?;
    let path = Path::new(file);
    let mut reader = TraceReader::open(path).map_err(|e| format!("{file}: {e}"))?;
    let header = reader.header().clone();
    let s = memsim_tracefile::summarize(&mut reader).map_err(|e| format!("{file}: {e}"))?;
    let file_bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);

    let mut r = Report::new(opts.report_mode()?);
    r.text(format!("# {file}"));
    r.blank();
    r.text(format!(
        "workload: {} ({} scale)",
        if header.workload.is_empty() {
            "(anonymous)"
        } else {
            &header.workload
        },
        if header.class.is_empty() {
            "unknown"
        } else {
            &header.class
        },
    ));
    r.text(format!("format: v{}", header.version));
    r.text(format!(
        "events: {} ({} loads, {} stores; store fraction {:.1}%)",
        s.events,
        s.loads,
        s.stores,
        100.0 * s.store_fraction()
    ));
    r.text(format!(
        "encoding: {} chunks, {:.2} payload B/event, {:.2} file B/event",
        s.chunks,
        s.payload_bytes_per_event(),
        if s.events == 0 {
            0.0
        } else {
            file_bytes as f64 / s.events as f64
        },
    ));
    r.text(format!(
        "integrity: {}/{} chunks CRC-verified",
        s.crc_verified_chunks, s.chunks
    ));
    if let (Some((min_ev, max_ev)), Some((min_b, max_b))) =
        (s.chunk_events_range, s.chunk_payload_range)
    {
        r.text(format!(
            "chunk shape: {min_ev}-{max_ev} events, {min_b}-{max_b} payload bytes per chunk"
        ));
    }
    r.text(format!(
        "regions: {} ({:.1} MiB registered footprint, base {:#x})",
        header.regions.len(),
        header.footprint_bytes() as f64 / (1 << 20) as f64,
        header.base_addr,
    ));
    if s.events > 0 {
        r.text(format!(
            "touched: {} distinct 64 B lines, address span [{:#x}, {:#x}]",
            s.touched_lines, s.min_addr, s.max_addr
        ));
    }

    r.str_field("trace", file);
    r.str_field("workload", &header.workload);
    r.str_field("class", &header.class);
    r.u64_field("format_version", u64::from(header.version));
    r.u64_field("events", s.events);
    r.u64_field("loads", s.loads);
    r.u64_field("stores", s.stores);
    r.u64_field("chunks", s.chunks);
    r.u64_field("crc_verified_chunks", s.crc_verified_chunks);
    r.u64_field("payload_bytes", s.payload_bytes);
    r.u64_field("file_bytes", file_bytes);
    if let Some((lo, hi)) = s.chunk_events_range {
        r.raw("chunk_events_range", format!("[{lo},{hi}]"));
    }
    if let Some((lo, hi)) = s.chunk_payload_range {
        r.raw("chunk_payload_range", format!("[{lo},{hi}]"));
    }
    r.u64_field("regions", header.regions.len() as u64);
    r.u64_field("footprint_bytes", header.footprint_bytes());
    r.u64_field("touched_lines", s.touched_lines);
    r.finish();
    Ok(())
}

fn cmd_heatmap(opts: &Opts) -> Result<(), CliError> {
    let axis = opts
        .positional
        .first()
        .map(|s| s.as_str())
        .unwrap_or("latency");
    let setup = SweepSetup::new(opts, "heatmap")?;
    let mut obs = ObsSession::start(opts, "heatmap");
    obs.annotate("axis", axis.to_string());
    obs.annotate("scale", setup.scale.class.name().to_string());
    let h = match axis {
        "latency" => experiments::fig9(&setup.ctx()),
        "energy" => experiments::fig10(&setup.ctx()),
        other => return Err(format!("unknown heatmap axis '{other}'").into()),
    }
    .map_err(|e| setup.err(e, opts))?;
    println!(
        "{}",
        if opts.has("csv") {
            heatmap_to_csv(&h)
        } else {
            heatmap_to_markdown(&h)
        }
    );
    let (md, csv) = render_heat(&h);
    setup.write(axis, &md, &csv)?;
    obs.finish()?;
    Ok(())
}

/// Parse a required-positive integer option, rejecting 0 and junk.
fn positive_opt(opts: &Opts, key: &str, default: usize) -> Result<usize, String> {
    match opts.get(key) {
        None => Ok(default),
        Some(v) => match v.parse::<usize>() {
            Ok(0) => Err(format!("--{key} must be at least 1")),
            Ok(n) => Ok(n),
            Err(_) => Err(format!("bad --{key} value '{v}'")),
        },
    }
}

/// `--port`: `auto` (the default) binds an ephemeral kernel-assigned
/// port (written to `<state>/server.port`); otherwise a literal port.
/// Zero is rejected — say `auto` when you mean "pick one for me".
fn serve_port(opts: &Opts) -> Result<u16, String> {
    match opts.get("port").unwrap_or("auto") {
        "auto" => Ok(0),
        p => match p.parse::<u16>() {
            Ok(0) => Err("--port must be 1-65535 (or 'auto' for ephemeral)".into()),
            Ok(n) => Ok(n),
            Err(_) => Err(format!("bad --port value '{p}' (want 1-65535 or 'auto')")),
        },
    }
}

fn cmd_serve(opts: &Opts) -> Result<(), CliError> {
    let port = serve_port(opts)?;
    let workers = positive_opt(opts, "threads", 2)?;
    let queue_depth = positive_opt(opts, "queue", 16)?;
    let state_dir = PathBuf::from(opts.get("state").unwrap_or("memsim-state"));
    std::fs::create_dir_all(&state_dir)
        .map_err(|e| format!("cannot create state dir {}: {e}", state_dir.display()))?;

    // The daemon always collects metrics — /metrics is part of its API —
    // and keeps the flight recorder armed so a SIGUSR1 (or a job panic)
    // can dump the recent timeline without any prior opt-in.
    memsim_obs::set_enabled(true);
    if std::env::var_os("MEMSIM_OBS_DETERMINISTIC").is_some() {
        memsim_obs::set_deterministic(true);
    }
    memsim_obs::recorder::start(0);

    let mut config = memsim_server::ServerConfig::new(state_dir.clone());
    config.port = port;
    config.workers = workers;
    config.queue_depth = queue_depth;
    let server = memsim_server::Server::start(config).map_err(CliError::runtime)?;
    println!("memsim-server listening on {}", server.addr());
    println!("state dir: {}", state_dir.display());
    for id in server.resumed() {
        println!("resumed job {id}");
    }
    for (id, error) in server.skipped() {
        println!("skipped job {id}: {error}");
    }

    let stop = interrupt::install();
    let dump = interrupt::install_usr1();
    let mut dump_seq = 0u32;
    while !stop.load(std::sync::atomic::Ordering::SeqCst) {
        if dump.swap(false, std::sync::atomic::Ordering::SeqCst) {
            dump_seq += 1;
            let path = state_dir.join(format!("flightrec-{dump_seq}.json"));
            let lanes = memsim_obs::recorder::snapshot_tail(4096);
            let manifest = [("command", "serve".to_string())];
            match std::fs::write(&path, memsim_obs::chrome_trace_json(&manifest, &lanes)) {
                Ok(()) => eprintln!(
                    "SIGUSR1: flight-recorder tail written to {}",
                    path.display()
                ),
                Err(e) => eprintln!("SIGUSR1: cannot write {}: {e}", path.display()),
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    eprintln!("interrupt: draining in-flight points and shutting down");
    server.shutdown();
    Ok(())
}

/// Build the job-spec JSON a `submit` invocation describes, validating
/// it client-side with the same parser the server uses.
fn submit_spec(opts: &Opts) -> Result<String, String> {
    let mut o = json::Obj::new();
    match (opts.get("artifact"), opts.get("replay")) {
        (Some(_), Some(_)) => return Err("give --artifact or --replay, not both".into()),
        (None, None) => return Err("submit needs --artifact or --replay".into()),
        (Some(a), None) => {
            o.str("artifact", a);
            if let Some(w) = opts.get("workloads") {
                o.str("workloads", w);
            }
        }
        (None, Some(w)) => {
            o.str("replay", w);
            if let Some(d) = opts.get("designs") {
                o.str("designs", d);
            }
        }
    }
    if let Some(s) = opts.get("scale") {
        o.str("scale", s);
    }
    if let Some(s) = opts.get("shards") {
        o.str("shards", s);
    }
    if let Some(s) = opts.get("sample") {
        o.str("sample", s);
    }
    let spec = o.finish();
    memsim_server::jobs::parse_spec_bytes(spec.as_bytes())?;
    Ok(spec)
}

fn cmd_submit(opts: &Opts) -> Result<(), CliError> {
    let addr = opts.get("addr").ok_or("submit needs --addr HOST:PORT")?;
    let spec = submit_spec(opts)?;
    let client = memsim_server::client::Client::new(addr);
    let id = client.submit(&spec).map_err(CliError::runtime)?;
    if !opts.has("quiet") {
        eprintln!("submitted {id}");
    }
    let state = client
        .wait(&id, std::time::Duration::from_secs(3600))
        .map_err(CliError::runtime)?;
    if state != "done" {
        let status = client.status(&id).map_err(CliError::runtime)?;
        return Err(CliError::runtime(format!(
            "job {id} ended {state}: {status}"
        )));
    }
    let result = client.result(&id).map_err(CliError::runtime)?;
    let text =
        String::from_utf8(result).map_err(|_| CliError::runtime("non-UTF-8 result".into()))?;
    if opts.has("json") {
        if !opts.has("quiet") {
            println!("{text}");
        }
        return Ok(());
    }
    let v = memsim_core::jsontext::parse_json(&text).map_err(CliError::runtime)?;
    let obj = v
        .as_obj()
        .ok_or_else(|| CliError::runtime("result is not an object".into()))?;
    let md = memsim_core::jsontext::get_str(obj, "markdown").map_err(CliError::runtime)?;
    let csv = memsim_core::jsontext::get_str(obj, "csv").map_err(CliError::runtime)?;
    if !opts.has("quiet") {
        print!("{md}");
    }
    if let Some(out) = opts.get("out") {
        // Same layout as `reproduce --out`: the fetched artifact lands as
        // <name>.md / <name>.csv, byte-comparable against the batch run.
        let name = obj
            .get("artifact")
            .and_then(|a| a.as_str())
            .unwrap_or("replay");
        let dir = Path::new(out);
        std::fs::create_dir_all(dir)
            .map_err(|e| CliError::runtime(format!("cannot create {out}: {e}")))?;
        write_artifact(dir, name, md, csv)?;
        if !opts.has("quiet") {
            eprintln!("wrote {name}.md and {name}.csv to {out}");
        }
    }
    Ok(())
}

fn cmd_status(opts: &Opts) -> Result<(), String> {
    let id = opts.positional.first().ok_or("status needs a job id")?;
    let addr = opts.get("addr").ok_or("status needs --addr HOST:PORT")?;
    let client = memsim_server::client::Client::new(addr);
    let doc = client.status(id)?;
    println!("{doc}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn opts_parse_positional_flags_switches() {
        let o = Opts::parse(&args(&[
            "fig1",
            "--scale",
            "mini",
            "--csv",
            "--threads",
            "4",
        ]))
        .unwrap();
        assert_eq!(o.positional, vec!["fig1"]);
        assert_eq!(o.get("scale"), Some("mini"));
        assert_eq!(o.get("threads"), Some("4"));
        assert!(o.has("csv"));
        assert!(!o.has("md"));
        assert_eq!(o.threads().unwrap(), Some(4));
    }

    #[test]
    fn opts_missing_value_errors() {
        assert!(Opts::parse(&args(&["--scale"])).is_err());
    }

    #[test]
    fn opts_duplicate_flags_are_rejected() {
        // which value did the user mean? refuse to guess
        let err = Opts::parse(&args(&["--scale", "mini", "--scale", "demo"])).unwrap_err();
        assert_eq!(err, "duplicate flag '--scale'");
        // a repeated switch is just as ambiguous (usually a typo'd line)
        assert!(Opts::parse(&args(&["--csv", "--csv"])).is_err());
        // -o is an alias for --out, so mixing the two spellings collides
        assert!(Opts::parse(&args(&["-o", "x", "--out", "y"])).is_err());
        assert!(Opts::parse(&args(&["-o", "x", "-o", "y"])).is_err());
        // distinct flags still coexist
        let o = Opts::parse(&args(&["--scale", "mini", "--threads", "2"])).unwrap();
        assert_eq!(o.get("scale"), Some("mini"));
        assert_eq!(o.get("threads"), Some("2"));
    }

    #[test]
    fn resume_needs_an_out_dir() {
        assert!(run(&args(&["figure", "fig1", "--resume"])).is_err());
        assert!(run(&args(&["heatmap", "latency", "--resume"])).is_err());
        // static tables have no sweep to journal or resume
        assert!(run(&args(&["table", "tech", "--out", "somewhere"])).is_err());
        assert!(run(&args(&["table", "tech", "--resume"])).is_err());
    }

    #[test]
    fn resume_hint_reconstructs_the_invocation() {
        let o = Opts::parse(&args(&[
            "--out",
            "repro",
            "--scale",
            "mini",
            "--progress",
            "--resume",
        ]))
        .unwrap();
        assert_eq!(
            resume_hint("reproduce", &o),
            "memsim reproduce --out repro --scale mini --progress --resume"
        );
        // --resume is appended exactly once even when already present
        assert_eq!(resume_hint("reproduce", &o).matches("--resume").count(), 1);
    }

    #[test]
    fn serve_flag_validation() {
        // unknown flags for serve fail loudly
        assert!(run(&args(&["serve", "--designs", "nmm"])).is_err());
        assert!(run(&args(&["serve", "--csv"])).is_err());
        // port: 0 and junk rejected, 'auto' and literals accepted
        for bad in ["0", "junk", "70000", "-1"] {
            let o = Opts::parse(&args(&["--port", bad])).unwrap();
            assert!(serve_port(&o).is_err(), "--port {bad} accepted");
        }
        let auto = Opts::parse(&args(&[])).unwrap();
        assert_eq!(serve_port(&auto).unwrap(), 0);
        let fixed = Opts::parse(&args(&["--port", "8191"])).unwrap();
        assert_eq!(serve_port(&fixed).unwrap(), 8191);
        // worker/queue counts: zero-sized pools cannot make progress
        for key in ["threads", "queue"] {
            for bad in ["0", "junk"] {
                let o = Opts::parse(&args(&[&format!("--{key}"), bad])).unwrap();
                assert!(positive_opt(&o, key, 2).is_err(), "--{key} {bad} accepted");
            }
            let o = Opts::parse(&args(&[&format!("--{key}"), "3"])).unwrap();
            assert_eq!(positive_opt(&o, key, 2).unwrap(), 3);
        }
        let default = Opts::parse(&args(&[])).unwrap();
        assert_eq!(positive_opt(&default, "queue", 16).unwrap(), 16);
    }

    #[test]
    fn submit_spec_validation() {
        // --artifact and --replay are mutually exclusive and required
        let both = Opts::parse(&args(&["--artifact", "table4", "--replay", "hash"])).unwrap();
        assert!(submit_spec(&both).is_err());
        let neither = Opts::parse(&args(&[])).unwrap();
        assert!(submit_spec(&neither).is_err());
        // a good artifact spec round-trips through the server's parser
        let ok = Opts::parse(&args(&[
            "--artifact",
            "table4",
            "--workloads",
            "hash,bt",
            "--scale",
            "mini",
            "--shards",
            "seq",
        ]))
        .unwrap();
        let spec = submit_spec(&ok).unwrap();
        assert!(spec.contains("\"artifact\":\"table4\""));
        // bad values are caught client-side before any network I/O
        let bad = Opts::parse(&args(&["--artifact", "warp"])).unwrap();
        assert!(submit_spec(&bad).is_err());
        let bad_shards = Opts::parse(&args(&["--artifact", "table4", "--shards", "2"])).unwrap();
        assert!(submit_spec(&bad_shards).is_err());
        // replay spec with designs
        let replay =
            Opts::parse(&args(&["--replay", "hash", "--designs", "baseline,nmm"])).unwrap();
        assert!(submit_spec(&replay)
            .unwrap()
            .contains("\"replay\":\"hash\""));
        // submit/status require --addr; duplicate flags still rejected
        assert!(run(&args(&["submit", "--artifact", "table4"])).is_err());
        assert!(run(&args(&["status", "j1-abc"])).is_err());
        assert!(Opts::parse(&args(&["--addr", "a", "--addr", "b"])).is_err());
    }

    #[test]
    fn scale_parsing() {
        let mini = Opts::parse(&args(&["--scale", "mini"])).unwrap();
        assert_eq!(mini.scale().unwrap(), Scale::mini());
        let default = Opts::parse(&args(&[])).unwrap();
        assert_eq!(default.scale().unwrap(), Scale::demo());
        let bad = Opts::parse(&args(&["--scale", "bogus"])).unwrap();
        assert!(bad.scale().is_err());
    }

    #[test]
    fn workload_list_parsing() {
        let o = Opts::parse(&args(&["--workloads", "cg,hash,graph500"])).unwrap();
        let w = o.workloads().unwrap();
        assert_eq!(
            w,
            vec![WorkloadKind::Cg, WorkloadKind::Hash, WorkloadKind::Graph500]
        );
        let bad = Opts::parse(&args(&["--workloads", "cg,nope"])).unwrap();
        assert!(bad.workloads().is_err());
        let default = Opts::parse(&args(&[])).unwrap();
        assert_eq!(default.workloads().unwrap().len(), 7);
    }

    #[test]
    fn bad_thread_count_errors() {
        let o = Opts::parse(&args(&["--threads", "lots"])).unwrap();
        assert!(o.threads().is_err());
    }

    #[test]
    fn shards_parsing() {
        // absent, or any value naming the one group walk, is accepted
        assert!(Opts::parse(&args(&[])).unwrap().check_shards().is_ok());
        for ok in ["seq", "auto", "1"] {
            let o = Opts::parse(&args(&["--shards", ok])).unwrap();
            assert!(o.check_shards().is_ok(), "{ok}");
        }
        // anything else asked for the removed set-sharded engine
        for bad in ["0", "2", "many"] {
            let o = Opts::parse(&args(&["--shards", bad])).unwrap();
            let err = o.check_shards().unwrap_err();
            assert_eq!(
                err,
                format!(
                    "--shards {bad} is not available: the set-sharded engine was removed \
                     (use --threads)"
                )
            );
        }
        // refused at parse time, before a trace is opened or a journal
        // written
        let err = run(&args(&[
            "replay",
            "/nonexistent/never.trace",
            "--shards",
            "2",
        ]))
        .unwrap_err()
        .message;
        assert!(err.contains("set-sharded engine was removed"), "{err}");
        // a repeated --shards is ambiguous, like any duplicate flag
        assert!(Opts::parse(&args(&["--shards", "seq", "--shards", "1"])).is_err());
    }

    #[test]
    fn dispatch_rejects_unknown_commands() {
        assert!(run(&args(&["frobnicate"])).is_err());
        assert!(run(&args(&[])).is_err());
        assert!(run(&args(&["figure", "fig99"])).is_err());
        assert!(run(&args(&["table", "bogus"])).is_err());
        assert!(run(&args(&["heatmap", "sideways"])).is_err());
    }

    #[test]
    fn dispatch_static_commands_succeed() {
        assert!(run(&args(&["list"])).is_ok());
        assert!(run(&args(&["help"])).is_ok());
        assert!(run(&args(&["table", "tech"])).is_ok());
        assert!(run(&args(&["table", "eh-configs"])).is_ok());
        assert!(run(&args(&["table", "nmm-configs"])).is_ok());
    }

    #[test]
    fn help_lists_every_subcommand() {
        for cmd in [
            "list",
            "table",
            "figure",
            "run",
            "heatmap",
            "reproduce",
            "analyze",
            "record",
            "replay",
            "trace-info",
        ] {
            assert!(
                usage().contains(&format!("memsim {cmd}")),
                "usage() is missing '{cmd}'"
            );
        }
        assert!(run(&args(&["help"])).is_ok());
    }

    #[test]
    fn unknown_flags_are_rejected_per_command() {
        assert!(run(&args(&["list", "--csv"])).is_err());
        assert!(run(&args(&["figure", "fig1", "--bogus", "x"])).is_err());
        assert!(run(&args(&["run", "--workloads", "cg"])).is_err()); // run takes --workload
        assert!(run(&args(&["record", "cg", "--csv"])).is_err());
        assert!(run(&args(&["replay", "x.trace", "--out", "y"])).is_err());
        assert!(run(&args(&["trace-info", "x.trace", "--scale", "mini"])).is_err());
        // the report/obs switches only exist on run/replay/record/trace-info
        assert!(run(&args(&["figure", "fig1", "--json"])).is_err());
        assert!(run(&args(&["list", "--quiet"])).is_err());
        assert!(run(&args(&["trace-info", "x.trace", "--progress"])).is_err());
        assert!(run(&args(&["table", "tech", "--metrics-out", "m.json"])).is_err());
        // short flags other than -o don't exist
        assert!(Opts::parse(&args(&["-x"])).is_err());
        assert!(Opts::parse(&args(&["-o"])).is_err()); // missing value
    }

    #[test]
    fn short_out_flag_is_an_alias() {
        let o = Opts::parse(&args(&["cg", "-o", "cg.trace"])).unwrap();
        assert_eq!(o.positional, vec!["cg"]);
        assert_eq!(o.get("out"), Some("cg.trace"));
    }

    #[test]
    fn record_replay_trace_info_argument_errors() {
        assert!(run(&args(&["record"])).is_err()); // no workload
        assert!(run(&args(&["record", "nope", "-o", "x.trace"])).is_err());
        assert!(run(&args(&["record", "cg"])).is_err()); // no -o
        assert!(run(&args(&["replay"])).is_err());
        assert!(run(&args(&["replay", "/nonexistent/never.trace"])).is_err());
        assert!(run(&args(&["trace-info"])).is_err());
        assert!(run(&args(&["trace-info", "/nonexistent/never.trace"])).is_err());
    }

    #[test]
    fn record_then_replay_and_trace_info_succeed() {
        // a replay grid counts memo hits and misses into the global
        // registry whenever a concurrent test has observability on
        let _lock = memsim_obs::test_lock();
        let dir = std::env::temp_dir().join(format!("memsim-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("hash.trace").display().to_string();

        run(&args(&["record", "hash", "-o", &trace, "--scale", "mini"])).unwrap();
        run(&args(&["trace-info", &trace])).unwrap();
        run(&args(&["replay", &trace, "--designs", "baseline,nmm"])).unwrap();
        // unknown design name in the filter
        assert!(run(&args(&["replay", &trace, "--designs", "warp"])).is_err());

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn json_and_quiet_are_mutually_exclusive() {
        assert!(run(&args(&[
            "run",
            "--workload",
            "cg",
            "--design",
            "baseline",
            "--scale",
            "mini",
            "--json",
            "--quiet"
        ]))
        .is_err());
    }

    #[test]
    fn metrics_out_writes_parseable_json() {
        let _lock = memsim_obs::test_lock();
        let dir = std::env::temp_dir().join(format!("memsim-cli-obs-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("hash.trace").display().to_string();
        let m1 = dir.join("record.json").display().to_string();
        let m2 = dir.join("replay.json").display().to_string();

        run(&args(&[
            "record",
            "hash",
            "-o",
            &trace,
            "--scale",
            "mini",
            "--quiet",
            "--metrics-out",
            &m1,
        ]))
        .unwrap();
        let doc = std::fs::read_to_string(&m1).unwrap();
        assert!(doc.starts_with("{\"schema\":\"memsim-obs/1\""), "{doc}");
        assert!(doc.ends_with("}\n"));
        assert!(doc.contains("\"progress.events\""));
        assert!(doc.contains("\"command\":\"record\""));

        run(&args(&[
            "replay",
            &trace,
            "--designs",
            "baseline",
            "--json",
            "--metrics-out",
            &m2,
        ]))
        .unwrap();
        let doc = std::fs::read_to_string(&m2).unwrap();
        assert!(doc.contains("\"replay.3L.L1.load_hits\""), "{doc}");
        assert!(doc.contains("\"replay.3L.reader.crc_verified_chunks\""));
        assert!(doc.contains("\"progress.shards_done\""));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_evaluates_both_points_from_one_kernel_run() {
        let _lock = memsim_obs::test_lock();
        let dir = std::env::temp_dir().join(format!("memsim-cli-run-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let metrics = dir.join("run.json").display().to_string();
        let counter = |doc: &str, key: &str| -> u64 {
            let at = doc.find(&format!("\"{key}\":")).expect(key) + key.len() + 3;
            let digits: String = doc[at..].chars().take_while(char::is_ascii_digit).collect();
            digits.parse().unwrap()
        };
        // NMM walks two structures, NDM shares the baseline's: either way
        // the kernel runs once and each distinct structure is walked once
        for (design, walks) in [("nmm", 2), ("ndm", 1)] {
            let argv = [
                "run",
                "--workload",
                "hash",
                "--design",
                design,
                "--scale",
                "mini",
            ];
            let mut argv = args(&argv);
            argv.extend(args(&["--quiet", "--metrics-out", &metrics]));
            run(&argv).unwrap();
            let doc = std::fs::read_to_string(&metrics).unwrap();
            assert_eq!(counter(&doc, "sim.workload_runs"), 1, "{design}");
            assert_eq!(counter(&doc, "sim.memo.misses"), walks, "{design}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_of_a_corrupt_trace_fails_without_a_baseline() {
        let _lock = memsim_obs::test_lock();
        let dir = std::env::temp_dir().join(format!("memsim-cli-corrupt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("hash.trace");
        let path = trace.display().to_string();
        run(&args(&[
            "record", "hash", "-o", &path, "--scale", "mini", "--quiet",
        ]))
        .unwrap();
        let mut bytes = std::fs::read(&trace).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&trace, &bytes).unwrap();

        let argv = ["replay", &path, "--designs", "baseline,nmm", "--quiet"];
        let err = run(&args(&argv)).unwrap_err();
        assert!(!err.show_usage);
        // one line per point, each failing exactly once with the reader's
        // message: the one decode feeds both structures
        let lines: Vec<&str> = err.message.lines().collect();
        assert_eq!(lines.len(), 3, "{}", err.message);
        assert_eq!(lines[0], "baseline failed, cannot normalize:");
        assert!(
            lines[1].starts_with("  Hash × Baseline: CRC mismatch in chunk"),
            "{}",
            err.message
        );
        assert!(
            lines[2].starts_with("  Hash × NMM(PCM)@N6: CRC mismatch in chunk"),
            "{}",
            err.message
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_requires_design_and_workload() {
        assert!(run(&args(&["run", "--workload", "cg"])).is_err());
        assert!(run(&args(&["run", "--design", "nmm"])).is_err());
        // invalid technology for the design
        assert!(run(&args(&[
            "run",
            "--workload",
            "cg",
            "--design",
            "nmm",
            "--nvm",
            "edram",
            "--scale",
            "mini"
        ]))
        .is_err());
    }
}
