#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the memsim simulator.

Run from the repository root:

    python3 perfbench/run.py --workload replay_full --seed 1 --seconds 10 --trace 0

The harness builds the release `memsim` binary and the helper package in
perfbench/traced from the checkout, drives the CLI for one workload,
compares every output with the committed references in perfbench/refs,
and prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer ones.
perfbench/WORKLOADS.md describes the workloads, the exact `memsim` commands
and every metric.

Two more modes maintain the benchmark itself:

    python3 perfbench/run.py --write-refs   # regenerate perfbench/refs
    python3 perfbench/run.py --self-test    # injected delay + corrupted reference

Every run works in a fresh directory under .bench_runs/ in the checkout
(used as TMPDIR, trace location, --out and --state) and deletes it at the
end. Spans and full results of the last run per workload are kept in
.bench_out/.
"""

import argparse
import http.client
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFS_DIR = os.path.join(BENCH_DIR, "refs")
RUNS_DIR = os.path.join(ROOT, ".bench_runs")
OUT_DIR = os.path.join(ROOT, ".bench_out")

WORKLOAD_NAMES = ["live_sweep", "replay_full", "sampled_sweep", "serve"]

# Every workload pins the engine: `--shards auto` runs up to 6 threads on a
# 2-vCPU host and spreads far wider than the sequential walk.
PIN = ["--threads", "2", "--shards", "seq"]
LIVE_KERNELS = "cg,graph500,lu"
SAMPLE_SPEC = "interval=1m,clusters=12"
SERVE_TABLE4 = {"artifact": "table4", "workloads": "cg,hash", "scale": "mini"}
SERVE_REPLAY = {"replay": "lu", "designs": "baseline,nmm,ndm", "scale": "mini"}
# A replay walks each of the 5 default designs' 3 cache structures
# (3-level, EH1 L4 and N6 L4) over the whole trace.
REPLAY_STRUCTURES = 3
# Job status is polled this often; never Client::wait (50 ms sleeps) or
# the events stream (200 ms polls), whose granularity would be measured.
POLL_S = 0.005
# Hard stop for starting another repetition, well inside the 180 s limit.
REP_DEADLINE_S = 110.0

E2E_UNITS = {"wall_s": "s", "mrefs_per_s": "Mref/s", "setup_s": "s", "peak_rss_mib": "MiB"}


class BenchError(Exception):
    """The benchmark cannot run here (no sources, build failure, ...)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def host_identity():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "kernel": platform.release()}


def target_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def cargo_build(args):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    r = subprocess.run(["cargo", "build", "--release", "--offline", "-q"] + args,
                       cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    if r.returncode != 0:
        raise BenchError("cargo build {} failed:\n{}".format(
            " ".join(args), r.stderr.decode(errors="replace")[-2000:]))


def build():
    """Build the binaries of the checkout under test; returns their paths."""
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or \
            not os.path.isdir(os.path.join(ROOT, "crates", "cli")):
        raise BenchError("no memsim sources in {} (run from the repository root)".format(ROOT))
    cargo_build(["--manifest-path", "Cargo.toml", "-p", "memsim-cli"])
    cargo_build(["--manifest-path", os.path.join(BENCH_DIR, "traced", "Cargo.toml")])
    release = os.path.join(target_dir(), "release")
    return {"memsim": os.path.join(release, "memsim"),
            "spawn": os.path.join(release, "perfbench-spawn"),
            "tracer": os.path.join(release, "perfbench-trace")}


def clean_env(tmpdir):
    env = {k: v for k, v in os.environ.items() if not k.startswith("MEMSIM_")}
    env["TMPDIR"] = tmpdir
    return env


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(os.path.join(path, "tmp"))
    return path


def run_child(spawn, argv, rep_dir, tag, delay_s=0.0):
    """Run one command to completion in `rep_dir`, through perfbench-spawn.

    Returns the child's {"wall_s", "utime_s", "stime_s", "maxrss_kib",
    "exit"}: wall time from spawn to exit and the child's own rusage.
    stdout lands in <tag>.out, stderr in <tag>.err. `delay_s` is the
    self-test's injected slowdown, added to the measured wall time.
    """
    report = os.path.join(rep_dir, tag + ".rusage")
    with open(os.path.join(rep_dir, tag + ".out"), "wb") as out, \
            open(os.path.join(rep_dir, tag + ".err"), "wb") as err:
        subprocess.run([spawn, report] + argv, stdout=out, stderr=err, cwd=rep_dir,
                       env=clean_env(os.path.join(rep_dir, "tmp")))
    try:
        r = load_json(report)
    except (OSError, ValueError):
        return {"wall_s": 0.0, "utime_s": 0.0, "stime_s": 0.0, "maxrss_kib": 0, "exit": -1}
    if delay_s:
        time.sleep(delay_s)
        r["wall_s"] += delay_s
    return r


def stderr_tail(rep_dir, tag):
    try:
        with open(os.path.join(rep_dir, tag + ".err"), "rb") as f:
            return f.read()[-400:].decode(errors="replace").strip()
    except OSError:
        return ""


class Tally:
    """Operations attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def ok(self):
        self.attempted += 1

    def fail(self, reason):
        self.attempted += 1
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(reason)

    def check(self, good, reason):
        if good:
            self.ok()
        else:
            self.fail(reason)


class Spans:
    """The harness's own spans: name, start, end, parent; kept in memory."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.t0 = time.perf_counter()
        self.spans = []
        self.stack = []

    def begin(self, name):
        sid = len(self.spans)
        self.spans.append({"id": sid, "parent": self.stack[-1] if self.stack else None,
                           "name": name, "start_ns": self._now(), "end_ns": None})
        self.stack.append(sid)
        return sid

    def end(self, sid):
        assert self.stack and self.stack[-1] == sid, "spans must nest"
        self.stack.pop()
        self.spans[sid]["end_ns"] = self._now()

    def adopt(self, child_spans, offset_ns):
        """Graft the tracer's spans under the currently open span."""
        base = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        for s in child_spans:
            self.spans.append({
                "id": base + s["id"],
                "parent": parent if s["parent"] is None else base + s["parent"],
                "name": s["name"],
                "start_ns": offset_ns + s["start_ns"],
                "end_ns": offset_ns + s["end_ns"],
            })

    def _now(self):
        return int((time.perf_counter() - self.t0) * 1e9)


# ---------------------------------------------------------------- references

def load_json(path):
    with open(path) as f:
        return json.load(f)


def compare_results(tally, got, want, what):
    """Per-design, bit-exact comparison of replay `results` arrays.

    Replay JSON prints shortest round-trip f64s and Python parses them to
    the same doubles, so dict equality is exact.
    """
    got_by = {r.get("design"): r for r in got if isinstance(r, dict)}
    for r in want:
        g = got_by.get(r["design"])
        tally.check(g == r, "{}: {} differs from the reference".format(what, r["design"]))


def sample_err_pct(sampled, full):
    """Worst |sampled - full| / full over AMAT and energy, in percent."""
    full_by = {r["design"]: r["metrics"] for r in full}
    worst = 0.0
    for r in sampled:
        f = full_by[r["design"]]
        for key in ("amat_ns", "energy_j"):
            worst = max(worst, abs(r["metrics"][key] - f[key]) / f[key])
    return 100.0 * worst


# ------------------------------------------------------------------ HTTP

class Daemon:
    """A `memsim serve` child with a fresh state directory."""

    def __init__(self, memsim, rep_dir):
        self.state = os.path.join(rep_dir, "state")
        self.err = open(os.path.join(rep_dir, "serve.err"), "wb")
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [memsim, "serve", "--port", "auto", "--state", self.state, "--threads", "2"],
            stdout=subprocess.PIPE, stderr=self.err, cwd=rep_dir,
            env=clean_env(os.path.join(rep_dir, "tmp")))
        line = self.proc.stdout.readline().decode(errors="replace")
        if "listening on" not in line:
            self.stop()
            raise BenchError("serve did not start: {!r}".format(line))
        self.port = int(line.rsplit(":", 1)[1])
        status, _ = self.request("GET", "/healthz")
        # counted as up at the first healthy /healthz
        self.up_s = time.perf_counter() - self.t0
        if status != 200:
            self.stop()
            raise BenchError("serve /healthz answered {}".format(status))

    def request(self, method, path, body=None):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            conn.request(method, path, body=body)
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def cpu_ticks(self):
        with open("/proc/{}/stat".format(self.proc.pid)) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return int(fields[11]) + int(fields[12])  # utime + stime

    def peak_rss_kib(self):
        """VmHWM of the live daemon: its own high-water mark. (Its wait4
        rusage would report the Python parent's memory instead.)"""
        with open("/proc/{}/status".format(self.proc.pid)) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        return 0

    def stop(self):
        """SIGINT: the daemon drains its workers and exits."""
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.err.close()


def run_job(daemon, spec, tally):
    """Submit `spec`, poll status every POLL_S, fetch the result.

    Returns the result document without its job id, or None on failure.
    Every HTTP request and the job itself count as operations.
    """
    def req(method, path, body=None, want=200):
        try:
            status, data = daemon.request(method, path, body)
        except (OSError, http.client.HTTPException) as e:
            tally.fail("{} {}: {}".format(method, path, e))
            return None
        tally.check(status == want, "{} {} answered {}".format(method, path, status))
        return data if status == want else None

    data = req("POST", "/jobs", json.dumps(spec), want=202)
    if data is None:
        tally.fail("job {} not submitted".format(spec))
        return None
    job_id = json.loads(data)["id"]
    while True:
        data = req("GET", "/jobs/" + job_id)
        if data is None:
            tally.fail("job {} status lost".format(job_id))
            return None
        state = json.loads(data)["state"]
        if state in ("done", "failed", "cancelled"):
            break
        time.sleep(POLL_S)
    if state != "done":
        tally.fail("job {} ended {}".format(job_id, state))
        return None
    data = req("GET", "/jobs/{}/result".format(job_id))
    if data is None:
        tally.fail("job {} result unreadable".format(job_id))
        return None
    doc = json.loads(data)
    doc.pop("id", None)
    return doc


# ----------------------------------------------------------------- workloads
#
# Each rep function runs one set-up step and its measured step(s) in a
# fresh rep directory and returns, per measured step, {"setup": [s...],
# "wall": s, "rss": KiB, "cpu": s, "refs": n}. The hook, when given, runs
# inside the rep after the measured step, while its files still exist
# (the traced run uses it).


class Bench:
    def __init__(self, bins, refs_dir, run_dir, delay_s=0.0):
        self.memsim = bins["memsim"]
        self.bins = bins
        self.refs_dir = refs_dir
        self.run_dir = run_dir
        self.delay_s = delay_s
        self.tally = Tally()
        self.meta = load_json(os.path.join(refs_dir, "meta.json"))

    def ref(self, *parts):
        return os.path.join(self.refs_dir, *parts)

    def child(self, argv, rep_dir, tag, measured=False):
        r = run_child(self.bins["spawn"], [self.memsim] + argv, rep_dir, tag,
                      self.delay_s if measured else 0.0)
        if r["exit"] != 0:
            self.tally.fail("memsim {} exited {}: {}".format(argv[0], r["exit"],
                                                              stderr_tail(rep_dir, tag)))
        return r

    @staticmethod
    def measured(r, refs, setup=()):
        return {"setup": list(setup), "wall": r["wall_s"], "rss": r["maxrss_kib"],
                "cpu": r["utime_s"] + r["stime_s"], "refs": refs}

    # -- live_sweep: no set-up step; the paper's full reproduce loop
    def live_sweep_setup(self, rep_dir):
        """The only fixed cost before a live sweep: start the binary."""
        return self.child(["list"], rep_dir, "list")["wall_s"]

    def live_sweep(self, rep_dir, hook=None):
        out = os.path.join(rep_dir, "out")
        r = self.child(
            ["reproduce", "--scale", "mini", "--workloads", LIVE_KERNELS] + PIN + ["--out", out],
            rep_dir, "reproduce", measured=True)
        for name in sorted(os.listdir(self.ref("live_sweep"))):
            try:
                with open(os.path.join(out, name), "rb") as a, \
                        open(self.ref("live_sweep", name), "rb") as b:
                    same = a.read() == b.read()
            except OSError:
                same = False
            self.tally.check(r["exit"] == 0 and same, "live_sweep: {} differs".format(name))
        if hook:
            hook(rep_dir)
        return self.measured(r, self.meta["live_sweep"]["refs"])

    # -- replay_full: record Velvet, replay it at full fidelity
    def replay_full(self, rep_dir, hook=None):
        trace = os.path.join(rep_dir, "velvet.trace")
        setup = self.child(["record", "velvet", "-o", trace, "--scale", "mini"],
                           rep_dir, "record")["wall_s"]
        r = self.child(["replay", trace] + PIN + ["--json"], rep_dir, "replay", measured=True)
        events = self._check_replay(rep_dir, "replay", r["exit"], "replay_full.json",
                                    "replay_full")
        if hook:
            hook(rep_dir, trace)
        return self.measured(r, events * REPLAY_STRUCTURES, [setup])

    # -- sampled_sweep: record AMG2013 at demo scale, interval-sampled replay
    def sampled_sweep(self, rep_dir, hook=None):
        """One recording, SAMPLED_REPLAYS measured replays of it.

        Each replay gets a fresh TMPDIR, so each builds its own plan
        rather than reading the previous replay's sidecar.
        """
        trace = os.path.join(rep_dir, "amg.trace")
        setup = self.child(["record", "amg2013", "-o", trace, "--scale", "demo"],
                           rep_dir, "record")["wall_s"]
        runs = []
        for i in range(1 if hook else SAMPLED_REPLAYS):
            sub = fresh_dir(os.path.join(rep_dir, "replay{}".format(i)))
            r = self.child(["replay", trace, "--sample", SAMPLE_SPEC] + PIN + ["--json"],
                           sub, "replay", measured=True)
            events = self._check_replay(sub, "replay", r["exit"], "sampled_sweep.json",
                                        "sampled_sweep")
            if hook:
                hook(sub, trace)
            runs.append(self.measured(r, events * REPLAY_STRUCTURES, [setup] if i == 0 else []))
        os.remove(trace)
        return runs

    def _check_replay(self, rep_dir, tag, code, ref_name, what):
        want = load_json(self.ref(ref_name))["results"]
        try:
            with open(os.path.join(rep_dir, tag + ".out")) as f:
                doc = json.load(f)
            got, events = doc["results"], doc["events"]
        except (OSError, ValueError, KeyError):
            got, events = [], 0
        if code != 0:
            got = []
        compare_results(self.tally, got, want, what)
        return events

    # -- serve: daemon up, then one closed-loop client
    def serve(self, rep_dir, hook=None):
        daemon = Daemon(self.memsim, rep_dir)
        try:
            ticks0 = daemon.cpu_ticks()
            t0 = time.perf_counter()
            # cold table4 (simulates), cold replay (records the trace), then
            # both again: the memo and the trace store answer
            docs = [run_job(daemon, spec, self.tally)
                    for spec in (SERVE_TABLE4, SERVE_REPLAY, SERVE_TABLE4, SERVE_REPLAY)]
            if self.delay_s:
                time.sleep(self.delay_s)
            wall = time.perf_counter() - t0
            cpu = (daemon.cpu_ticks() - ticks0) / os.sysconf("SC_CLK_TCK")
            want = [load_json(self.ref("serve_table4.json")),
                    load_json(self.ref("serve_replay.json"))] * 2
            for i, (got, ref) in enumerate(zip(docs, want)):
                self.tally.check(got == ref, "serve: job {} result differs".format(i))
            rss = daemon.peak_rss_kib()
            if hook:
                hook(rep_dir, daemon)
        finally:
            daemon.stop()
        if daemon.proc.returncode != 0:
            self.tally.fail("serve exited {}: {}".format(daemon.proc.returncode,
                                                         stderr_tail(rep_dir, "serve")))
        return {"setup": [daemon.up_s], "wall": wall, "rss": rss, "cpu": cpu,
                "refs": self.meta["serve"]["refs"]}

    def rep(self, workload, i, hook=None):
        """One set-up and its measured step(s); returns a list of them."""
        rep_dir = fresh_dir(os.path.join(self.run_dir, "rep{}".format(i)))
        try:
            r = getattr(self, workload)(rep_dir, hook)
            return r if isinstance(r, list) else [r]
        finally:
            shutil.rmtree(rep_dir, ignore_errors=True)


# Set-ups per run, at least: setup_s is the median of these.
MIN_SETUPS = 3
# live_sweep has no set-up step; its millisecond binary start is sampled
# this often per run.
LIVE_SETUPS = 21
# One live_sweep reproduce takes about 10 s, and a shared 2-vCPU VM's speed
# drifts by up to ±15% over tens of seconds: its median needs at least
# this many.
LIVE_MIN_REPS = 3
# Measured sampled replays per AMG2013 recording (which takes longer).
SAMPLED_REPLAYS = 2


def measure(bench, workload, seconds):
    """Repeat the workload's set-up and measured steps for `seconds`.

    Another repetition starts only while the previous one's duration
    still fits in the run, so every workload's run lasts about `seconds`
    (the minimum repetition counts can stretch it).
    """
    reps, setups = [], []
    start = time.perf_counter()
    if workload == "live_sweep":
        d = fresh_dir(os.path.join(bench.run_dir, "setup"))
        setups = [bench.live_sweep_setup(d) for _ in range(LIVE_SETUPS)]
        shutil.rmtree(d, ignore_errors=True)
    min_setups = 0 if workload == "live_sweep" else MIN_SETUPS
    min_reps = LIVE_MIN_REPS if workload == "live_sweep" else 1
    while True:
        t = time.perf_counter()
        for r in bench.rep(workload, len(reps)):
            reps.append(r)
            setups += r["setup"]
        now = time.perf_counter()
        enough = len(setups) >= min_setups and len(reps) >= min_reps
        if (enough and now + (now - t) > start + seconds) or now - start > REP_DEADLINE_S:
            break
    return reps, setups


def e2e_metrics(reps, setups):
    return {
        "wall_s": statistics.median(r["wall"] for r in reps),
        "mrefs_per_s": statistics.median(r["refs"] / r["wall"] / 1e6 for r in reps),
        "setup_s": statistics.median(setups),
        # a peak: the highest of the run's measured steps
        "peak_rss_mib": max(r["rss"] / 1024.0 for r in reps),
    }


# --------------------------------------------------------------- traced run

TRACE_TABLE4_PROBE = {"artifact": "table4", "workloads": "lu", "scale": "mini"}
HEALTHZ_SAMPLES = 200
WARM_RESUBMITS = 9


def server_probe(bench, daemon, warm_spec, spans):
    """server.request_ms (/healthz p50) and server.warm_job_ms (memo hit)."""
    sid = spans.begin("server.healthz")
    rtts = []
    for _ in range(HEALTHZ_SAMPLES):
        t = time.perf_counter()
        status, _ = daemon.request("GET", "/healthz")
        rtts.append(time.perf_counter() - t)
        bench.tally.check(status == 200, "/healthz answered {}".format(status))
    spans.end(sid)
    sid = spans.begin("server.warm_job")
    warm = []
    for _ in range(WARM_RESUBMITS):
        t = time.perf_counter()
        run_job(daemon, warm_spec, bench.tally)
        warm.append(time.perf_counter() - t)
    spans.end(sid)
    return {"server.request_ms": 1e3 * statistics.median(rtts),
            "server.warm_job_ms": 1e3 * statistics.median(warm)}


def run_tracer(bench, workload, rep_dir, trace, spans):
    argv = [bench.bins["tracer"], "--workload", workload, "--dir", rep_dir]
    if trace:
        argv += ["--trace", trace]
    sid = spans.begin("tracer")
    offset = spans.spans[sid]["start_ns"]
    r = subprocess.run(argv, cwd=rep_dir, env=clean_env(os.path.join(rep_dir, "tmp")),
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if r.returncode != 0:
        spans.end(sid)
        bench.tally.fail("tracer exited {}: {}".format(
            r.returncode, r.stderr.decode(errors="replace")[-600:]))
        return None
    doc = json.loads(r.stdout)
    spans.adopt(doc["spans"], offset)
    spans.end(sid)
    return doc


def traced(bench, workload, seed):
    """One end-to-end rep (for grid.cpu_util) plus the layer tracer."""
    spans = Spans("{}-seed{}-{}".format(workload, seed, os.getpid()))
    found = {}

    def after(rep_dir, extra=None):
        if workload == "serve":
            found.update(server_probe(bench, extra, SERVE_TABLE4, spans))
            trace = None
        else:
            trace = extra
            pdir = fresh_dir(os.path.join(bench.run_dir, "probe"))
            daemon = Daemon(bench.memsim, pdir)
            try:
                run_job(daemon, TRACE_TABLE4_PROBE, bench.tally)
                found.update(server_probe(bench, daemon, TRACE_TABLE4_PROBE, spans))
            finally:
                daemon.stop()
                shutil.rmtree(pdir, ignore_errors=True)
        if workload == "sampled_sweep":
            with open(os.path.join(rep_dir, "replay.out")) as f:
                got = json.load(f)["results"]
            found["sample_err_pct"] = sample_err_pct(
                got, load_json(bench.ref("sampled_full.json"))["results"])
        found["tracer"] = run_tracer(bench, workload, rep_dir, trace, spans)

    root = spans.begin("run." + workload)
    r = bench.rep(workload, 0, hook=after)[0]
    spans.end(root)
    doc = found.pop("tracer")
    if doc is None:
        return None, spans, r
    metrics = dict(doc["metrics"])
    metrics.update({k: v for k, v in found.items() if k.startswith("server.")})
    metrics["grid.cpu_util"] = r["cpu"] / (2.0 * r["wall"])
    if "sample_err_pct" in found:
        metrics["sampling.err_pct"] = found["sample_err_pct"]
    for name, good in doc["checks"]:
        bench.tally.check(good, "tracer: {}".format(name))
    # the library path costs the designs bit-identically to the CLI
    ref_name = {"replay_full": "replay_full.json", "sampled_sweep": "sampled_sweep.json"}
    if workload in ref_name:
        for row in load_json(bench.ref(ref_name[workload]))["results"]:
            want = {k: row["metrics"][k] for k in ("amat_ns", "energy_j")}
            bench.tally.check(doc["designs"].get(row["design"]) == want,
                              "tracer: {} differs from the CLI".format(row["design"]))
    return (metrics, doc), spans, r


def per_layer_units():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


# ----------------------------------------------------------------- modes

def result_line(tally, values, units):
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    return json.dumps({"correct": tally.failed == 0 and tally.attempted > 0,
                       "attempted": tally.attempted, "failed": tally.failed,
                       "metrics": metrics})


def run_once(args, bins, refs_dir, delay_s=0.0):
    """One benchmark run; returns (tally, metric values, units, extra)."""
    run_dir = os.path.join(RUNS_DIR, "{}-{}".format(args.workload, os.getpid()))
    fresh_dir(run_dir)
    try:
        bench = Bench(bins, refs_dir, run_dir, delay_s)
        if not args.trace:
            reps, setups = measure(bench, args.workload, args.seconds)
            values = e2e_metrics(reps, setups)
            extra = {"reps": reps, "setups": setups}
            return bench.tally, values, dict(E2E_UNITS), extra
        units = per_layer_units()
        res, spans, rep = traced(bench, args.workload, args.seed)
        if res is None:
            raise BenchError("traced run failed: {}".format(bench.tally.reasons))
        values, doc = res
        missing = [k for k in units if k not in values]
        if missing:
            raise BenchError("tracer did not report {}".format(missing))
        os.makedirs(OUT_DIR, exist_ok=True)
        with open(os.path.join(OUT_DIR, args.workload + ".spans.json"), "w") as f:
            json.dump({"run_id": spans.run_id, "host": host_identity(),
                       "spans": spans.spans}, f)
        extra = {"traced_total_s": doc["total_s"], "tracer_s": doc["tracer_s"],
                 "e2e_wall_s": rep["wall"], "layer_self_s": doc["self_s"]}
        return bench.tally, values, units, extra
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def benchmark_run(args):
    bins = build()
    host = host_identity()
    tally, values, units, extra = run_once(args, bins, REFS_DIR)
    print("host: nproc={nproc} cpu={cpu} kernel={kernel}".format(**host))
    print("workload: {} seed: {} seconds: {} trace: {}".format(
        args.workload, args.seed, args.seconds, args.trace))
    if args.trace:
        print("traced: the measured step's layers took {:.3f} s of span self time, "
              "beside end-to-end wall_s {:.3f} s (whole tracer run {:.3f} s)".format(
                  extra["traced_total_s"], extra["e2e_wall_s"], extra["tracer_s"]))
        for name, s in sorted(extra["layer_self_s"].items()):
            print("  self {:<28} {:.4f} s".format(name, s))
    else:
        print("reps: {}  walls: {}  setups: {}".format(
            len(extra["reps"]), " ".join("{:.4f}".format(r["wall"]) for r in extra["reps"]),
            " ".join("{:.4f}".format(s) for s in extra["setups"])))
    for k in units:
        print("{:<30} {:>16.6g} {}".format(k, values[k], units[k]))
    print("error_rate {:.6g} ({} failed of {} operations)".format(
        tally.failed / max(tally.attempted, 1), tally.failed, tally.attempted))
    for reason in tally.reasons:
        log("failure: " + reason)
    line = result_line(tally, values, units)
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "{}.trace{}.result.json".format(
            args.workload, args.trace)), "w") as f:
        json.dump({"host": host, "seed": args.seed, "values": values,
                   "extra": {k: v for k, v in extra.items() if k != "layer_self_s"},
                   "result": json.loads(line)}, f)
    print(line)


def write_refs():
    """Regenerate perfbench/refs from this checkout's outputs."""
    bins = build()
    run_dir = fresh_dir(os.path.join(RUNS_DIR, "refs-{}".format(os.getpid())))
    memsim = bins["memsim"]

    def must(argv, tag):
        r = run_child(bins["spawn"], [memsim] + argv, run_dir, tag)
        if r["exit"] != 0:
            raise BenchError("memsim {} failed: {}".format(argv[0], stderr_tail(run_dir, tag)))
        log("  {} ({:.1f} s)".format(" ".join(argv[:2]), r["wall_s"]))
        with open(os.path.join(run_dir, tag + ".out")) as f:
            return f.read()

    def dump(name, doc):
        with open(os.path.join(REFS_DIR, name), "w") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")

    try:
        shutil.rmtree(REFS_DIR, ignore_errors=True)
        os.makedirs(os.path.join(REFS_DIR, "live_sweep"))
        # demand references after line splitting, as the walk counts them
        events = {}
        for k in ("cg", "graph500", "lu", "hash"):
            t = os.path.join(run_dir, k + ".trace")
            must(["record", k, "-o", t, "--scale", "mini"], "rec-" + k)
            events[k] = json.loads(must(["replay", t, "--designs", "baseline", "--json"],
                                        "replay-" + k))["events"]
            os.remove(t)
        out = os.path.join(run_dir, "out")
        must(["reproduce", "--scale", "mini", "--workloads", LIVE_KERNELS] + PIN +
             ["--out", out], "reproduce")
        for name in sorted(os.listdir(out)):
            if name.endswith((".md", ".csv")):
                shutil.copy(os.path.join(out, name), os.path.join(REFS_DIR, "live_sweep", name))
        t = os.path.join(run_dir, "velvet.trace")
        must(["record", "velvet", "-o", t, "--scale", "mini"], "rec-velvet")
        dump("replay_full.json", {"results": json.loads(
            must(["replay", t] + PIN + ["--json"], "replay"))["results"]})
        os.remove(t)
        t = os.path.join(run_dir, "amg.trace")
        must(["record", "amg2013", "-o", t, "--scale", "demo"], "rec-amg")
        dump("sampled_sweep.json", {"results": json.loads(must(
            ["replay", t, "--sample", SAMPLE_SPEC] + PIN + ["--json"], "sampled"))["results"]})
        dump("sampled_full.json", {"results": json.loads(
            must(["replay", t] + PIN + ["--json"], "full"))["results"]})
        os.remove(t)
        tally = Tally()
        daemon = Daemon(memsim, run_dir)
        try:
            dump("serve_table4.json", run_job(daemon, SERVE_TABLE4, tally))
            dump("serve_replay.json", run_job(daemon, SERVE_REPLAY, tally))
        finally:
            daemon.stop()
        if tally.failed:
            raise BenchError("serve reference jobs failed: {}".format(tally.reasons))
        live = sum(events[k] for k in LIVE_KERNELS.split(","))
        # one structure per table4 workload (baseline only); the lu replay
        # over baseline,nmm,ndm walks two (3-level and N6 L4); all twice
        serve = 2 * (events["cg"] + events["hash"]) + 2 * 2 * events["lu"]
        dump("meta.json", {
            "live_sweep": {"refs": 18 * live,
                           "note": "18 cache structures per kernel over cg+graph500+lu"},
            "serve": {"refs": serve,
                      "note": "table4(cg,hash) and replay(lu) results, each submitted twice"},
        })
        log("references written to {}".format(REFS_DIR))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}


SELF_TEST_RUNS = 3


def self_test():
    """Two checks of the harness itself.

    1. A delay injected into one workload's measured step is reported as a
       wall_s regression (median worse by more than the bound) on that
       workload and on no other.
    2. A corrupted reference file is reported as failed operations.
    """
    bins = build()
    bound, _ = bounds()["wall_s"]
    victim = "replay_full"
    flagged, ok = [], True
    for w in WORKLOAD_NAMES:
        sides = {"base": [], "delayed": []}
        # alternate the sides, so host speed drift hits both alike
        for i in range(SELF_TEST_RUNS):
            a = argparse.Namespace(workload=w, seed=i, seconds=1, trace=0)
            tally, values, _, _ = run_once(a, bins, REFS_DIR)
            ok &= tally.failed == 0
            sides["base"].append(values["wall_s"])
            # twice the bound, relative to the paired base run
            delay = 2.0 * bound * values["wall_s"] if w == victim else 0.0
            tally, values, _, _ = run_once(a, bins, REFS_DIR, delay_s=delay)
            ok &= tally.failed == 0
            sides["delayed"].append(values["wall_s"])
        base, new = statistics.median(sides["base"]), statistics.median(sides["delayed"])
        worse = (new - base) / base
        if worse > bound:
            flagged.append(w)
        log("self-test: {:<14} wall_s {:.3f} -> {:.3f} s ({:+.1%}, bound {:.0%})".format(
            w, base, new, worse, bound))
    delay_ok = flagged == [victim] and ok
    log("self-test: injected delay into {} flagged on {} -> {}".format(
        victim, flagged or "nothing", "PASS" if delay_ok else "FAIL"))

    bad_refs = os.path.join(RUNS_DIR, "badrefs-{}".format(os.getpid()))
    shutil.rmtree(bad_refs, ignore_errors=True)
    shutil.copytree(REFS_DIR, bad_refs)
    try:
        path = os.path.join(bad_refs, "replay_full.json")
        with open(path) as f:
            text = f.read()
        i = text.index('"amat_ns": ') + len('"amat_ns": ')
        digit = "1" if text[i] != "1" else "2"
        with open(path, "w") as f:
            f.write(text[:i] + digit + text[i + 1:])
        a = argparse.Namespace(workload="replay_full", seed=0, seconds=1, trace=0)
        tally, _, _, _ = run_once(a, bins, bad_refs)
    finally:
        shutil.rmtree(bad_refs, ignore_errors=True)
    corrupt_ok = tally.failed > 0
    log("self-test: corrupted reference -> error_rate {:.3f} ({} of {}) -> {}".format(
        tally.failed / max(tally.attempted, 1), tally.failed, tally.attempted,
        "PASS" if corrupt_ok else "FAIL"))
    return 0 if delay_ok and corrupt_ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0,
                    help="recorded only: the CLI takes no input seed and the kernels "
                         "are deterministic")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--write-refs", action="store_true")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    try:
        if args.write_refs:
            write_refs()
            return 0
        if args.self_test:
            return self_test()
        if not args.workload:
            ap.error("--workload is required")
        benchmark_run(args)
        return 0
    except BenchError as e:
        log("perfbench: {}".format(e))
        return 2
    finally:
        try:
            os.rmdir(RUNS_DIR)
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
