#!/usr/bin/env bash
# Offline lint gate: formatting + clippy with warnings denied.
# Mirrors what CI runs; everything resolves from the vendored deps, so no
# network access is needed.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo doc -D warnings (broken intra-doc links)"
# the workspace's own crates; the vendored stand-ins are not this gate's
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline -q \
    -p memsim-obs -p memsim-trace -p memsim-tracefile -p memsim-cache \
    -p memsim-tech -p memsim-memory -p memsim-workloads -p memsim-core \
    -p memsim-server -p memsim-cli

echo "== tracefile round-trip property tests"
cargo test -p memsim-tracefile --offline -q

echo "== record -> replay smoke (CLI)"
smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT
cargo run --release --offline -q -p memsim-cli -- record hash -o "$smoke_dir/hash.trace" --scale mini
cargo run --release --offline -q -p memsim-cli -- trace-info "$smoke_dir/hash.trace"
cargo run --release --offline -q -p memsim-cli -- replay "$smoke_dir/hash.trace" --designs baseline,nmm

echo "== observability: metrics export, LevelStats cross-check, byte stability"
MEMSIM_OBS_DETERMINISTIC=1 cargo run --release --offline -q -p memsim-cli -- \
    run --workload hash --design baseline --scale mini --json \
    --metrics-out "$smoke_dir/metrics-a.json" >"$smoke_dir/run.json"
MEMSIM_OBS_DETERMINISTIC=1 cargo run --release --offline -q -p memsim-cli -- \
    run --workload hash --design baseline --scale mini --quiet \
    --metrics-out "$smoke_dir/metrics-b.json"
test -s "$smoke_dir/metrics-a.json"
test -s "$smoke_dir/run.json"
# deterministic mode zeroes span wall-times: identical runs, identical bytes
cmp "$smoke_dir/metrics-a.json" "$smoke_dir/metrics-b.json"
if command -v python3 >/dev/null 2>&1; then
    # both documents parse, and every per-level counter in the registry
    # dump equals the final LevelStats the run itself reported
    python3 - "$smoke_dir/run.json" "$smoke_dir/metrics-a.json" <<'PY'
import json, sys
run = json.load(open(sys.argv[1]))
doc = json.load(open(sys.argv[2]))
assert doc["schema"] == "memsim-obs/1", doc["schema"]
counters = doc["counters"]
fields = ["loads", "stores", "load_hits", "load_misses", "store_hits",
          "store_misses", "writebacks_out", "fills", "bytes_loaded",
          "bytes_stored"]
checked = 0
for lvl in run["levels"]:
    for f in fields:
        key = "sim.Hash.3L.{}.{}".format(lvl["name"], f)
        assert counters[key] == lvl[f], (key, counters[key], lvl[f])
        checked += 1
assert checked >= 40, checked
assert counters["progress.events"] > 0
print("observability cross-check: {} counters match final LevelStats".format(checked))
PY
else
    echo "python3 not found; skipping metrics JSON cross-check"
fi

echo "== crash-resilient reproduce: interrupt after the first journaled workload, resume, compare bytes"
cargo build --release --offline -q -p memsim-cli
BIN=target/release/memsim
# reference: one uninterrupted run
MEMSIM_OBS_DETERMINISTIC=1 "$BIN" reproduce --out "$smoke_dir/clean" \
    --scale mini --workloads cg,hash,lu --threads 2 \
    --metrics-out "$smoke_dir/clean-metrics.json" 2>"$smoke_dir/clean.log"
# results must not depend on the lane count: one lane walks every
# structure of a group, three lanes split them three ways
for threads in 1 3; do
    MEMSIM_OBS_DETERMINISTIC=1 "$BIN" reproduce --out "$smoke_dir/threads-$threads" \
        --scale mini --workloads cg,hash,lu --threads "$threads" 2>/dev/null
    for f in "$smoke_dir"/clean/*.md "$smoke_dir"/clean/*.csv; do
        cmp "$f" "$smoke_dir/threads-$threads/$(basename "$f")"
    done
done
echo "reproduce artifacts byte-identical at --threads 1/2/3"
# same sweep again (the binary runs directly, not under `cargo run`, so the
# signal reaches the simulator process itself). A reproduce journals each
# workload's points before the next workload's kernel starts, so SIGINT
# shortly after the journal turns non-empty lands while Hash walks; Hash
# finishes and is journaled, and LU never starts. CG's last point lands
# about 2 ms after its first and Hash walks for about 2 s at mini: the
# 0.1 s settle keeps the signal out of the gap before Hash's walk.
MEMSIM_OBS_DETERMINISTIC=1 "$BIN" reproduce --out "$smoke_dir/resumed" \
    --scale mini --workloads cg,hash,lu --threads 2 2>"$smoke_dir/interrupt.log" &
repro_pid=$!
for _ in $(seq 1 1000); do
    [ -s "$smoke_dir/resumed/sweep.journal.jsonl" ] && break
    sleep 0.01
done
sleep 0.1
kill -INT "$repro_pid" 2>/dev/null || true
if wait "$repro_pid"; then
    echo "error: the reproduction finished before the interrupt landed" >&2
    exit 1
fi
grep -q "resume with:" "$smoke_dir/interrupt.log"
# finish the interrupted sweep from its journal
MEMSIM_OBS_DETERMINISTIC=1 "$BIN" reproduce --out "$smoke_dir/resumed" \
    --scale mini --workloads cg,hash,lu --threads 2 --resume \
    --metrics-out "$smoke_dir/resume-metrics.json" 2>"$smoke_dir/resume.log"
# the interrupted-then-resumed reproduction is byte-identical to the clean one
for f in "$smoke_dir"/clean/*.md "$smoke_dir"/clean/*.csv; do
    cmp "$f" "$smoke_dir/resumed/$(basename "$f")"
done
echo "interrupt/resume reproduction is byte-identical ($(ls "$smoke_dir"/clean/*.md | wc -l) artifacts)"
if command -v python3 >/dev/null 2>&1; then
    # one kernel run per workload; the resume runs LU's alone and serves
    # CG's and Hash's 79 points each from the journal
    python3 - "$smoke_dir/clean-metrics.json" "$smoke_dir/resume-metrics.json" <<'PY'
import json, sys
clean, resume = (json.load(open(p))["counters"] for p in sys.argv[1:3])
assert clean["sim.workload_runs"] == 3, clean["sim.workload_runs"]
assert resume["sim.workload_runs"] == 1, resume["sim.workload_runs"]
assert resume["sweep.points_skipped"] == 158, resume["sweep.points_skipped"]
print("one kernel run per workload; the resume ran 1 and skipped 158 journaled points")
PY
else
    echo "python3 not found; skipping the kernel-run count check"
fi

echo "== shared prefix: one L1-L3 walk per group feeds every structure's L4 and terminal"
if command -v python3 >/dev/null 2>&1; then
    MEMSIM_OBS_DETERMINISTIC=1 "$BIN" replay "$smoke_dir/hash.trace" --designs baseline,nmm,4lc \
        --quiet --metrics-out "$smoke_dir/replay-prefix.json"
    python3 - "$smoke_dir/replay-prefix.json" <<'PY'
import json, sys
c = json.load(open(sys.argv[1]))["counters"]
fields = ["loads", "stores", "load_hits", "load_misses", "store_hits",
          "store_misses", "writebacks_out", "fills", "bytes_loaded",
          "bytes_stored"]
structures = sorted(k.split(".")[1] for k in c
                    if k.startswith("replay.") and k.endswith(".L1.loads"))
assert len(structures) == 3, structures
# L1-L3 are the group's one prefix: every structure publishes its counters
for level in ("L1", "L2", "L3"):
    for f in fields:
        values = {s: c["replay.{}.{}.{}".format(s, level, f)] for s in structures}
        assert len(set(values.values())) == 1, (level, f, values)
# an L4 sees exactly the fills L3 sends below
with_l4 = [s for s in structures if "replay.{}.L4.loads".format(s) in c]
assert len(with_l4) == 2, structures
for s in with_l4:
    l4, l3 = c["replay.{}.L4.loads".format(s)], c["replay.{}.L3.load_misses".format(s)]
    assert l4 == l3, (s, l4, l3)
print("shared prefix: L1-L3 identical across {}; L4 loads = L3 load misses".format(structures))
PY
else
    echo "python3 not found; skipping the shared-prefix check"
fi

echo "== sampled-parity: interval-sampled replay vs full fidelity (demo scale)"
# the dedicated accuracy suites: golden sampled-vs-full error/CI coverage,
# the bit-identical degenerate plan, cross-fidelity journal refusal
cargo test -p memsim-integration-tests --offline -q --test sampling
# End-to-end on the acceptance workload: AMG2013 at demo scale is long
# enough (137 one-million-event intervals) that a 12-cluster plan
# simulates under a fifth of the trace. Per-design AMAT and energy are
# asserted within 2% of the full-fidelity replay. The >=5x speedup bound
# is enforced on the deterministic simulated-event ratio from the obs
# export — wall-clock converges to that ratio as fixed costs amortize
# (measured ~5x here; paper-scale traces reach >=10x since the plan cost
# is fixed while the trace grows). Plan and cache regressions are caught
# deterministically too: the timed run must build no plan (its dump has
# no sample.plan span) and decode at most a quarter of the trace's chunks.
# The wall-clock ratio is printed, not gated: it moves with host load and
# with the speed of the full-fidelity path.
"$BIN" record amg2013 -o "$smoke_dir/amg.trace" --scale demo >/dev/null
full_t0=$(date +%s.%N)
MEMSIM_OBS_DETERMINISTIC=1 "$BIN" replay "$smoke_dir/amg.trace" --scale demo \
    --json --metrics-out "$smoke_dir/obs-full.json" >"$smoke_dir/replay-full.json"
full_t1=$(date +%s.%N)
# the cold run pays the one-time interval-plan build (persisted to the
# plan sidecar); the timed run below sees the steady state a sweep sees
MEMSIM_OBS_DETERMINISTIC=1 "$BIN" replay "$smoke_dir/amg.trace" --scale demo \
    --sample interval=1m,clusters=12 --json \
    --metrics-out "$smoke_dir/obs-sampled.json" >"$smoke_dir/replay-sampled.json"
samp_t0=$(date +%s.%N)
MEMSIM_OBS_DETERMINISTIC=1 "$BIN" replay "$smoke_dir/amg.trace" --scale demo \
    --sample interval=1m,clusters=12 --json \
    --metrics-out "$smoke_dir/obs-sampled-timed.json" >/dev/null
samp_t1=$(date +%s.%N)
rm -f "$smoke_dir/amg.trace"
if command -v python3 >/dev/null 2>&1; then
    python3 - "$smoke_dir/replay-full.json" "$smoke_dir/replay-sampled.json" \
        "$smoke_dir/obs-full.json" "$smoke_dir/obs-sampled.json" \
        "$smoke_dir/obs-sampled-timed.json" \
        "$full_t0" "$full_t1" "$samp_t0" "$samp_t1" <<'PY'
import json, sys
full = json.load(open(sys.argv[1]))
samp = json.load(open(sys.argv[2]))
obs_full = json.load(open(sys.argv[3]))["counters"]
obs_samp = json.load(open(sys.argv[4]))["counters"]
timed = json.load(open(sys.argv[5]))
t = [float(a) for a in sys.argv[6:10]]

assert samp["sample"].startswith("interval="), samp["sample"]
fr = {r["design"]: r for r in full["results"]}
worst = 0.0
for r in samp["results"]:
    f = fr[r["design"]]["metrics"]
    s = r["metrics"]
    for key in ("amat_ns", "energy_j"):
        err = abs(s[key] - f[key]) / f[key]
        worst = max(worst, err)
        assert err < 0.02, "{} {}: {:.2%} error >= 2%".format(r["design"], key, err)
    if not r["design"].startswith("NDM"):
        # NDM's oracle partitioner re-places regions per costing, so it
        # carries no per-run CI; every other design must report one
        ci = r["ci_halfwidth"]
        assert all(k in ci for k in ("amat", "time", "energy", "edp")), ci

# the new sample.* keys are exactly the sampled run's additions
new = {k for k in obs_samp if k not in obs_full}
want = {"sample.intervals", "sample.clusters", "sample.events_simulated",
        "sample.events_total"} | {
        "sample.ci_halfwidth." + m for m in ("amat", "time", "energy", "edp")}
assert want <= new, want - new
assert all(k.startswith("sample.") for k in new), new
assert not any(k.startswith("sample.") for k in obs_full)

event_ratio = obs_samp["sample.events_total"] / obs_samp["sample.events_simulated"]
assert event_ratio >= 5.0, "simulated-event ratio {:.2f}x < 5x".format(event_ratio)

# the timed run read its plan from the sidecar the cold run wrote...
def has_plan_span(node):
    return any((name == "sample" and "plan" in child["children"]) or has_plan_span(child)
               for name, child in node["children"].items())
assert not has_plan_span({"children": timed["spans"]}), "the timed sampled run built a plan"
# ...and decoded only the window chunks, seeking past the rest
c = timed["counters"]
read, skipped = c["sample.chunks_read"], c["sample.chunks_skipped"]
assert read > 0 and 4 * read <= read + skipped, (
    "decoded {} of {} chunks (> 1/4)".format(read, read + skipped))
wall = (t[1] - t[0]) / (t[3] - t[2])
print("sampled parity: worst error {:.2%}, event ratio {:.1f}x, decoded {}/{} chunks, "
      "wall {:.1f}x".format(worst, event_ratio, read, read + skipped, wall))
PY
else
    echo "python3 not found; skipping sampled-parity error/speedup checks"
fi

echo "== obs-trace: flight-recorder timeline export, byte stability, golden diff"
# Two-lane full-fidelity replay: one decode feeds the group's shared L1-L3
# prefix on lane 0, which also walks the 3L structure's terminal; the NMM
# structure's L4 suffix is dealt to lane 1. Per-chunk prefix and walk
# spans, and queue-depth / Mev/s counter tracks on both lanes. ~2 MB, so it
# is pinned by double-run byte identity plus the structural validation
# below rather than a committed golden.
MEMSIM_OBS_DETERMINISTIC=1 "$BIN" replay "$smoke_dir/hash.trace" --designs baseline,nmm \
    --threads 2 --quiet --trace-out "$smoke_dir/trace-lanes-a.json"
MEMSIM_OBS_DETERMINISTIC=1 "$BIN" replay "$smoke_dir/hash.trace" --designs baseline,nmm \
    --threads 2 --quiet --trace-out "$smoke_dir/trace-lanes-b.json"
cmp "$smoke_dir/trace-lanes-a.json" "$smoke_dir/trace-lanes-b.json"
# Sampled replay: warm-vs-measure phase spans and CI-halfwidth counter
# tracks. The first run pays the one-time interval-plan build (an extra
# sample.plan span) and warms the plan sidecar; the next two are the
# byte-stability pair, diffed against the committed golden.
MEMSIM_OBS_DETERMINISTIC=1 "$BIN" replay "$smoke_dir/hash.trace" --designs baseline,nmm \
    --sample interval=32k,clusters=2 --threads 1 --quiet \
    --trace-out "$smoke_dir/trace-planwarm.json"
for t in a b; do
    MEMSIM_OBS_DETERMINISTIC=1 "$BIN" replay "$smoke_dir/hash.trace" --designs baseline,nmm \
        --sample interval=32k,clusters=2 --threads 1 --quiet \
        --trace-out "$smoke_dir/trace-sampled-$t.json"
done
cmp "$smoke_dir/trace-sampled-a.json" "$smoke_dir/trace-sampled-b.json"
cmp "$smoke_dir/trace-sampled-a.json" tests/golden/sampled_replay.trace.json
echo "flight-recorder exports byte-stable; sampled timeline matches the committed golden"
if command -v python3 >/dev/null 2>&1; then
    python3 - "$smoke_dir/trace-lanes-a.json" "$smoke_dir/trace-sampled-a.json" <<'PY'
import json, sys
two_lanes = json.load(open(sys.argv[1]))
sampled = json.load(open(sys.argv[2]))

def lanes(doc):
    return {e["args"]["name"]: e["tid"] for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"}

def check_balanced(doc):
    depth = {}
    for e in doc["traceEvents"]:
        if e["ph"] == "B":
            depth[e["tid"]] = depth.get(e["tid"], 0) + 1
        elif e["ph"] == "E":
            depth[e["tid"]] = depth.get(e["tid"], 0) - 1
            assert depth[e["tid"]] >= 0, ("unbalanced span end", e)
    assert all(v == 0 for v in depth.values()), depth

for doc in (two_lanes, sampled):
    assert doc["displayTimeUnit"] == "ms", doc.keys()
    check_balanced(doc)

def names_on(doc, lane):
    tid = lanes(doc)[lane]
    return {e["name"] for e in doc["traceEvents"] if e["tid"] == tid and e["ph"] != "M"}

walk_lanes = [k for k in lanes(two_lanes) if k.startswith("memsim-walk-")]
assert walk_lanes == ["memsim-walk-Hash-0", "memsim-walk-Hash-1"], lanes(two_lanes)
# the prefix lane walks the prefix and the terminal-only 3L suffix; the
# hop lane walks the L4 suffix; both export the queue and rate tracks
for lane, walks in (("memsim-walk-Hash-0", ("walk.prefix", "walk.3L")),
                    ("memsim-walk-Hash-1", ("walk.4L-c8388608-p512",))):
    on_lane = names_on(two_lanes, lane)
    assert {n for n in on_lane if n.startswith("walk.")} == set(walks), (lane, sorted(on_lane))
    for want in ("shard.queue_depth", "shard.mev_s"):
        assert want in on_lane, (lane, want, sorted(on_lane))
counters = [e for e in two_lanes["traceEvents"] if e["ph"] == "C"]
assert counters and all("value" in e["args"] for e in counters)

snames = {e["name"] for e in sampled["traceEvents"]}
for want in ("sample.warm", "sample.measure", "sample.ci_halfwidth.amat"):
    assert want in snames, (want, sorted(snames))
# one decode of the windows feeds both sampled structures: the calling
# thread (main, at --threads 1) reads the trace and marks the windows,
# the group's one lane walks the shared prefix and both structures'
# suffixes, and a grid worker costs the points
for want in ("grid.walk.Hash", "sample.warm", "sample.measure"):
    assert want in names_on(sampled, "main"), (want, lanes(sampled))
on_lane = names_on(sampled, "memsim-walk-Hash-0")
for want in ("walk.prefix", "walk.3L", "walk.4L-c8388608-p512"):
    assert want in on_lane, (want, sorted(on_lane))
assert "grid.point.Hash.Baseline" in names_on(sampled, "memsim-sweep0"), lanes(sampled)
print("obs-trace: walk lanes {}, {} two-lane events; sampled timeline has warm/measure phases".format(
    walk_lanes, len(two_lanes["traceEvents"])))
PY
else
    echo "python3 not found; skipping trace structural validation"
fi

echo "== server smoke: daemon up, submit, byte-parity vs batch reproduce, clean SIGINT"
server_state="$smoke_dir/server-state"
mkdir -p "$server_state"
MEMSIM_OBS_DETERMINISTIC=1 "$BIN" serve --port auto --state "$server_state" \
    --threads 2 >"$smoke_dir/serve.log" 2>&1 &
serve_pid=$!
for _ in $(seq 1 100); do
    [ -s "$server_state/server.port" ] && break
    sleep 0.1
done
test -s "$server_state/server.port"
addr="127.0.0.1:$(cat "$server_state/server.port")"
# submit the same grid the batch stage reproduced, fetch the result into
# the reproduce --out layout, and demand byte-identical artifacts
"$BIN" submit --addr "$addr" --artifact table4 --workloads cg,hash,lu --scale mini \
    --out "$smoke_dir/served" --quiet
cmp "$smoke_dir/clean/table4.md" "$smoke_dir/served/table4.md"
cmp "$smoke_dir/clean/table4.csv" "$smoke_dir/served/table4.csv"
echo "served table4 byte-identical to the batch reproduction"
if command -v python3 >/dev/null 2>&1; then
    python3 - "$addr" <<'PY'
import json, sys, urllib.request
addr = sys.argv[1]
doc = json.load(urllib.request.urlopen("http://{}/metrics".format(addr), timeout=10))
assert doc["schema"] == "memsim-obs/1", doc["schema"]
c = doc["counters"]
assert c["server.jobs.completed"] >= 1, c
assert c["server.http.requests"] > 0, c
print("/metrics parses: {} counters exported".format(len(c)))

# The same endpoint content-negotiates Prometheus text exposition.
req = urllib.request.Request("http://{}/metrics".format(addr),
                             headers={"Accept": "text/plain"})
resp = urllib.request.urlopen(req, timeout=10)
ctype = resp.headers.get("Content-Type", "")
assert ctype.startswith("text/plain; version=0.0.4"), ctype
text = resp.read().decode()
assert "# TYPE server_jobs_completed counter" in text, text[:400]
assert "server_jobs_completed 1" in text, text[:400]
lines = [l for l in text.splitlines() if l and not l.startswith("#")]
assert all(len(l.split(" ")) == 2 for l in lines), lines[:5]
print("/metrics Prometheus scrape: {} samples".format(len(lines)))

# healthz carries uptime, build version, and jobs-by-state gauges.
hz = urllib.request.urlopen("http://{}/healthz".format(addr), timeout=10).read().decode()
h = json.loads(hz)
assert h["status"] == "ok" and "uptime_secs" in h and h["version"], h
assert h["jobs"]["done"] >= 1, h
PY
else
    echo "python3 not found; skipping /metrics parse check"
fi
kill -INT "$serve_pid"
wait "$serve_pid"
grep -q "listening on" "$smoke_dir/serve.log"
echo "daemon exited cleanly on SIGINT"

echo "ci.sh: all checks passed"
