//! Observability overhead: the probed hot path versus the plain one, on
//! the two streams the overhead budget is specified against (`l1_hits`
//! and `streaming` from `simulator_throughput`).
//!
//! Both passes deliver event by event, and each per-event `access` is a
//! one-event chunk. "Plain" is the production default — probes compiled
//! in but not attached, so each chunk pays one `Option` discriminant
//! branch. "Probed" attaches registered [`HierarchyProbes`] with the
//! global registry enabled, so each chunk (here each event) additionally
//! pays a `progress.chunks` increment and the epoch countdown, and every
//! `PROBE_EPOCH`th event a publication (~30 relaxed atomic stores).
//!
//! Besides the criterion samples, the harness prints an interleaved
//! min-of-12 A/B comparison (`OBS_OVERHEAD ...` lines) — minima are
//! robust to this host's frequency throttling, which swings criterion
//! medians far more than the effect under measurement; those lines are
//! what `BENCH_throughput.json` records.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use memsim_bench::bench_scale;
use memsim_cache::{Cache, CacheConfig, CountingMemory, Hierarchy, HierarchyProbes};
use memsim_trace::{TraceEvent, TraceSink};
use std::hint::black_box;
use std::time::Instant;

const N: u64 = 100_000;

fn full_hierarchy(scale: &memsim_core::Scale) -> Hierarchy<CountingMemory> {
    let caches = vec![
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
        Cache::new(
            CacheConfig::new("L4", scale.scaled_capacity(512 << 20), 1024, 16).with_sectors(64),
        ),
    ];
    Hierarchy::new(caches, CountingMemory::default())
}

fn attach_probes(h: &mut Hierarchy<CountingMemory>, prefix: &str) {
    memsim_obs::set_enabled(true);
    let probes = HierarchyProbes::register(memsim_obs::global(), prefix, &["L1", "L2", "L3", "L4"]);
    h.set_probes(probes);
}

fn l1_hits_pass(h: &mut Hierarchy<CountingMemory>) {
    for i in 0..N {
        h.access(TraceEvent::load((i % 512) * 64, 8));
    }
    black_box(h.total_refs());
}

fn streaming_pass(h: &mut Hierarchy<CountingMemory>, pos: &mut u64) {
    for _ in 0..N {
        h.access(TraceEvent::load(*pos % (256 << 20), 8));
        *pos += 8;
    }
    black_box(h.total_refs());
}

/// Interleaved A/B minima: alternate the two passes and keep each side's
/// best ns/event over `rounds` rounds (after one warmup pass each).
fn ab_compare(mut plain: impl FnMut(), mut probed: impl FnMut(), rounds: usize) -> (f64, f64) {
    plain();
    probed();
    let mut best_plain = f64::INFINITY;
    let mut best_probed = f64::INFINITY;
    for _ in 0..rounds {
        let t = Instant::now();
        plain();
        best_plain = best_plain.min(t.elapsed().as_nanos() as f64 / N as f64);
        let t = Instant::now();
        probed();
        best_probed = best_probed.min(t.elapsed().as_nanos() as f64 / N as f64);
    }
    (best_plain, best_probed)
}

fn report(case: &str, plain_ns: f64, probed_ns: f64) {
    println!(
        "OBS_OVERHEAD {case}: plain {plain_ns:.3} ns/ref, probed {probed_ns:.3} ns/ref, overhead {:+.2}%",
        100.0 * (probed_ns - plain_ns) / plain_ns
    );
}

fn bench(c: &mut Criterion) {
    let scale = bench_scale();

    {
        let mut plain = full_hierarchy(&scale);
        let mut probed = full_hierarchy(&scale);
        attach_probes(&mut probed, "bench.ab.l1");
        let (p, q) = ab_compare(
            || l1_hits_pass(&mut plain),
            || l1_hits_pass(&mut probed),
            12,
        );
        report("l1_hits", p, q);
    }
    {
        let mut plain = full_hierarchy(&scale);
        let mut probed = full_hierarchy(&scale);
        attach_probes(&mut probed, "bench.ab.stream");
        let (mut pp, mut pq) = (0u64, 0u64);
        let (p, q) = ab_compare(
            || streaming_pass(&mut plain, &mut pp),
            || streaming_pass(&mut probed, &mut pq),
            12,
        );
        report("streaming", p, q);
    }

    let mut g = c.benchmark_group("obs_overhead");
    g.throughput(Throughput::Elements(N));

    g.bench_function("l1_hits_plain", |b| {
        let mut h = full_hierarchy(&scale);
        b.iter(|| l1_hits_pass(&mut h))
    });
    g.bench_function("l1_hits_probed", |b| {
        let mut h = full_hierarchy(&scale);
        attach_probes(&mut h, "bench.cr.l1");
        b.iter(|| l1_hits_pass(&mut h))
    });
    g.bench_function("streaming_plain", |b| {
        let mut h = full_hierarchy(&scale);
        let mut pos = 0u64;
        b.iter(|| streaming_pass(&mut h, &mut pos))
    });
    g.bench_function("streaming_probed", |b| {
        let mut h = full_hierarchy(&scale);
        attach_probes(&mut h, "bench.cr.stream");
        let mut pos = 0u64;
        b.iter(|| streaming_pass(&mut h, &mut pos))
    });
    g.finish();

    memsim_obs::set_enabled(false);
}

criterion_group!(benches, bench);
criterion_main!(benches);
