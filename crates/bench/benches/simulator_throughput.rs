//! Simulator throughput: references per second through the full
//! hierarchy, on synthetic streams with controlled hit rates and on a real
//! workload stream. This is the cost of the "online simulation" the
//! paper's framework performs during application execution.
//!
//! The per-event rows (`l1_hits`, `streaming`, `random`) call
//! `Hierarchy::access` once per event, so they time one-event chunks.
//! `l1_hits_chunked` and `chunked_stream` deliver their streams through
//! `ChunkBuffer`, the way every production stream arrives.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use memsim_bench::bench_scale;
use memsim_cache::{Cache, CacheConfig, CountingMemory, Hierarchy};
use memsim_trace::{ChunkBuffer, TraceEvent, TraceSink};
use memsim_tracefile::{replay_into, TraceHeader, TraceReader, TraceWriter};
use memsim_workloads::WorkloadKind;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

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

/// Interleaved min-of-N harness: every case runs one warmup pass, then the
/// rounds proceed round-robin across the cases so a host-frequency dip hits
/// all of them equally; each case keeps its best ns/event. Minima are what
/// `BENCH_throughput.json` records — robust to the throttling that swings
/// criterion medians on shared hosts.
const MIN_OF_N_EVENTS: u64 = 1_000_000;
const MIN_OF_N_ROUNDS: usize = 12;

/// One named measurement pass in the min-of-N harness.
type MinOfNCase<'a> = (&'a str, Box<dyn FnMut() + 'a>);

fn min_of_n_report(cases: &mut [MinOfNCase<'_>]) {
    for (_, pass) in cases.iter_mut() {
        pass();
    }
    let mut best = vec![f64::INFINITY; cases.len()];
    for _ in 0..MIN_OF_N_ROUNDS {
        for (i, (_, pass)) in cases.iter_mut().enumerate() {
            let t = Instant::now();
            pass();
            best[i] = best[i].min(t.elapsed().as_nanos() as f64 / MIN_OF_N_EVENTS as f64);
        }
    }
    for ((name, _), ns) in cases.iter().zip(&best) {
        println!(
            "SIM_THROUGHPUT {name}: {ns:.3} ns/ref, {:.1} Mrefs/s (min of {MIN_OF_N_ROUNDS} x {MIN_OF_N_EVENTS} events, interleaved)",
            1e3 / ns
        );
    }
}

/// The hit-heavy / streaming / random event streams shared by the criterion
/// cases and the min-of-N harness.
fn l1_hit_event(i: u64) -> TraceEvent {
    TraceEvent::load((i % 512) * 64, 8)
}

fn bench(c: &mut Criterion) {
    let scale = bench_scale();
    const N: u64 = 100_000;

    // --- interleaved min-of-N minima (primary numbers) ---
    {
        let mut h_l1 = full_hierarchy(&scale);
        let mut h_l1c = full_hierarchy(&scale);
        let mut h_str = full_hierarchy(&scale);
        let mut h_chk = full_hierarchy(&scale);
        let mut h_rnd = full_hierarchy(&scale);
        let mut rng = SmallRng::seed_from_u64(1);
        let (mut pos_str, mut pos_chk) = (0u64, 0u64);
        let mut cases: Vec<MinOfNCase<'_>> = vec![
            (
                "l1_hits",
                Box::new(|| {
                    for i in 0..MIN_OF_N_EVENTS {
                        h_l1.access(l1_hit_event(i));
                    }
                    black_box(h_l1.total_refs());
                }),
            ),
            (
                "l1_hits_chunked",
                Box::new(|| {
                    let sink: &mut dyn TraceSink = &mut h_l1c;
                    let mut buf = ChunkBuffer::new(sink);
                    for i in 0..MIN_OF_N_EVENTS {
                        buf.access(l1_hit_event(i));
                    }
                    buf.drain();
                }),
            ),
            (
                "streaming",
                Box::new(|| {
                    for _ in 0..MIN_OF_N_EVENTS {
                        h_str.access(TraceEvent::load(pos_str % (256 << 20), 8));
                        pos_str += 8;
                    }
                    black_box(h_str.total_refs());
                }),
            ),
            (
                "chunked_stream",
                Box::new(|| {
                    let sink: &mut dyn TraceSink = &mut h_chk;
                    let mut buf = ChunkBuffer::new(sink);
                    for _ in 0..MIN_OF_N_EVENTS {
                        buf.access(TraceEvent::load(pos_chk % (256 << 20), 8));
                        pos_chk += 8;
                    }
                    buf.drain();
                }),
            ),
            (
                "random",
                Box::new(|| {
                    for _ in 0..MIN_OF_N_EVENTS {
                        let addr = rng.random_range(0u64..(256 << 20)) & !7;
                        let ev = if rng.random_bool(0.3) {
                            TraceEvent::store(addr, 8)
                        } else {
                            TraceEvent::load(addr, 8)
                        };
                        h_rnd.access(ev);
                    }
                    black_box(h_rnd.total_refs());
                }),
            ),
        ];
        min_of_n_report(&mut cases);
    }

    let mut g = c.benchmark_group("simulator_throughput");
    g.throughput(Throughput::Elements(N));

    // L1-resident stream: the simulator's fast path, one-event chunks
    g.bench_function("l1_hits", |b| {
        let mut h = full_hierarchy(&scale);
        b.iter(|| {
            for i in 0..N {
                h.access(TraceEvent::load((i % 512) * 64, 8));
            }
            black_box(h.total_refs())
        })
    });

    // the same L1-resident stream delivered through the chunk API: the
    // batched tag-word probe consumes runs of single-block hits with the
    // per-event dispatch and outcome branching hoisted out of the loop
    g.bench_function("l1_hits_chunked", |b| {
        let mut h = full_hierarchy(&scale);
        b.iter(|| {
            {
                let sink: &mut dyn TraceSink = &mut h;
                let mut buf = ChunkBuffer::new(sink);
                for i in 0..N {
                    buf.access(l1_hit_event(i));
                }
                buf.drain();
            }
            black_box(h.total_refs())
        })
    });

    // sequential sweep over a large range: every level fills steadily
    // (one-event chunks)
    g.bench_function("streaming", |b| {
        let mut h = full_hierarchy(&scale);
        let mut pos = 0u64;
        b.iter(|| {
            for _ in 0..N {
                h.access(TraceEvent::load(pos % (256 << 20), 8));
                pos += 8;
            }
            black_box(h.total_refs())
        })
    });

    // uniform random over 256 MiB: the adversarial path (misses
    // everywhere), one-event chunks
    g.bench_function("random", |b| {
        let mut h = full_hierarchy(&scale);
        let mut rng = SmallRng::seed_from_u64(1);
        b.iter(|| {
            for _ in 0..N {
                let addr = rng.random_range(0u64..(256 << 20)) & !7;
                let ev = if rng.random_bool(0.3) {
                    TraceEvent::store(addr, 8)
                } else {
                    TraceEvent::load(addr, 8)
                };
                h.access(ev);
            }
            black_box(h.total_refs())
        })
    });
    // the streaming sweep again, but emitted the way workloads do it:
    // buffered into fixed chunks and delivered through `&mut dyn TraceSink`
    // — one virtual `access_chunk` call per chunk instead of one per event
    g.bench_function("chunked_stream", |b| {
        let mut h = full_hierarchy(&scale);
        let mut pos = 0u64;
        b.iter(|| {
            {
                let sink: &mut dyn TraceSink = &mut h;
                let mut buf = ChunkBuffer::new(sink);
                for _ in 0..N {
                    buf.access(TraceEvent::load(pos % (256 << 20), 8));
                    pos += 8;
                }
                buf.drain();
            }
            black_box(h.total_refs())
        })
    });
    g.finish();

    // a real workload stream, end to end (construction + run)
    c.bench_function("simulator_throughput/cg_end_to_end", |b| {
        b.iter(|| {
            let mut w = WorkloadKind::Cg.build(memsim_workloads::Class::Mini);
            let mut h = full_hierarchy(&scale);
            w.run(&mut h);
            h.drain();
            black_box(h.total_refs())
        })
    });

    // the same CG stream replayed from a recorded trace instead of
    // regenerated: record once into memory, then measure pure decode and
    // decode+simulate — the per-point cost when a config sweep replays one
    // recording instead of re-running the workload at every grid point
    let (trace_buf, trace_events) = {
        let mut w = WorkloadKind::Cg.build(memsim_workloads::Class::Mini);
        let header = TraceHeader::for_space(w.space(), "CG", "mini");
        let mut writer = TraceWriter::new(Vec::new(), &header).expect("in-memory writer");
        w.run(&mut writer);
        writer.finish().expect("finish in-memory trace")
    };
    let mut g = c.benchmark_group("replay_throughput");
    g.throughput(Throughput::Elements(trace_events));
    g.bench_function("decode_only", |b| {
        b.iter(|| {
            let mut r = TraceReader::new(trace_buf.as_slice()).unwrap();
            let mut n = 0u64;
            while let Some(chunk) = r.next_chunk().unwrap() {
                n += chunk.len() as u64;
            }
            black_box(n)
        })
    });
    g.bench_function("cg_replay_into_hierarchy", |b| {
        b.iter(|| {
            let mut h = full_hierarchy(&scale);
            let mut r = TraceReader::new(trace_buf.as_slice()).unwrap();
            let n = replay_into(&mut r, &mut h).unwrap();
            h.drain();
            black_box(n)
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
