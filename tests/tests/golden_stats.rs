//! Golden-stats regression guard for the simulation hot path.
//!
//! Pins the complete `LevelStats` counters at every level of a 4-level
//! sectored hierarchy — plus the terminal memory counters — for (a) a
//! fixed-seed synthetic access stream and (b) a real mini workload. The
//! pinned values were produced by the straightforward pre-optimization
//! walk (linear way scan, per-event dispatch), so any fast-path change that
//! is not observation-equivalent (the block lookup's probe order, the
//! batched hit probe, chunked event delivery) fails here with the first
//! diverging counter. The synthetic stream arrives event by event, so it
//! runs through one-event chunks; the CG kernel emits 64-event chunks.

use memsim_cache::{Cache, CacheConfig, CountingMemory, Hierarchy, ReplacementPolicy};
use memsim_trace::{TraceEvent, TraceSink};
use memsim_workloads::{Class, WorkloadKind};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Four levels, four different replacement policies (so policy-side hit
/// bookkeeping — LRU ticks, PLRU bits, RRIP promotion — is all covered),
/// sectored 1 KiB pages at L4.
fn hierarchy() -> Hierarchy<CountingMemory> {
    let caches = vec![
        Cache::new(CacheConfig::new("L1", 32 << 10, 64, 8).with_policy(ReplacementPolicy::Lru)),
        Cache::new(
            CacheConfig::new("L2", 128 << 10, 64, 8).with_policy(ReplacementPolicy::TreePlru),
        ),
        Cache::new(CacheConfig::new("L3", 1 << 20, 64, 16).with_policy(ReplacementPolicy::Srrip)),
        Cache::new(
            CacheConfig::new("L4", 4 << 20, 1024, 16)
                .with_policy(ReplacementPolicy::Random)
                .with_sectors(64),
        ),
    ];
    Hierarchy::new(caches, CountingMemory::default())
}

/// One line per level (full counter set), then the terminal memory.
fn fingerprint(h: &Hierarchy<CountingMemory>) -> String {
    let mut out = String::new();
    for c in h.levels() {
        let s = c.stats();
        out.push_str(&format!(
            "{}:{},{},{},{},{},{},{},{},{},{}\n",
            s.name,
            s.loads,
            s.stores,
            s.load_hits,
            s.load_misses,
            s.store_hits,
            s.store_misses,
            s.writebacks_out,
            s.fills,
            s.bytes_loaded,
            s.bytes_stored,
        ));
    }
    let m = h.memory();
    out.push_str(&format!(
        "MEM:{},{},{},{}\n",
        m.loads, m.stores, m.bytes_loaded, m.bytes_stored
    ));
    out
}

/// Mixed random + streaming accesses over an 8 MiB footprint: random sized
/// loads/stores (including block-straddling 256 B references that the sink
/// must split), interleaved with sequential 8-byte bursts that stay within
/// one 64 B line — same-block repeats, which the MRU ring answers.
fn drive_synthetic(sink: &mut dyn TraceSink) {
    let mut rng = SmallRng::seed_from_u64(0x00C0_FFEE);
    const FOOTPRINT: u64 = 8 << 20;
    for i in 0..120_000u64 {
        if i % 1000 == 0 {
            // a streaming burst: 64 consecutive 8-byte elements
            let base = rng.random_range(0..FOOTPRINT - 512) & !7;
            for k in 0..64 {
                if k % 4 == 3 {
                    sink.access(TraceEvent::store(base + 8 * k, 8));
                } else {
                    sink.access(TraceEvent::load(base + 8 * k, 8));
                }
            }
        }
        let size = [1u32, 2, 4, 8, 16, 64, 256][rng.random_range(0usize..7)];
        let addr = rng.random_range(0..FOOTPRINT - u64::from(size));
        if rng.random_bool(0.3) {
            sink.access(TraceEvent::store(addr, size));
        } else {
            sink.access(TraceEvent::load(addr, size));
        }
    }
    sink.flush();
}

const GOLDEN_SYNTHETIC: &str = "\
L1:153840,65760,5516,148324,1895,63865,64793,212189,4236880,1822255
L2:212189,64793,2505,209684,64534,259,64250,209684,13580096,4146752
L3:209684,64509,22090,187594,64399,110,60471,187594,13419776,4128576
L4:187594,60581,127234,60360,29647,30934,15264,60360,12006016,3877184
MEM:60360,46198,61808640,3868800
";

const GOLDEN_CG_MINI: &str = "\
L1:4772684,352000,3364621,1408063,341000,11000,44000,1419063,32903232,2816000
L2:1419063,44000,504796,914267,43980,20,43980,914267,90820032,2816000
L3:914267,44000,615142,299125,44000,0,35707,299125,58513088,2816000
L4:299125,35707,291225,7900,31304,4403,871,7900,19144000,2285248
MEM:7900,5274,8089600,1169600
";

#[test]
fn synthetic_stream_matches_golden() {
    let mut h = hierarchy();
    drive_synthetic(&mut h);
    h.assert_consistent();
    let got = fingerprint(&h);
    println!("SYNTHETIC FINGERPRINT:\n{got}");
    assert_eq!(got, GOLDEN_SYNTHETIC, "synthetic stream stats diverged");
}

#[test]
fn cg_mini_workload_matches_golden() {
    let mut workload = WorkloadKind::Cg.build(Class::Mini);
    let mut h = hierarchy();
    workload.run(&mut h);
    h.drain();
    h.assert_consistent();
    workload.verify().expect("CG self-verification");
    let got = fingerprint(&h);
    println!("CG MINI FINGERPRINT:\n{got}");
    assert_eq!(got, GOLDEN_CG_MINI, "CG mini workload stats diverged");
}
