//! Cross-validation of the cache simulator against an independent oracle:
//! the exact stack-distance analysis in `memsim-trace::reuse`.
//!
//! For any address stream, a fully associative LRU cache of capacity `C`
//! blocks hits exactly the references whose LRU stack distance is `< C`.
//! The analyzer and the simulator share no code on their hot paths, so
//! agreement on real workload streams pins both.

use memsim_cache::{Cache, CacheConfig, CountingMemory, Hierarchy};
use memsim_trace::{ReuseDistance, TraceEvent, TraceSink};
use memsim_workloads::{Cg, CgParams, Hash, HashParams, Workload};

/// Feed one stream into both the simulator and the analyzer.
struct Both {
    sim: Hierarchy<CountingMemory>,
    oracle: ReuseDistance,
}

impl TraceSink for Both {
    fn access(&mut self, ev: TraceEvent) {
        self.sim.access(ev);
        self.oracle.access(ev);
    }

    fn flush(&mut self) {
        self.sim.flush();
    }
}

/// A fully associative LRU cache of `capacity_blocks` blocks beside the
/// oracle at the same block size.
fn fully_associative(block_bytes: u32, capacity_blocks: u64) -> Both {
    let cache = Cache::new(CacheConfig::fully_associative(
        "FA",
        capacity_blocks * u64::from(block_bytes),
        block_bytes,
    ));
    Both {
        sim: Hierarchy::new(vec![cache], CountingMemory::default()),
        oracle: ReuseDistance::new(u64::from(block_bytes)),
    }
}

/// The simulator hits what the oracle predicts, over the same references.
fn assert_agree(both: &Both, capacity_blocks: u64, what: &str) {
    let simulated_hits = both.sim.levels()[0].stats().hits();
    let predicted_hits = both.oracle.predicted_lru_hits(capacity_blocks);
    assert_eq!(
        simulated_hits, predicted_hits,
        "{what}: simulator and stack-distance oracle disagree at C={capacity_blocks}"
    );
    assert_eq!(both.sim.total_refs(), both.oracle.total_refs(), "{what}");
}

fn validate(workload: &mut dyn Workload, block_bytes: u32, capacity_blocks: u64) {
    let mut both = fully_associative(block_bytes, capacity_blocks);
    workload.run(&mut both);
    let what = format!("{} at {block_bytes} B blocks", workload.name());
    assert_agree(&both, capacity_blocks, &what);
}

/// Size-0 events follow one rule on both sides: one touches the block
/// holding its address, unless the address is on a block boundary
/// (address 0 included), where it touches nothing.
#[test]
fn size_zero_events_agree_with_the_oracle() {
    let stream = [
        TraceEvent::load(0, 0), // boundary: nothing
        TraceEvent::load(65, 0),
        TraceEvent::load(0, 8),
        TraceEvent::store(64, 0), // boundary: nothing
        TraceEvent::store(65, 0),
        TraceEvent::load(128, 8),
        TraceEvent::load(65, 0),
        TraceEvent::load(0, 0), // boundary: nothing
        TraceEvent::store(0, 8),
    ];
    let mut both = fully_associative(64, 2);
    for ev in stream {
        both.access(ev);
    }
    both.flush();
    assert_agree(&both, 2, "size-0 stream");
    assert_eq!(both.oracle.total_refs(), 6);
    assert_eq!(both.sim.levels()[0].stats().hits(), 2);
}

#[test]
fn cg_agrees_with_stack_distance_oracle_at_line_granularity() {
    let mut cg = Cg::new(CgParams {
        n: 4000,
        offdiag_per_row: 5,
        iterations: 2,
        seed: 7,
    });
    validate(&mut cg, 64, 256);
}

#[test]
fn cg_agrees_at_page_granularity() {
    let mut cg = Cg::new(CgParams {
        n: 4000,
        offdiag_per_row: 5,
        iterations: 2,
        seed: 7,
    });
    validate(&mut cg, 4096, 64);
}

#[test]
fn hash_agrees_with_stack_distance_oracle() {
    let mut h = Hash::new(HashParams {
        log2_slots: 14,
        load_factor: 0.5,
        lookups: 20_000,
        seed: 3,
    });
    validate(&mut h, 64, 128);
}

/// The analyzer's miss-ratio curve brackets the set-associative cache:
/// a real 8-way cache cannot beat fully associative LRU by much, and
/// cannot be worse than a cache 8× smaller (loose sanity envelope).
#[test]
fn miss_curve_brackets_set_associative_cache() {
    let mut cg = Cg::new(CgParams {
        n: 4000,
        offdiag_per_row: 5,
        iterations: 2,
        seed: 7,
    });
    let capacity_blocks = 512u64;
    let cache = Cache::new(CacheConfig::new("L", capacity_blocks * 64, 64, 8));
    let mut both = Both {
        sim: Hierarchy::new(vec![cache], CountingMemory::default()),
        oracle: ReuseDistance::new(64),
    };
    cg.run(&mut both);
    let sim_hits = both.sim.levels()[0].stats().hits();
    let fa_same = both.oracle.predicted_lru_hits(capacity_blocks);
    let fa_eighth = both.oracle.predicted_lru_hits(capacity_blocks / 8);
    assert!(
        sim_hits <= fa_same + fa_same / 20,
        "8-way ({sim_hits}) cannot beat fully associative ({fa_same}) by >5%"
    );
    assert!(
        sim_hits >= fa_eighth,
        "8-way ({sim_hits}) cannot be worse than a 1/8-capacity FA cache ({fa_eighth})"
    );
}
