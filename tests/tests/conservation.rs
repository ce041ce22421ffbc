//! Cross-crate conservation invariants: counters must balance between
//! every pair of adjacent levels, for real workload streams.

use memsim_core::{simulate_structure, RunOpts, Structure};
use memsim_integration_tests::{fast_workloads, test_scale};

/// Fills at level i+1 equal misses at level i; memory loads equal the last
/// cache's load misses (writeback store misses bypass, they do not fetch).
#[test]
fn inter_level_flow_balance() {
    let scale = test_scale();
    for kind in fast_workloads() {
        for structure in [
            Structure::ThreeLevel,
            Structure::WithL4 {
                capacity_bytes: 1 << 20,
                page_bytes: 512,
            },
        ] {
            let run = simulate_structure(kind, &scale, &structure, RunOpts::default());
            for (i, w) in run.caches.windows(2).enumerate() {
                let (upper, lower) = (&w[0], &w[1]);
                // every demand miss above triggers exactly one load below.
                // At L1, demand store misses also fetch; deeper levels see
                // stores only as writebacks, whose misses bypass without
                // fetching.
                let demand_misses = if i == 0 {
                    upper.misses()
                } else {
                    upper.load_misses
                };
                assert_eq!(
                    lower.loads, demand_misses,
                    "{kind:?} {structure:?}: {} loads != {} demand misses",
                    lower.name, upper.name
                );
                // all inter-level fetches move the upper block size
                assert!(lower.bytes_loaded >= lower.loads * 64);
            }
            let last = run.caches.last().unwrap();
            assert_eq!(run.mem.loads, last.load_misses, "{kind:?} {structure:?}");
            // every level's counters are internally consistent
            for c in &run.caches {
                assert!(c.is_consistent(), "{}", c.name);
            }
        }
    }
}

/// Write conservation: every byte the CPU stores is eventually written to
/// memory at block granularity (after the end-of-stream drain), so the
/// memory's stored bytes must cover the distinct lines the CPU dirtied.
#[test]
fn dirty_data_reaches_memory() {
    let scale = test_scale();
    for kind in fast_workloads() {
        let run = simulate_structure(kind, &scale, &Structure::ThreeLevel, RunOpts::default());
        // L1 absorbed `stores`; after drain, those dirty lines must appear
        // as memory stores. With write-back caching, memory stores can be
        // fewer than CPU stores (coalescing) but never zero when stores
        // happened, and the byte volume is line-granular.
        assert!(run.caches[0].stores > 0);
        assert!(
            run.mem.stores > 0,
            "{kind:?}: dirty lines never reached memory"
        );
        assert_eq!(run.mem.bytes_stored % 64, 0, "line-granular writebacks");
        assert!(
            run.mem.stores <= run.caches[0].stores,
            "write-back must coalesce, not amplify, store *counts*"
        );
    }
}

/// The per-region attribution at the memory terminal is lossless.
#[test]
fn region_attribution_is_total() {
    let scale = test_scale();
    for kind in fast_workloads() {
        let run = simulate_structure(kind, &scale, &Structure::ThreeLevel, RunOpts::default());
        let region_loads: u64 = run.per_region.iter().map(|t| t.loads).sum();
        let region_stores: u64 = run.per_region.iter().map(|t| t.stores).sum();
        assert_eq!(
            region_loads, run.mem.loads,
            "{kind:?}: unattributed memory loads"
        );
        assert_eq!(
            region_stores, run.mem.stores,
            "{kind:?}: unattributed memory stores"
        );
        let region_bytes: u64 = run
            .per_region
            .iter()
            .map(|t| t.bytes_loaded + t.bytes_stored)
            .sum();
        assert_eq!(region_bytes, run.mem.bytes_loaded + run.mem.bytes_stored);
    }
}

/// Larger caches never increase the miss count seen by memory (inclusion
/// of hit sets holds for LRU stack algorithms at fixed associativity and
/// block size when capacity doubles — here checked empirically end-to-end).
#[test]
fn bigger_l4_filters_no_less() {
    let scale = test_scale();
    for kind in fast_workloads() {
        let small = simulate_structure(
            kind,
            &scale,
            &Structure::WithL4 {
                capacity_bytes: 512 << 10,
                page_bytes: 1024,
            },
            RunOpts::default(),
        );
        let big = simulate_structure(
            kind,
            &scale,
            &Structure::WithL4 {
                capacity_bytes: 4 << 20,
                page_bytes: 1024,
            },
            RunOpts::default(),
        );
        // set-associative LRU is not a strict stack algorithm (set counts
        // differ), so allow a sliver of noise
        assert!(
            big.mem.loads as f64 <= small.mem.loads as f64 * 1.02,
            "{kind:?}: 4 MiB L4 missed more ({}) than 512 KiB ({})",
            big.mem.loads,
            small.mem.loads
        );
    }
}
