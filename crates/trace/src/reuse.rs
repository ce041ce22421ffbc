//! Exact LRU stack-distance (reuse-distance) analysis.
//!
//! The stack distance of a reference is the number of *distinct* blocks
//! touched since the previous reference to the same block (∞ for first
//! touches). Its histogram fully characterizes an address stream's
//! temporal locality: a fully associative LRU cache of capacity `C` blocks
//! hits exactly those references with stack distance `< C` — which makes
//! this analyzer an independent oracle for validating the cache simulator
//! (see the `reuse_distance_validates_cache` integration test) and a way
//! to read off the miss curve for *every* capacity from a single pass.
//!
//! Implementation: Olken's algorithm — a Fenwick (binary-indexed) tree
//! over reference timestamps counts how many *most-recent* references to
//! distinct blocks occurred after the block's previous touch, in
//! `O(log n)` per reference.

use crate::event::{TraceEvent, TraceSink};
use std::collections::HashMap;

/// Streaming exact stack-distance histogram at block granularity.
#[derive(Debug, Clone)]
pub struct ReuseDistance {
    block_shift: u32,
    /// time of the most recent reference to each block
    last_touch: HashMap<u64, u64>,
    /// Fenwick tree over timestamps: 1 where a timestamp is the *current*
    /// last touch of some block, else 0
    fenwick: Vec<u64>,
    time: u64,
    /// histogram bucketed by power of two: bucket `i` counts distances in
    /// `[2^i, 2^(i+1))`; bucket 0 counts distances 0 and 1
    histogram: [u64; 48],
    /// first touches (infinite distance = cold misses)
    cold: u64,
    total: u64,
}

impl ReuseDistance {
    /// Analyze at `block_bytes` granularity (power of two; 64 for cache
    /// lines, a page size for DRAM-cache studies).
    pub fn new(block_bytes: u64) -> Self {
        assert!(
            block_bytes.is_power_of_two(),
            "block size must be a power of two"
        );
        Self {
            block_shift: block_bytes.trailing_zeros(),
            last_touch: HashMap::new(),
            fenwick: vec![0; 1024],
            time: 0,
            histogram: [0; 48],
            cold: 0,
            total: 0,
        }
    }

    #[inline]
    fn fenwick_add(&mut self, mut i: usize, delta: i64) {
        i += 1;
        while i < self.fenwick.len() {
            self.fenwick[i] = self.fenwick[i].wrapping_add(delta as u64);
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of `fenwick[0..=i]`.
    #[inline]
    fn fenwick_sum(&self, mut i: usize) -> u64 {
        i += 1;
        let mut s = 0u64;
        while i > 0 {
            s = s.wrapping_add(self.fenwick[i]);
            i -= i & i.wrapping_neg();
        }
        s
    }

    fn grow(&mut self, need: usize) {
        if need + 1 >= self.fenwick.len() {
            // rebuild at double size (Fenwick trees do not resize in place)
            let mut bigger = Self {
                fenwick: vec![0; (need + 2).next_power_of_two() * 2],
                ..self.clone()
            };
            for (_, &t) in self.last_touch.iter() {
                bigger.fenwick_add(t as usize, 1);
            }
            self.fenwick = bigger.fenwick;
        }
    }

    /// Record one block touch and return its stack distance (`None` for a
    /// first touch).
    pub fn touch(&mut self, block: u64) -> Option<u64> {
        self.total += 1;
        let t = self.time;
        self.grow(t as usize);
        let dist = match self.last_touch.insert(block, t) {
            Some(prev) => {
                // distinct blocks touched after `prev`: ones in (prev, t)
                let d = self.fenwick_sum(t as usize) - self.fenwick_sum(prev as usize);
                self.fenwick_add(prev as usize, -1);
                Some(d)
            }
            None => {
                self.cold += 1;
                None
            }
        };
        self.fenwick_add(t as usize, 1);
        self.time += 1;
        if let Some(d) = dist {
            let bucket = if d <= 1 {
                0
            } else {
                (63 - d.leading_zeros()) as usize
            };
            self.histogram[bucket.min(47)] += 1;
        }
        dist
    }

    /// Total references analyzed.
    pub fn total_refs(&self) -> u64 {
        self.total
    }

    /// First touches (cold misses at any capacity).
    pub fn cold_misses(&self) -> u64 {
        self.cold
    }

    /// Distinct blocks seen (the working set in blocks).
    pub fn distinct_blocks(&self) -> u64 {
        self.last_touch.len() as u64
    }

    /// Power-of-two-bucketed histogram of finite distances.
    pub fn histogram(&self) -> &[u64; 48] {
        &self.histogram
    }

    /// Predicted hits of a *fully associative LRU* cache holding
    /// `capacity_blocks` blocks: references with distance < capacity.
    ///
    /// Exact only at power-of-two capacities (bucket edges); other values
    /// round the boundary bucket conservatively down.
    pub fn predicted_lru_hits(&self, capacity_blocks: u64) -> u64 {
        if capacity_blocks == 0 {
            return 0;
        }
        // buckets strictly below capacity
        let full_buckets = if capacity_blocks <= 1 {
            0
        } else {
            (64 - (capacity_blocks - 1).leading_zeros()) as usize
        };
        self.histogram[..full_buckets.min(48)].iter().sum()
    }

    /// The miss ratio curve at power-of-two capacities `2^0 .. 2^max_log2`
    /// (in blocks): `curve[i]` = misses/refs for capacity `2^i`.
    pub fn miss_ratio_curve(&self, max_log2: u32) -> Vec<f64> {
        (0..=max_log2)
            .map(|i| {
                let hits = self.predicted_lru_hits(1 << i);
                (self.total - hits) as f64 / self.total.max(1) as f64
            })
            .collect()
    }
}

impl TraceSink for ReuseDistance {
    #[inline]
    fn access(&mut self, ev: TraceEvent) {
        for b in ev.blocks(self.block_shift) {
            self.touch(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    #[test]
    fn simple_sequence() {
        let mut r = ReuseDistance::new(64);
        // blocks: A B A  → A's second touch has distance 1 (B in between)
        assert_eq!(r.touch(0), None);
        assert_eq!(r.touch(1), None);
        assert_eq!(r.touch(0), Some(1));
        // immediate re-touch: distance 0
        assert_eq!(r.touch(0), Some(0));
        assert_eq!(r.cold_misses(), 2);
        assert_eq!(r.total_refs(), 4);
        assert_eq!(r.distinct_blocks(), 2);
    }

    #[test]
    fn distance_counts_distinct_not_total() {
        let mut r = ReuseDistance::new(64);
        r.touch(10);
        r.touch(20);
        r.touch(20);
        r.touch(20); // repeats must not inflate the distance
        assert_eq!(r.touch(10), Some(1));
    }

    #[test]
    fn cyclic_sweep_distance_equals_working_set() {
        let n = 100u64;
        let mut r = ReuseDistance::new(64);
        for _ in 0..3 {
            for b in 0..n {
                r.touch(b);
            }
        }
        // every non-cold touch has distance n-1
        let hist = r.histogram();
        let bucket = (63 - (n - 1).leading_zeros()) as usize;
        assert_eq!(hist[bucket], 2 * n);
        assert_eq!(r.cold_misses(), n);
    }

    #[test]
    fn lru_prediction_on_cyclic_sweep() {
        // sweeping n blocks cyclically: LRU with capacity >= n hits after
        // the cold pass; any smaller power-of-two capacity never hits
        let n = 128u64;
        let mut r = ReuseDistance::new(64);
        for _ in 0..4 {
            for b in 0..n {
                r.touch(b);
            }
        }
        assert_eq!(
            r.predicted_lru_hits(n),
            3 * n,
            "capacity n hits all repeats"
        );
        assert_eq!(r.predicted_lru_hits(n / 2), 0, "smaller capacity thrashes");
    }

    #[test]
    fn sink_splits_straddling_events() {
        let mut r = ReuseDistance::new(64);
        r.access(TraceEvent::load(60, 8)); // touches blocks 0 and 1
        assert_eq!(r.distinct_blocks(), 2);
    }

    #[test]
    fn fenwick_grows_transparently() {
        let mut r = ReuseDistance::new(64);
        for i in 0..5000u64 {
            r.touch(i % 100);
        }
        assert_eq!(r.total_refs(), 5000);
        assert_eq!(r.distinct_blocks(), 100);
        // all repeats at distance 99
        assert_eq!(r.predicted_lru_hits(128), 4900);
    }

    #[test]
    fn size_zero_events_touch_their_block_only_off_a_boundary() {
        let mut r = ReuseDistance::new(64);
        r.access(TraceEvent::load(0, 0));
        r.access(TraceEvent::load(64, 0));
        assert_eq!(r.total_refs(), 0);
        r.access(TraceEvent::load(65, 0));
        assert_eq!((r.total_refs(), r.distinct_blocks()), (1, 1));
        // a later touch of block 1 is a reuse, not a first touch
        r.access(TraceEvent::load(64, 8));
        assert_eq!((r.total_refs(), r.cold_misses()), (2, 1));
    }

    #[test]
    fn miss_ratio_curve_is_monotone() {
        let mut r = ReuseDistance::new(64);
        let mut x = 1u64;
        for _ in 0..20_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            r.touch(x % 3000);
        }
        let curve = r.miss_ratio_curve(14);
        for w in curve.windows(2) {
            assert!(w[1] <= w[0] + 1e-12, "bigger caches cannot miss more");
        }
        assert!(curve[14] < curve[0]);
    }

    /// Reference implementation: an explicit LRU stack (O(n) per access).
    struct NaiveStack(VecDeque<u64>);

    impl NaiveStack {
        fn touch(&mut self, b: u64) -> Option<u64> {
            if let Some(pos) = self.0.iter().position(|&x| x == b) {
                self.0.remove(pos);
                self.0.push_front(b);
                Some(pos as u64)
            } else {
                self.0.push_front(b);
                None
            }
        }
    }

    proptest! {
        /// Olken's algorithm agrees with the naive LRU stack on arbitrary
        /// block streams.
        #[test]
        fn matches_naive_stack(blocks in proptest::collection::vec(0u64..64, 1..600)) {
            let mut fast = ReuseDistance::new(64);
            let mut slow = NaiveStack(VecDeque::new());
            for b in blocks {
                prop_assert_eq!(fast.touch(b), slow.touch(b));
            }
        }
    }
}
