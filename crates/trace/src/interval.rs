//! Interval locality signatures: the fingerprints behind sampled
//! simulation.
//!
//! Sampled simulation (see `memsim-core`'s `sampling` module) splits an
//! address stream into fixed-size intervals and simulates only one
//! representative per cluster of similar intervals. "Similar" is decided
//! here: every interval is reduced to a small feature vector built from
//! the exact Olken reuse-distance oracle ([`crate::ReuseDistance`]) —
//! the normalized stack-distance histogram plus cold-miss and store
//! fractions. Intervals with near-identical signatures exercise a cache
//! hierarchy near-identically, which is what makes one representative
//! stand in for the whole cluster.
//!
//! The signature deliberately reuses the same event→block splitting as
//! the oracle: size-0 events touch no blocks, and an event straddling a
//! block boundary touches every block it covers, as in the simulation
//! path's straddler split.

use crate::event::{AccessKind, TraceEvent, TraceSink};
use crate::reuse::ReuseDistance;

/// Feature-vector width: 48 reuse-distance buckets + cold fraction +
/// store fraction.
pub const SIGNATURE_DIMS: usize = 50;

/// One interval's locality fingerprint.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalSignature {
    /// Events observed in the interval (including size-0 events, which
    /// contribute to the count but touch no blocks).
    pub events: u64,
    /// Normalized features: 48 stack-distance buckets (fractions of all
    /// block touches), the cold-touch fraction, and the store-event
    /// fraction. All components lie in `[0, 1]`; an empty interval is
    /// all zeros.
    pub features: [f64; SIGNATURE_DIMS],
}

impl IntervalSignature {
    /// Squared Euclidean distance between two signatures (the k-means
    /// metric).
    pub fn distance2(&self, other: &IntervalSignature) -> f64 {
        self.features
            .iter()
            .zip(other.features.iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum()
    }
}

/// Builds an [`IntervalSignature`] from a stream slice.
///
/// A [`TraceSink`], so it consumes events exactly the way the simulator
/// does — including batched `access_chunk` delivery.
#[derive(Debug)]
pub struct SignatureBuilder {
    reuse: ReuseDistance,
    events: u64,
    stores: u64,
}

impl SignatureBuilder {
    /// A fresh builder tracking reuse at `block_bytes` granularity
    /// (power of two; typically the cache line size).
    pub fn new(block_bytes: u64) -> Self {
        Self {
            reuse: ReuseDistance::new(block_bytes),
            events: 0,
            stores: 0,
        }
    }

    /// Events consumed so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// The signature of everything consumed so far.
    pub fn signature(&self) -> IntervalSignature {
        let mut features = [0.0; SIGNATURE_DIMS];
        let touches = self.reuse.total_refs();
        if touches > 0 {
            let hist = self.reuse.histogram();
            for (i, &count) in hist.iter().enumerate() {
                features[i] = count as f64 / touches as f64;
            }
            features[48] = self.reuse.cold_misses() as f64 / touches as f64;
        }
        if self.events > 0 {
            features[49] = self.stores as f64 / self.events as f64;
        }
        IntervalSignature {
            events: self.events,
            features,
        }
    }
}

impl TraceSink for SignatureBuilder {
    #[inline]
    fn access(&mut self, ev: TraceEvent) {
        self.events += 1;
        if ev.kind == AccessKind::Store {
            self.stores += 1;
        }
        // ReuseDistance splits the event into the blocks it covers
        // (`TraceEvent::blocks`): straddlers touch every covered block,
        // and a size-0 event touches its block unless it sits on a block
        // boundary — identical accounting to the simulation path.
        self.reuse.access(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(events: &[TraceEvent]) -> IntervalSignature {
        let mut b = SignatureBuilder::new(64);
        for &ev in events {
            b.access(ev);
        }
        b.signature()
    }

    #[test]
    fn empty_interval_is_all_zero() {
        let sig = build(&[]);
        assert_eq!(sig.events, 0);
        assert!(sig.features.iter().all(|&f| f == 0.0));
    }

    #[test]
    fn features_are_normalized_fractions() {
        let events: Vec<TraceEvent> = (0..1000u64)
            .map(|i| {
                if i % 4 == 0 {
                    TraceEvent::store(i % 10 * 64, 8)
                } else {
                    TraceEvent::load(i % 10 * 64, 8)
                }
            })
            .collect();
        let sig = build(&events);
        assert_eq!(sig.events, 1000);
        for &f in &sig.features {
            assert!((0.0..=1.0).contains(&f), "{f}");
        }
        // hist fractions + cold fraction partition all touches
        let total: f64 = sig.features[..49].iter().sum();
        assert!((total - 1.0).abs() < 1e-12, "{total}");
        assert!((sig.features[49] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn identical_phases_have_identical_signatures() {
        let phase: Vec<TraceEvent> = (0..5000u64).map(|i| TraceEvent::load(i * 64, 8)).collect();
        assert_eq!(build(&phase).features, build(&phase).features);
    }

    #[test]
    fn different_phases_are_far_apart() {
        let seq: Vec<TraceEvent> = (0..5000u64).map(|i| TraceEvent::load(i * 8, 8)).collect();
        let loop8: Vec<TraceEvent> = (0..5000u64)
            .map(|i| TraceEvent::load(i % 8 * 64, 8))
            .collect();
        let a = build(&seq);
        let b = build(&loop8);
        let c = build(&seq);
        assert!(a.distance2(&b) > 100.0 * a.distance2(&c));
    }

    #[test]
    fn block_aligned_size_zero_events_touch_no_blocks() {
        // A size-0 event at a block-aligned address produces no demand
        // reference in the simulator (`demand_split` of an empty byte
        // range) and must likewise touch nothing here. (Mid-block size-0
        // events *do* touch their block in both — see the proptest.)
        let real: Vec<TraceEvent> = (0..100u64).map(|i| TraceEvent::load(i * 64, 8)).collect();
        let mut with_zeros = Vec::new();
        for &ev in &real {
            with_zeros.push(ev);
            with_zeros.push(TraceEvent::load(ev.addr ^ 0x5000, 0)); // stays 64-aligned
        }
        let a = build(&real);
        let b = build(&with_zeros);
        // block-touch features identical; only the event count and the
        // store fraction denominator change
        assert_eq!(a.features[..49], b.features[..49]);
        assert_eq!(b.events, 200);
    }

    #[test]
    fn straddler_counts_every_covered_block() {
        // one 128-byte access at offset 32 covers blocks 0, 1, and 2 —
        // same touches as three aligned 8-byte accesses
        let straddle = build(&[TraceEvent::load(32, 128)]);
        let aligned = build(&[
            TraceEvent::load(0, 8),
            TraceEvent::load(64, 8),
            TraceEvent::load(128, 8),
        ]);
        assert_eq!(straddle.features[..49], aligned.features[..49]);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// The PR 6 stream shapes: size-0 events, block-aligned runs,
        /// and straddlers, randomly interleaved.
        fn arb_events() -> impl Strategy<Value = Vec<TraceEvent>> {
            // sizes: 0 (degenerate), 8 (within-block), 64 (block-aligned
            // width), 100 (straddler)
            const SIZES: [u32; 4] = [0, 8, 64, 100];
            proptest::collection::vec((0u64..1 << 20, 0usize..4, proptest::bool::ANY), 0..400)
                .prop_map(|raw| {
                    raw.into_iter()
                        .map(|(addr, size_idx, store)| {
                            let size = SIZES[size_idx];
                            if store {
                                TraceEvent::store(addr, size)
                            } else {
                                TraceEvent::load(addr, size)
                            }
                        })
                        .collect()
                })
        }

        proptest! {
            /// Chunked delivery equals event-at-a-time delivery: the
            /// signature cannot depend on batching boundaries.
            #[test]
            fn chunked_equals_sequential(events in arb_events(), split in 1usize..64) {
                let mut one = SignatureBuilder::new(64);
                for &ev in &events {
                    one.access(ev);
                }
                let mut chunked = SignatureBuilder::new(64);
                for chunk in events.chunks(split) {
                    chunked.access_chunk(chunk);
                }
                prop_assert_eq!(one.signature(), chunked.signature());
            }

            /// The signature's event→block splitting agrees with the
            /// simulator's `demand_split` semantics on every shape: a
            /// size>0 event touches every block it covers; a size-0
            /// event touches its block mid-block and nothing when
            /// block-aligned (an empty byte range splits into no demand
            /// references).
            #[test]
            fn touch_splitting_matches_demand_split(events in arb_events()) {
                let mut b = SignatureBuilder::new(64);
                let mut model_touches = 0u64;
                for &ev in &events {
                    b.access(ev);
                    if ev.size == 0 {
                        if ev.addr % 64 != 0 {
                            model_touches += 1;
                        }
                    } else {
                        let first = ev.addr >> 6;
                        let last = (ev.addr + u64::from(ev.size) - 1) >> 6;
                        model_touches += last - first + 1;
                    }
                }
                prop_assert_eq!(b.reuse.total_refs(), model_touches);
            }

            /// Every feature stays a fraction on hostile shapes.
            #[test]
            fn features_bounded(events in arb_events()) {
                let sig = build(&events);
                for &f in &sig.features {
                    prop_assert!((0.0..=1.0).contains(&f));
                }
            }
        }
    }
}
