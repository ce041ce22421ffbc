//! Per-level data-movement statistics.

/// Counters collected at one level of the hierarchy.
///
/// A "load" is any read request arriving at this level (a demand load or a
/// block-fill fetch from the level above); a "store" is any write request
/// (a demand store at L1, or a dirty-block writeback from above). These are
/// precisely the `Loads_Li` / `Stores_Li` terms of the paper's Equation 2.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LevelStats {
    /// Display name of the level.
    pub name: String,
    /// Read requests that arrived at this level.
    pub loads: u64,
    /// Write requests that arrived at this level.
    pub stores: u64,
    /// Read requests that hit.
    pub load_hits: u64,
    /// Read requests that missed.
    pub load_misses: u64,
    /// Write requests that hit.
    pub store_hits: u64,
    /// Write requests that missed.
    pub store_misses: u64,
    /// Dirty blocks this level evicted and sent downward.
    pub writebacks_out: u64,
    /// Blocks installed (fills).
    pub fills: u64,
    /// Bytes moved out of this level by read requests (request size × count).
    pub bytes_loaded: u64,
    /// Bytes moved into this level by write requests.
    pub bytes_stored: u64,
}

impl LevelStats {
    /// Fresh statistics for a level called `name`.
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            ..Default::default()
        }
    }

    /// Total requests (loads + stores). Saturates rather than wrapping, so
    /// a miscounting probe can never make a derived total look small.
    pub fn accesses(&self) -> u64 {
        self.loads.saturating_add(self.stores)
    }

    /// Total hits (saturating).
    pub fn hits(&self) -> u64 {
        self.load_hits.saturating_add(self.store_hits)
    }

    /// Total misses (saturating).
    pub fn misses(&self) -> u64 {
        self.load_misses.saturating_add(self.store_misses)
    }

    /// Hit rate in `[0, 1]`; 0 for an idle level.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.hits() as f64 / self.accesses() as f64
        }
    }

    /// Internal consistency: hits + misses == accesses, split by kind.
    ///
    /// Used by tests and debug assertions.
    pub fn is_consistent(&self) -> bool {
        self.consistency_error().is_none()
    }

    /// Which invariant is broken, if any, as a readable message — so a
    /// probe miscount surfaces as "L2: load_hits (3) + load_misses (1) !=
    /// loads (5)" instead of a bare boolean.
    pub fn consistency_error(&self) -> Option<String> {
        let check = |kind: &str, hits: u64, misses: u64, total: u64| -> Option<String> {
            match hits.checked_add(misses) {
                None => Some(format!(
                    "{}: {kind}_hits ({hits}) + {kind}_misses ({misses}) overflows u64",
                    self.name
                )),
                Some(sum) if sum != total => Some(format!(
                    "{}: {kind}_hits ({hits}) + {kind}_misses ({misses}) != {kind}s ({total})",
                    self.name
                )),
                Some(_) => None,
            }
        };
        check("load", self.load_hits, self.load_misses, self.loads)
            .or_else(|| check("store", self.store_hits, self.store_misses, self.stores))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_quantities() {
        let s = LevelStats {
            name: "L1".into(),
            loads: 10,
            stores: 5,
            load_hits: 8,
            load_misses: 2,
            store_hits: 5,
            store_misses: 0,
            ..Default::default()
        };
        assert_eq!(s.accesses(), 15);
        assert_eq!(s.hits(), 13);
        assert_eq!(s.misses(), 2);
        assert!((s.hit_rate() - 13.0 / 15.0).abs() < 1e-12);
        assert!(s.is_consistent());
    }

    #[test]
    fn idle_level_hit_rate_zero() {
        assert_eq!(LevelStats::new("x").hit_rate(), 0.0);
    }

    #[test]
    fn inconsistency_detected() {
        let s = LevelStats {
            loads: 3,
            load_hits: 1,
            load_misses: 1,
            ..Default::default()
        };
        assert!(!s.is_consistent());
    }

    #[test]
    fn consistency_error_names_the_broken_invariant() {
        let s = LevelStats {
            name: "L2".into(),
            loads: 5,
            load_hits: 3,
            load_misses: 1,
            ..Default::default()
        };
        let msg = s.consistency_error().expect("must be inconsistent");
        assert_eq!(msg, "L2: load_hits (3) + load_misses (1) != loads (5)");

        let s = LevelStats {
            name: "L1".into(),
            stores: 2,
            store_hits: 1,
            store_misses: 0,
            ..Default::default()
        };
        let msg = s.consistency_error().unwrap();
        assert!(msg.contains("store_hits"), "{msg}");
        assert!(LevelStats::new("ok").consistency_error().is_none());
    }

    #[test]
    fn consistency_error_reports_overflowing_sum() {
        let s = LevelStats {
            name: "L3".into(),
            loads: u64::MAX,
            load_hits: u64::MAX,
            load_misses: 2,
            ..Default::default()
        };
        let msg = s.consistency_error().unwrap();
        assert!(msg.contains("overflows"), "{msg}");
    }
}
