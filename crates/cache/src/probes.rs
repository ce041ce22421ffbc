//! Observability probes: epoch-based publication of hierarchy counters
//! into a [`memsim_obs::MetricsRegistry`].
//!
//! The hot path keeps its plain (non-atomic) per-level counters; when a
//! [`HierarchyProbes`] is attached, the hierarchy publishes *cumulative*
//! counter values into registry atomics once per epoch (~[`PROBE_EPOCH`]
//! events) and once more, authoritatively, at drain. Between epochs the
//! registry lags by at most one epoch; after drain it is exact. Shared
//! `progress.*` counters are advanced by delta (several hierarchies — the
//! replay shards — add into the same counter), per-level counters by
//! absolute store (each hierarchy owns its prefix).

use crate::cache::CounterValues;
use memsim_obs::{Counter, MetricsRegistry};
use std::sync::Arc;

/// Events between probe publications. Chosen to make the per-event cost
/// one predictable decrement-and-branch, with the ~30 atomic stores of a
/// publication amortized to noise (<2% even on the L1-resident stream,
/// where a reference costs only a few nanoseconds); at simulation rates
/// the registry still refreshes hundreds of times per sampler tick.
pub const PROBE_EPOCH: u64 = 32 * 1024;

/// Registry handles for one cache level's counters.
#[derive(Debug, Clone)]
pub struct LevelProbes {
    loads: Arc<Counter>,
    stores: Arc<Counter>,
    load_hits: Arc<Counter>,
    load_misses: Arc<Counter>,
    store_hits: Arc<Counter>,
    store_misses: Arc<Counter>,
    writebacks_out: Arc<Counter>,
    fills: Arc<Counter>,
    bytes_loaded: Arc<Counter>,
    bytes_stored: Arc<Counter>,
    mru_hits: Arc<Counter>,
}

impl LevelProbes {
    /// Register this level's counters as `{prefix}.{field}`.
    pub fn register(reg: &MetricsRegistry, prefix: &str) -> Self {
        let c = |field: &str| reg.counter(&format!("{prefix}.{field}"));
        Self {
            loads: c("loads"),
            stores: c("stores"),
            load_hits: c("load_hits"),
            load_misses: c("load_misses"),
            store_hits: c("store_hits"),
            store_misses: c("store_misses"),
            writebacks_out: c("writebacks_out"),
            fills: c("fills"),
            bytes_loaded: c("bytes_loaded"),
            bytes_stored: c("bytes_stored"),
            mru_hits: c("mru_hits"),
        }
    }

    /// Publish cumulative values (absolute stores — this prefix has one
    /// writer).
    pub fn publish(&self, v: &CounterValues) {
        self.loads.store(v.load_hits.saturating_add(v.load_misses));
        self.stores
            .store(v.store_hits.saturating_add(v.store_misses));
        self.load_hits.store(v.load_hits);
        self.load_misses.store(v.load_misses);
        self.store_hits.store(v.store_hits);
        self.store_misses.store(v.store_misses);
        self.writebacks_out.store(v.writebacks_out);
        self.fills.store(v.fills);
        self.bytes_loaded.store(v.bytes_loaded);
        self.bytes_stored.store(v.bytes_stored);
        self.mru_hits.store(v.mru_hits);
    }
}

/// Everything a [`crate::Hierarchy`] publishes when observability is on.
///
/// Built by [`HierarchyProbes::register`] (or
/// [`HierarchyProbes::register_shared`]) and attached with
/// [`crate::Hierarchy::set_probes`]. The shared `progress.events` /
/// `progress.chunks` counters are registered automatically.
#[derive(Debug, Clone)]
pub struct HierarchyProbes {
    pub(crate) events: Arc<Counter>,
    pub(crate) chunks: Arc<Counter>,
    /// `{prefix}.l1_line_buffer_hits`, one per prefix.
    pub(crate) lb_hits: Vec<Arc<Counter>>,
    /// Per cache level (top-down), that level's probes under every prefix.
    pub(crate) levels: Vec<Vec<LevelProbes>>,
}

impl HierarchyProbes {
    /// Register probes under `prefix` for a hierarchy whose cache levels
    /// are named `level_names` (top-down). Creates
    /// `{prefix}.{level}.{field}` counters per level,
    /// `{prefix}.l1_line_buffer_hits`, and hooks the shared
    /// `progress.events` / `progress.chunks` counters.
    pub fn register(reg: &MetricsRegistry, prefix: &str, level_names: &[&str]) -> Self {
        Self::register_shared(reg, &[prefix], level_names)
    }

    /// Register probes for one hierarchy under every prefix in `prefixes`:
    /// a hierarchy whose levels several structures share (a group walk's
    /// L1–L3 prefix) publishes them under each structure's name, and
    /// advances the `progress.*` counters once.
    pub fn register_shared(reg: &MetricsRegistry, prefixes: &[&str], level_names: &[&str]) -> Self {
        Self {
            events: reg.counter("progress.events"),
            chunks: reg.counter("progress.chunks"),
            lb_hits: prefixes
                .iter()
                .map(|p| reg.counter(&format!("{p}.l1_line_buffer_hits")))
                .collect(),
            levels: level_names
                .iter()
                .map(|name| {
                    prefixes
                        .iter()
                        .map(|p| LevelProbes::register(reg, &format!("{p}.{name}")))
                        .collect()
                })
                .collect(),
        }
    }

    /// Number of per-level probe sets.
    pub fn level_count(&self) -> usize {
        self.levels.len()
    }
}
