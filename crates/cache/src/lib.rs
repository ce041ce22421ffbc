//! Set-associative cache simulation and hierarchy composition.
//!
//! This crate is the data-movement simulator at the center of the paper's
//! methodology: it consumes the online address stream produced by
//! `memsim-trace` and yields, for every level of a configurable memory
//! hierarchy, the load/store/hit/miss/writeback counts that drive the AMAT
//! and energy models (Equations 1–4 of the paper).
//!
//! * [`Cache`] — one write-back, write-allocate set-associative level with a
//!   pluggable [`ReplacementPolicy`] and dirty-line tracking.
//! * [`Hierarchy`] — a stack of caches over a terminal [`MainMemory`]. It
//!   implements [`TraceSink`](memsim_trace::TraceSink), so a workload
//!   streams straight into it. Dirty evictions propagate downward as
//!   stores; fills propagate upward as loads; at the terminal memory
//!   "every access to fetch a cache line is counted as a read operation"
//!   and dirty writebacks count as writes — the paper's counting semantics.
//! * [`Below`] — cache levels over a terminal, entered from a level above:
//!   itself a [`MainMemory`], so `Hierarchy::new(upper, Below::new(lower,
//!   mem))` counts exactly what one hierarchy over all the levels counts.
//!   A group walk ([`ShardedHierarchy::group`]) walks a shared L1–L3 once
//!   and replays its requests through each structure's `Below`.
//! * [`LevelStats`] — the per-level statistics consumed by `memsim-core`.
//!
//! # Example
//!
//! ```
//! use memsim_cache::{Cache, CacheConfig, CountingMemory, Hierarchy};
//! use memsim_trace::{TraceEvent, TraceSink};
//!
//! let l1 = Cache::new(CacheConfig::new("L1", 32 * 1024, 64, 8));
//! let mut h = Hierarchy::new(vec![l1], CountingMemory::default());
//! h.access(TraceEvent::load(0x1000, 8));
//! h.access(TraceEvent::load(0x1008, 8)); // same line: L1 hit
//! h.flush();
//! assert_eq!(h.levels()[0].stats().load_hits, 1);
//! assert_eq!(h.levels()[0].stats().load_misses, 1);
//! assert_eq!(h.memory().loads, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod config;
mod hierarchy;
mod policy;
pub mod probes;
mod sharded;
mod stats;

pub use cache::{AccessOutcome, Cache, CounterValues, WritebackOutcome};
pub use config::{Associativity, CacheConfig, WritebackMissPolicy};
pub use hierarchy::{Below, CountingMemory, Hierarchy, MainMemory};
pub use policy::ReplacementPolicy;
pub use probes::{HierarchyProbes, LevelProbes};
pub use sharded::{
    shard_class_bits, ShardMerge, ShardedHierarchy, ShardedRun, Walk, WalkPanic, CHUNK_EVENTS,
};
pub use stats::LevelStats;
