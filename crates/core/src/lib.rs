//! Hybrid memory hierarchy design space, performance/energy models, and
//! experiment harness — the paper's primary contribution.
//!
//! The crate ties the substrates together:
//!
//! * [`Scale`] — capacity presets mapping the paper's Sandy Bridge + GB-class
//!   configurations onto tractable simulations with the same capacity ratios.
//! * [`configs`] — Table 2 (EH1–EH8 eDRAM/HMC configs) and Table 3 (N1–N9
//!   DRAM-cache configs), verbatim.
//! * [`Design`] — the four evaluated organizations (plus the baseline):
//!   4LC, NMM, 4LCNVM, and NDM.
//! * [`model`] — Equations 1–4: AMAT-scaled runtime, dynamic energy
//!   (pJ/bit × bits moved), capacity-proportional static energy, EDP.
//! * [`runner`] — simulates a workload through a hierarchy *structure* once
//!   and costs any number of technology assignments analytically (cache
//!   statistics do not depend on latency/energy parameters); a [`Source`]
//!   names a live kernel run or a recorded trace of one, and one
//!   [`SampleMode`] picks full fidelity or interval sampling for every
//!   walk.
//! * [`replay`] — records a workload's stream to a trace file.
//! * [`sampling`] — interval-sampled simulation: cluster the stream's
//!   intervals by locality signature, simulate one representative per
//!   cluster, extrapolate with per-metric confidence intervals.
//! * [`store`] — the content-addressed store of recorded traces, keyed by
//!   workload, scale and build.
//! * [`partition`] — the NDM oracle: merge the address space into a few hot
//!   ranges and pick the best DRAM/NVM placement analytically.
//! * [`dynamic`] — phase-aware partitioning (the paper's future work): an
//!   exact DP chooses a placement per epoch with explicit migration costs.
//! * [`heatmap`] — the Figure 9/10 generalization study.
//! * [`experiments`] — one entry point per table/figure of the paper.
//!
//! # Example: one design point
//!
//! ```
//! use memsim_core::{Design, SampleMode, Scale, runner};
//! use memsim_core::configs::n_configs;
//! use memsim_tech::Technology;
//! use memsim_workloads::WorkloadKind;
//!
//! let scale = Scale::mini();
//! let design = Design::Nmm { nvm: Technology::Pcm, config: n_configs()[4] }; // N5
//! let (cache, sample) = (runner::SimCache::new(), SampleMode::Off);
//! let result = runner::evaluate_cached(WorkloadKind::Cg, &scale, &design, &cache, sample);
//! let base = runner::evaluate_cached(WorkloadKind::Cg, &scale, &Design::Baseline, &cache, sample);
//! let norm = result.metrics.normalized_to(&base.metrics);
//! assert!(norm.time > 0.5 && norm.time < 2.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifacts;
pub mod configs;
mod design;
pub mod dynamic;
pub mod experiments;
pub mod heatmap;
pub mod journal;
pub mod jsontext;
pub mod model;
pub mod partition;
pub mod replay;
pub mod report;
pub mod runner;
pub mod sampling;
mod scale;
pub mod store;

pub use artifacts::{build_artifact, named_designs, parse_design_list, ARTIFACT_NAMES};
pub use design::{Design, Structure};
pub use journal::{sweep_fingerprint, JournalRecovery, SweepCtx, SweepJournal, JOURNAL_FILE};
pub use model::{breakdown, LevelBreakdown, LevelCost, Metrics, NormMetrics};
pub use replay::{record_workload, RecordSummary};
pub use runner::{
    check_shards, simulate_structure, EvalResult, FailedPoint, GridOutcome, RawRun, SimCache,
    Source, SweepError,
};
pub use sampling::{SampleCi, SampleMode, SamplePlan, SampleSpec};
pub use scale::Scale;
