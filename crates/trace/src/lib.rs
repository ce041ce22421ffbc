//! Online memory address stream capture.
//!
//! The paper instruments application binaries with PEBIL so that every
//! memory reference is streamed — *online*, without ever being stored — into
//! a cache simulator. This crate is the equivalent substrate for Rust
//! workloads:
//!
//! * [`AddressSpace`] — a deterministic virtual address space with a bump
//!   allocator and a registry of named [`Region`]s (one per data structure),
//!   standing in for the process image of the instrumented binary.
//! * [`SimVec`] / [`SimMatrix2`] / [`SimMatrix3`] — instrumented containers.
//!   Every element access both performs the real operation *and* emits a
//!   [`TraceEvent`] into a [`TraceSink`], so the address stream is exactly
//!   the access pattern of the algorithm being run.
//! * [`sinks`] — stream consumers: chunk batching, counting, recording,
//!   per-region profiling and working-set measurement.
//!
//! The stream is consumed as it is produced; nothing forces buffering. This
//! mirrors the paper's framework, which "avoids the need to store and
//! process full memory traces offline".
//!
//! # Example
//!
//! ```
//! use memsim_trace::{AddressSpace, SimVec, sinks::CountingSink, TraceSink};
//!
//! let mut space = AddressSpace::new();
//! let mut v = SimVec::<f64>::zeroed(&mut space, "v", 1024);
//! let mut sink = CountingSink::new();
//! for i in 0..v.len() {
//!     let x = v.ld(i, &mut sink);
//!     v.st(i, x + 1.0, &mut sink);
//! }
//! assert_eq!(sink.loads, 1024);
//! assert_eq!(sink.stores, 1024);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod containers;
mod event;
pub mod interval;
pub mod reuse;
pub mod sinks;
mod space;
pub mod stats;

pub use containers::{SimMatrix2, SimMatrix3, SimVec};
pub use event::{AccessKind, FnSink, TraceEvent, TraceSink};
pub use interval::{IntervalSignature, SignatureBuilder, SIGNATURE_DIMS};
pub use reuse::ReuseDistance;
pub use sinks::{ChunkBuffer, CountingSink, CHUNK_EVENTS};
pub use space::{AddressSpace, Region, RegionId, DEFAULT_BASE_ADDR, REGION_ALIGN};
