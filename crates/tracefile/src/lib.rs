//! Durable, replayable memory traces.
//!
//! The paper's framework consumes each application's address stream
//! *online* — it is never stored. That is the right default at scale, but
//! reproducible cross-configuration studies want the complement: record a
//! stream once, then replay the identical reference sequence through any
//! number of hierarchy configurations (and share it between machines).
//! This crate provides that substrate:
//!
//! * a **versioned binary format** — magic + header carrying provenance
//!   and the recorded [`AddressSpace`](memsim_trace::AddressSpace) region
//!   table, then self-contained chunks of delta-encoded events (zigzag
//!   LEB128 against the previous address) framed with event counts and
//!   CRC32. Sequential streams cost ≈2 bytes per event.
//! * [`TraceWriter`] — a [`TraceSink`](memsim_trace::TraceSink), so any
//!   workload records by simply running with it as its sink.
//! * [`TraceReader`] — a buffered streaming reader: chunk-at-a-time
//!   decode with bounded memory, corruption surfaced as typed
//!   [`TraceError`]s (truncation, CRC mismatch, malformed frames), never
//!   a panic.
//! * [`replay_into`] — drives any sink with the recorded stream using
//!   batched `access_chunk` delivery, the same dispatch shape live
//!   workloads use, so record→replay is observationally identical to the
//!   live run.
//!
//! # Example
//!
//! ```
//! use memsim_trace::{TraceEvent, TraceSink, CountingSink};
//! use memsim_tracefile::{TraceHeader, TraceWriter, TraceReader, replay_into};
//!
//! // record
//! let mut w = TraceWriter::new(Vec::new(), &TraceHeader::anonymous(0x1000)).unwrap();
//! for i in 0..1000u64 {
//!     w.access(TraceEvent::load(0x1000 + i * 8, 8));
//! }
//! let (bytes, total) = w.finish().unwrap();
//! assert_eq!(total, 1000);
//!
//! // replay
//! let mut r = TraceReader::new(bytes.as_slice()).unwrap();
//! let mut sink = CountingSink::new();
//! let n = replay_into(&mut r, &mut sink).unwrap();
//! assert_eq!(n, 1000);
//! assert_eq!(sink.loads, 1000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod crc32;
mod format;
mod reader;
mod replay;
mod varint;
mod writer;

pub use crc32::crc32;
pub use format::{TraceError, TraceHeader, FORMAT_VERSION, MAGIC, TRACE_CHUNK_EVENTS};
pub use reader::{footer_total, ChunkStep, TraceReader};
pub use replay::{encode_to_vec, replay_into, summarize, TraceSummary};
pub use writer::TraceWriter;
