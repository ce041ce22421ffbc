//! Recording: a [`TraceSink`] that persists the stream it consumes.

use crate::crc32::crc32;
use crate::format::{TraceError, TraceHeader, TRACE_CHUNK_EVENTS};
use crate::varint;
use memsim_obs::Counter;
use memsim_trace::{TraceEvent, TraceSink};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Arc;

/// Streams [`TraceEvent`]s to a writer in the chunked delta-varint format.
///
/// Implements [`TraceSink`], so recording a workload is just running it
/// with the writer as its sink. Events are buffered into chunks of
/// [`TRACE_CHUNK_EVENTS`] and framed with a count and CRC32; a sequential
/// 8-byte stream encodes to ≈2 bytes per event.
///
/// [`TraceSink::access`] cannot return errors, so an I/O failure mid-stream
/// is stashed and the writer goes quiet; [`TraceWriter::finish`] reports
/// it. A writer dropped without `finish` leaves a file with no footer,
/// which readers reject as [`TraceError::MissingFooter`] — a half-written
/// recording can never be mistaken for a complete one.
pub struct TraceWriter<W: Write> {
    out: W,
    pending: Vec<TraceEvent>,
    payload: Vec<u8>,
    total_events: u64,
    chunks: u64,
    error: Option<io::Error>,
    finished: bool,
    /// Observability hook: `(events, chunks)` counters advanced once per
    /// emitted chunk (never per event).
    probe: Option<(Arc<Counter>, Arc<Counter>)>,
}

impl TraceWriter<BufWriter<File>> {
    /// Create (truncating) `path` and write `header` to it.
    pub fn create(path: &Path, header: &TraceHeader) -> Result<Self, TraceError> {
        Self::new(BufWriter::new(File::create(path)?), header)
    }
}

impl<W: Write> TraceWriter<W> {
    /// Wrap `out`, writing `header` immediately.
    pub fn new(mut out: W, header: &TraceHeader) -> Result<Self, TraceError> {
        header.write_to(&mut out)?;
        Ok(Self {
            out,
            pending: Vec::with_capacity(TRACE_CHUNK_EVENTS),
            payload: Vec::with_capacity(TRACE_CHUNK_EVENTS * 3),
            total_events: 0,
            chunks: 0,
            error: None,
            finished: false,
            probe: None,
        })
    }

    /// Attach live-progress counters: `events` is advanced by each emitted
    /// chunk's event count and `chunks` by one, at chunk granularity, so
    /// recording progress is observable without touching the per-event
    /// path.
    pub fn set_probe(&mut self, events: Arc<Counter>, chunks: Arc<Counter>) {
        self.probe = Some((events, chunks));
    }

    /// Events accepted so far (including any still buffered).
    pub fn events_written(&self) -> u64 {
        self.total_events + self.pending.len() as u64
    }

    /// Chunks emitted so far.
    pub fn chunks_written(&self) -> u64 {
        self.chunks
    }

    /// Encode and frame the pending events as one chunk.
    fn write_pending_chunk(&mut self) {
        if self.pending.is_empty() || self.error.is_some() {
            // on a stashed error, drop the events: the file is already
            // doomed and finish() will report the failure
            self.pending.clear();
            return;
        }
        self.payload.clear();
        let first_addr = self.pending[0].addr;
        let mut prev = first_addr;
        for ev in &self.pending {
            varint::write_u64(
                &mut self.payload,
                varint::zigzag(ev.addr.wrapping_sub(prev) as i64),
            );
            varint::write_u64(
                &mut self.payload,
                (u64::from(ev.size) << 1) | u64::from(ev.kind.is_store()),
            );
            prev = ev.addr;
        }
        let count = self.pending.len() as u32;
        let result = (|| -> io::Result<()> {
            self.out.write_all(&count.to_le_bytes())?;
            self.out
                .write_all(&(self.payload.len() as u32).to_le_bytes())?;
            self.out.write_all(&first_addr.to_le_bytes())?;
            self.out.write_all(&crc32(&self.payload).to_le_bytes())?;
            self.out.write_all(&self.payload)
        })();
        if let Err(e) = result {
            self.error = Some(e);
        } else {
            self.total_events += u64::from(count);
            self.chunks += 1;
            if let Some((events, chunks)) = &self.probe {
                events.add(u64::from(count));
                chunks.inc();
            }
        }
        self.pending.clear();
    }

    /// Drain buffered events, write the footer, and flush the underlying
    /// writer. Returns the writer and the total event count. Any I/O error
    /// stashed during the stream (or hit here) is reported.
    pub fn finish(mut self) -> Result<(W, u64), TraceError> {
        self.write_pending_chunk();
        if let Some(e) = self.error.take() {
            return Err(TraceError::Io(e));
        }
        self.out.write_all(&0u32.to_le_bytes())?;
        let total = self.total_events.to_le_bytes();
        self.out.write_all(&total)?;
        self.out.write_all(&crc32(&total).to_le_bytes())?;
        self.out.flush()?;
        self.finished = true;
        Ok((self.out, self.total_events))
    }
}

impl<W: Write> TraceSink for TraceWriter<W> {
    #[inline]
    fn access(&mut self, ev: TraceEvent) {
        self.pending.push(ev);
        if self.pending.len() == TRACE_CHUNK_EVENTS {
            self.write_pending_chunk();
        }
    }

    fn access_chunk(&mut self, events: &[TraceEvent]) {
        for &ev in events {
            self.access(ev);
        }
    }

    /// Drain the buffered partial chunk to the stream (no footer — the
    /// recording can continue; call [`TraceWriter::finish`] to close it).
    fn flush(&mut self) {
        self.write_pending_chunk();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::FORMAT_VERSION;

    #[test]
    fn empty_trace_is_header_plus_footer() {
        let header = TraceHeader::anonymous(0);
        let w = TraceWriter::new(Vec::new(), &header).unwrap();
        let (buf, total) = w.finish().unwrap();
        assert_eq!(total, 0);
        // magic + version + body_len + body(8 + 2 + 2 + 4) + crc + footer(16)
        assert_eq!(buf.len(), 8 + 4 + 4 + 16 + 4 + 16);
        assert_eq!(&buf[..8], b"MSIMTRC1");
        assert_eq!(
            u32::from_le_bytes(buf[8..12].try_into().unwrap()),
            FORMAT_VERSION
        );
    }

    #[test]
    fn sequential_stream_encodes_under_four_bytes_per_event() {
        let header = TraceHeader::anonymous(0x1000_0000);
        let mut w = TraceWriter::new(Vec::new(), &header).unwrap();
        const N: u64 = 100_000;
        for i in 0..N {
            // a unit-stride sweep with a store every 4th reference — the
            // shape the acceptance criterion targets
            let ev = if i % 4 == 3 {
                TraceEvent::store(0x1000_0000 + i * 8, 8)
            } else {
                TraceEvent::load(0x1000_0000 + i * 8, 8)
            };
            w.access(ev);
        }
        let (buf, total) = w.finish().unwrap();
        assert_eq!(total, N);
        let per_event = buf.len() as f64 / N as f64;
        assert!(
            per_event <= 4.0,
            "sequential stream encoded at {per_event:.2} bytes/event"
        );
        // the two varints are one byte each here, so it should be ~2
        assert!(per_event < 2.2, "expected ≈2 B/event, got {per_event:.2}");
    }

    #[test]
    fn flush_emits_partial_chunk_without_footer() {
        let header = TraceHeader::anonymous(0);
        let mut w = TraceWriter::new(Vec::new(), &header).unwrap();
        w.access(TraceEvent::load(64, 8));
        assert_eq!(w.chunks_written(), 0, "partial chunk still buffered");
        w.flush();
        assert_eq!(w.chunks_written(), 1);
        assert_eq!(w.events_written(), 1);
        let (_, total) = w.finish().unwrap();
        assert_eq!(total, 1);
    }

    #[test]
    fn io_error_is_stashed_and_reported_at_finish() {
        struct FailAfter(usize);
        impl Write for FailAfter {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.0 < buf.len() {
                    return Err(io::Error::other("disk full"));
                }
                self.0 -= buf.len();
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        // enough budget for the header, not for any chunk
        let header = TraceHeader::anonymous(0);
        let mut w = TraceWriter::new(FailAfter(64), &header).unwrap();
        for i in 0..10_000u64 {
            w.access(TraceEvent::load(i * 8, 8));
        }
        assert!(matches!(w.finish(), Err(TraceError::Io(_))));
    }
}
