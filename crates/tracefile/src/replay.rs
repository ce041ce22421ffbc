//! Re-consume a recorded trace: drive any [`TraceSink`] with the stream,
//! or scan it into a summary.

use crate::format::TraceError;
use crate::reader::TraceReader;
use memsim_trace::{TraceEvent, TraceSink};
use std::collections::HashSet;
use std::io::Read;

/// Replay every event of `reader` into `sink` and flush it.
///
/// Delivery is chunked: each decoded chunk arrives through one
/// [`TraceSink::access_chunk`] call — the same batched-dispatch shape
/// `ChunkBuffer` gives live workloads, so a replayed [`memsim_cache`
/// hierarchy](https://docs.rs) pays one virtual call per ~4096 events.
/// Returns the number of events delivered.
pub fn replay_into<R: Read>(
    reader: &mut TraceReader<R>,
    sink: &mut dyn TraceSink,
) -> Result<u64, TraceError> {
    let mut delivered = 0u64;
    while let Some(chunk) = reader.next_chunk()? {
        sink.access_chunk(chunk);
        delivered += chunk.len() as u64;
    }
    sink.flush();
    Ok(delivered)
}

/// Aggregate facts about a trace, computed in one streaming pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSummary {
    /// Total events.
    pub events: u64,
    /// Load events.
    pub loads: u64,
    /// Store events.
    pub stores: u64,
    /// Bytes read by loads.
    pub load_bytes: u64,
    /// Bytes written by stores.
    pub store_bytes: u64,
    /// Chunks in the file.
    pub chunks: u64,
    /// Chunks whose CRC32 check passed (equals `chunks` for a healthy
    /// file — a mismatch aborts the scan, so this can only trail by
    /// chunks decoded before the error).
    pub crc_verified_chunks: u64,
    /// Encoded event payload bytes (excludes header/framing).
    pub payload_bytes: u64,
    /// Smallest and largest encoded payload size of any chunk, in bytes
    /// (`None` for an empty trace).
    pub chunk_payload_range: Option<(u64, u64)>,
    /// Smallest and largest event count of any chunk (`None` for an
    /// empty trace).
    pub chunk_events_range: Option<(u64, u64)>,
    /// Lowest address touched (`u64::MAX` for an empty trace).
    pub min_addr: u64,
    /// Highest exclusive address touched.
    pub max_addr: u64,
    /// Distinct 64 B cache lines touched (the stream's line footprint).
    pub touched_lines: u64,
}

impl TraceSummary {
    /// Stores as a fraction of all events (0 for an empty trace).
    pub fn store_fraction(&self) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            self.stores as f64 / self.events as f64
        }
    }

    /// Mean encoded payload bytes per event (0 for an empty trace).
    pub fn payload_bytes_per_event(&self) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            self.payload_bytes as f64 / self.events as f64
        }
    }
}

/// Scan the remainder of `reader`, tallying a [`TraceSummary`].
pub fn summarize<R: Read>(reader: &mut TraceReader<R>) -> Result<TraceSummary, TraceError> {
    let mut s = TraceSummary {
        events: 0,
        loads: 0,
        stores: 0,
        load_bytes: 0,
        store_bytes: 0,
        chunks: 0,
        crc_verified_chunks: 0,
        payload_bytes: 0,
        chunk_payload_range: None,
        chunk_events_range: None,
        min_addr: u64::MAX,
        max_addr: 0,
        touched_lines: 0,
    };
    let mut lines: HashSet<u64> = HashSet::new();
    while let Some(chunk) = reader.next_chunk()? {
        for ev in chunk {
            if ev.kind.is_store() {
                s.stores += 1;
                s.store_bytes += u64::from(ev.size);
            } else {
                s.loads += 1;
                s.load_bytes += u64::from(ev.size);
            }
            s.min_addr = s.min_addr.min(ev.addr);
            s.max_addr = s.max_addr.max(ev.end());
            lines.extend(ev.blocks(6));
        }
    }
    s.events = reader.events_read();
    s.chunks = reader.chunks_read();
    s.crc_verified_chunks = reader.crc_verified_chunks();
    s.payload_bytes = reader.payload_bytes();
    s.chunk_payload_range = reader.chunk_payload_range();
    s.chunk_events_range = reader.chunk_events_range();
    s.touched_lines = lines.len() as u64;
    Ok(s)
}

/// Convenience: record `events` into an in-memory trace (tests, benches).
pub fn encode_to_vec(
    header: &crate::format::TraceHeader,
    events: &[TraceEvent],
) -> Result<Vec<u8>, TraceError> {
    let mut w = crate::writer::TraceWriter::new(Vec::new(), header)?;
    w.access_chunk(events);
    Ok(w.finish()?.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::TraceHeader;

    fn events() -> Vec<TraceEvent> {
        (0..10_000u64)
            .map(|i| {
                if i % 5 == 0 {
                    TraceEvent::store(0x1000 + i * 8, 8)
                } else {
                    TraceEvent::load(0x1000 + i * 8, 8)
                }
            })
            .collect()
    }

    #[test]
    fn replay_reaches_sink_in_order() {
        let buf = encode_to_vec(&TraceHeader::anonymous(0x1000), &events()).unwrap();
        let mut reader = TraceReader::new(buf.as_slice()).unwrap();
        let mut seen = Vec::new();
        let mut sink = memsim_trace::FnSink(|ev: TraceEvent| seen.push(ev));
        let n = replay_into(&mut reader, &mut sink).unwrap();
        assert_eq!(n, 10_000);
        assert_eq!(seen, events());
    }

    #[test]
    fn summary_matches_stream() {
        let buf = encode_to_vec(&TraceHeader::anonymous(0x1000), &events()).unwrap();
        let mut reader = TraceReader::new(buf.as_slice()).unwrap();
        let s = summarize(&mut reader).unwrap();
        assert_eq!(s.events, 10_000);
        assert_eq!(s.stores, 2_000);
        assert_eq!(s.loads, 8_000);
        assert_eq!(s.load_bytes, 64_000);
        assert!((s.store_fraction() - 0.2).abs() < 1e-12);
        assert_eq!(s.min_addr, 0x1000);
        assert_eq!(s.max_addr, 0x1000 + 10_000 * 8);
        assert_eq!(s.touched_lines, 10_000 * 8 / 64);
        assert!(s.payload_bytes_per_event() < 2.5);
        assert_eq!(s.crc_verified_chunks, s.chunks);
        let (min_ev, max_ev) = s.chunk_events_range.unwrap();
        assert!(min_ev >= 1 && max_ev <= crate::format::TRACE_CHUNK_EVENTS as u64);
        let (min_b, max_b) = s.chunk_payload_range.unwrap();
        assert!(min_b >= 1 && min_b <= max_b);
    }

    #[test]
    fn summary_skips_size_zero_events_on_line_boundaries() {
        let header = TraceHeader::anonymous(0);
        let boundary = [TraceEvent::load(0, 0), TraceEvent::load(64, 0)];
        let buf = encode_to_vec(&header, &boundary).unwrap();
        let s = summarize(&mut TraceReader::new(buf.as_slice()).unwrap()).unwrap();
        assert_eq!((s.events, s.touched_lines), (2, 0));
        let inside = [TraceEvent::load(65, 0)];
        let buf = encode_to_vec(&header, &inside).unwrap();
        let s = summarize(&mut TraceReader::new(buf.as_slice()).unwrap()).unwrap();
        assert_eq!((s.events, s.touched_lines), (1, 1));
    }

    #[test]
    fn summary_of_empty_trace() {
        let buf = encode_to_vec(&TraceHeader::anonymous(0), &[]).unwrap();
        let mut reader = TraceReader::new(buf.as_slice()).unwrap();
        let s = summarize(&mut reader).unwrap();
        assert_eq!(s.events, 0);
        assert_eq!(s.store_fraction(), 0.0);
        assert_eq!(s.payload_bytes_per_event(), 0.0);
        assert_eq!(s.touched_lines, 0);
        assert_eq!(s.crc_verified_chunks, 0);
        assert_eq!(s.chunk_payload_range, None);
        assert_eq!(s.chunk_events_range, None);
    }
}
