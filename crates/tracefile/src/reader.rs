//! Streaming trace consumption: chunk-at-a-time decode without ever
//! materializing the whole file.

use crate::crc32::crc32;
use crate::format::{
    read_u32, read_u64, TraceError, TraceHeader, MAX_CHUNK_EVENTS, MAX_EVENT_BYTES,
};
use crate::varint;
use memsim_trace::TraceEvent;
use std::fs::File;
use std::io::{BufReader, ErrorKind, Read, Seek, SeekFrom};
use std::path::Path;

/// One step of a skip-capable chunk walk
/// (see [`TraceReader::next_chunk_where`]).
#[derive(Debug)]
pub enum ChunkStep<'a> {
    /// The chunk was wanted: its decoded, CRC-verified events.
    Events(&'a [TraceEvent]),
    /// The chunk was skipped without decoding: the stream index of its
    /// first event and how many events it frames.
    Skipped {
        /// Global index (within the whole trace) of the chunk's first
        /// event.
        first_event: u64,
        /// Events framed by the skipped chunk.
        count: u32,
    },
    /// The footer was reached and validated.
    End,
}

/// The event total a finished trace's footer records, read from the last
/// twelve bytes of `input` without decoding a chunk: a size hint for
/// progress reporting. `None` when the input is shorter than that or the
/// footer's CRC does not match; a full decode still checks the total
/// against the events it reads.
pub fn footer_total<R: Read + Seek>(input: &mut R) -> Option<u64> {
    input.seek(SeekFrom::End(-12)).ok()?;
    let total = read_u64(input).ok()?;
    let crc = read_u32(input).ok()?;
    (crc32(&total.to_le_bytes()) == crc).then_some(total)
}

/// Reads a trace file chunk by chunk, validating framing and CRCs.
///
/// Three consumption styles:
///
/// * [`TraceReader::next_chunk`] — borrow each decoded chunk as a
///   `&[TraceEvent]` slice; the natural fit for
///   [`TraceSink::access_chunk`](memsim_trace::TraceSink::access_chunk)
///   batched delivery (what [`crate::replay_into`] does).
/// * [`TraceReader::next_chunk_where`] — the same walk, but a predicate
///   over `(first_event_index, event_count)` decides per chunk whether
///   to decode it or to skip its payload without decoding (sampled
///   replay's fast path).
/// * the [`Iterator`] impl — yields `Result<TraceEvent, TraceError>` one
///   event at a time; after yielding an error the iterator fuses.
///
/// Corruption — a truncated file, a flipped byte, a frame that decodes to
/// the wrong event count — surfaces as a typed [`TraceError`], never a
/// panic. Memory use is bounded by one chunk regardless of file size.
pub struct TraceReader<R: Read> {
    input: R,
    header: TraceHeader,
    /// Decoded events of the current chunk.
    chunk: Vec<TraceEvent>,
    /// Iterator cursor into `chunk`.
    cursor: usize,
    payload: Vec<u8>,
    chunks_read: u64,
    events_read: u64,
    /// Chunks whose payload was drained without decoding.
    chunks_skipped: u64,
    /// Events framed by skipped chunks (counted from frame headers, not
    /// decoded).
    events_skipped: u64,
    payload_bytes: u64,
    /// Chunks whose CRC32 validated (every chunk that reached the sink).
    crc_verified_chunks: u64,
    /// Smallest encoded payload of any chunk (`u64::MAX` before the first).
    chunk_payload_min: u64,
    /// Largest encoded payload of any chunk.
    chunk_payload_max: u64,
    /// Fewest events in any chunk (`u64::MAX` before the first).
    chunk_events_min: u64,
    /// Most events in any chunk.
    chunk_events_max: u64,
    /// Footer seen and validated (or a fatal error already reported).
    done: bool,
    /// When set, skipped chunk payloads are seeked over instead of read
    /// (see [`TraceReader::enable_seek_skip`]).
    seek_skip: Option<fn(&mut R, u64) -> std::io::Result<()>>,
}

impl TraceReader<BufReader<File>> {
    /// Open `path` and parse its header.
    pub fn open(path: &Path) -> Result<Self, TraceError> {
        Self::new(BufReader::new(File::open(path)?))
    }
}

impl<R: Read + Seek> TraceReader<R> {
    /// Skip over unwanted chunk payloads with a relative seek instead of
    /// reading them into the scratch buffer. Worth enabling for sparse
    /// access patterns (e.g. sampled replay) over file-backed traces; the
    /// trade-off is that a truncated payload in a *skipped* chunk is only
    /// detected at the next frame boundary.
    pub fn enable_seek_skip(&mut self) {
        self.seek_skip = Some(|input, n| input.seek_relative(n as i64));
    }
}

impl<R: Read> TraceReader<R> {
    /// Wrap `input` and parse the header from its front.
    pub fn new(mut input: R) -> Result<Self, TraceError> {
        let header = TraceHeader::read_from(&mut input)?;
        Ok(Self {
            input,
            header,
            chunk: Vec::new(),
            cursor: 0,
            payload: Vec::new(),
            chunks_read: 0,
            events_read: 0,
            chunks_skipped: 0,
            events_skipped: 0,
            payload_bytes: 0,
            crc_verified_chunks: 0,
            chunk_payload_min: u64::MAX,
            chunk_payload_max: 0,
            chunk_events_min: u64::MAX,
            chunk_events_max: 0,
            done: false,
            seek_skip: None,
        })
    }

    /// The file's header (provenance and region table).
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// Chunks decoded so far.
    pub fn chunks_read(&self) -> u64 {
        self.chunks_read
    }

    /// Events decoded so far.
    pub fn events_read(&self) -> u64 {
        self.events_read
    }

    /// Chunks skipped without decoding so far.
    pub fn chunks_skipped(&self) -> u64 {
        self.chunks_skipped
    }

    /// Events framed by skipped chunks so far (from frame headers).
    pub fn events_skipped(&self) -> u64 {
        self.events_skipped
    }

    /// Encoded payload bytes decoded so far (excludes framing).
    pub fn payload_bytes(&self) -> u64 {
        self.payload_bytes
    }

    /// Chunks whose CRC32 check passed so far. Equals
    /// [`TraceReader::chunks_read`] on any healthy stream — every decoded
    /// chunk is CRC-verified before its events are released — so trace
    /// health is visible without a full replay.
    pub fn crc_verified_chunks(&self) -> u64 {
        self.crc_verified_chunks
    }

    /// `(min, max)` encoded payload bytes over the chunks decoded so far,
    /// or `None` before the first chunk.
    pub fn chunk_payload_range(&self) -> Option<(u64, u64)> {
        (self.chunks_read > 0).then_some((self.chunk_payload_min, self.chunk_payload_max))
    }

    /// `(min, max)` events per chunk over the chunks decoded so far, or
    /// `None` before the first chunk.
    pub fn chunk_events_range(&self) -> Option<(u64, u64)> {
        (self.chunks_read > 0).then_some((self.chunk_events_min, self.chunk_events_max))
    }

    /// Decode the next chunk, returning its events, or `None` once the
    /// footer has been reached and validated. After an error or the
    /// footer, subsequent calls return `Ok(None)`.
    pub fn next_chunk(&mut self) -> Result<Option<&[TraceEvent]>, TraceError> {
        let decoded = match self.next_chunk_where(|_, _| true)? {
            ChunkStep::Events(_) => true,
            ChunkStep::End => false,
            ChunkStep::Skipped { .. } => unreachable!("predicate decodes every chunk"),
        };
        Ok(decoded.then_some(self.chunk.as_slice()))
    }

    /// Walk one chunk, letting `want(first_event_index, event_count)`
    /// decide whether to decode it or to drain its payload undecoded.
    ///
    /// The frame carries the payload length, so a skipped chunk costs a
    /// buffered read of its bytes and nothing else — no varint decode,
    /// no CRC check (see [`TraceReader::crc_verified_chunks`], which
    /// therefore counts decoded chunks only). The footer's total-event
    /// check still holds: decoded and skipped events must sum to the
    /// recorded total.
    pub fn next_chunk_where<F>(&mut self, want: F) -> Result<ChunkStep<'_>, TraceError>
    where
        F: FnOnce(u64, u32) -> bool,
    {
        if self.done {
            return Ok(ChunkStep::End);
        }
        self.chunk.clear();
        self.cursor = 0;
        let index = self.chunks_read + self.chunks_skipped;

        // Frame header. EOF exactly here means the footer is missing.
        let count = match read_u32(&mut self.input) {
            Ok(c) => c,
            Err(e) if e.kind() == ErrorKind::UnexpectedEof => {
                self.done = true;
                return Err(TraceError::MissingFooter);
            }
            Err(e) => {
                self.done = true;
                return Err(e.into());
            }
        };

        if count == 0 {
            self.read_footer()?;
            return Ok(ChunkStep::End);
        }

        let first_event = self.events_read + self.events_skipped;
        if want(first_event, count) {
            let result = self.read_chunk_body(index, count);
            if result.is_err() {
                self.done = true;
            }
            result?;
            self.chunks_read += 1;
            self.events_read += self.chunk.len() as u64;
            Ok(ChunkStep::Events(&self.chunk))
        } else {
            let result = self.skip_chunk_body(index, count);
            if result.is_err() {
                self.done = true;
            }
            result?;
            self.chunks_skipped += 1;
            self.events_skipped += u64::from(count);
            Ok(ChunkStep::Skipped { first_event, count })
        }
    }

    /// Drain a chunk's frame without decoding it: the framing fields and
    /// payload bytes are read (the stream must stay positioned) but the
    /// payload is neither varint-decoded nor CRC-verified.
    fn skip_chunk_body(&mut self, index: u64, count: u32) -> Result<(), TraceError> {
        if count > MAX_CHUNK_EVENTS {
            return Err(TraceError::MalformedChunkHeader {
                chunk: index,
                detail: format!("event count {count} exceeds the {MAX_CHUNK_EVENTS} cap"),
            });
        }
        let truncated = |_| TraceError::TruncatedChunk { chunk: index };
        let payload_len = read_u32(&mut self.input).map_err(truncated)?;
        if payload_len as usize > count as usize * MAX_EVENT_BYTES {
            return Err(TraceError::MalformedChunkHeader {
                chunk: index,
                detail: format!("payload of {payload_len} bytes for {count} events"),
            });
        }
        let _first_addr = read_u64(&mut self.input).map_err(truncated)?;
        let _stored_crc = read_u32(&mut self.input).map_err(truncated)?;
        match self.seek_skip {
            Some(seek) => seek(&mut self.input, u64::from(payload_len)).map_err(truncated)?,
            None => {
                self.payload.resize(payload_len as usize, 0);
                self.input
                    .read_exact(&mut self.payload)
                    .map_err(truncated)?;
            }
        }
        Ok(())
    }

    fn read_chunk_body(&mut self, index: u64, count: u32) -> Result<(), TraceError> {
        if count > MAX_CHUNK_EVENTS {
            return Err(TraceError::MalformedChunkHeader {
                chunk: index,
                detail: format!("event count {count} exceeds the {MAX_CHUNK_EVENTS} cap"),
            });
        }
        let truncated = |_| TraceError::TruncatedChunk { chunk: index };
        let payload_len = read_u32(&mut self.input).map_err(truncated)?;
        if payload_len as usize > count as usize * MAX_EVENT_BYTES {
            return Err(TraceError::MalformedChunkHeader {
                chunk: index,
                detail: format!("payload of {payload_len} bytes for {count} events"),
            });
        }
        let first_addr = read_u64(&mut self.input).map_err(truncated)?;
        let stored_crc = read_u32(&mut self.input).map_err(truncated)?;
        self.payload.resize(payload_len as usize, 0);
        self.input
            .read_exact(&mut self.payload)
            .map_err(truncated)?;
        if crc32(&self.payload) != stored_crc {
            return Err(TraceError::ChunkCrcMismatch { chunk: index });
        }
        self.crc_verified_chunks += 1;
        self.chunk_payload_min = self.chunk_payload_min.min(u64::from(payload_len));
        self.chunk_payload_max = self.chunk_payload_max.max(u64::from(payload_len));
        self.chunk_events_min = self.chunk_events_min.min(u64::from(count));
        self.chunk_events_max = self.chunk_events_max.max(u64::from(count));

        // Decode: each event is (zigzag addr delta, size<<1 | is_store).
        self.chunk.reserve(count as usize);
        let mut prev = first_addr;
        let mut pos = 0usize;
        for _ in 0..count {
            let (delta, n) = varint::read_u64(&self.payload[pos..]).ok_or_else(|| {
                TraceError::MalformedPayload {
                    chunk: index,
                    detail: "payload ends mid-delta".into(),
                }
            })?;
            pos += n;
            let (sk, n) = varint::read_u64(&self.payload[pos..]).ok_or_else(|| {
                TraceError::MalformedPayload {
                    chunk: index,
                    detail: "payload ends mid-size".into(),
                }
            })?;
            pos += n;
            let size = sk >> 1;
            if size > u64::from(u32::MAX) {
                return Err(TraceError::MalformedPayload {
                    chunk: index,
                    detail: format!("event size {size} exceeds u32"),
                });
            }
            let addr = prev.wrapping_add(varint::unzigzag(delta) as u64);
            self.chunk.push(if sk & 1 == 1 {
                TraceEvent::store(addr, size as u32)
            } else {
                TraceEvent::load(addr, size as u32)
            });
            prev = addr;
        }
        if pos != self.payload.len() {
            return Err(TraceError::MalformedPayload {
                chunk: index,
                detail: format!("{} undecoded payload bytes", self.payload.len() - pos),
            });
        }
        self.payload_bytes += u64::from(payload_len);
        Ok(())
    }

    fn read_footer(&mut self) -> Result<(), TraceError> {
        self.done = true;
        let total_events = match read_u64(&mut self.input) {
            Ok(t) => t,
            Err(_) => return Err(TraceError::CorruptFooter),
        };
        let stored_crc = read_u32(&mut self.input).map_err(|_| TraceError::CorruptFooter)?;
        if crc32(&total_events.to_le_bytes()) != stored_crc {
            return Err(TraceError::CorruptFooter);
        }
        // Decoded and skipped chunks together must account for every
        // recorded event.
        let seen = self.events_read + self.events_skipped;
        if total_events != seen {
            return Err(TraceError::EventCountMismatch {
                expected: total_events,
                actual: seen,
            });
        }
        let mut probe = [0u8; 1];
        match self.input.read(&mut probe) {
            Ok(0) => Ok(()),
            Ok(_) => Err(TraceError::TrailingData),
            Err(e) => Err(e.into()),
        }
    }

    /// Read the whole trace into memory (tests and small traces only).
    pub fn read_all(&mut self) -> Result<Vec<TraceEvent>, TraceError> {
        let mut all = Vec::new();
        while let Some(chunk) = self.next_chunk()? {
            all.extend_from_slice(chunk);
        }
        Ok(all)
    }
}

impl<R: Read> Iterator for TraceReader<R> {
    type Item = Result<TraceEvent, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if self.cursor < self.chunk.len() {
                let ev = self.chunk[self.cursor];
                self.cursor += 1;
                return Some(Ok(ev));
            }
            match self.next_chunk() {
                Ok(Some(_)) => continue,
                Ok(None) => return None,
                Err(e) => return Some(Err(e)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::TraceWriter;
    use memsim_trace::TraceSink;

    fn write_events(events: &[TraceEvent]) -> Vec<u8> {
        let header = TraceHeader::anonymous(0x1000);
        let mut w = TraceWriter::new(Vec::new(), &header).unwrap();
        for &ev in events {
            w.access(ev);
        }
        w.finish().unwrap().0
    }

    #[test]
    fn round_trip_small() {
        let events = vec![
            TraceEvent::load(0x1000, 8),
            TraceEvent::store(0x1008, 8),
            TraceEvent::load(0x4_0000_0000, 64),
            TraceEvent::store(0x20, 1),
            TraceEvent::load(0x20, 0),
        ];
        let buf = write_events(&events);
        let mut r = TraceReader::new(buf.as_slice()).unwrap();
        assert_eq!(r.read_all().unwrap(), events);
        assert_eq!(r.events_read(), 5);
        assert_eq!(r.chunks_read(), 1);
    }

    #[test]
    fn iterator_yields_events_in_order() {
        let events: Vec<TraceEvent> = (0..10_000u64)
            .map(|i| TraceEvent::load(i * 64, 8))
            .collect();
        let buf = write_events(&events);
        let r = TraceReader::new(buf.as_slice()).unwrap();
        let back: Result<Vec<TraceEvent>, TraceError> = r.collect();
        assert_eq!(back.unwrap(), events);
    }

    #[test]
    fn empty_trace_yields_nothing() {
        let buf = write_events(&[]);
        let mut r = TraceReader::new(buf.as_slice()).unwrap();
        assert!(r.next_chunk().unwrap().is_none());
        assert!(r.next_chunk().unwrap().is_none(), "idempotent at EOF");
        assert_eq!(r.events_read(), 0);
    }

    #[test]
    fn truncated_file_reports_missing_footer() {
        let buf = write_events(&[TraceEvent::load(0, 8)]);
        // cut the footer (16 bytes) off: EOF lands on a chunk boundary
        let mut r = TraceReader::new(&buf[..buf.len() - 16]).unwrap();
        r.next_chunk().unwrap(); // the one real chunk decodes fine
        assert!(matches!(r.next_chunk(), Err(TraceError::MissingFooter)));
        assert!(r.next_chunk().unwrap().is_none(), "fused after error");
    }

    #[test]
    fn truncated_chunk_reported() {
        let events: Vec<TraceEvent> = (0..100u64).map(|i| TraceEvent::load(i * 8, 8)).collect();
        let buf = write_events(&events);
        // cut inside the first chunk's payload
        let mut r = TraceReader::new(&buf[..buf.len() - 40]).unwrap();
        assert!(matches!(
            r.next_chunk(),
            Err(TraceError::TruncatedChunk { chunk: 0 })
        ));
    }

    #[test]
    fn flipped_payload_byte_fails_crc() {
        let events: Vec<TraceEvent> = (0..100u64).map(|i| TraceEvent::load(i * 8, 8)).collect();
        let mut buf = write_events(&events);
        let n = buf.len();
        buf[n - 30] ^= 0x40; // somewhere inside the chunk payload
        let mut r = TraceReader::new(buf.as_slice()).unwrap();
        assert!(matches!(
            r.next_chunk(),
            Err(TraceError::ChunkCrcMismatch { chunk: 0 })
        ));
    }

    #[test]
    fn corrupt_footer_total_detected() {
        let buf = write_events(&[TraceEvent::load(0, 8)]);
        let mut bad = buf.clone();
        let n = bad.len();
        bad[n - 12] ^= 0x01; // low byte of the footer's total_events
        let mut r = TraceReader::new(bad.as_slice()).unwrap();
        r.next_chunk().unwrap();
        assert!(matches!(r.next_chunk(), Err(TraceError::CorruptFooter)));
    }

    #[test]
    fn footer_total_reads_the_tail_without_decoding() {
        let events: Vec<TraceEvent> = (0..10_000).map(|i| TraceEvent::load(i * 8, 8)).collect();
        let buf = write_events(&events);
        assert_eq!(footer_total(&mut std::io::Cursor::new(&buf)), Some(10_000));
        let mut bad = buf.clone();
        let n = bad.len();
        bad[n - 12] ^= 0x01; // the CRC no longer matches the total
        assert_eq!(footer_total(&mut std::io::Cursor::new(&bad)), None);
        assert_eq!(footer_total(&mut std::io::Cursor::new(&buf[..8])), None);
    }

    #[test]
    fn trailing_data_detected() {
        let mut buf = write_events(&[TraceEvent::load(0, 8)]);
        buf.push(0xAB);
        let mut r = TraceReader::new(buf.as_slice()).unwrap();
        r.next_chunk().unwrap();
        assert!(matches!(r.next_chunk(), Err(TraceError::TrailingData)));
    }

    #[test]
    fn skip_walk_sees_every_event_once() {
        // 3 full chunks + a partial tail; decode only every other chunk
        let n = (crate::format::TRACE_CHUNK_EVENTS * 3 + 100) as u64;
        let events: Vec<TraceEvent> = (0..n).map(|i| TraceEvent::load(i * 8, 4)).collect();
        let buf = write_events(&events);
        let mut r = TraceReader::new(buf.as_slice()).unwrap();
        let mut decoded = 0u64;
        let mut skipped = 0u64;
        let mut next_first = 0u64;
        let mut toggle = false;
        loop {
            toggle = !toggle;
            match r.next_chunk_where(|first, count| {
                assert_eq!(first, next_first, "first_event index must be contiguous");
                next_first = first + u64::from(count);
                toggle
            }) {
                Ok(ChunkStep::Events(evs)) => {
                    // decoded events match the recorded stream slice
                    let start = (decoded + skipped) as usize;
                    assert_eq!(evs, &events[start..start + evs.len()]);
                    decoded += evs.len() as u64;
                }
                Ok(ChunkStep::Skipped { count, .. }) => skipped += u64::from(count),
                Ok(ChunkStep::End) => break,
                Err(e) => panic!("{e}"),
            }
        }
        assert_eq!(decoded + skipped, n, "footer total covers both");
        assert_eq!(r.events_read(), decoded);
        assert_eq!(r.events_skipped(), skipped);
        assert_eq!(r.chunks_read(), 2);
        assert_eq!(r.chunks_skipped(), 2);
        assert_eq!(
            r.crc_verified_chunks(),
            2,
            "skipped chunks are not CRC-checked"
        );
    }

    #[test]
    fn skip_all_still_validates_footer_total() {
        let events: Vec<TraceEvent> = (0..10_000u64).map(|i| TraceEvent::load(i * 8, 8)).collect();
        let buf = write_events(&events);
        let mut r = TraceReader::new(buf.as_slice()).unwrap();
        loop {
            match r.next_chunk_where(|_, _| false).unwrap() {
                ChunkStep::End => break,
                ChunkStep::Skipped { .. } => {}
                ChunkStep::Events(_) => panic!("nothing should decode"),
            }
        }
        assert_eq!(r.events_skipped(), 10_000);

        // a corrupted footer total is still caught on a skip-only walk
        let mut bad = write_events(&events);
        let n = bad.len();
        bad[n - 12] ^= 0x01;
        let mut r = TraceReader::new(bad.as_slice()).unwrap();
        let err = loop {
            match r.next_chunk_where(|_, _| false) {
                Ok(ChunkStep::End) => panic!("must error"),
                Ok(_) => {}
                Err(e) => break e,
            }
        };
        assert!(matches!(err, TraceError::CorruptFooter));
    }

    #[test]
    fn truncation_inside_skipped_chunk_reported() {
        let events: Vec<TraceEvent> = (0..100u64).map(|i| TraceEvent::load(i * 8, 8)).collect();
        let buf = write_events(&events);
        let mut r = TraceReader::new(&buf[..buf.len() - 40]).unwrap();
        assert!(matches!(
            r.next_chunk_where(|_, _| false),
            Err(TraceError::TruncatedChunk { chunk: 0 })
        ));
    }

    #[test]
    fn multi_chunk_traces_decode_across_boundaries() {
        // 3 full chunks plus a partial one, with a huge backwards jump at
        // each chunk boundary to exercise first_addr re-anchoring
        let mut events = Vec::new();
        for i in 0..(crate::format::TRACE_CHUNK_EVENTS * 3 + 100) as u64 {
            let base = if i % 2 == 0 { 0x1000_0000 } else { 0x10 };
            events.push(TraceEvent::load(base + i * 8, 4));
        }
        let buf = write_events(&events);
        let mut r = TraceReader::new(buf.as_slice()).unwrap();
        assert_eq!(r.read_all().unwrap(), events);
        assert_eq!(r.chunks_read(), 4);
    }
}
