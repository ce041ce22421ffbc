//! Composable consumers of the address stream.
//!
//! These mirror the utility passes of the paper's PEBIL-based framework:
//! batching the stream, counting and recording references, profiling
//! accesses per data region (the input to the NDM oracle partitioner), and
//! measuring the working set.

use crate::event::{AccessKind, TraceEvent, TraceSink};
use crate::space::{AddressSpace, Region, RegionId};

/// Number of events [`ChunkBuffer`] accumulates before delivering a batch.
pub const CHUNK_EVENTS: usize = 64;

/// Batches events into a small fixed array and delivers them to the wrapped
/// sink through [`TraceSink::access_chunk`], amortizing virtual dispatch
/// over `CHUNK_EVENTS` events. Wrap a kernel's output sink in one of these:
///
/// ```
/// # use memsim_trace::{ChunkBuffer, CountingSink, TraceEvent, TraceSink};
/// # let mut counter = CountingSink::new();
/// # let sink: &mut dyn TraceSink = &mut counter;
/// let mut buffered = ChunkBuffer::new(sink);
/// let sink = &mut buffered;
/// sink.access(TraceEvent::load(0x40, 8));
/// sink.flush(); // delivers the partial batch, then flushes the inner sink
/// ```
///
/// `flush` drains the buffer before forwarding, so a kernel's trailing
/// `sink.flush()` keeps its exact semantics. Events are delivered in order
/// with no batch-boundary effects — observationally identical to unbuffered
/// per-event delivery. Dropping the buffer also drains it (unless the
/// thread is panicking), so a partial final batch is never silently lost
/// even when a kernel forgets its trailing `flush`.
pub struct ChunkBuffer<'a> {
    inner: &'a mut dyn TraceSink,
    buf: [TraceEvent; CHUNK_EVENTS],
    len: usize,
}

impl<'a> ChunkBuffer<'a> {
    /// Wrap `inner`, buffering up to [`CHUNK_EVENTS`] events per delivery.
    pub fn new(inner: &'a mut dyn TraceSink) -> Self {
        Self {
            inner,
            buf: [TraceEvent::load(0, 0); CHUNK_EVENTS],
            len: 0,
        }
    }

    /// Deliver any buffered events now (without flushing the inner sink).
    pub fn drain(&mut self) {
        if self.len > 0 {
            self.inner.access_chunk(&self.buf[..self.len]);
            self.len = 0;
        }
    }
}

impl Drop for ChunkBuffer<'_> {
    fn drop(&mut self) {
        // On unwind the stream is already abandoned mid-kernel; delivering
        // a tail batch then would feed the inner sink a truncated stream
        // while its own invariants may be mid-violation.
        if !std::thread::panicking() {
            self.drain();
        }
    }
}

impl TraceSink for ChunkBuffer<'_> {
    #[inline]
    fn access(&mut self, ev: TraceEvent) {
        self.buf[self.len] = ev;
        self.len += 1;
        if self.len == CHUNK_EVENTS {
            self.inner.access_chunk(&self.buf);
            self.len = 0;
        }
    }

    fn access_chunk(&mut self, events: &[TraceEvent]) {
        self.drain();
        self.inner.access_chunk(events);
    }

    fn flush(&mut self) {
        self.drain();
        self.inner.flush();
    }
}

/// Counts loads, stores, and bytes.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CountingSink {
    /// Number of load events seen.
    pub loads: u64,
    /// Number of store events seen.
    pub stores: u64,
    /// Total bytes read.
    pub load_bytes: u64,
    /// Total bytes written.
    pub store_bytes: u64,
}

impl CountingSink {
    /// A fresh counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Loads + stores.
    pub fn total(&self) -> u64 {
        self.loads + self.stores
    }

    /// Fraction of references that are stores (0 when the stream is empty).
    pub fn store_fraction(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.stores as f64 / self.total() as f64
        }
    }
}

impl TraceSink for CountingSink {
    #[inline]
    fn access(&mut self, ev: TraceEvent) {
        match ev.kind {
            AccessKind::Load => {
                self.loads += 1;
                self.load_bytes += u64::from(ev.size);
            }
            AccessKind::Store => {
                self.stores += 1;
                self.store_bytes += u64::from(ev.size);
            }
        }
    }
}

/// Records every event in order. Only for tests and small traces — the
/// whole point of the online framework is to avoid doing this at scale.
#[derive(Debug, Default, Clone)]
pub struct RecordingSink {
    /// The recorded stream.
    pub events: Vec<TraceEvent>,
}

impl RecordingSink {
    /// A fresh recorder.
    pub fn new() -> Self {
        Self::default()
    }
}

impl TraceSink for RecordingSink {
    #[inline]
    fn access(&mut self, ev: TraceEvent) {
        self.events.push(ev);
    }
}

/// Per-region load/store profile — the measurement behind the NDM design's
/// address-space partitioning ("identify a contiguous range of addresses
/// that accounts for the bulk of the memory references").
#[derive(Debug, Clone)]
pub struct RegionProfiler {
    starts: Vec<u64>,
    ends: Vec<u64>,
    ids: Vec<RegionId>,
    /// Loads per region, indexed by [`RegionId`].
    pub loads: Vec<u64>,
    /// Stores per region, indexed by [`RegionId`].
    pub stores: Vec<u64>,
    /// Events that fell outside every registered region.
    pub unattributed: u64,
}

impl RegionProfiler {
    /// Build a profiler over the regions currently registered in `space`.
    pub fn new(space: &AddressSpace) -> Self {
        Self::from_regions(space.regions())
    }

    /// Build a profiler over an explicit region list (must be
    /// address-ordered, as produced by [`AddressSpace::regions`]).
    pub fn from_regions(regions: &[Region]) -> Self {
        let n = regions.iter().map(|r| r.id.index() + 1).max().unwrap_or(0);
        Self {
            starts: regions.iter().map(|r| r.start).collect(),
            ends: regions.iter().map(|r| r.end()).collect(),
            ids: regions.iter().map(|r| r.id).collect(),
            loads: vec![0; n],
            stores: vec![0; n],
            unattributed: 0,
        }
    }

    #[inline]
    fn locate(&self, addr: u64) -> Option<RegionId> {
        let idx = self.starts.partition_point(|&s| s <= addr);
        if idx == 0 {
            return None;
        }
        (addr < self.ends[idx - 1]).then(|| self.ids[idx - 1])
    }

    /// Total references attributed to region `id`.
    pub fn total(&self, id: RegionId) -> u64 {
        self.loads[id.index()] + self.stores[id.index()]
    }

    /// Regions sorted by total reference count, hottest first.
    pub fn hottest(&self) -> Vec<(RegionId, u64)> {
        let mut v: Vec<(RegionId, u64)> = (0..self.loads.len())
            .map(|i| (RegionId(i as u32), self.loads[i] + self.stores[i]))
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }
}

impl TraceSink for RegionProfiler {
    #[inline]
    fn access(&mut self, ev: TraceEvent) {
        match self.locate(ev.addr) {
            Some(id) => match ev.kind {
                AccessKind::Load => self.loads[id.index()] += 1,
                AccessKind::Store => self.stores[id.index()] += 1,
            },
            None => self.unattributed += 1,
        }
    }
}

/// Tracks the set of unique block-aligned addresses touched — a direct
/// working-set-size measurement at any granularity (cache line, page, …).
#[derive(Debug, Clone)]
pub struct WorkingSetSink {
    block_shift: u32,
    blocks: std::collections::HashSet<u64>,
}

impl WorkingSetSink {
    /// Track unique blocks of `block_bytes` (must be a power of two).
    pub fn new(block_bytes: u64) -> Self {
        assert!(
            block_bytes.is_power_of_two(),
            "block size must be a power of two"
        );
        Self {
            block_shift: block_bytes.trailing_zeros(),
            blocks: Default::default(),
        }
    }

    /// Number of unique blocks touched.
    pub fn unique_blocks(&self) -> u64 {
        self.blocks.len() as u64
    }

    /// Unique blocks × block size — the touched footprint in bytes.
    pub fn touched_bytes(&self) -> u64 {
        self.unique_blocks() << self.block_shift
    }
}

impl TraceSink for WorkingSetSink {
    #[inline]
    fn access(&mut self, ev: TraceEvent) {
        let first = ev.addr >> self.block_shift;
        let last = (ev.end().saturating_sub(1)) >> self.block_shift;
        for b in first..=last {
            self.blocks.insert(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::AddressSpace;
    use proptest::prelude::*;

    fn ev(addr: u64, kind: AccessKind) -> TraceEvent {
        TraceEvent {
            addr,
            size: 8,
            kind,
        }
    }

    #[test]
    fn counting_sink_counts() {
        let mut c = CountingSink::new();
        c.access(ev(0, AccessKind::Load));
        c.access(ev(8, AccessKind::Load));
        c.access(ev(16, AccessKind::Store));
        assert_eq!(c.loads, 2);
        assert_eq!(c.stores, 1);
        assert_eq!(c.load_bytes, 16);
        assert_eq!(c.store_bytes, 8);
        assert_eq!(c.total(), 3);
        assert!((c.store_fraction() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_counting_sink_fraction_is_zero() {
        assert_eq!(CountingSink::new().store_fraction(), 0.0);
    }

    #[test]
    fn region_profiler_attributes_accesses() {
        let mut space = AddressSpace::new();
        let a = space.alloc("a", 4096);
        let b = space.alloc("b", 4096);
        let mut p = RegionProfiler::new(&space);
        p.access(ev(a.start, AccessKind::Load));
        p.access(ev(a.start + 100, AccessKind::Store));
        p.access(ev(b.start + 8, AccessKind::Load));
        p.access(ev(0, AccessKind::Load)); // outside all regions
        assert_eq!(p.loads[a.id.index()], 1);
        assert_eq!(p.stores[a.id.index()], 1);
        assert_eq!(p.loads[b.id.index()], 1);
        assert_eq!(p.unattributed, 1);
        assert_eq!(p.total(a.id), 2);
        let hot = p.hottest();
        assert_eq!(hot[0].0, a.id);
    }

    #[test]
    fn dropping_a_chunk_buffer_delivers_the_partial_batch() {
        let mut counter = CountingSink::new();
        {
            let mut buffered = ChunkBuffer::new(&mut counter);
            for i in 0..(CHUNK_EVENTS as u64 + 5) {
                buffered.access(ev(i * 8, AccessKind::Load));
            }
            // no flush: one full batch was delivered, 5 events still buffered
        }
        assert_eq!(counter.loads, CHUNK_EVENTS as u64 + 5);
    }

    /// Pin how each sink treats an access that straddles a 64 B line:
    /// events flow through *unsplit* (splitting is the hierarchy's job at
    /// its own L1 block size), byte accounting uses the full size, and
    /// footprint-style sinks attribute every line the access touches.
    #[test]
    fn line_straddling_sizes_flow_through_sinks_unsplit() {
        let straddler = TraceEvent::store(60, 8); // touches lines 0 and 1

        let mut c = CountingSink::new();
        c.access(straddler);
        assert_eq!((c.stores, c.store_bytes), (1, 8));

        let mut w = WorkingSetSink::new(64);
        w.access(straddler);
        assert_eq!(w.unique_blocks(), 2);

        // region attribution is by start address, even when the access
        // extends past the region's end
        let mut space = AddressSpace::new();
        let a = space.alloc("a", 64);
        let mut p = RegionProfiler::new(&space);
        p.access(TraceEvent::store(a.end() - 4, 8));
        assert_eq!(p.stores[a.id.index()], 1);
        assert_eq!(p.unattributed, 0);

        // batching preserves the event verbatim — no size rewriting
        let mut rec = RecordingSink::new();
        {
            let mut buffered = ChunkBuffer::new(&mut rec);
            buffered.access(straddler);
        }
        assert_eq!(rec.events, vec![straddler]);
    }

    #[test]
    fn working_set_counts_unique_lines() {
        let mut w = WorkingSetSink::new(64);
        w.access(ev(0, AccessKind::Load));
        w.access(ev(8, AccessKind::Load)); // same line
        w.access(ev(64, AccessKind::Store)); // next line
        w.access(TraceEvent::load(60, 8)); // straddles lines 0 and 1
        assert_eq!(w.unique_blocks(), 2);
        assert_eq!(w.touched_bytes(), 128);
    }

    proptest! {
        /// The profiler never loses events: attributed + unattributed = total.
        #[test]
        fn profiler_conserves_events(addrs in proptest::collection::vec(0u64..0x1100_0000, 1..500)) {
            let mut space = AddressSpace::new();
            space.alloc("a", 65536);
            space.alloc("b", 65536);
            let mut p = RegionProfiler::new(&space);
            for &a in &addrs {
                p.access(ev(a, AccessKind::Load));
            }
            let attributed: u64 = p.loads.iter().sum::<u64>() + p.stores.iter().sum::<u64>();
            prop_assert_eq!(attributed + p.unattributed, addrs.len() as u64);
        }
    }
}
