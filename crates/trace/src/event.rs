//! Trace events and the streaming sink interface.

/// Whether a memory reference reads or writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A read of memory (CPU load, or a block fetch issued by a cache fill).
    Load,
    /// A write to memory (CPU store, or a dirty-block writeback).
    Store,
}

impl AccessKind {
    /// `true` for [`AccessKind::Store`].
    #[inline]
    pub fn is_store(self) -> bool {
        matches!(self, AccessKind::Store)
    }

    /// `true` for [`AccessKind::Load`].
    #[inline]
    pub fn is_load(self) -> bool {
        matches!(self, AccessKind::Load)
    }
}

/// One memory reference in the application's address stream.
///
/// `size` is the number of bytes touched (the element size for container
/// accesses). Events never cross a cache-line boundary when produced by the
/// instrumented containers, because [`crate::AddressSpace`] aligns every
/// region and Rust element types are naturally aligned within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual byte address of the first byte touched.
    pub addr: u64,
    /// Number of bytes touched.
    pub size: u32,
    /// Read or write.
    pub kind: AccessKind,
}

impl TraceEvent {
    /// Convenience constructor for a load event.
    #[inline]
    pub fn load(addr: u64, size: u32) -> Self {
        Self {
            addr,
            size,
            kind: AccessKind::Load,
        }
    }

    /// Convenience constructor for a store event.
    #[inline]
    pub fn store(addr: u64, size: u32) -> Self {
        Self {
            addr,
            size,
            kind: AccessKind::Store,
        }
    }

    /// Exclusive end address of the touched range.
    #[inline]
    pub fn end(&self) -> u64 {
        self.addr + u64::from(self.size)
    }

    /// The numbers of the `1 << block_shift`-byte blocks the event
    /// touches: every block holding one of its bytes. A size-0 event
    /// touches the block holding `addr`, unless `addr` sits on a block
    /// boundary (address 0 included), where it touches nothing. That is
    /// the rule the cache hierarchy walks by, so the stream analyses that
    /// count blocks with this range count the references it walks.
    #[inline]
    pub fn blocks(&self, block_shift: u32) -> std::ops::Range<u64> {
        let end = self.end();
        let partial = end & ((1u64 << block_shift) - 1) != 0;
        (self.addr >> block_shift)..(end >> block_shift) + u64::from(partial)
    }
}

/// A consumer of the online address stream.
///
/// Implementors include the cache hierarchy simulator (in `memsim-cache` /
/// `memsim-core`) and the composable utility sinks in [`crate::sinks`].
pub trait TraceSink {
    /// Consume one memory reference.
    fn access(&mut self, ev: TraceEvent);

    /// Consume a batch of references. Equivalent to calling
    /// [`TraceSink::access`] on each event in order — and the default does
    /// exactly that — but a sink with a hot per-event path (the cache
    /// hierarchy) overrides it to pay one virtual dispatch per batch
    /// instead of per event. Implementors must preserve per-event
    /// semantics: same events, same order, no batch-boundary effects.
    fn access_chunk(&mut self, events: &[TraceEvent]) {
        for &ev in events {
            self.access(ev);
        }
    }

    /// Signal the end of the stream. Sinks that buffer (e.g. sampling
    /// aggregators) finalize here. The default does nothing.
    fn flush(&mut self) {}
}

/// A sink that forwards every event to a closure.
///
/// Useful in tests and for ad-hoc filtering.
pub struct FnSink<F: FnMut(TraceEvent)>(pub F);

impl<F: FnMut(TraceEvent)> TraceSink for FnSink<F> {
    #[inline]
    fn access(&mut self, ev: TraceEvent) {
        (self.0)(ev)
    }
}

impl TraceSink for Box<dyn TraceSink + '_> {
    #[inline]
    fn access(&mut self, ev: TraceEvent) {
        (**self).access(ev)
    }

    fn access_chunk(&mut self, events: &[TraceEvent]) {
        (**self).access_chunk(events)
    }

    fn flush(&mut self) {
        (**self).flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_predicates() {
        assert!(AccessKind::Load.is_load());
        assert!(!AccessKind::Load.is_store());
        assert!(AccessKind::Store.is_store());
        assert!(!AccessKind::Store.is_load());
    }

    #[test]
    fn event_constructors() {
        let l = TraceEvent::load(0x100, 8);
        assert_eq!(l.kind, AccessKind::Load);
        assert_eq!(l.end(), 0x108);
        let s = TraceEvent::store(0x200, 4);
        assert_eq!(s.kind, AccessKind::Store);
        assert_eq!(s.end(), 0x204);
    }

    #[test]
    fn blocks_cover_every_touched_byte_and_size_zero_follows_the_hierarchy() {
        let blocks = |ev: TraceEvent| ev.blocks(6).collect::<Vec<u64>>();
        assert_eq!(blocks(TraceEvent::load(0, 8)), vec![0]);
        assert_eq!(blocks(TraceEvent::load(56, 8)), vec![0]);
        assert_eq!(blocks(TraceEvent::store(60, 8)), vec![0, 1]);
        assert_eq!(blocks(TraceEvent::load(64, 129)), vec![1, 2, 3]);
        // size 0: nothing on a block boundary, address 0 included
        assert!(blocks(TraceEvent::load(0, 0)).is_empty());
        assert!(blocks(TraceEvent::load(64, 0)).is_empty());
        assert_eq!(blocks(TraceEvent::load(65, 0)), vec![1]);
        assert_eq!(blocks(TraceEvent::load(127, 0)), vec![1]);
        // the highest byte an event can touch (its end is u64::MAX),
        // with one-byte blocks
        assert_eq!(
            TraceEvent::load(u64::MAX - 1, 1).blocks(0),
            u64::MAX - 1..u64::MAX
        );
    }

    #[test]
    fn fn_sink_forwards() {
        let mut seen = Vec::new();
        {
            let mut sink = FnSink(|ev: TraceEvent| seen.push(ev.addr));
            sink.access(TraceEvent::load(1, 8));
            sink.access(TraceEvent::store(2, 8));
            sink.flush();
        }
        assert_eq!(seen, vec![1, 2]);
    }

    #[test]
    fn boxed_sink_dispatches() {
        struct Probe(u64);
        impl TraceSink for Probe {
            fn access(&mut self, _: TraceEvent) {
                self.0 += 1;
            }
        }
        let mut boxed: Box<dyn TraceSink> = Box::new(Probe(0));
        boxed.access(TraceEvent::load(0, 8));
        boxed.flush();
    }
}
