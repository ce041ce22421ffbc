//! The NDM design's partitioned DRAM + NVM main memory.
//!
//! "This design uses both NVM and DRAM as a partitioned main memory in
//! which data objects are placed where they best fit." Requests are routed
//! by address range; the per-region counters collected here are the oracle
//! partitioner's input: any alternative placement can be re-costed
//! analytically without re-simulating, because routing does not change the
//! cache behaviour above.

use memsim_cache::{LevelStats, MainMemory};
use memsim_tech::Technology;
use memsim_trace::Region;

/// Where a region's data lives in the NDM design.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Placement {
    /// In the DRAM partition (the default for unattributed traffic).
    #[default]
    Dram,
    /// In the NVM partition.
    Nvm,
}

/// Per-region request counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegionTraffic {
    /// Fetch requests that arrived for this region.
    pub loads: u64,
    /// Writeback requests that arrived for this region.
    pub stores: u64,
    /// Bytes fetched.
    pub bytes_loaded: u64,
    /// Bytes written.
    pub bytes_stored: u64,
}

/// DRAM + NVM side by side behind the last cache level, with an
/// address-range partition deciding which device serves each request.
#[derive(Debug, Clone)]
pub struct PartitionedMemory {
    nvm_tech: Technology,
    starts: Vec<u64>,
    ends: Vec<u64>,
    lens: Vec<u64>,
    placement: Vec<Placement>,
    /// Per-region traffic, indexed like the region list.
    traffic: Vec<RegionTraffic>,
    /// Traffic that fell outside every region (served by DRAM).
    pub unattributed: RegionTraffic,
    dram: LevelStats,
    nvm: LevelStats,
}

impl PartitionedMemory {
    /// Build over the address-ordered `regions` of the workload's address
    /// space, everything initially placed in DRAM, with `nvm_tech` backing
    /// the NVM partition.
    pub fn new(regions: &[Region], nvm_tech: Technology) -> Self {
        Self {
            nvm_tech,
            starts: regions.iter().map(|r| r.start).collect(),
            ends: regions.iter().map(|r| r.end()).collect(),
            lens: regions.iter().map(|r| r.len).collect(),
            placement: vec![Placement::Dram; regions.len()],
            traffic: vec![RegionTraffic::default(); regions.len()],
            unattributed: RegionTraffic::default(),
            dram: LevelStats::new("DRAM(part)"),
            nvm: LevelStats::new(nvm_tech.name()),
        }
    }

    /// Number of registered regions.
    pub fn region_count(&self) -> usize {
        self.placement.len()
    }

    /// The NVM technology of the NVM partition.
    pub fn nvm_tech(&self) -> Technology {
        self.nvm_tech
    }

    /// Place region `idx` (index in the region list) on `where_`.
    pub fn place(&mut self, idx: usize, where_: Placement) {
        self.placement[idx] = where_;
    }

    /// Current placement of region `idx`.
    pub fn placement(&self, idx: usize) -> Placement {
        self.placement[idx]
    }

    /// Per-region traffic counters.
    pub fn traffic(&self) -> &[RegionTraffic] {
        &self.traffic
    }

    /// Aggregate statistics of the DRAM partition.
    pub fn dram_stats(&self) -> &LevelStats {
        &self.dram
    }

    /// Aggregate statistics of the NVM partition.
    pub fn nvm_stats(&self) -> &LevelStats {
        &self.nvm
    }

    /// Bytes of capacity required by the DRAM partition under the current
    /// placement (the static-energy model charges DRAM refresh only for
    /// this, plus unattributed spill space).
    pub fn dram_partition_bytes(&self) -> u64 {
        self.lens
            .iter()
            .zip(&self.placement)
            .filter(|(_, p)| **p == Placement::Dram)
            .map(|(l, _)| *l)
            .sum()
    }

    /// Bytes of capacity required by the NVM partition.
    pub fn nvm_partition_bytes(&self) -> u64 {
        self.lens
            .iter()
            .zip(&self.placement)
            .filter(|(_, p)| **p == Placement::Nvm)
            .map(|(l, _)| *l)
            .sum()
    }

    #[inline]
    fn locate(&self, addr: u64) -> Option<usize> {
        let idx = self.starts.partition_point(|&s| s <= addr);
        if idx == 0 {
            return None;
        }
        (addr < self.ends[idx - 1]).then_some(idx - 1)
    }
}

impl MainMemory for PartitionedMemory {
    fn load(&mut self, addr: u64, bytes: u32) {
        let target = match self.locate(addr) {
            Some(i) => {
                self.traffic[i].loads += 1;
                self.traffic[i].bytes_loaded += u64::from(bytes);
                self.placement[i]
            }
            None => {
                self.unattributed.loads += 1;
                self.unattributed.bytes_loaded += u64::from(bytes);
                Placement::Dram
            }
        };
        let stats = match target {
            Placement::Dram => &mut self.dram,
            Placement::Nvm => &mut self.nvm,
        };
        stats.loads += 1;
        stats.bytes_loaded += u64::from(bytes);
    }

    fn store(&mut self, addr: u64, bytes: u32) {
        let target = match self.locate(addr) {
            Some(i) => {
                self.traffic[i].stores += 1;
                self.traffic[i].bytes_stored += u64::from(bytes);
                self.placement[i]
            }
            None => {
                self.unattributed.stores += 1;
                self.unattributed.bytes_stored += u64::from(bytes);
                Placement::Dram
            }
        };
        let stats = match target {
            Placement::Dram => &mut self.dram,
            Placement::Nvm => &mut self.nvm,
        };
        stats.stores += 1;
        stats.bytes_stored += u64::from(bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim_trace::AddressSpace;
    use proptest::prelude::*;

    fn space_with(names_lens: &[(&str, u64)]) -> AddressSpace {
        let mut s = AddressSpace::new();
        for (n, l) in names_lens {
            s.alloc(n, *l);
        }
        s
    }

    #[test]
    fn routes_by_placement() {
        let s = space_with(&[("a", 8192), ("b", 8192)]);
        let regions = s.regions().to_vec();
        let mut m = PartitionedMemory::new(&regions, Technology::Pcm);
        m.place(1, Placement::Nvm);

        m.load(regions[0].start, 64);
        m.load(regions[1].start, 64);
        m.store(regions[1].start + 128, 64);

        assert_eq!(m.dram_stats().loads, 1);
        assert_eq!(m.nvm_stats().loads, 1);
        assert_eq!(m.nvm_stats().stores, 1);
        assert_eq!(m.traffic()[0].loads, 1);
        assert_eq!(m.traffic()[1].loads, 1);
        assert_eq!(m.traffic()[1].stores, 1);
    }

    #[test]
    fn unattributed_goes_to_dram() {
        let s = space_with(&[("a", 4096)]);
        let mut m = PartitionedMemory::new(s.regions(), Technology::SttRam);
        m.load(0, 64); // below every region
        m.store(u64::MAX - 64, 64); // above every region
        assert_eq!(m.unattributed.loads, 1);
        assert_eq!(m.unattributed.stores, 1);
        assert_eq!(m.dram_stats().loads, 1);
        assert_eq!(m.dram_stats().stores, 1);
        assert_eq!(m.nvm_stats().accesses(), 0);
    }

    #[test]
    fn partition_capacities_follow_placement() {
        let s = space_with(&[("a", 1000), ("b", 3000), ("c", 5000)]);
        let mut m = PartitionedMemory::new(s.regions(), Technology::Pcm);
        assert_eq!(m.dram_partition_bytes(), 9000);
        assert_eq!(m.nvm_partition_bytes(), 0);
        m.place(1, Placement::Nvm);
        assert_eq!(m.dram_partition_bytes(), 6000);
        assert_eq!(m.nvm_partition_bytes(), 3000);
        m.place(0, Placement::Nvm);
        m.place(2, Placement::Nvm);
        assert_eq!(m.dram_partition_bytes(), 0);
        assert_eq!(m.nvm_partition_bytes(), 9000);
    }

    proptest! {
        /// DRAM + NVM aggregate counters always equal total requests, and
        /// per-region traffic + unattributed equals the same total.
        #[test]
        fn conservation(
            ops in proptest::collection::vec((0u64..0x1004_0000, proptest::bool::ANY), 1..300),
            nvm_mask in 0u8..8,
        ) {
            let s = space_with(&[("a", 65536), ("b", 65536), ("c", 65536)]);
            let mut m = PartitionedMemory::new(s.regions(), Technology::FeRam);
            for i in 0..3 {
                if nvm_mask & (1 << i) != 0 {
                    m.place(i, Placement::Nvm);
                }
            }
            for &(addr, is_store) in &ops {
                if is_store { m.store(addr, 64) } else { m.load(addr, 64) }
            }
            let total = ops.len() as u64;
            prop_assert_eq!(m.dram_stats().accesses() + m.nvm_stats().accesses(), total);
            let regional: u64 = m.traffic().iter().map(|t| t.loads + t.stores).sum();
            let un = m.unattributed.loads + m.unattributed.stores;
            prop_assert_eq!(regional + un, total);
        }
    }
}
