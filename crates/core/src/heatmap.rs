//! The generalization study: Figures 9 and 10.
//!
//! "The maps are generated using the execution profile of all the
//! benchmarks for the NMM design (512 MB DRAM, 512 B page size) and scale
//! DRAM latency and energy costs with respect to DRAM." One simulation per
//! workload supplies the execution profile; every (read ×, write ×) cell
//! is then costed analytically.

use crate::configs::{n_by_name, NConfig};
use crate::design::{sram_costs, Design, MEM_NAME};
use crate::experiments::ExperimentCtx;
use crate::model::{LevelCost, Metrics};
use crate::runner::SweepError;
use memsim_cache::LevelStats;
use memsim_tech::{Multipliers, TechParams, Technology};

/// Which per-operation cost the two heat-map axes scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// Scale read/write latency; report normalized runtime (Figure 9).
    Latency,
    /// Scale read/write energy per bit; report normalized energy (Figure 10).
    Energy,
}

/// A computed heat map.
#[derive(Debug, Clone)]
pub struct HeatmapData {
    /// Figure title.
    pub title: String,
    /// Read-cost multipliers (columns).
    pub read_mults: Vec<f64>,
    /// Write-cost multipliers (rows).
    pub write_mults: Vec<f64>,
    /// `grid[w][r]` = average normalized metric at (write ×, read ×),
    /// averaged over the workloads.
    pub grid: Vec<Vec<f64>>,
}

impl HeatmapData {
    /// Value at (read multiplier index, write multiplier index).
    pub fn at(&self, read_idx: usize, write_idx: usize) -> f64 {
        self.grid[write_idx][read_idx]
    }
}

/// The multiplier ladder the paper's maps span (1× to 20×).
pub fn default_multipliers() -> Vec<f64> {
    vec![1.0, 2.0, 5.0, 10.0, 15.0, 20.0]
}

/// The DRAM page cache both maps profile: N6 (512 MB, 512 B pages).
fn profiled_config() -> NConfig {
    n_by_name("N6").expect("N6 exists")
}

/// The one design both maps simulate besides the baseline: NMM at N6.
/// Its execution profile is what every cell re-costs.
pub fn heatmap_design() -> Design {
    Design::Nmm {
        nvm: Technology::Pcm,
        config: profiled_config(),
    }
}

/// Compute a heat map for `axis`, averaging over the context's workloads.
///
/// The hypothetical memory is DRAM with the given axis scaled; the DRAM
/// page cache stays real DRAM; the hierarchy is the paper's NMM at N6
/// (512 MB, 512 B pages).
///
/// The two simulated points per workload (baseline and NMM@N6) are one
/// grid under the context's threads, sweep and run options: each
/// workload's two structures are walked from one run of its kernel (or,
/// sampled, from the interval-sampled replay, and every cell is costed
/// from the extrapolated counters), and with a sweep context the points
/// are journaled, served from `--resume`, and fault-isolated like any
/// grid point.
pub fn heatmap(
    ctx: &ExperimentCtx,
    axis: Axis,
    read_mults: &[f64],
    write_mults: &[f64],
) -> Result<HeatmapData, SweepError> {
    let n6 = profiled_config();
    // one simulation (structure of NMM@N6) + baseline per workload
    let results = ctx.grid(&ctx.points(&[heatmap_design()]))?;
    let mut grid = vec![vec![0.0f64; read_mults.len()]; write_mults.len()];
    for pair in results.chunks(2) {
        let (base, nmm) = (&pair[0], &pair[1]);
        let run = &nmm.run;
        // fixed costs: SRAM levels + the DRAM page cache
        let mut fixed = sram_costs(&ctx.scale);
        // static on the paper-scale N6 capacity (512 MB)
        fixed.push(LevelCost::from_tech(
            "L4",
            &TechParams::of(Technology::Dram),
            n6.capacity_bytes,
        ));
        let stats: Vec<&LevelStats> = run.all_levels();
        for (wi, wm) in write_mults.iter().enumerate() {
            for (ri, rm) in read_mults.iter().enumerate() {
                let m = match axis {
                    Axis::Latency => Multipliers::latency(*rm, *wm),
                    Axis::Energy => Multipliers::energy(*rm, *wm),
                };
                let mem_params = TechParams::of(Technology::Dram).scaled(m);
                // the hypothetical memory is non-volatile: no refresh power
                let mut mem_cost = LevelCost::from_tech(MEM_NAME, &mem_params, run.footprint_bytes);
                // the hypothetical technology is assumed non-volatile
                mem_cost.static_w = 0.0;
                let mut costs = fixed.clone();
                costs.push(mem_cost);
                let pairs: Vec<_> = stats.iter().copied().zip(costs.iter()).collect();
                let metrics = Metrics::compute(&pairs, run.total_refs);
                let norm = metrics.normalized_to(&base.metrics);
                grid[wi][ri] += match axis {
                    Axis::Latency => norm.time,
                    Axis::Energy => norm.energy,
                } / ctx.workloads.len() as f64;
            }
        }
    }
    Ok(HeatmapData {
        title: match axis {
            Axis::Latency => "Normalized runtime of NMM vs read/write latency ×".into(),
            Axis::Energy => "Normalized energy of NMM vs read/write energy ×".into(),
        },
        read_mults: read_mults.to_vec(),
        write_mults: write_mults.to_vec(),
        grid,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::runner::SimCache;
    use crate::scale::Scale;
    use memsim_workloads::WorkloadKind;

    fn cg_map(axis: Axis, ladder: &[f64]) -> HeatmapData {
        let cache = SimCache::new();
        let ctx = ExperimentCtx::new(Scale::mini(), &cache).with_workloads(&[WorkloadKind::Cg]);
        heatmap(&ctx, axis, ladder, ladder).unwrap()
    }

    fn quick_map(axis: Axis) -> HeatmapData {
        cg_map(axis, &[1.0, 5.0, 20.0])
    }

    #[test]
    fn latency_map_monotone_in_both_axes() {
        let m = quick_map(Axis::Latency);
        for w in 0..3 {
            for r in 0..2 {
                assert!(
                    m.at(r, w) <= m.at(r + 1, w) + 1e-12,
                    "not monotone in read latency"
                );
            }
        }
        for r in 0..3 {
            for w in 0..2 {
                assert!(
                    m.at(r, w) <= m.at(r, w + 1) + 1e-12,
                    "not monotone in write latency"
                );
            }
        }
    }

    #[test]
    fn read_latency_matters_more_than_write() {
        // "an increase in read latency has higher impact than … write"
        let m = quick_map(Axis::Latency);
        let read_20x = m.at(2, 0); // read ×20, write ×1
        let write_20x = m.at(0, 2); // read ×1, write ×20
        assert!(read_20x > write_20x, "read {read_20x} vs write {write_20x}");
    }

    #[test]
    fn energy_map_monotone_and_read_dominant() {
        let m = quick_map(Axis::Energy);
        assert!(m.at(2, 0) >= m.at(0, 0));
        assert!(
            m.at(2, 0) > m.at(0, 2),
            "read energy dominates write energy"
        );
    }

    #[test]
    fn unit_cell_is_the_cheapest() {
        // at 1×/1× the memory is DRAM without refresh behind a DRAM cache:
        // the cheapest cell of the whole map, and near the baseline (the
        // mini scale compresses the refresh savings that make it dip below
        // 1.0 at paper ratios — see EXPERIMENTS.md for the demo-scale map)
        let m = quick_map(Axis::Energy);
        let origin = m.at(0, 0);
        for row in &m.grid {
            for v in row {
                assert!(origin <= v + 1e-12, "origin {origin} not the minimum ({v})");
            }
        }
        assert!(
            origin < 1.3,
            "1×/1× cell should be near the baseline: {origin}"
        );
    }

    #[test]
    fn extreme_boundary_point_lands_in_last_cell() {
        // Regression: the max-valued design point must land in the *last*
        // cell of the map, not fall off the edge or alias into an interior
        // cell. The grid is indexed grid[write][read]; a ladder of n
        // multipliers must produce exactly n rows × n columns with the
        // (max read ×, max write ×) point present and equal to the
        // monotone maximum of the whole map.
        let ladder = [1.0, 20.0, 1000.0];
        let m = cg_map(Axis::Latency, &ladder);
        assert_eq!(m.grid.len(), ladder.len());
        for row in &m.grid {
            assert_eq!(row.len(), ladder.len());
        }
        let corner = m.at(ladder.len() - 1, ladder.len() - 1);
        for row in &m.grid {
            for v in row {
                assert!(
                    *v <= corner + 1e-12,
                    "extreme cell {corner} not the map maximum ({v})"
                );
            }
        }
        // a 1000× read latency must actually register: far above origin
        assert!(corner > m.at(0, 0) * 2.0, "boundary cell did not register");
    }

    #[test]
    fn default_ladder() {
        let d = default_multipliers();
        assert_eq!(d.first(), Some(&1.0));
        assert_eq!(d.last(), Some(&20.0));
        assert!(d.windows(2).all(|w| w[0] < w[1]));
    }
}
