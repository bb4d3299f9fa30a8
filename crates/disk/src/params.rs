//! Disk timing parameters.

use pm_sim::SimDuration;

use crate::{DiskGeometry, SeekModel};

/// The `(S, R, T)` mechanical timing constants of a disk.
///
/// * `seek` — the seek model; the paper uses [`SeekModel::Linear`]
///   (`S · |Δcylinder|`), noting that a linear model overestimates the
///   penalty; a settle+√d alternative is provided for ablation.
/// * `rotation_period` — one full revolution; rotational latency for a
///   non-sequential access is uniform over `[0, rotation_period)`, so the
///   paper's `R` (the *average* latency) is half of this.
/// * `transfer_per_block` — `T`, constant per block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskParams {
    /// Seek-time model (`S`).
    pub seek: SeekModel,
    /// Time for one full platter revolution (`2R`).
    pub rotation_period: SimDuration,
    /// Transfer time per block (`T`).
    pub transfer_per_block: SimDuration,
}

impl DiskParams {
    /// The paper's disk: `T = 2.16 ms`, `R = 8.33 ms` (16.66 ms revolution),
    /// `S = 0.03 ms/cylinder`.
    #[must_use]
    pub fn paper() -> Self {
        DiskParams {
            seek: SeekModel::paper(),
            rotation_period: SimDuration::from_millis_f64(16.66),
            transfer_per_block: SimDuration::from_millis_f64(2.16),
        }
    }

    /// Average rotational latency `R` (half a revolution).
    #[must_use]
    pub fn avg_rotational_latency(&self) -> SimDuration {
        self.rotation_period / 2
    }

    /// Seek time for a given cylinder distance.
    #[must_use]
    pub fn seek_time(&self, cylinder_distance: u32) -> SimDuration {
        self.seek.seek_time(cylinder_distance)
    }

    /// Transfer time for `n` blocks.
    #[must_use]
    pub fn transfer_time(&self, n: u64) -> SimDuration {
        self.transfer_per_block * n
    }
}

/// A complete disk specification: geometry plus timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskSpec {
    /// Physical layout.
    pub geometry: DiskGeometry,
    /// Timing constants.
    pub params: DiskParams,
}

impl DiskSpec {
    /// The paper's disk specification.
    #[must_use]
    pub fn paper() -> Self {
        DiskSpec {
            geometry: DiskGeometry::paper(),
            params: DiskParams::paper(),
        }
    }

    /// The paper's physical drive re-blocked to a different logical block
    /// size: cylinder byte capacity (229,376 B), rotation, seek, and the
    /// sustained transfer rate (4096 B / 2.16 ms) are all preserved; only
    /// the unit of transfer changes. Lets experiments sweep the block size
    /// the paper fixes at 4 KiB (the knob Kwan & Baer studied).
    ///
    /// # Panics
    ///
    /// Panics if `block_bytes` is zero or does not divide the cylinder
    /// capacity.
    #[must_use]
    pub fn paper_with_block_bytes(block_bytes: u32) -> Self {
        assert!(block_bytes > 0, "block size must be positive");
        let paper_geom = DiskGeometry::paper();
        let cylinder_bytes = paper_geom.blocks_per_cylinder() as u32 * paper_geom.block_bytes;
        assert!(
            cylinder_bytes % block_bytes == 0,
            "block size {block_bytes} must divide the cylinder capacity {cylinder_bytes}"
        );
        let geometry = DiskGeometry {
            heads: 1,
            blocks_per_track: cylinder_bytes / block_bytes,
            cylinders: paper_geom.cylinders,
            block_bytes,
        };
        let paper_params = DiskParams::paper();
        // Scale T with the block size at the same sustained rate.
        let transfer_ns =
            paper_params.transfer_per_block.as_nanos() as u128 * u128::from(block_bytes) / 4096;
        DiskSpec {
            geometry,
            params: DiskParams {
                transfer_per_block: SimDuration::from_nanos(transfer_ns as u64),
                ..paper_params
            },
        }
    }
}

impl Default for DiskSpec {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants() {
        let p = DiskParams::paper();
        assert_eq!(p.transfer_per_block.as_nanos(), 2_160_000);
        assert_eq!(p.rotation_period.as_nanos(), 16_660_000);
        assert_eq!(p.avg_rotational_latency().as_nanos(), 8_330_000);
        assert_eq!(p.seek.linear_per_cylinder().unwrap().as_nanos(), 30_000);
    }

    #[test]
    fn seek_time_is_linear() {
        let p = DiskParams::paper();
        assert_eq!(p.seek_time(0), SimDuration::ZERO);
        assert_eq!(p.seek_time(100).as_millis_f64(), 3.0);
    }

    #[test]
    fn transfer_time_scales_with_blocks() {
        let p = DiskParams::paper();
        assert!((p.transfer_time(10).as_millis_f64() - 21.6).abs() < 1e-9);
    }

    #[test]
    fn default_spec_is_paper() {
        assert_eq!(DiskSpec::default(), DiskSpec::paper());
    }

    #[test]
    fn reblocked_spec_preserves_the_drive() {
        for bs in [512u32, 1024, 2048, 4096, 8192, 16384] {
            let spec = DiskSpec::paper_with_block_bytes(bs);
            // Same byte capacity per cylinder and per disk.
            assert_eq!(
                spec.geometry.blocks_per_cylinder() * u64::from(bs),
                16 * 32 * 512
            );
            assert_eq!(
                spec.geometry.capacity_blocks() * u64::from(bs),
                DiskSpec::paper().geometry.capacity_blocks() * 4096
            );
            // Same sustained transfer rate.
            let rate = f64::from(bs) / spec.params.transfer_per_block.as_millis_f64();
            assert!((rate - 4096.0 / 2.16).abs() < 1e-6, "bs={bs} rate={rate}");
            // Mechanics unchanged.
            assert_eq!(
                spec.params.rotation_period,
                DiskParams::paper().rotation_period
            );
            assert_eq!(spec.params.seek, DiskParams::paper().seek);
        }
    }

    #[test]
    fn reblocked_4096_matches_paper_timing() {
        let spec = DiskSpec::paper_with_block_bytes(4096);
        assert_eq!(spec.params, DiskParams::paper());
        assert_eq!(
            spec.geometry.blocks_per_cylinder(),
            DiskGeometry::paper().blocks_per_cylinder()
        );
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn odd_block_size_rejected() {
        let _ = DiskSpec::paper_with_block_bytes(3000);
    }
}
