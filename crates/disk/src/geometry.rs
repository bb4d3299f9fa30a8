//! Disk geometry: mapping block addresses to cylinders.

/// A block address on a single disk (zero-based, in units of one block).
///
/// Blocks are laid out cylinder-by-cylinder: block `b` lives on cylinder
/// `b / blocks_per_cylinder`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockAddr(pub u64);

/// A cylinder index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Cylinder(pub u32);

impl BlockAddr {
    /// Address `count` blocks past this one.
    #[must_use]
    pub fn offset(self, count: u64) -> BlockAddr {
        BlockAddr(self.0 + count)
    }
}

impl Cylinder {
    /// Absolute cylinder distance to another cylinder.
    #[must_use]
    pub fn distance(self, other: Cylinder) -> u32 {
        self.0.abs_diff(other.0)
    }
}

/// Physical layout of one disk, expressed in blocks.
///
/// The paper's disk stores 512-byte sectors (16 heads × 32 sectors/track)
/// and is re-modeled with 4096-byte sectors as 4 heads × 16 sectors/track
/// so that cylinder capacity is preserved: **64 blocks per cylinder**.
/// [`DiskGeometry::paper`] builds that configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskGeometry {
    /// Number of read/write heads (data surfaces).
    pub heads: u32,
    /// Blocks (modeled sectors) per track.
    pub blocks_per_track: u32,
    /// Number of cylinders.
    pub cylinders: u32,
    /// Block size in bytes (informational; timing uses `DiskParams`).
    pub block_bytes: u32,
}

impl DiskGeometry {
    /// The paper's re-blocked RA8x geometry: 4 heads, 16 sectors per track,
    /// 4096-byte blocks, 64 blocks/cylinder. 840 cylinders is enough to
    /// hold the largest single-disk workload in the paper (50 runs × 1000
    /// blocks = 781.25 cylinders).
    #[must_use]
    pub const fn paper() -> Self {
        DiskGeometry {
            heads: 4,
            blocks_per_track: 16,
            cylinders: 840,
            block_bytes: 4096,
        }
    }

    /// Blocks per cylinder (`heads × blocks_per_track`).
    #[must_use]
    pub const fn blocks_per_cylinder(&self) -> u64 {
        self.heads as u64 * self.blocks_per_track as u64
    }

    /// Total block capacity of the disk.
    #[must_use]
    pub const fn capacity_blocks(&self) -> u64 {
        self.blocks_per_cylinder() * self.cylinders as u64
    }

    /// Cylinder containing `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is beyond the disk's capacity.
    #[must_use]
    pub fn cylinder_of(&self, addr: BlockAddr) -> Cylinder {
        assert!(
            addr.0 < self.capacity_blocks(),
            "block {} beyond disk capacity {}",
            addr.0,
            self.capacity_blocks()
        );
        // The divisor is a runtime value the compiler cannot strength-
        // reduce, yet every request service computes a cylinder. All
        // realistic geometries (including the paper's 64-block cylinders)
        // have power-of-two cylinder capacity, so shift in that case.
        let bpc = self.blocks_per_cylinder();
        let cyl = if bpc.is_power_of_two() {
            addr.0 >> bpc.trailing_zeros()
        } else {
            addr.0 / bpc
        };
        Cylinder(cyl as u32)
    }

    /// Whether a span of `len` blocks starting at `addr` fits on the disk.
    #[must_use]
    pub fn contains_span(&self, addr: BlockAddr, len: u64) -> bool {
        addr.0
            .checked_add(len)
            .is_some_and(|end| end <= self.capacity_blocks())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_geometry_has_64_blocks_per_cylinder() {
        let g = DiskGeometry::paper();
        assert_eq!(g.blocks_per_cylinder(), 64);
        // Cylinder byte capacity matches the original 16×32×512 layout.
        assert_eq!(
            g.blocks_per_cylinder() * g.block_bytes as u64,
            16 * 32 * 512
        );
    }

    #[test]
    fn paper_geometry_fits_fifty_runs() {
        let g = DiskGeometry::paper();
        assert!(g.capacity_blocks() >= 50 * 1000);
    }

    #[test]
    fn cylinder_mapping() {
        let g = DiskGeometry::paper();
        assert_eq!(g.cylinder_of(BlockAddr(0)), Cylinder(0));
        assert_eq!(g.cylinder_of(BlockAddr(63)), Cylinder(0));
        assert_eq!(g.cylinder_of(BlockAddr(64)), Cylinder(1));
        // A 1000-block run spans 15.625 cylinders, as in the paper.
        assert_eq!(g.cylinder_of(BlockAddr(999)), Cylinder(15));
        assert_eq!(g.cylinder_of(BlockAddr(1000)), Cylinder(15));
    }

    #[test]
    #[should_panic(expected = "beyond disk capacity")]
    fn out_of_range_block_panics() {
        let g = DiskGeometry::paper();
        let _ = g.cylinder_of(BlockAddr(g.capacity_blocks()));
    }

    #[test]
    fn span_containment() {
        let g = DiskGeometry::paper();
        let cap = g.capacity_blocks();
        assert!(g.contains_span(BlockAddr(0), cap));
        assert!(!g.contains_span(BlockAddr(1), cap));
        assert!(g.contains_span(BlockAddr(cap - 1), 1));
        assert!(!g.contains_span(BlockAddr(cap), 1));
        assert!(!g.contains_span(BlockAddr(u64::MAX), 2));
    }

    #[test]
    fn cylinder_distance_is_symmetric() {
        assert_eq!(Cylinder(5).distance(Cylinder(9)), 4);
        assert_eq!(Cylinder(9).distance(Cylinder(5)), 4);
        assert_eq!(Cylinder(7).distance(Cylinder(7)), 0);
    }

    #[test]
    fn block_offset() {
        assert_eq!(BlockAddr(10).offset(5), BlockAddr(15));
    }
}
