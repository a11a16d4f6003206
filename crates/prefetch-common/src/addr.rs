//! Address arithmetic: byte addresses, cache-block addresses, spatial regions.
//!
//! The Gaze paper works at three granularities:
//!
//! * the **byte address** of a load (`Addr`),
//! * the **cache block** (64 B line) the load touches (`BlockAddr`),
//! * the **spatial region** (4 KB page by default) the block belongs to
//!   (`RegionId`), together with the block's **offset** inside the region.
//!
//! [`RegionGeometry`] bundles the region and block sizes so that the same
//! prefetcher code can operate on 512 B–64 KB regions (needed by the Fig. 17
//! and Fig. 18 sensitivity experiments and by baselines that use 2 KB
//! regions).

use std::fmt;

/// A byte address in the (physical or virtual) address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(pub u64);

impl Addr {
    /// Creates an address from a raw byte value.
    ///
    /// ```
    /// use prefetch_common::addr::Addr;
    /// let a = Addr::new(0x40);
    /// assert_eq!(a.raw(), 0x40);
    /// ```
    pub fn new(raw: u64) -> Self {
        Addr(raw)
    }

    /// The raw byte address.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Address of the cache block containing this byte (64 B lines).
    pub fn block(self) -> BlockAddr {
        BlockAddr(self.0 >> BLOCK_SHIFT)
    }

    /// Returns the address offset by `bytes` (may be negative).
    pub fn offset_by(self, bytes: i64) -> Addr {
        Addr(self.0.wrapping_add(bytes as u64))
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl From<u64> for Addr {
    fn from(raw: u64) -> Self {
        Addr(raw)
    }
}

/// Default cache-block size in bytes (a 64 B line, as in Table II).
pub const BLOCK_SIZE: u64 = 64;
/// log2 of [`BLOCK_SIZE`].
pub const BLOCK_SHIFT: u32 = 6;
/// Default spatial-region size in bytes (a 4 KB physical page).
pub const PAGE_SIZE: u64 = 4096;

/// A cache-block (line) address: the byte address divided by the line size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BlockAddr(pub u64);

impl BlockAddr {
    /// Creates a block address from a block number.
    pub fn new(block_number: u64) -> Self {
        BlockAddr(block_number)
    }

    /// The block number (byte address >> 6).
    pub fn raw(self) -> u64 {
        self.0
    }

    /// The first byte address covered by this block.
    pub fn base_addr(self) -> Addr {
        Addr(self.0 << BLOCK_SHIFT)
    }

    /// The block `delta` lines away (may be negative), or `None` when that
    /// falls outside the block address space: there is no block behind
    /// block 0.
    pub fn checked_add_signed(self, delta: i64) -> Option<BlockAddr> {
        self.0.checked_add_signed(delta).map(BlockAddr)
    }

    /// Signed distance in cache lines from `other` to `self`.
    pub fn delta_from(self, other: BlockAddr) -> i64 {
        self.0.wrapping_sub(other.0) as i64
    }
}

impl fmt::Display for BlockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "blk:{:#x}", self.0)
    }
}

/// Identifier of a spatial region (the address divided by the region size).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RegionId(pub u64);

impl RegionId {
    /// Creates a region identifier from a region number.
    pub fn new(region_number: u64) -> Self {
        RegionId(region_number)
    }

    /// The region number.
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for RegionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "region:{:#x}", self.0)
    }
}

/// Region/block geometry: how byte addresses map to regions and offsets.
///
/// Gaze uses 4 KB regions with 64 B blocks (64 offsets per region); SMS,
/// Bingo and DSPatch use 2 KB regions; the sensitivity studies sweep from
/// 512 B to 64 KB. All of that is expressed by constructing different
/// geometries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegionGeometry {
    region_size: u64,
    block_size: u64,
    region_shift: u32,
    block_shift: u32,
}

impl RegionGeometry {
    /// Creates a geometry with the given region and block sizes in bytes.
    ///
    /// # Panics
    ///
    /// Panics if either size is not a power of two, if the block size is
    /// zero, or if the region is not larger than a block.
    pub fn new(region_size: u64, block_size: u64) -> Self {
        assert!(
            region_size.is_power_of_two(),
            "region size must be a power of two"
        );
        assert!(
            block_size.is_power_of_two() && block_size > 0,
            "block size must be a power of two"
        );
        assert!(region_size > block_size, "region must span multiple blocks");
        RegionGeometry {
            region_size,
            block_size,
            region_shift: region_size.trailing_zeros(),
            block_shift: block_size.trailing_zeros(),
        }
    }

    /// The paper's default geometry: 4 KB regions of 64 B blocks.
    pub fn gaze_default() -> Self {
        RegionGeometry::new(PAGE_SIZE, BLOCK_SIZE)
    }

    /// Region size in bytes.
    pub fn region_size(&self) -> u64 {
        self.region_size
    }

    /// Cache-block size in bytes.
    pub fn block_size(&self) -> u64 {
        self.block_size
    }

    /// Number of cache blocks in one region (64 for the default geometry).
    pub fn blocks_per_region(&self) -> usize {
        (self.region_size >> self.block_shift) as usize
    }

    /// The region containing `addr`.
    pub fn region_of(&self, addr: Addr) -> RegionId {
        RegionId(addr.0 >> self.region_shift)
    }

    /// The region containing block `block`.
    pub fn region_of_block(&self, block: BlockAddr) -> RegionId {
        RegionId(block.0 >> (self.region_shift - self.block_shift))
    }

    /// The block offset of `addr` within its region (0-based).
    pub fn offset_of(&self, addr: Addr) -> usize {
        ((addr.0 & (self.region_size - 1)) >> self.block_shift) as usize
    }

    /// The block address for offset `offset` within region `region`.
    ///
    /// # Panics
    ///
    /// Panics if `offset >= blocks_per_region()`.
    pub fn block_at(&self, region: RegionId, offset: usize) -> BlockAddr {
        assert!(
            offset < self.blocks_per_region(),
            "offset {offset} out of region"
        );
        BlockAddr((region.0 << (self.region_shift - self.block_shift)) + offset as u64)
    }

    /// The byte address for offset `offset` within region `region`.
    pub fn addr_at(&self, region: RegionId, offset: usize) -> Addr {
        self.block_at(region, offset).base_addr()
    }

    /// The first byte address of region `region`.
    pub fn region_base(&self, region: RegionId) -> Addr {
        Addr(region.0 << self.region_shift)
    }
}

impl Default for RegionGeometry {
    fn default() -> Self {
        RegionGeometry::gaze_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_block_round_trip() {
        let a = Addr::new(0x12345);
        assert_eq!(a.block().base_addr().raw(), 0x12340);
        assert_eq!(a.block().raw(), 0x12345 >> 6);
    }

    #[test]
    fn block_delta_arithmetic() {
        let b = BlockAddr::new(100);
        let ahead = b.checked_add_signed(5).expect("in range");
        assert_eq!(ahead.raw(), 105);
        assert_eq!(b.checked_add_signed(-5).map(BlockAddr::raw), Some(95));
        assert_eq!(ahead.delta_from(b), 5);
        assert_eq!(b.delta_from(ahead), -5);
    }

    #[test]
    fn no_block_lies_behind_block_zero() {
        let zero = BlockAddr::new(0);
        assert_eq!(zero.checked_add_signed(0), Some(zero));
        assert_eq!(zero.checked_add_signed(-1), None);
        assert_eq!(BlockAddr::new(2).checked_add_signed(-3), None);
        assert_eq!(BlockAddr::new(u64::MAX).checked_add_signed(1), None);
    }

    #[test]
    fn default_geometry_matches_paper() {
        let g = RegionGeometry::gaze_default();
        assert_eq!(g.region_size(), 4096);
        assert_eq!(g.block_size(), 64);
        assert_eq!(g.blocks_per_region(), 64);
    }

    #[test]
    fn region_and_offset_extraction() {
        let g = RegionGeometry::gaze_default();
        let a = Addr::new(3 * 4096 + 7 * 64 + 13);
        assert_eq!(g.region_of(a).raw(), 3);
        assert_eq!(g.offset_of(a), 7);
        assert_eq!(g.block_at(RegionId::new(3), 7), a.block());
        assert_eq!(g.addr_at(RegionId::new(3), 7).raw(), 3 * 4096 + 7 * 64);
    }

    #[test]
    fn region_of_block_consistent_with_region_of() {
        let g = RegionGeometry::new(2048, 64);
        for raw in [0u64, 63, 64, 2047, 2048, 10_000_000] {
            let a = Addr::new(raw);
            assert_eq!(g.region_of(a), g.region_of_block(a.block()));
        }
    }

    #[test]
    fn large_region_geometry() {
        let g = RegionGeometry::new(64 * 1024, 64);
        assert_eq!(g.blocks_per_region(), 1024);
        let a = Addr::new(65 * 1024);
        assert_eq!(g.region_of(a).raw(), 1);
        assert_eq!(g.offset_of(a), 16);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_region_rejected() {
        let _ = RegionGeometry::new(3000, 64);
    }

    #[test]
    #[should_panic(expected = "out of region")]
    fn block_at_out_of_range_panics() {
        let g = RegionGeometry::gaze_default();
        let _ = g.block_at(RegionId::new(0), 64);
    }

    #[test]
    fn region_base_is_offset_zero() {
        let g = RegionGeometry::gaze_default();
        assert_eq!(
            g.region_base(RegionId::new(5)),
            g.addr_at(RegionId::new(5), 0)
        );
    }
}
