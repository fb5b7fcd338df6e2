//! Cache dimensioning and address-field arithmetic.
//!
//! Every dimension is validated as a power of two, so the address
//! fields are shifts and masks by precomputed `trailing_zeros()` rather
//! than 64-bit divisions.

use std::fmt;

/// The number of bytes in the machine word every cache in this workspace
/// traffics in (the paper's 64-bit word).
pub const WORD_BYTES: usize = 8;

/// Error returned when cache dimensions are inconsistent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GeometryError {
    /// A size/assoc/block parameter was zero or not a power of two.
    NotPowerOfTwo(&'static str, usize),
    /// `size` is not divisible by `associativity * block_bytes`.
    Indivisible {
        /// Total cache capacity in bytes.
        size: usize,
        /// Number of ways.
        associativity: usize,
        /// Block size in bytes.
        block_bytes: usize,
    },
    /// Block smaller than one 64-bit word.
    BlockTooSmall(usize),
}

impl fmt::Display for GeometryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeometryError::NotPowerOfTwo(what, v) => {
                write!(f, "{what} must be a non-zero power of two, got {v}")
            }
            GeometryError::Indivisible {
                size,
                associativity,
                block_bytes,
            } => write!(
                f,
                "cache size {size} not divisible by associativity {associativity} x block {block_bytes}"
            ),
            GeometryError::BlockTooSmall(b) => {
                write!(f, "block of {b} bytes is smaller than one 8-byte word")
            }
        }
    }
}

impl std::error::Error for GeometryError {}

/// The dimensions of a cache and the address arithmetic they induce.
///
/// # Example
///
/// ```
/// use cppc_cache_sim::geometry::CacheGeometry;
///
/// // The paper's L1D: 32KB, 2-way, 32-byte lines (Table 1).
/// let geo = CacheGeometry::new(32 * 1024, 2, 32)?;
/// assert_eq!(geo.num_sets(), 512);
/// assert_eq!(geo.words_per_block(), 4);
/// # Ok::<(), cppc_cache_sim::geometry::GeometryError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheGeometry {
    size_bytes: usize,
    associativity: usize,
    block_bytes: usize,
    num_sets: usize,
    /// `log2(block_bytes)`: the set index starts here.
    block_shift: u32,
    /// `log2(block_bytes * num_sets)`: the tag starts here.
    tag_shift: u32,
}

impl CacheGeometry {
    /// Builds a geometry from capacity, associativity and block size.
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError`] if any parameter is zero / not a power of
    /// two, the block is smaller than a word, or the capacity is not an
    /// integral number of sets.
    pub fn new(
        size_bytes: usize,
        associativity: usize,
        block_bytes: usize,
    ) -> Result<Self, GeometryError> {
        for (what, v) in [
            ("size", size_bytes),
            ("associativity", associativity),
            ("block size", block_bytes),
        ] {
            if v == 0 || !v.is_power_of_two() {
                return Err(GeometryError::NotPowerOfTwo(what, v));
            }
        }
        if block_bytes < WORD_BYTES {
            return Err(GeometryError::BlockTooSmall(block_bytes));
        }
        let way_bytes = associativity * block_bytes;
        if !size_bytes.is_multiple_of(way_bytes) {
            return Err(GeometryError::Indivisible {
                size: size_bytes,
                associativity,
                block_bytes,
            });
        }
        let num_sets = size_bytes / way_bytes;
        Ok(CacheGeometry {
            size_bytes,
            associativity,
            block_bytes,
            num_sets,
            block_shift: block_bytes.trailing_zeros(),
            tag_shift: block_bytes.trailing_zeros() + num_sets.trailing_zeros(),
        })
    }

    /// Total capacity in bytes.
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        self.size_bytes
    }

    /// Number of ways per set.
    #[must_use]
    pub fn associativity(&self) -> usize {
        self.associativity
    }

    /// Block (line) size in bytes.
    #[must_use]
    pub fn block_bytes(&self) -> usize {
        self.block_bytes
    }

    /// Number of sets.
    #[must_use]
    pub fn num_sets(&self) -> usize {
        self.num_sets
    }

    /// 64-bit words per block.
    #[must_use]
    pub fn words_per_block(&self) -> usize {
        self.block_bytes / WORD_BYTES
    }

    /// Total 64-bit words in the cache.
    #[must_use]
    pub fn total_words(&self) -> usize {
        self.size_bytes / WORD_BYTES
    }

    /// Total data bits in the cache.
    #[must_use]
    pub fn total_bits(&self) -> u64 {
        self.size_bytes as u64 * 8
    }

    /// The block-aligned base address containing `addr`.
    #[must_use]
    pub fn block_base(&self, addr: u64) -> u64 {
        addr & !(self.block_bytes as u64 - 1)
    }

    /// The set index for `addr`.
    #[inline]
    #[must_use]
    pub fn set_index(&self, addr: u64) -> usize {
        ((addr >> self.block_shift) & (self.num_sets as u64 - 1)) as usize
    }

    /// The tag for `addr` (address bits above the set index).
    #[inline]
    #[must_use]
    pub fn tag(&self, addr: u64) -> u64 {
        addr >> self.tag_shift
    }

    /// The word offset within the block for `addr`.
    #[inline]
    #[must_use]
    pub fn word_index(&self, addr: u64) -> usize {
        ((addr & (self.block_bytes as u64 - 1)) >> WORD_BYTES.trailing_zeros()) as usize
    }

    /// The byte offset within the word for `addr`.
    #[inline]
    #[must_use]
    pub fn byte_in_word(&self, addr: u64) -> usize {
        (addr & (WORD_BYTES as u64 - 1)) as usize
    }

    /// Reassembles a block base address from a tag and set index.
    #[inline]
    #[must_use]
    pub fn address_of(&self, tag: u64, set: usize) -> u64 {
        ((tag << (self.tag_shift - self.block_shift)) + set as u64) << self.block_shift
    }
}

/// The division forms the shift/mask fields replaced, kept as the
/// reference they are tested against.
#[cfg(test)]
mod reference {
    use super::{CacheGeometry, WORD_BYTES};

    pub fn block_base(g: &CacheGeometry, addr: u64) -> u64 {
        addr / g.block_bytes() as u64 * g.block_bytes() as u64
    }

    pub fn set_index(g: &CacheGeometry, addr: u64) -> usize {
        ((addr / g.block_bytes() as u64) % g.num_sets() as u64) as usize
    }

    pub fn tag(g: &CacheGeometry, addr: u64) -> u64 {
        addr / g.block_bytes() as u64 / g.num_sets() as u64
    }

    pub fn word_index(g: &CacheGeometry, addr: u64) -> usize {
        ((addr % g.block_bytes() as u64) / WORD_BYTES as u64) as usize
    }

    pub fn address_of(g: &CacheGeometry, tag: u64, set: usize) -> u64 {
        (tag * g.num_sets() as u64 + set as u64) * g.block_bytes() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cppc_campaign::rng::{rngs::StdRng, RngExt, SeedableRng};

    #[test]
    fn paper_l1_geometry() {
        let geo = CacheGeometry::new(32 * 1024, 2, 32).unwrap();
        assert_eq!(geo.num_sets(), 512);
        assert_eq!(geo.words_per_block(), 4);
        assert_eq!(geo.total_words(), 4096);
        assert_eq!(geo.total_bits(), 32 * 1024 * 8);
    }

    #[test]
    fn paper_l2_geometry() {
        let geo = CacheGeometry::new(1024 * 1024, 4, 32).unwrap();
        assert_eq!(geo.num_sets(), 8192);
    }

    #[test]
    fn rejects_non_power_of_two() {
        assert!(matches!(
            CacheGeometry::new(3000, 2, 32),
            Err(GeometryError::NotPowerOfTwo("size", 3000))
        ));
        assert!(matches!(
            CacheGeometry::new(4096, 3, 32),
            Err(GeometryError::NotPowerOfTwo("associativity", 3))
        ));
        assert!(matches!(
            CacheGeometry::new(4096, 2, 0),
            Err(GeometryError::NotPowerOfTwo("block size", 0))
        ));
    }

    #[test]
    fn rejects_tiny_block() {
        assert!(matches!(
            CacheGeometry::new(4096, 2, 4),
            Err(GeometryError::BlockTooSmall(4))
        ));
    }

    #[test]
    fn field_extraction() {
        let geo = CacheGeometry::new(1024, 2, 32).unwrap(); // 16 sets
        let addr = 0x0000_1234_5678u64;
        assert_eq!(geo.block_base(addr), addr & !31);
        assert_eq!(geo.set_index(addr), ((addr >> 5) & 15) as usize);
        assert_eq!(geo.tag(addr), addr >> 9);
        assert_eq!(geo.word_index(addr), ((addr >> 3) & 3) as usize);
        assert_eq!(geo.byte_in_word(addr), (addr & 7) as usize);
    }

    #[test]
    fn error_display_is_informative() {
        let e = CacheGeometry::new(3000, 2, 32).unwrap_err();
        assert!(e.to_string().contains("power of two"));
    }

    #[test]
    fn tag_set_roundtrip() {
        let mut rng = StdRng::seed_from_u64(0x6E0_0001);
        let geo = CacheGeometry::new(32 * 1024, 2, 32).unwrap();
        for _ in 0..512 {
            let addr = rng.random::<u64>();
            let base = geo.block_base(addr);
            let rebuilt = geo.address_of(geo.tag(addr), geo.set_index(addr));
            assert_eq!(base, rebuilt, "addr {addr:#x}");
        }
    }

    /// Shift/mask fields equal the division forms over random addresses
    /// for every valid geometry from one set to fully associative, with
    /// blocks of 8 to 256 bytes.
    #[test]
    fn shift_mask_fields_match_division_reference() {
        let mut rng = StdRng::seed_from_u64(0x6E0_0003);
        let mut geometries = 0;
        for block in (3..=8).map(|b| 1usize << b) {
            for size in (3..=22).map(|b| 1usize << b).filter(|&s| s >= block) {
                for assoc in (0..=22).map(|b| 1usize << b).filter(|&a| a * block <= size) {
                    let geo = CacheGeometry::new(size, assoc, block).unwrap();
                    geometries += 1;
                    for _ in 0..64 {
                        let addr = rng.random::<u64>();
                        let (set, tag) = (geo.set_index(addr), geo.tag(addr));
                        assert_eq!(set, reference::set_index(&geo, addr), "{geo:?} {addr:#x}");
                        assert_eq!(tag, reference::tag(&geo, addr), "{geo:?} {addr:#x}");
                        assert_eq!(
                            geo.word_index(addr),
                            reference::word_index(&geo, addr),
                            "{geo:?} {addr:#x}"
                        );
                        assert_eq!(
                            geo.block_base(addr),
                            reference::block_base(&geo, addr),
                            "{geo:?} {addr:#x}"
                        );
                        assert_eq!(
                            geo.address_of(tag, set),
                            reference::address_of(&geo, tag, set),
                            "{geo:?} {addr:#x}"
                        );
                    }
                }
            }
        }
        assert!(geometries > 500, "{geometries} geometries checked");
    }

    #[test]
    fn set_index_in_range() {
        let mut rng = StdRng::seed_from_u64(0x6E0_0002);
        let geo = CacheGeometry::new(1024 * 1024, 4, 32).unwrap();
        for _ in 0..512 {
            let addr = rng.random::<u64>();
            assert!(geo.set_index(addr) < geo.num_sets(), "addr {addr:#x}");
        }
    }
}
