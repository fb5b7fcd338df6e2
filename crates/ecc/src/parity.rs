//! One-dimensional parity of a 64-bit word, at word or byte granularity.
//!
//! Commercial processors protect L1 caches with parity at block, word or
//! byte granularity (paper §1). Parity *detects* an odd number of
//! flipped bits inside its protection domain; it never corrects. Block
//! parity of a byte slice is [`crate::kernels::parity_bytes`].

/// Computes even parity of a 64-bit word: `1` if the population count is
/// odd, so that `word XOR'ed bits ^ parity == 0` always holds.
///
/// # Example
///
/// ```
/// use cppc_ecc::parity::parity64;
/// assert_eq!(parity64(0), 0);
/// assert_eq!(parity64(0b1011), 1);
/// ```
#[inline]
#[must_use]
pub fn parity64(word: u64) -> u8 {
    (word.count_ones() & 1) as u8
}

/// Parity bits covering one 64-bit word at byte granularity.
///
/// Bit `i` of the returned byte is the even parity of byte `i` of `word`.
///
/// # Example
///
/// ```
/// use cppc_ecc::parity::byte_parity64;
/// // Byte 0 = 0x01 (one bit set → parity 1); all other bytes zero.
/// assert_eq!(byte_parity64(0x01), 0b0000_0001);
/// ```
#[inline]
#[must_use]
pub fn byte_parity64(word: u64) -> u8 {
    // SWAR: fold each byte's bits onto its own bit 0, then gather the
    // eight LSBs into one byte. After the three folds, bit 8i is the
    // XOR of bits 8i..8i+7 (the higher bits of each byte are garbage
    // and masked off). The multiply moves the LSB of byte i to bit
    // 56 + i; partial-product bit positions 8i + 56 - 7j are pairwise
    // distinct for i, j < 8, so no carries interfere.
    let mut w = word;
    w ^= w >> 4;
    w ^= w >> 2;
    w ^= w >> 1;
    (((w & 0x0101_0101_0101_0101).wrapping_mul(0x0102_0408_1020_4080)) >> 56) as u8
}

#[cfg(test)]
mod tests {
    use super::*;
    use cppc_campaign::rng::{rngs::StdRng, RngExt, SeedableRng};

    #[test]
    fn parity64_matches_popcount() {
        assert_eq!(parity64(u64::MAX), 0);
        assert_eq!(parity64(1), 1);
        assert_eq!(parity64(3), 0);
        assert_eq!(parity64(7), 1);
    }

    /// Byte-parity syndrome of `data` after flipping `bits`: a set bit
    /// marks a byte whose parity no longer matches the stored bits.
    fn byte_syndrome(data: u64, bits: &[u32]) -> u8 {
        let stored = byte_parity64(data);
        let read = bits.iter().fold(data, |w, &b| w ^ (1u64 << b));
        byte_parity64(read) ^ stored
    }

    #[test]
    fn byte_parity_detects_flip_in_right_byte() {
        for byte in 0..8u32 {
            assert_eq!(
                byte_syndrome(0xFFFF_0000_1234_5678, &[byte * 8 + 3]),
                1 << byte,
                "flip in byte {byte}"
            );
        }
    }

    #[test]
    fn word_parity_misses_even_flips() {
        // The fundamental parity weakness the paper builds on: an even
        // number of flips in one domain is invisible.
        let data = 0xAAAA_BBBB_CCCC_DDDDu64;
        assert_eq!(
            parity64(data ^ 0b11),
            parity64(data),
            "double flip must be undetected by 1-bit parity"
        );
    }

    #[test]
    fn interleaved_byte_parity_catches_adjacent_double_flip() {
        // …but byte parity catches a 2-bit flip spanning a byte boundary.
        assert_eq!(byte_syndrome(0xAAAA_BBBB_CCCC_DDDD, &[7, 8]), 0b11);
    }

    #[test]
    fn any_single_flip_detected() {
        let mut rng = StdRng::seed_from_u64(0x9A81_0002);
        for _ in 0..256 {
            let data = rng.random::<u64>();
            let bit = rng.random_range(0u32..64);
            assert_ne!(parity64(data ^ (1u64 << bit)), parity64(data), "bit {bit}");
            assert_ne!(byte_syndrome(data, &[bit]), 0, "bit {bit}");
        }
    }

    #[test]
    fn syndrome_localises_byte() {
        let mut rng = StdRng::seed_from_u64(0x9A81_0003);
        for _ in 0..256 {
            let data = rng.random::<u64>();
            let bit = rng.random_range(0u32..64);
            assert_eq!(byte_syndrome(data, &[bit]), 1u8 << (bit / 8), "bit {bit}");
        }
    }

    #[test]
    fn byte_parity_swar_matches_reference() {
        fn reference(word: u64) -> u8 {
            let mut out = 0u8;
            for i in 0..8 {
                let byte = ((word >> (8 * i)) & 0xFF) as u8;
                out |= ((byte.count_ones() & 1) as u8) << i;
            }
            out
        }
        let mut rng = StdRng::seed_from_u64(0x9A81_0005);
        for w in [
            0u64,
            1,
            u64::MAX,
            0x8000_0000_0000_0001,
            0x0101_0101_0101_0101,
        ] {
            assert_eq!(byte_parity64(w), reference(w), "word {w:#x}");
        }
        for _ in 0..4096 {
            let w = rng.random::<u64>();
            assert_eq!(byte_parity64(w), reference(w), "word {w:#x}");
        }
    }

    #[test]
    fn parity_is_linear() {
        // parity(a ^ b) == parity(a) ^ parity(b): the property CPPC's
        // XOR-register correction fundamentally relies on.
        let mut rng = StdRng::seed_from_u64(0x9A81_0004);
        for _ in 0..256 {
            let a = rng.random::<u64>();
            let b = rng.random::<u64>();
            assert_eq!(parity64(a ^ b), parity64(a) ^ parity64(b));
            assert_eq!(byte_parity64(a ^ b), byte_parity64(a) ^ byte_parity64(b));
        }
    }
}
