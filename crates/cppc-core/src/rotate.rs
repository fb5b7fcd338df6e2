//! The barrel byte-shifter (paper §4.3, §4.8).
//!
//! Data is rotated left by `class` bytes just before being XORed into
//! R1/R2 — the data stored in the cache is **not** rotated. Rotating by
//! whole bytes preserves each bit's parity group (`column mod 8`), which
//! is what keeps the fault locator's group arithmetic consistent.
//! The shifter's §4.8 energy and multiplexer count are priced in
//! `cppc-energy` (`SchemeEnergy` and `AreaModel::cppc`).

/// Rotates `word` left by `bytes` bytes (the hardware barrel shifter).
///
/// # Example
///
/// ```
/// use cppc_core::rotate::rotate_left_bytes;
/// assert_eq!(rotate_left_bytes(0x00000000_000000FF, 1), 0x00000000_0000FF00);
/// assert_eq!(rotate_left_bytes(0xFF000000_00000000, 1), 0x00000000_000000FF);
/// ```
#[inline]
#[must_use]
pub fn rotate_left_bytes(word: u64, bytes: u32) -> u64 {
    word.rotate_left((bytes % 8) * 8)
}

/// Rotates `word` right by `bytes` bytes (the inverse rotation applied
/// when writing recovered data back, paper §4.4 step 2).
#[inline]
#[must_use]
pub fn rotate_right_bytes(word: u64, bytes: u32) -> u64 {
    word.rotate_right((bytes % 8) * 8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cppc_campaign::rng::{rngs::StdRng, RngExt, SeedableRng};

    #[test]
    fn zero_rotation_is_identity() {
        assert_eq!(
            rotate_left_bytes(0x1234_5678_9ABC_DEF0, 0),
            0x1234_5678_9ABC_DEF0
        );
    }

    #[test]
    fn rotation_wraps_mod_8() {
        let w = 0x0102_0304_0506_0708;
        assert_eq!(rotate_left_bytes(w, 8), w);
        assert_eq!(rotate_left_bytes(w, 9), rotate_left_bytes(w, 1));
    }

    #[test]
    fn rotation_moves_bytes() {
        // Byte 0 moves to byte position `k` after rotating left by k.
        let w = 0xABu64;
        for k in 0..8u32 {
            assert_eq!(rotate_left_bytes(w, k), 0xABu64 << (8 * k));
        }
    }

    #[test]
    fn rotation_preserves_parity_group() {
        // column mod 8 is invariant under byte rotation.
        for bit in 0..64u32 {
            let w = 1u64 << bit;
            for k in 0..8u32 {
                let rotated = rotate_left_bytes(w, k);
                let new_bit = rotated.trailing_zeros();
                assert_eq!(new_bit % 8, bit % 8, "bit {bit} rot {k}");
            }
        }
    }

    #[test]
    fn left_right_inverse() {
        let mut rng = StdRng::seed_from_u64(0x0707_A7E0);
        for _ in 0..512 {
            let w = rng.random::<u64>();
            let k = rng.random_range(0u32..8);
            assert_eq!(
                rotate_right_bytes(rotate_left_bytes(w, k), k),
                w,
                "w={w:#x} k={k}"
            );
        }
    }

    #[test]
    fn rotation_is_linear() {
        let mut rng = StdRng::seed_from_u64(0x0707_A7E1);
        for _ in 0..512 {
            let a = rng.random::<u64>();
            let b = rng.random::<u64>();
            let k = rng.random_range(0u32..8);
            assert_eq!(
                rotate_left_bytes(a ^ b, k),
                rotate_left_bytes(a, k) ^ rotate_left_bytes(b, k),
                "a={a:#x} b={b:#x} k={k}"
            );
        }
    }
}
