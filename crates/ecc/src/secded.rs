//! The SECDED Hamming code: the paper's strong-correction baseline.
//!
//! Implements the extended Hamming code — a standard Hamming code plus
//! one overall parity bit — for 64-bit data: the (72,64) code the paper
//! quotes, at 12.5% overhead. Single-bit errors anywhere in the codeword
//! (data *or* check bits) are corrected; double-bit errors are detected
//! but not correctable.
//!
//! The codeword layout is the classic one: bit positions are numbered from
//! 1; positions that are powers of two hold Hamming check bits; all other
//! positions hold data bits in ascending order; position 0 holds the
//! overall (extended) parity over every other bit.
//!
//! The codec never materialises that layout. [`Secded64`] stores its
//! data word and check bits side by side, as a cache's data and check
//! arrays do, and works from two tables built at compile time from the
//! layout: Hamming check bit `c` is the parity of `data & MASKS[c]`,
//! where `MASKS[c]` holds the data bits whose codeword position has bit
//! `c` set, and the overall bit is `parity(data) ^ parity(h)` over the
//! Hamming check bits `h`. The
//! syndrome is the recomputed check bits XOR the stored ones, and a
//! single-bit correction looks up which data bit (if any) sits at the
//! syndrome's position. Outcomes, corrected `position` included, are
//! those of walking the layout bit by bit; a test pins the two against
//! each other.

/// Outcome of decoding a possibly-corrupted SECDED codeword.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DecodeOutcome {
    /// No error detected; payload is the stored data.
    Clean(u64),
    /// A single-bit error was corrected; payload is the repaired data and
    /// the 1-based codeword position of the flipped bit (0 = the overall
    /// parity bit itself).
    Corrected {
        /// The repaired data word.
        data: u64,
        /// Codeword position of the corrected bit (0 for the overall
        /// parity bit, otherwise the 1-based Hamming position).
        position: u32,
    },
    /// A double-bit (or other even multi-bit) error was detected; the data
    /// cannot be trusted. This is a DUE in the paper's terminology.
    DetectedUncorrectable,
}

impl DecodeOutcome {
    /// Returns the usable data word, or `None` on an uncorrectable error.
    #[must_use]
    pub fn data(&self) -> Option<u64> {
        match *self {
            DecodeOutcome::Clean(d) | DecodeOutcome::Corrected { data: d, .. } => Some(d),
            DecodeOutcome::DetectedUncorrectable => None,
        }
    }

    /// `true` if the decoder had to repair a bit.
    #[must_use]
    pub fn was_corrected(&self) -> bool {
        matches!(self, DecodeOutcome::Corrected { .. })
    }
}

/// Hamming check bits of the (72,64) code (the overall parity bit is
/// the eighth check bit).
const HAMMING_BITS: u32 = 7;

/// Codeword positions `1..=TOTAL_POSITIONS` hold data and Hamming
/// check bits; position 0 is the overall parity.
const TOTAL_POSITIONS: u32 = 64 + HAMMING_BITS;

/// `MASKS[c]`: the data bits whose codeword position has bit `c` set.
/// Hamming check bit `c` is the parity of `data & MASKS[c]`.
const MASKS: [u64; HAMMING_BITS as usize] = tables().0;

/// `FLIP[s]`: the data bit at codeword position `s`, as a one-bit mask
/// (0 at check-bit positions and beyond the codeword).
const FLIP: [u64; 128] = tables().1;

/// Builds [`MASKS`] and [`FLIP`] from the codeword layout in the module
/// docs.
const fn tables() -> ([u64; HAMMING_BITS as usize], [u64; 128]) {
    let mut masks = [0u64; HAMMING_BITS as usize];
    let mut flip = [0u64; 128];
    let mut pos = 1u32;
    let mut d = 0u32;
    while d < 64 {
        if !pos.is_power_of_two() {
            let mut c = 0;
            while c < HAMMING_BITS {
                if pos & (1 << c) != 0 {
                    masks[c as usize] |= 1 << d;
                }
                c += 1;
            }
            flip[pos as usize] = 1 << d;
            d += 1;
        }
        pos += 1;
    }
    (masks, flip)
}

/// The (72,64) SECDED code protecting one 64-bit word with 8 check
/// bits — the configuration commercial L2/L3 caches use (paper §1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Secded64 {
    /// The data word.
    data: u64,
    /// The check bits in the [`Self::check_bits`] layout.
    check: u16,
}

impl Secded64 {
    /// Number of data bits protected by one codeword.
    pub const DATA_BITS: u32 = 64;
    /// Number of check bits including the extended parity bit.
    pub const CHECK_BITS: u32 = HAMMING_BITS + 1;

    /// The Hamming check bits of `data` (no overall parity).
    fn hamming(data: u64) -> u16 {
        let mut h = 0u16;
        for (c, mask) in MASKS.iter().enumerate() {
            h |= (((data & mask).count_ones() & 1) as u16) << c;
        }
        h
    }

    /// Encodes `data` into a SECDED codeword.
    #[must_use]
    pub fn encode(data: u64) -> Self {
        let h = Self::hamming(data);
        let overall = (data.count_ones() ^ h.count_ones()) & 1;
        Secded64 {
            data,
            check: h | ((overall as u16) << HAMMING_BITS),
        }
    }

    /// Decodes, correcting a single-bit error or flagging a double-bit
    /// error.
    #[must_use]
    pub fn decode(&self) -> DecodeOutcome {
        // The syndrome is the XOR of the positions of every set codeword
        // bit; the overall check covers all of them.
        let syndrome =
            u32::from(Self::hamming(self.data) ^ (self.check & ((1 << HAMMING_BITS) - 1)));
        let overall_ok = (self.data.count_ones() ^ self.check.count_ones()) & 1 == 0;
        match (syndrome, overall_ok) {
            (0, true) => DecodeOutcome::Clean(self.data),
            // The extended parity bit itself flipped; data is intact.
            (0, false) => DecodeOutcome::Corrected {
                data: self.data,
                position: 0,
            },
            (s, false) if s <= TOTAL_POSITIONS => DecodeOutcome::Corrected {
                data: self.data ^ FLIP[s as usize],
                position: s,
            },
            // Non-zero syndrome with correct overall parity ⇒ even number
            // of flips ⇒ uncorrectable. Also syndrome beyond the codeword
            // length (certain multi-bit patterns) is uncorrectable.
            _ => DecodeOutcome::DetectedUncorrectable,
        }
    }

    /// Flips the codeword bit holding the `bit`-th *data* bit — used by
    /// fault injection.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= Self::DATA_BITS`.
    pub fn flip_data_bit(&mut self, bit: u32) {
        assert!(bit < Self::DATA_BITS, "data bit {bit} out of range");
        self.data ^= 1 << bit;
    }

    /// Flips the `c`-th Hamming check bit (0-based), or the extended
    /// parity bit when `c == Self::CHECK_BITS - 1`.
    ///
    /// # Panics
    ///
    /// Panics if `c >= Self::CHECK_BITS`.
    pub fn flip_check_bit(&mut self, c: u32) {
        assert!(c < Self::CHECK_BITS, "check bit {c} out of range");
        self.check ^= 1 << c;
    }

    /// Storage overhead: check bits / data bits (12.5%, as quoted in the
    /// paper's introduction).
    #[must_use]
    pub fn overhead() -> f64 {
        f64::from(Self::CHECK_BITS) / f64::from(Self::DATA_BITS)
    }

    /// Extracts the stored check bits: bit `c` is the `c`-th Hamming
    /// check bit, and bit `CHECK_BITS - 1` is the extended (overall)
    /// parity bit. Together with the data word this fully determines
    /// the codeword — real caches store data and check bits in separate
    /// arrays, and [`Self::from_parts`] reassembles them.
    #[must_use]
    pub fn check_bits(&self) -> u16 {
        self.check
    }

    /// Reassembles a codeword from a (possibly corrupted) data word and
    /// separately stored check bits, ready to [`Self::decode`]. Check
    /// bits above `CHECK_BITS` are ignored.
    #[must_use]
    pub fn from_parts(data: u64, check: u16) -> Self {
        Secded64 {
            data,
            check: check & ((1 << Self::CHECK_BITS) - 1),
        }
    }
}

/// The bit-serial extended Hamming code the mask tables replaced:
/// it spreads the data over the codeword positions and walks them one
/// bit at a time. The oracle the table-driven codec is checked against.
#[cfg(test)]
mod reference {
    use super::DecodeOutcome;

    pub struct ExtHamming<const DATA_BITS: u32, const CHECK_BITS: u32>;

    impl<const DATA_BITS: u32, const CHECK_BITS: u32> ExtHamming<DATA_BITS, CHECK_BITS> {
        const TOTAL_POSITIONS: u32 = DATA_BITS + CHECK_BITS;

        fn mask_data(data: u64) -> u64 {
            if DATA_BITS < 64 {
                data & ((1u64 << DATA_BITS) - 1)
            } else {
                data
            }
        }

        fn spread(data: u64) -> u128 {
            let mut cw: u128 = 0;
            let mut d = 0;
            for pos in 1..=Self::TOTAL_POSITIONS {
                if !pos.is_power_of_two() {
                    if (data >> d) & 1 == 1 {
                        cw |= 1u128 << pos;
                    }
                    d += 1;
                }
            }
            cw
        }

        fn gather(cw: u128) -> u64 {
            let mut data = 0u64;
            let mut d = 0;
            for pos in 1..=Self::TOTAL_POSITIONS {
                if !pos.is_power_of_two() {
                    if (cw >> pos) & 1 == 1 {
                        data |= 1u64 << d;
                    }
                    d += 1;
                }
            }
            data
        }

        fn with_check_bits(mut cw: u128) -> u128 {
            for c in 0..CHECK_BITS {
                let mask_pos = 1u32 << c;
                let mut parity = 0u128;
                for pos in 1..=Self::TOTAL_POSITIONS {
                    if pos & mask_pos != 0 && !pos.is_power_of_two() {
                        parity ^= (cw >> pos) & 1;
                    }
                }
                if parity == 1 {
                    cw |= 1u128 << mask_pos;
                }
            }
            cw
        }

        /// The stored check bits of `data`'s codeword, in the
        /// `check_bits()` layout (overall parity on top).
        pub fn check_bits(data: u64) -> u16 {
            let cw = Self::with_check_bits(Self::spread(Self::mask_data(data)));
            let mut out = 0u16;
            for c in 0..CHECK_BITS {
                if (cw >> (1u32 << c)) & 1 == 1 {
                    out |= 1 << c;
                }
            }
            out | (((cw.count_ones() & 1) as u16) << CHECK_BITS)
        }

        /// Reassembles the codeword of `data` and stored `check` bits
        /// and decodes it.
        pub fn decode_parts(data: u64, check: u16) -> DecodeOutcome {
            let mut cw = Self::spread(Self::mask_data(data));
            for c in 0..CHECK_BITS {
                if (check >> c) & 1 == 1 {
                    cw |= 1u128 << (1u32 << c);
                }
            }
            let overall = u32::from((check >> CHECK_BITS) & 1);
            let mut syndrome = 0u32;
            for pos in 1..=Self::TOTAL_POSITIONS {
                if (cw >> pos) & 1 == 1 {
                    syndrome ^= pos;
                }
            }
            let overall_ok = (cw.count_ones() & 1) == overall;
            match (syndrome, overall_ok) {
                (0, true) => DecodeOutcome::Clean(Self::gather(cw)),
                (0, false) => DecodeOutcome::Corrected {
                    data: Self::gather(cw),
                    position: 0,
                },
                (s, false) if s <= Self::TOTAL_POSITIONS => DecodeOutcome::Corrected {
                    data: Self::gather(cw ^ (1u128 << s)),
                    position: s,
                },
                _ => DecodeOutcome::DetectedUncorrectable,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cppc_campaign::rng::{rngs::StdRng, RngExt, SeedableRng};

    #[test]
    fn overhead_matches_paper() {
        // "it takes 8 bits to protect a 64-bit word, a 12.5% area overhead"
        assert!((Secded64::overhead() - 0.125).abs() < 1e-12);
    }

    #[test]
    fn roundtrip_clean() {
        for d in [0u64, 1, u64::MAX, 0xDEAD_BEEF_0123_4567] {
            assert_eq!(Secded64::encode(d).decode(), DecodeOutcome::Clean(d));
        }
    }

    #[test]
    fn corrects_every_single_data_bit_64() {
        let data = 0xA5A5_5A5A_F00D_CAFE;
        for bit in 0..64 {
            let mut cw = Secded64::encode(data);
            cw.flip_data_bit(bit);
            let out = cw.decode();
            assert_eq!(out.data(), Some(data), "bit {bit}");
            assert!(out.was_corrected());
        }
    }

    #[test]
    fn corrects_every_check_bit_64() {
        let data = 0x0123_4567_89AB_CDEF;
        for c in 0..Secded64::CHECK_BITS {
            let mut cw = Secded64::encode(data);
            cw.flip_check_bit(c);
            assert_eq!(cw.decode().data(), Some(data), "check bit {c}");
        }
    }

    #[test]
    fn detects_all_double_data_flips_64() {
        // Exhaustive over the 2,016 data-bit pairs: every double flip
        // must be flagged uncorrectable (never silently miscorrected).
        let data = 0x5A5A_1234_C3C3_8765u64;
        for a in 0..64 {
            for b in (a + 1)..64 {
                let mut cw = Secded64::encode(data);
                cw.flip_data_bit(a);
                cw.flip_data_bit(b);
                assert_eq!(
                    cw.decode(),
                    DecodeOutcome::DetectedUncorrectable,
                    "bits {a},{b}"
                );
            }
        }
    }

    #[test]
    fn detects_data_plus_check_double_flip() {
        let data = 0xFEED_F00D_DEAD_BEEF;
        for c in 0..Secded64::CHECK_BITS {
            let mut cw = Secded64::encode(data);
            cw.flip_data_bit(13);
            cw.flip_check_bit(c);
            assert_eq!(
                cw.decode(),
                DecodeOutcome::DetectedUncorrectable,
                "check {c}"
            );
        }
    }

    #[test]
    fn corrected_position_is_reported() {
        let mut cw = Secded64::encode(7);
        cw.flip_check_bit(Secded64::CHECK_BITS - 1); // extended parity bit
        match cw.decode() {
            DecodeOutcome::Corrected { position, .. } => assert_eq!(position, 0),
            other => panic!("expected corrected, got {other:?}"),
        }
    }

    #[test]
    fn parts_roundtrip() {
        for d in [0u64, 1, u64::MAX, 0x0123_4567_89AB_CDEF] {
            let cw = Secded64::encode(d);
            let rebuilt = Secded64::from_parts(d, cw.check_bits());
            assert_eq!(rebuilt, cw);
            assert_eq!(rebuilt.decode(), DecodeOutcome::Clean(d));
        }
    }

    #[test]
    fn parts_decode_corrects_corrupted_data() {
        let d = 0xFACE_0FF5_1234_5678;
        let check = Secded64::encode(d).check_bits();
        let corrupted = d ^ (1 << 40);
        assert_eq!(
            Secded64::from_parts(corrupted, check).decode().data(),
            Some(d)
        );
    }

    #[test]
    fn parts_decode_detects_corrupted_check() {
        let d = 0x42;
        let check = Secded64::encode(d).check_bits() ^ 0b101; // two check flips
        assert_eq!(
            Secded64::from_parts(d, check).decode(),
            DecodeOutcome::DetectedUncorrectable
        );
    }

    /// Every 0-, 1- and 2-bit flip of the codeword of each word in
    /// `words` (masked to `data_bits`) decodes as the bit-serial code
    /// decodes it, and reports the same check bits.
    fn matches_reference<const DATA: u32, const CHECK: u32>(
        words: &[u64],
        from_parts: fn(u64, u16) -> (u16, DecodeOutcome),
    ) {
        type Ref<const D: u32, const C: u32> = reference::ExtHamming<D, C>;
        let width = DATA + CHECK + 1;
        let flip = |(data, check): (u64, u16), bit: u32| {
            if bit < DATA {
                (data ^ (1 << bit), check)
            } else {
                (data, check ^ (1 << (bit - DATA)))
            }
        };
        for &word in words {
            let word = if DATA < 64 {
                word & ((1 << DATA) - 1)
            } else {
                word
            };
            let clean = (word, Ref::<DATA, CHECK>::check_bits(word));
            let mut flipped = vec![clean];
            for a in 0..width {
                flipped.push(flip(clean, a));
                for b in (a + 1)..width {
                    flipped.push(flip(flip(clean, a), b));
                }
            }
            for (data, check) in flipped {
                let (bits, outcome) = from_parts(data, check);
                assert_eq!(bits, check, "{word:#x}: {data:#x}/{check:#x}");
                assert_eq!(
                    outcome,
                    Ref::<DATA, CHECK>::decode_parts(data, check),
                    "{word:#x}: {data:#x}/{check:#x}"
                );
            }
        }
    }

    #[test]
    fn mask_codec_matches_bit_serial_reference() {
        let mut rng = StdRng::seed_from_u64(0x5EC0_0005);
        let mut words: Vec<u64> = (0..256).map(|_| rng.random::<u64>()).collect();
        words.extend([0, u64::MAX]);
        words.extend((0..64).map(|b| 1u64 << b));
        for &w in &words {
            assert_eq!(
                Secded64::encode(w).check_bits(),
                reference::ExtHamming::<64, 7>::check_bits(w),
                "{w:#x}"
            );
        }
        matches_reference::<64, 7>(&words, |d, c| {
            let cw = Secded64::from_parts(d, c);
            (cw.check_bits(), cw.decode())
        });
        // Check bits above CHECK_BITS are not part of the codeword.
        for &w in &words {
            let c64 = Secded64::encode(w).check_bits();
            assert_eq!(
                Secded64::from_parts(w, c64 | !((1 << Secded64::CHECK_BITS) - 1)),
                Secded64::from_parts(w, c64)
            );
        }
    }

    #[test]
    fn prop_roundtrip() {
        let mut rng = StdRng::seed_from_u64(0x5EC0_0001);
        for _ in 0..256 {
            let data = rng.random::<u64>();
            assert_eq!(Secded64::encode(data).decode(), DecodeOutcome::Clean(data));
        }
    }

    #[test]
    fn prop_single_flip_corrected() {
        let mut rng = StdRng::seed_from_u64(0x5EC0_0002);
        for _ in 0..256 {
            let data = rng.random::<u64>();
            let bit = rng.random_range(0u32..64);
            let mut cw = Secded64::encode(data);
            cw.flip_data_bit(bit);
            assert_eq!(cw.decode().data(), Some(data), "bit {bit}");
        }
    }

    #[test]
    fn prop_double_flip_detected() {
        let mut rng = StdRng::seed_from_u64(0x5EC0_0003);
        for _ in 0..256 {
            let data = rng.random::<u64>();
            let a = rng.random_range(0u32..64);
            let b = rng.random_range(0u32..64);
            if a == b {
                continue;
            }
            let mut cw = Secded64::encode(data);
            cw.flip_data_bit(a);
            cw.flip_data_bit(b);
            assert_eq!(
                cw.decode(),
                DecodeOutcome::DetectedUncorrectable,
                "bits {a},{b}"
            );
        }
    }
}
