//! The spatial-MBE fault locator (paper §4.5).
//!
//! When several dirty words in one protection domain are faulty *and*
//! they share fired parity groups, simple reconstruction cannot separate
//! their errors. The locator pins down exactly which bits flipped, using
//! three pieces of information (paper §4.5):
//!
//! 1. which parity bits fired in each faulty word (the syndromes),
//! 2. the rotation classes of the faulty words,
//! 3. `R3` — the XOR of `R1 ^ R2` with the rotated *current* (corrupted)
//!    values of all dirty words in the domain, which equals the XOR of
//!    the rotated per-word error masks.
//!
//! # Algorithm
//!
//! A spatial fault contained in an 8x8-bit square occupies, in every
//! affected word, either a single byte column or two adjacent byte
//! columns (the paper's "faulty byte or faulty adjacent two bytes").
//! The locator therefore tries each adjacent byte band `(j, j+1)` and,
//! within a band, *peels*: whenever some byte of `R3` receives the
//! contribution of exactly one `(word, byte)` candidate, that word's
//! error in that byte is read off `R3` directly, the error bits in its
//! other band byte follow from the syndrome (`e_other = e_known ^
//! syndrome`, by the per-group parity case analysis), and the word's
//! full error mask is XORed out of `R3` before repeating.
//!
//! A band solution is accepted only if every faulty word is located and
//! `R3` is completely consumed (ends at zero). If no band yields a
//! solution, or two bands yield *different* solutions (the irreducible
//! ambiguities of §4.6, e.g. a full 8x8 strike with one register pair),
//! the error is a DUE. This accept-only-forced-deductions discipline is
//! what keeps the locator from ever silently miscorrecting an in-model
//! fault.
//!
//! Once the class-alias check passes, every suspect is named by its
//! rotation class, so the candidate sets above are 8-bit masks: rotating
//! the class mask left by `j` gives the R3 bytes that word byte `j` can
//! explain, and peeling a word clears its class bit.

use std::fmt;

use crate::rotate::rotate_left_bytes;

/// One faulty dirty word handed to the locator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Suspect {
    /// Physical row of the word (for the distance check).
    pub row: usize,
    /// Rotation class: `row mod 8` in the byte-shifting design, so
    /// always below 8 (the locator panics otherwise).
    pub class: usize,
    /// Fired parity groups, one bit per 8-way-interleaved parity group.
    pub syndrome: u8,
}

/// Why the locator declared a DUE.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocateError {
    /// Faulty rows span more than 8 physical rows — outside the
    /// correctable 8x8 square (paper §4.4 step 5).
    DistanceExceeded,
    /// Two faulty words share a rotation class, so their register
    /// contributions alias (distance-8 pattern, §4.6).
    ClassAliased,
    /// No byte band produced a consistent assignment of error bits.
    NoSolution,
    /// More than one distinct consistent assignment exists (§4.6's
    /// irreducible patterns, e.g. the solid 8x8 with one pair).
    Ambiguous,
}

impl fmt::Display for LocateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LocateError::DistanceExceeded => {
                write!(f, "faulty rows span more than the 8x8 correctable square")
            }
            LocateError::ClassAliased => {
                write!(f, "two faulty words share a rotation class")
            }
            LocateError::NoSolution => write!(f, "no consistent error assignment found"),
            LocateError::Ambiguous => {
                write!(
                    f,
                    "multiple consistent error assignments (irreducible ambiguity)"
                )
            }
        }
    }
}

impl std::error::Error for LocateError {}

/// Locates the per-word error masks of a suspected spatial MBE.
///
/// `r3` is the XOR of all rotated error masks (see module docs);
/// `suspects` lists the faulty dirty words of one protection domain.
/// On success returns one error mask per suspect, in order: XORing each
/// mask into its word's stored value yields the corrected data.
///
/// # Errors
///
/// Returns a [`LocateError`] when the fault is outside the correctable
/// envelope or cannot be unambiguously located — a DUE in the paper's
/// taxonomy.
///
/// # Panics
///
/// Panics if `suspects` is empty, any syndrome is zero (callers only
/// invoke the locator for detected faults) or any class is 8 or more.
pub fn locate_spatial(r3: u64, suspects: &[Suspect]) -> Result<Vec<u64>, LocateError> {
    let mut out = Vec::with_capacity(suspects.len());
    locate_spatial_into(r3, suspects, &mut out)?;
    Ok(out)
}

/// Buffer-reuse form of [`locate_spatial`]: writes the per-suspect error
/// masks into `out` (cleared first). The locator's working set is a few
/// bit masks and one fixed stack array — after the distance and
/// class-alias checks at most 8 suspects remain (one per rotation
/// class) — so a successful call performs no heap allocation beyond
/// growing `out` once.
///
/// # Errors
///
/// Returns a [`LocateError`] when the fault is outside the correctable
/// envelope or cannot be unambiguously located — a DUE in the paper's
/// taxonomy.
///
/// # Panics
///
/// Panics if `suspects` is empty, any syndrome is zero (callers only
/// invoke the locator for detected faults) or any class is 8 or more
/// (a rotation class is `row mod 8` by definition).
pub fn locate_spatial_into(
    r3: u64,
    suspects: &[Suspect],
    out: &mut Vec<u64>,
) -> Result<(), LocateError> {
    out.clear();
    assert!(!suspects.is_empty(), "locator needs at least one suspect");
    // One pass gathers every per-suspect fact: the row span, one bit
    // per rotation class present, each syndrome by class, and `placed`
    // (each syndrome at its class byte, for the single-byte test below).
    let (mut min_row, mut max_row) = (usize::MAX, 0);
    let (mut classes, mut placed) = (0u8, 0u64);
    let mut syndromes = [0u8; 8];
    for s in suspects {
        assert!(s.syndrome != 0, "suspects must have fired parity");
        assert!(s.class < 8, "rotation classes are row mod 8");
        min_row = min_row.min(s.row);
        max_row = max_row.max(s.row);
        classes |= 1 << s.class;
        placed |= u64::from(s.syndrome) << (8 * s.class);
        syndromes[s.class] = s.syndrome;
    }
    if max_row - min_row > 7 {
        return Err(LocateError::DistanceExceeded);
    }
    // Fewer class bits than suspects means two suspects share a class.
    if classes.count_ones() as usize != suspects.len() {
        return Err(LocateError::ClassAliased);
    }
    // Distinct classes in 0..8 ⇒ at most 8 suspects from here on, and
    // each suspect is named by its class (so `syndromes` and `placed`
    // hold every suspect's syndrome once).

    // Step 3, first half: a single common byte `j`. Byte `j` of a word
    // of class `c` lands in R3 byte `j + c`, and distinct classes land
    // in distinct bytes, so byte `j` explains the fault exactly when R3
    // is every syndrome placed at its class byte, rotated left by `j`
    // bytes (byte-aligned bits are their own parity groups, so each
    // word's error byte *is* its syndrome). Two such `j` give different
    // masks: already irreducibly ambiguous (e.g. the §4.6 distance-4
    // alias), no matter what the bands yield.
    let mut single = (0..8u32).filter(|&j| rotate_left_bytes(placed, j) == r3);
    if let Some(j) = single.next() {
        if single.next().is_some() {
            return Err(LocateError::Ambiguous);
        }
        out.extend(suspects.iter().map(|s| u64::from(s.syndrome) << (8 * j)));
        return Ok(());
    }

    // Step 1-2 (paper §4.5): the non-zero bytes of R3 (as a bitmask) —
    // for each, some word byte must explain the contribution.
    let faulty_bytes = (0..8).fold(0u8, |m, b| m | (u8::from((r3 >> (8 * b)) & 0xFF != 0) << b));

    // Step 3, second half + step 4: adjacent byte bands with peeling.
    let mut masks = [0u64; 8];
    let mut found: Option<[u64; 8]> = None;
    for band in 0..7u32 {
        // The paper's precondition: every R3 faulty byte must be
        // explainable by byte `band` or `band + 1` of some faulty word.
        // Rotating the class mask left by `j` gives the R3 bytes that
        // word byte `j` reaches.
        let reach = classes.rotate_left(band) | classes.rotate_left(band + 1);
        if faulty_bytes & !reach != 0 {
            continue;
        }
        // Physical-plausibility filter: a spatial MBE inside an 8x8
        // square spans at most 8 consecutive bit columns.
        if solve_band(r3, classes, &syndromes, band, &mut masks) && column_span(&masks) <= 8 {
            match &found {
                Some(first) if *first == masks => {}
                Some(_) => return Err(LocateError::Ambiguous),
                None => found = Some(masks),
            }
        }
    }
    match found {
        Some(first) => {
            out.extend(suspects.iter().map(|s| first[s.class]));
            Ok(())
        }
        None => Err(LocateError::NoSolution),
    }
}

/// Width in bit columns of the union of all error masks (0 for empty).
fn column_span(masks: &[u64]) -> u32 {
    let union = masks.iter().fold(0u64, |acc, m| acc | m);
    if union == 0 {
        0
    } else {
        64 - union.leading_zeros() - union.trailing_zeros()
    }
}

/// Attempts to explain the fault entirely within word bytes `band` and
/// `band + 1` of the suspects whose classes are set in `classes`
/// (`syndromes` indexed by class). On success writes each suspect's
/// error mask into `masks[class]`; the other entries are left alone.
///
/// The candidates of an R3 byte are implicit: byte `b` receives word
/// byte `band` of class `b - band` and word byte `band + 1` of class
/// `b - band - 1` (mod 8), when those classes are still unlocated. So
/// the two rotations of the unlocated-class mask name every byte's
/// candidates, their XOR the bytes with exactly one, and peeling a word
/// clears one bit.
fn solve_band(
    mut r3: u64,
    classes: u8,
    syndromes: &[u8; 8],
    band: u32,
    masks: &mut [u64; 8],
) -> bool {
    let mut live = classes;
    while live != 0 {
        let lo = live.rotate_left(band);
        let hi = live.rotate_left(band + 1);
        // A forced deduction: an R3 byte with exactly one candidate
        // (the lowest such byte first).
        let forced = lo ^ hi;
        if forced == 0 {
            return false;
        }
        let b = forced.trailing_zeros();
        let (jj, jj_other) = if lo >> b & 1 == 1 {
            (band, band + 1)
        } else {
            (band + 1, band)
        };
        let class = (b + 8 - jj) % 8;

        let e_known = (r3 >> (8 * b)) as u8;
        // Per-group case analysis: a group fires iff an odd number of its
        // band bits flipped; each band byte holds exactly one bit of each
        // group, so the other byte's bit is e_known ^ syndrome.
        let e_other = e_known ^ syndromes[class as usize];
        let mask = (u64::from(e_known) << (8 * jj)) | (u64::from(e_other) << (8 * jj_other));

        masks[class as usize] = mask;
        r3 ^= rotate_left_bytes(mask, class);
        live &= !(1 << class);
    }
    // Accept only a fully consistent explanation: every class was
    // located exactly once, and R3 is completely consumed.
    r3 == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use cppc_campaign::rng::rngs::StdRng;
    use cppc_campaign::rng::{RngExt, SeedableRng};

    /// The locator as it was before its bit-mask rewrite: per-`j` and
    /// per-band scans over the suspect list and a candidate table per
    /// R3 byte. Kept as the oracle the rewrite is checked against.
    mod reference {
        use crate::locator::{column_span, LocateError, Suspect};
        use crate::rotate::rotate_left_bytes;

        pub(super) fn locate_spatial_into(
            r3: u64,
            suspects: &[Suspect],
            out: &mut Vec<u64>,
        ) -> Result<(), LocateError> {
            out.clear();
            assert!(!suspects.is_empty(), "locator needs at least one suspect");
            assert!(
                suspects.iter().all(|s| s.syndrome != 0),
                "suspects must have fired parity"
            );

            let min_row = suspects.iter().map(|s| s.row).min().expect("non-empty");
            let max_row = suspects.iter().map(|s| s.row).max().expect("non-empty");
            if max_row - min_row > 7 {
                return Err(LocateError::DistanceExceeded);
            }
            for (i, a) in suspects.iter().enumerate() {
                for b in &suspects[i + 1..] {
                    if a.class == b.class {
                        return Err(LocateError::ClassAliased);
                    }
                }
            }
            // Distinct classes in 0..8 ⇒ at most 8 suspects from here on.
            let n = suspects.len();
            debug_assert!(n <= 8, "class-alias check bounds the suspect count");

            // Step 1-2 (paper §4.5): the non-zero bytes of R3 (as a bitmask) —
            // for each, some word byte must explain the contribution.
            let faulty_bytes =
                (0..8).fold(0u8, |m, b| m | (u8::from((r3 >> (8 * b)) & 0xFF != 0) << b));

            let mut scratch = [0u64; 8];

            // Step 3, first half: a single common byte `j` such that every R3
            // faulty byte is explained by byte `j` of some faulty word. Only the
            // first distinct solution is kept; a second distinct one is already
            // irreducibly ambiguous (e.g. the §4.6 distance-4 alias), no matter
            // what later bytes yield.
            if faulty_bytes != 0 {
                let mut found: Option<[u64; 8]> = None;
                for j in 0..8u32 {
                    let covers = (0..8).filter(|&b| faulty_bytes >> b & 1 == 1).all(|b| {
                        suspects
                            .iter()
                            .any(|s| (j as usize + s.class) % 8 == b as usize)
                    });
                    if covers && solve_single_byte(r3, suspects, j, &mut scratch) {
                        match &found {
                            Some(first) if first[..n] == scratch[..n] => {}
                            Some(_) => return Err(LocateError::Ambiguous),
                            None => found = Some(scratch),
                        }
                    }
                }
                if let Some(first) = found {
                    out.extend_from_slice(&first[..n]);
                    return Ok(());
                }
            }

            // Step 3, second half + step 4: adjacent byte bands with peeling.
            let mut found: Option<[u64; 8]> = None;
            for band in 0..7u32 {
                // The paper's precondition: every R3 faulty byte must be
                // explainable by byte `band` or `band + 1` of some faulty word.
                let qualifies = (0..8).filter(|&b| faulty_bytes >> b & 1 == 1).all(|b| {
                    suspects.iter().any(|s| {
                        (band as usize + s.class) % 8 == b as usize
                            || (band as usize + 1 + s.class) % 8 == b as usize
                    })
                });
                if !qualifies {
                    continue;
                }
                // Physical-plausibility filter: a spatial MBE inside an 8x8
                // square spans at most 8 consecutive bit columns.
                if solve_band(r3, suspects, band, &mut scratch) && column_span(&scratch[..n]) <= 8 {
                    match &found {
                        Some(first) if first[..n] == scratch[..n] => {}
                        Some(_) => return Err(LocateError::Ambiguous),
                        None => found = Some(scratch),
                    }
                }
            }
            match found {
                Some(first) => {
                    out.extend_from_slice(&first[..n]);
                    Ok(())
                }
                None => Err(LocateError::NoSolution),
            }
        }

        /// Tries to explain the fault entirely within byte `j` of every faulty
        /// word (the paper's single-common-byte case). Each suspect's error byte
        /// is read directly off R3; consistency demands that it equals the
        /// suspect's syndrome (byte-aligned bits are their own parity groups)
        /// and that the contributions reproduce R3 exactly. On success writes
        /// the per-suspect error masks into `masks[..suspects.len()]`.
        fn solve_single_byte(r3: u64, suspects: &[Suspect], j: u32, masks: &mut [u64; 8]) -> bool {
            let mut reconstructed = 0u64;
            for (i, s) in suspects.iter().enumerate() {
                let b = (j as usize + s.class) % 8;
                let e_byte = ((r3 >> (8 * b)) & 0xFF) as u8;
                if e_byte != s.syndrome {
                    return false;
                }
                let mask = u64::from(e_byte) << (8 * j);
                reconstructed ^= rotate_left_bytes(mask, s.class as u32);
                masks[i] = mask;
            }
            reconstructed == r3
        }

        /// Attempts to explain the fault entirely within word bytes `band` and
        /// `band + 1`. On success writes the per-suspect error masks into
        /// `masks[..suspects.len()]`.
        fn solve_band(r3: u64, suspects: &[Suspect], band: u32, masks: &mut [u64; 8]) -> bool {
            let jj_lo = band;
            let jj_hi = band + 1;
            let n = suspects.len();

            // members[b] = candidate (suspect index, word byte) pairs whose
            // rotated contribution lands in byte b of R3. Each of the ≤ 8
            // suspects lands in two *distinct* bytes (jj_lo and jj_hi differ by
            // 1 mod 8), so a byte holds at most one entry per suspect.
            let mut members = [[(0usize, 0u32); 8]; 8];
            let mut member_len = [0usize; 8];
            for (i, s) in suspects.iter().enumerate() {
                for jj in [jj_lo, jj_hi] {
                    let b = (jj as usize + s.class) % 8;
                    members[b][member_len[b]] = (i, jj);
                    member_len[b] += 1;
                }
            }

            let mut r3 = r3;
            let mut remaining = n;

            while remaining > 0 {
                // Find a forced deduction: an R3 byte with exactly one candidate.
                let Some(singleton) = (0..8).find(|&b| member_len[b] == 1) else {
                    return false;
                };
                let (idx, jj) = members[singleton][0];
                let s = suspects[idx];

                let e_known = ((r3 >> (8 * singleton)) & 0xFF) as u8;
                // Per-group case analysis: a group fires iff an odd number of its
                // band bits flipped; each band byte holds exactly one bit of each
                // group, so the other byte's bit is e_known ^ syndrome.
                let e_other = e_known ^ s.syndrome;
                let jj_other = if jj == jj_lo { jj_hi } else { jj_lo };
                let mask =
                    (u64::from(e_known) << (8 * jj)) | (u64::from(e_other) << (8 * jj_other));

                masks[idx] = mask;
                r3 ^= rotate_left_bytes(mask, s.class as u32);
                for b in 0..8 {
                    let mut kept = 0;
                    for t in 0..member_len[b] {
                        if members[b][t].0 != idx {
                            members[b][kept] = members[b][t];
                            kept += 1;
                        }
                    }
                    member_len[b] = kept;
                }
                remaining -= 1;
            }

            // Accept only a fully consistent explanation. The peel loop located
            // every suspect exactly once (retain removes a located index from
            // all candidate lists), so masks[..n] is fully written.
            r3 == 0
        }
    }

    /// Builds (r3, suspects) from ground-truth error masks, mimicking
    /// what the recovery engine computes from the real cache.
    fn make_case(errors: &[(usize, u64)]) -> (u64, Vec<Suspect>) {
        let mut r3 = 0;
        let mut suspects = Vec::new();
        for &(row, e) in errors {
            assert_ne!(e, 0);
            let class = row % 8;
            r3 ^= rotate_left_bytes(e, class as u32);
            let mut syndrome = 0u8;
            for bit in 0..64u32 {
                if e >> bit & 1 == 1 {
                    syndrome ^= 1 << (bit % 8);
                }
            }
            suspects.push(Suspect {
                row,
                class,
                syndrome,
            });
        }
        (r3, suspects)
    }

    fn check_located(errors: &[(usize, u64)]) {
        let (r3, suspects) = make_case(errors);
        let masks = locate_spatial(r3, &suspects).expect("locatable");
        for (i, &(_, e)) in errors.iter().enumerate() {
            assert_eq!(masks[i], e, "error mask of suspect {i}");
        }
    }

    #[test]
    fn vertical_two_bit_stripe() {
        // The paper's Figure 4/5 scenario: bit 0 of two adjacent rows.
        check_located(&[(0, 1), (1, 1)]);
    }

    #[test]
    fn vertical_full_column_eight_rows_is_ambiguous_or_located() {
        // Bit 0 of 8 adjacent rows: classes 0..7 all faulty, single
        // column. The solid same-column stripe across all 8 classes is
        // one of the §4.6 hard patterns family; accept either a correct
        // location or a DUE, but never a wrong mask.
        let errors: Vec<(usize, u64)> = (0..8).map(|r| (r, 1u64)).collect();
        let (r3, suspects) = make_case(&errors);
        match locate_spatial(r3, &suspects) {
            Ok(masks) => {
                for (i, &(_, e)) in errors.iter().enumerate() {
                    assert_eq!(masks[i], e);
                }
            }
            Err(LocateError::Ambiguous) | Err(LocateError::NoSolution) => {}
            Err(other) => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn paper_section_4_5_example() {
        // §4.5's worked example: a spatial fault in bits 5-12 of four
        // words of classes 0-3 (bits 5-7 of byte 0, bits 0-4 of byte 1).
        let e = 0b1_1111_1110_0000u64; // bits 5..=12
        let errors: Vec<(usize, u64)> = (0..4).map(|r| (r, e)).collect();
        check_located(&errors);
    }

    #[test]
    fn three_bit_vertical_in_byte_zero() {
        // §4.3's example: 3-bit vertical fault in bit 0 of first three rows.
        check_located(&[(0, 1), (1, 1), (2, 1)]);
    }

    #[test]
    fn diagonal_pattern_within_square() {
        check_located(&[(0, 1 << 3), (1, 1 << 4), (2, 1 << 5)]);
    }

    #[test]
    fn two_byte_band_mixed_bits() {
        // Errors straddling the byte 0/1 boundary, confined to columns
        // 4..=11 (an 8-wide window): word A flips bits 7,8,9; word B
        // flips bits 4 and 11.
        check_located(&[(4, 0b0011_1000_0000), (5, 0b1000_0001_0000)]);
    }

    #[test]
    fn full_8x8_square_is_due() {
        // §4.6: all bits of an 8x8 square — unlocatable with one pair.
        let errors: Vec<(usize, u64)> = (0..8).map(|r| (r, 0xFFu64)).collect();
        let (r3, suspects) = make_case(&errors);
        assert!(matches!(
            locate_spatial(r3, &suspects),
            Err(LocateError::Ambiguous) | Err(LocateError::NoSolution)
        ));
    }

    #[test]
    fn distance_four_alias_is_due_or_correct() {
        // §4.6: byte 0 of class 0 and byte 0 of class 4: content of R3
        // identical to byte-4 interpretation — must not silently pick a
        // wrong one. Distance 4 rows, same byte.
        let errors = [(0usize, 0x07u64), (4usize, 0x03u64)];
        let (r3, suspects) = make_case(&errors);
        match locate_spatial(r3, &suspects) {
            Ok(masks) => assert_eq!(masks, vec![0x07, 0x03], "if located, must be exact"),
            Err(LocateError::Ambiguous) | Err(LocateError::NoSolution) => {}
            Err(other) => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn distance_beyond_square_rejected() {
        let errors = [(0usize, 1u64), (9usize, 1u64)];
        let (r3, suspects) = make_case(&errors);
        assert_eq!(
            locate_spatial(r3, &suspects),
            Err(LocateError::DistanceExceeded)
        );
    }

    #[test]
    fn shared_class_rejected() {
        let s = Suspect {
            row: 0,
            class: 0,
            syndrome: 1,
        };
        let t = Suspect {
            row: 3,
            class: 0,
            syndrome: 1,
        };
        assert_eq!(locate_spatial(1, &[s, t]), Err(LocateError::ClassAliased));
    }

    #[test]
    fn never_miscorrects_exhaustive_two_row_bands() {
        // Exhaustive-ish sweep: every 2-row pattern within every band,
        // a few bit combinations. The locator must either return the
        // exact masks or refuse.
        for band in 0..7u32 {
            for bits_a in [0b1u64, 0b1000_0000, 0b1_0000_0001, 0b1111] {
                for bits_b in [0b1u64, 0b10, 0b1000_0001] {
                    let shift = 8 * band;
                    let ea = bits_a << shift;
                    let eb = bits_b << shift;
                    // keep within the 16-bit band
                    if ea >> shift > 0xFFFF || eb >> shift > 0xFFFF {
                        continue;
                    }
                    // Skip patterns with even flips per parity group —
                    // those are undetectable by 8-way parity (hardware
                    // would not see them either).
                    let syn = |e: u64| {
                        (0..64u32).fold(0u8, |s, b| {
                            if e >> b & 1 == 1 {
                                s ^ (1 << (b % 8))
                            } else {
                                s
                            }
                        })
                    };
                    if syn(ea) == 0 || syn(eb) == 0 {
                        continue;
                    }
                    for r0 in 0..3usize {
                        let errors = [(r0, ea), (r0 + 1, eb)];
                        let (r3, suspects) = make_case(&errors);
                        match locate_spatial(r3, &suspects) {
                            Ok(masks) => {
                                assert_eq!(masks, vec![ea, eb], "band {band} rows {r0}");
                            }
                            Err(LocateError::Ambiguous | LocateError::NoSolution) => {}
                            Err(other) => panic!("unexpected {other:?}"),
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one suspect")]
    fn empty_suspects_panics() {
        let _ = locate_spatial(0, &[]);
    }

    #[test]
    #[should_panic(expected = "row mod 8")]
    fn class_of_eight_or_more_panics() {
        let s = Suspect {
            row: 8,
            class: 8,
            syndrome: 1,
        };
        let _ = locate_spatial(1 << 8, &[s]);
    }

    /// Syndrome (fired groups of 8-way interleaved parity) of one error.
    fn syndrome_of(e: u64) -> u8 {
        (0..8).fold(0u8, |acc, b| acc ^ (e >> (8 * b)) as u8)
    }

    /// Random locator inputs: up to 8 suspects mostly within distance
    /// and with distinct classes, random non-zero syndromes, and an R3
    /// that is random, sparse, or built from errors inside one band.
    fn random_case(rng: &mut StdRng) -> (u64, Vec<Suspect>) {
        let n = rng.random_range(1..=8usize);
        let base = rng.random_range(0..256usize);
        let mut offsets: Vec<usize> = (0..8).collect();
        for i in (1..8).rev() {
            offsets.swap(i, rng.random_range(0..=i));
        }
        let mut suspects: Vec<Suspect> = offsets[..n]
            .iter()
            .map(|&o| {
                let row = base + o;
                Suspect {
                    row,
                    class: row % 8,
                    syndrome: rng.random_range(1..=255u8),
                }
            })
            .collect();
        match rng.random_range(0..16u32) {
            0 => suspects[0].row = base + rng.random_range(8..12usize),
            1 if n < 8 => suspects.push(suspects[0]),
            _ => {}
        }
        let r3 = match rng.random_range(0..4u32) {
            0 => rng.random::<u64>(),
            1 => rng.random::<u64>() & rng.random::<u64>() & rng.random::<u64>(),
            _ => {
                // Errors inside one adjacent-byte band, syndromes taken
                // from them: often locatable.
                let band = rng.random_range(0..7u32);
                let mut r3 = 0;
                for s in &mut suspects {
                    let e = u64::from(rng.random::<u16>() | 1) << (8 * band);
                    s.syndrome = syndrome_of(e).max(1);
                    r3 ^= rotate_left_bytes(e, s.class as u32);
                }
                r3
            }
        };
        (r3, suspects)
    }

    /// A real spatial strike: up to 8 rows by up to 8 columns at a
    /// random density. Undetected rows still feed R3 (as in recovery);
    /// sometimes a far row joins the suspects or R3 takes extra flips.
    fn strike_case(rng: &mut StdRng) -> Option<(u64, Vec<Suspect>)> {
        let rows = rng.random_range(1..=8usize);
        let width = rng.random_range(1..=8u32);
        let col = rng.random_range(0..=64 - width);
        let density = [1.0, 1.0, 0.7, 0.4][rng.random_range(0..4usize)];
        let r0 = rng.random_range(0..248usize);
        let mut r3 = 0u64;
        let mut suspects = Vec::new();
        for row in r0..r0 + rows {
            let mut e = 0u64;
            for c in col..col + width {
                if rng.random_bool(density) {
                    e |= 1 << c;
                }
            }
            r3 ^= rotate_left_bytes(e, (row % 8) as u32);
            if syndrome_of(e) != 0 {
                suspects.push(Suspect {
                    row,
                    class: row % 8,
                    syndrome: syndrome_of(e),
                });
            }
        }
        if rng.random_range(0..16u32) == 0 {
            let row = r0 + rng.random_range(8..12usize);
            suspects.push(Suspect {
                row,
                class: row % 8,
                syndrome: rng.random_range(1..=255u8),
            });
        }
        if rng.random_range(0..8u32) == 0 {
            r3 ^= 1 << rng.random_range(0..64u32);
        }
        (!suspects.is_empty()).then_some((r3, suspects))
    }

    /// The bit-mask locator returns exactly what the reference returns
    /// — the same `Result` and the same masks — on random inputs and on
    /// real strikes, and the sample reaches every outcome.
    #[test]
    fn bitmask_locator_matches_reference() {
        let mut rng = StdRng::seed_from_u64(0x0010_CA7E);
        let (mut got, mut want) = (Vec::new(), Vec::new());
        // Ok, DistanceExceeded, ClassAliased, NoSolution, Ambiguous.
        let mut seen = [0u32; 5];
        let mut cases = 0u32;
        while cases < 200_000 {
            let case = if cases.is_multiple_of(2) {
                Some(random_case(&mut rng))
            } else {
                strike_case(&mut rng)
            };
            let Some((r3, suspects)) = case else {
                continue;
            };
            let expected = reference::locate_spatial_into(r3, &suspects, &mut want);
            let actual = locate_spatial_into(r3, &suspects, &mut got);
            assert_eq!(actual, expected, "r3 {r3:#x} suspects {suspects:?}");
            assert_eq!(got, want, "r3 {r3:#x} suspects {suspects:?}");
            seen[match actual {
                Ok(()) => 0,
                Err(LocateError::DistanceExceeded) => 1,
                Err(LocateError::ClassAliased) => 2,
                Err(LocateError::NoSolution) => 3,
                Err(LocateError::Ambiguous) => 4,
            }] += 1;
            cases += 1;
        }
        assert!(seen.iter().all(|&n| n > 0), "outcome counts {seen:?}");
    }
}
