//! Fault models and deterministic fault-pattern generators.
//!
//! A [`FaultPattern`] is one `(row, mask)` pair per struck row, the form
//! every consumer applies (a scheme XORs one mask into one stored word,
//! the batch engine starts its error-mask algebra from the pairs). The
//! sampler writes masks directly; [`BitFlip`]s build patterns by hand.

use cppc_campaign::rng::rngs::StdRng;
use cppc_campaign::rng::{RngExt, SeedableRng};

/// One flipped bit: physical row + bit column (0–63).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BitFlip {
    /// Physical data-array row.
    pub row: usize,
    /// Bit column within the row (0 = LSB of the stored word).
    pub col: u32,
}

/// A concrete fault: the set of bits one event flips, as one
/// `(row, mask)` pair per struck row in ascending row order. No mask is
/// zero and no row appears twice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPattern {
    rows: Vec<(usize, u64)>,
}

impl FaultPattern {
    /// Builds a pattern from flips, dropping duplicates.
    ///
    /// # Panics
    ///
    /// Panics if a column is 64 or more.
    #[must_use]
    pub fn new(flips: Vec<BitFlip>) -> Self {
        flips.into_iter().collect()
    }

    /// An empty pattern — the reusable buffer for
    /// [`FaultGenerator::sample_into`].
    #[must_use]
    pub fn empty() -> Self {
        FaultPattern { rows: Vec::new() }
    }

    /// Sets bit `col` of `row`'s mask, keeping rows sorted. Returns
    /// `false` if the bit was already set.
    fn set(&mut self, row: usize, col: u32) -> bool {
        assert!(col < 64, "bit column {col} out of range");
        let i = self.rows.binary_search_by_key(&row, |&(r, _)| r);
        let i = i.unwrap_or_else(|i| {
            self.rows.insert(i, (row, 0));
            i
        });
        let old = self.rows[i].1;
        self.rows[i].1 |= 1u64 << col;
        self.rows[i].1 != old
    }

    /// The individual bit flips, in `(row, col)` order.
    pub fn flips(&self) -> impl Iterator<Item = BitFlip> + '_ {
        self.rows.iter().flat_map(|&(row, mask)| {
            (0..64u32)
                .filter(move |&col| mask >> col & 1 == 1)
                .map(move |col| BitFlip { row, col })
        })
    }

    /// Number of bits flipped.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows
            .iter()
            .map(|&(_, m)| m.count_ones() as usize)
            .sum()
    }

    /// `true` when no bit flips (a fully masked event).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The pattern as `(row, error-mask)` pairs: bit `c` of the mask is
    /// set iff the pattern flips column `c` of that row. Rows appear in
    /// ascending order, each exactly once, and no mask is zero.
    #[must_use]
    pub fn row_masks(&self) -> &[(usize, u64)] {
        &self.rows
    }
}

impl FromIterator<BitFlip> for FaultPattern {
    fn from_iter<T: IntoIterator<Item = BitFlip>>(iter: T) -> Self {
        let mut pattern = FaultPattern::empty();
        for f in iter {
            pattern.set(f.row, f.col);
        }
        pattern
    }
}

/// Generative fault models. Each `sample` is deterministic given the
/// generator state, so campaigns are reproducible from their seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultModel {
    /// A single-event upset flipping exactly one bit, uniformly placed.
    TemporalSingleBit,
    /// `count` independent single-bit upsets (temporal multi-bit error).
    TemporalMultiBit {
        /// Number of independent flips.
        count: u32,
    },
    /// A spatial event: every bit inside a `rows x cols` rectangle flips
    /// with probability `density` (at least one bit always flips), with
    /// the rectangle placed uniformly at random. `density = 1.0` gives
    /// the worst-case solid square (e.g. the paper's 8x8).
    SpatialSquare {
        /// Height of the strike footprint in rows.
        rows: usize,
        /// Width of the strike footprint in bit columns.
        cols: u32,
        /// Per-cell flip probability inside the footprint (0, 1].
        density: f64,
    },
    /// A horizontal burst: `cols` adjacent bits of one row.
    HorizontalBurst {
        /// Burst length in bits.
        cols: u32,
    },
    /// A vertical stripe: the same bit column in `rows` adjacent rows.
    VerticalStripe {
        /// Stripe height in rows.
        rows: usize,
    },
}

/// Deterministic generator of [`FaultPattern`]s over an array of
/// `num_rows` rows x 64 columns.
#[derive(Debug)]
pub struct FaultGenerator {
    rng: StdRng,
    num_rows: usize,
}

impl FaultGenerator {
    /// Creates a generator for an array of `num_rows` rows, seeded with
    /// `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `num_rows` is zero.
    #[must_use]
    pub fn new(num_rows: usize, seed: u64) -> Self {
        assert!(num_rows > 0, "array must have rows");
        FaultGenerator {
            rng: StdRng::seed_from_u64(seed),
            num_rows,
        }
    }

    /// Samples one fault pattern from `model`.
    ///
    /// # Panics
    ///
    /// Panics if the model's footprint exceeds the array, if
    /// `density` is outside (0, 1], or a multi-bit count is zero.
    pub fn sample(&mut self, model: FaultModel) -> FaultPattern {
        let mut out = FaultPattern::empty();
        self.sample_into(model, &mut out);
        out
    }

    /// Samples one fault pattern from `model` into `out`, reusing its
    /// row buffer — the allocation-free form campaign hot loops use.
    /// Draws from the generator's RNG in exactly the same order as
    /// [`FaultGenerator::sample`], so the two are interchangeable in a
    /// seeded campaign.
    ///
    /// # Panics
    ///
    /// Panics if the model's footprint exceeds the array, if
    /// `density` is outside (0, 1], or a multi-bit count is zero.
    pub fn sample_into(&mut self, model: FaultModel, out: &mut FaultPattern) {
        out.rows.clear();
        match model {
            FaultModel::TemporalSingleBit => {
                let row = self.rng.random_range(0..self.num_rows);
                let col = self.rng.random_range(0..64u32);
                out.rows.push((row, 1u64 << col));
            }
            FaultModel::TemporalMultiBit { count } => {
                assert!(count > 0, "multi-bit fault needs count >= 1");
                let mut placed = 0;
                while placed < count {
                    let row = self.rng.random_range(0..self.num_rows);
                    let col = self.rng.random_range(0..64u32);
                    // A bit already set is a redrawn duplicate.
                    placed += u32::from(out.set(row, col));
                }
            }
            FaultModel::SpatialSquare {
                rows,
                cols,
                density,
            } => {
                assert!(rows >= 1 && rows <= self.num_rows, "rows out of range");
                assert!((1..=64).contains(&cols), "cols out of range");
                assert!(density > 0.0 && density <= 1.0, "density must be in (0,1]");
                let row0 = self.rng.random_range(0..=self.num_rows - rows);
                let col0 = self.rng.random_range(0..=64 - cols);
                if density >= 1.0 {
                    let band = band(col0, cols);
                    out.rows.extend((row0..row0 + rows).map(|row| (row, band)));
                    return;
                }
                // One draw per cell in row-major order; a square that
                // comes out empty is redrawn in place.
                while out.rows.is_empty() {
                    for row in row0..row0 + rows {
                        let mut mask = 0u64;
                        for col in col0..col0 + cols {
                            if self.rng.random_bool(density) {
                                mask |= 1u64 << col;
                            }
                        }
                        if mask != 0 {
                            out.rows.push((row, mask));
                        }
                    }
                }
            }
            FaultModel::HorizontalBurst { cols } => {
                assert!((1..=64).contains(&cols), "cols out of range");
                let row = self.rng.random_range(0..self.num_rows);
                let col0 = self.rng.random_range(0..=64 - cols);
                out.rows.push((row, band(col0, cols)));
            }
            FaultModel::VerticalStripe { rows } => {
                assert!(rows >= 1 && rows <= self.num_rows, "rows out of range");
                let row0 = self.rng.random_range(0..=self.num_rows - rows);
                let col = self.rng.random_range(0..64u32);
                out.rows
                    .extend((row0..row0 + rows).map(|row| (row, 1u64 << col)));
            }
        }
    }
}

/// The mask of bit columns `col0..col0 + cols` (`cols` in 1..=64).
fn band(col0: u32, cols: u32) -> u64 {
    (u64::MAX >> (64 - cols)) << col0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bounding box `(rows, cols)` of a pattern (0,0 for empty).
    fn bounding_box(p: &FaultPattern) -> (usize, u32) {
        let (Some(first), Some(last)) = (p.rows.first(), p.rows.last()) else {
            return (0, 0);
        };
        let cols = p.rows.iter().fold(0u64, |acc, &(_, m)| acc | m);
        (
            last.0 - first.0 + 1,
            64 - cols.leading_zeros() - cols.trailing_zeros(),
        )
    }

    /// The per-bit sampler the row-mask one replaced: it pushes one
    /// `BitFlip` per struck cell, then sorts, dedups and regroups them
    /// into `(row, mask)` pairs. Kept as the oracle the row-mask sampler
    /// is checked against, draw for draw.
    mod reference {
        use super::super::{BitFlip, FaultGenerator, FaultModel};
        use cppc_campaign::rng::RngExt;

        pub(super) fn sample(g: &mut FaultGenerator, model: FaultModel) -> Vec<(usize, u64)> {
            let mut flips: Vec<BitFlip> = Vec::new();
            match model {
                FaultModel::TemporalSingleBit => {
                    let row = g.rng.random_range(0..g.num_rows);
                    let col = g.rng.random_range(0..64u32);
                    flips.push(BitFlip { row, col });
                }
                FaultModel::TemporalMultiBit { count } => {
                    while flips.len() < count as usize {
                        let f = BitFlip {
                            row: g.rng.random_range(0..g.num_rows),
                            col: g.rng.random_range(0..64u32),
                        };
                        if !flips.contains(&f) {
                            flips.push(f);
                        }
                    }
                }
                FaultModel::SpatialSquare {
                    rows,
                    cols,
                    density,
                } => {
                    let row0 = g.rng.random_range(0..=g.num_rows - rows);
                    let col0 = g.rng.random_range(0..=64 - cols);
                    loop {
                        for dr in 0..rows {
                            for dc in 0..cols {
                                if density >= 1.0 || g.rng.random_bool(density) {
                                    flips.push(BitFlip {
                                        row: row0 + dr,
                                        col: col0 + dc,
                                    });
                                }
                            }
                        }
                        if !flips.is_empty() {
                            break;
                        }
                    }
                }
                FaultModel::HorizontalBurst { cols } => {
                    let row = g.rng.random_range(0..g.num_rows);
                    let col0 = g.rng.random_range(0..=64 - cols);
                    flips.extend((0..cols).map(|dc| BitFlip {
                        row,
                        col: col0 + dc,
                    }));
                }
                FaultModel::VerticalStripe { rows } => {
                    let row0 = g.rng.random_range(0..=g.num_rows - rows);
                    let col = g.rng.random_range(0..64u32);
                    flips.extend((0..rows).map(|dr| BitFlip {
                        row: row0 + dr,
                        col,
                    }));
                }
            }
            flips.sort_unstable();
            flips.dedup();
            let mut out: Vec<(usize, u64)> = Vec::new();
            for f in flips {
                match out.last_mut() {
                    Some((row, mask)) if *row == f.row => *mask |= 1u64 << f.col,
                    _ => out.push((f.row, 1u64 << f.col)),
                }
            }
            out
        }
    }

    /// Every model at full and half array height (campaigns sample the
    /// way-0 half), over several seeded streams: the row-mask sampler
    /// gives the reference's `(row, mask)` list and leaves the RNG where
    /// the reference leaves it.
    #[test]
    fn sampler_matches_per_bit_reference() {
        let models = [
            FaultModel::TemporalSingleBit,
            FaultModel::TemporalMultiBit { count: 1 },
            FaultModel::TemporalMultiBit { count: 6 },
            FaultModel::TemporalMultiBit { count: 40 },
            FaultModel::SpatialSquare {
                rows: 4,
                cols: 4,
                density: 1.0,
            },
            FaultModel::SpatialSquare {
                rows: 8,
                cols: 8,
                density: 1.0,
            },
            FaultModel::SpatialSquare {
                rows: 8,
                cols: 8,
                density: 0.4,
            },
            FaultModel::SpatialSquare {
                rows: 3,
                cols: 64,
                density: 0.05,
            },
            FaultModel::SpatialSquare {
                rows: 2,
                cols: 2,
                density: 0.01,
            },
            FaultModel::HorizontalBurst { cols: 5 },
            FaultModel::HorizontalBurst { cols: 64 },
            FaultModel::VerticalStripe { rows: 3 },
            FaultModel::VerticalStripe { rows: 8 },
        ];
        for num_rows in [256, 128] {
            for seed in [0, 1, 0xFA17, u64::MAX] {
                let mut fast = FaultGenerator::new(num_rows, seed);
                let mut slow = FaultGenerator::new(num_rows, seed);
                let mut buf = FaultPattern::empty();
                for _ in 0..40 {
                    for model in models {
                        fast.sample_into(model, &mut buf);
                        let want = reference::sample(&mut slow, model);
                        assert_eq!(buf.row_masks(), &want[..], "{model:?} rows {num_rows}");
                        assert_eq!(fast.rng, slow.rng, "{model:?}: RNG state");
                        assert_eq!(fast.rng.random::<u64>(), slow.rng.random::<u64>());
                    }
                }
            }
        }
    }

    #[test]
    fn row_masks_groups_sorted_flips() {
        let p = FaultPattern::new(vec![
            BitFlip { row: 7, col: 63 },
            BitFlip { row: 3, col: 0 },
            BitFlip { row: 3, col: 5 },
            BitFlip { row: 3, col: 5 }, // duplicate
            BitFlip { row: 9, col: 1 },
        ]);
        assert_eq!(p.row_masks(), &[(3, 0b10_0001), (7, 1u64 << 63), (9, 0b10)]);
        assert_eq!(p.len(), 4);
        assert!(FaultPattern::empty().row_masks().is_empty());
    }

    #[test]
    fn single_bit_is_single() {
        let mut g = FaultGenerator::new(100, 1);
        for _ in 0..50 {
            let p = g.sample(FaultModel::TemporalSingleBit);
            assert_eq!(p.len(), 1);
            assert!(p.flips().next().expect("one flip").row < 100);
        }
    }

    #[test]
    fn multibit_count_respected_and_distinct() {
        let mut g = FaultGenerator::new(16, 2);
        for _ in 0..20 {
            let p = g.sample(FaultModel::TemporalMultiBit { count: 5 });
            assert_eq!(p.len(), 5, "flips are distinct");
        }
    }

    #[test]
    fn solid_square_has_exact_footprint() {
        let mut g = FaultGenerator::new(64, 3);
        for _ in 0..20 {
            let p = g.sample(FaultModel::SpatialSquare {
                rows: 8,
                cols: 8,
                density: 1.0,
            });
            assert_eq!(p.len(), 64);
            assert_eq!(bounding_box(&p), (8, 8));
        }
    }

    #[test]
    fn sparse_square_stays_inside_box() {
        let mut g = FaultGenerator::new(64, 4);
        for _ in 0..50 {
            let p = g.sample(FaultModel::SpatialSquare {
                rows: 4,
                cols: 6,
                density: 0.3,
            });
            assert!(!p.is_empty());
            let (r, c) = bounding_box(&p);
            assert!(r <= 4 && c <= 6, "bounding box {r}x{c}");
        }
    }

    #[test]
    fn horizontal_burst_single_row() {
        let mut g = FaultGenerator::new(8, 5);
        let p = g.sample(FaultModel::HorizontalBurst { cols: 7 });
        assert_eq!(p.len(), 7);
        assert_eq!(bounding_box(&p).0, 1);
        let cols: Vec<u32> = p.flips().map(|f| f.col).collect();
        assert_eq!(cols.windows(2).filter(|w| w[1] != w[0] + 1).count(), 0);
    }

    #[test]
    fn vertical_stripe_single_column() {
        let mut g = FaultGenerator::new(32, 6);
        let p = g.sample(FaultModel::VerticalStripe { rows: 5 });
        assert_eq!(p.len(), 5);
        assert_eq!(bounding_box(&p), (5, 1));
    }

    #[test]
    fn generator_is_deterministic() {
        let mut a = FaultGenerator::new(128, 99);
        let mut b = FaultGenerator::new(128, 99);
        for _ in 0..10 {
            assert_eq!(
                a.sample(FaultModel::SpatialSquare {
                    rows: 8,
                    cols: 8,
                    density: 0.5
                }),
                b.sample(FaultModel::SpatialSquare {
                    rows: 8,
                    cols: 8,
                    density: 0.5
                })
            );
        }
    }

    #[test]
    fn sample_into_matches_sample_draw_for_draw() {
        let models = [
            FaultModel::TemporalSingleBit,
            FaultModel::TemporalMultiBit { count: 6 },
            FaultModel::SpatialSquare {
                rows: 4,
                cols: 4,
                density: 1.0,
            },
            FaultModel::SpatialSquare {
                rows: 8,
                cols: 8,
                density: 0.4,
            },
            FaultModel::HorizontalBurst { cols: 5 },
            FaultModel::VerticalStripe { rows: 3 },
        ];
        let mut a = FaultGenerator::new(128, 0xFA17);
        let mut b = FaultGenerator::new(128, 0xFA17);
        let mut buf = FaultPattern::empty();
        for _ in 0..20 {
            for model in models {
                b.sample_into(model, &mut buf);
                assert_eq!(a.sample(model), buf, "{model:?}");
            }
        }
    }

    #[test]
    fn pattern_dedups_and_sorts() {
        let p = FaultPattern::new(vec![
            BitFlip { row: 2, col: 1 },
            BitFlip { row: 1, col: 9 },
            BitFlip { row: 2, col: 1 },
        ]);
        assert_eq!(p.len(), 2);
        let flips: Vec<BitFlip> = p.flips().collect();
        assert_eq!(
            flips,
            [BitFlip { row: 1, col: 9 }, BitFlip { row: 2, col: 1 }]
        );
    }

    #[test]
    fn empty_pattern_bounding_box() {
        assert_eq!(bounding_box(&FaultPattern::new(vec![])), (0, 0));
    }

    #[test]
    #[should_panic(expected = "rows out of range")]
    fn square_taller_than_array_panics() {
        let mut g = FaultGenerator::new(4, 0);
        let _ = g.sample(FaultModel::SpatialSquare {
            rows: 8,
            cols: 8,
            density: 1.0,
        });
    }
}
