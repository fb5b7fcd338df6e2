//! Value-independent batch evaluation of fault-injection trials.
//!
//! The CPPC classification pipeline is XOR-linear end to end: parity
//! syndromes, the R1/R2 dirty-XOR invariant and R3 all separate into
//! `f(warm ^ error) = f(warm) ^ f(error)`, and on a *fault-free warm
//! state* the `f(warm)` terms cancel against the stored parities and
//! registers (the same argument that lets every campaign trial restore
//! one warm fill, `cppc_bench::mbe::WarmTrial`). A trial's outcome
//! therefore depends only on the fault geometry and the warm state's
//! valid/dirty maps — never on the stored data values.
//!
//! [`BatchSim`] exploits this: it is built once from a warm
//! [`CppcCache`](crate::CppcCache) (via
//! [`CppcCache::batch_sim`](crate::CppcCache::batch_sim)) and then
//! classifies trials by propagating **error masks** through the exact
//! recovery algebra of
//! [`recover_all`](crate::CppcCache::recover_all), instead of
//! restoring and re-simulating the full cache per trial:
//!
//! * detection: a word's syndrome under errors is `encode(err)`;
//! * clean faulty words: the §3.2 re-fetch restores the warm value, so
//!   the error clears (a clean word equals its backing copy);
//! * single faulty dirty word per domain (§4.4 steps 1–2): the
//!   reconstruction leaves residual error
//!   `rot_f⁻¹(XOR over other domain words w of rot_w(err_w))`;
//! * disjoint-syndrome groups (§4.4 step 4): the masked reconstruction
//!   updates `err_f = (err_f & !mask) | (residual_f & mask)` member by
//!   member. The members' fired parity groups are disjoint and byte
//!   rotation keeps a column in its group, so a member's update never
//!   reaches another member's columns and the order is free;
//! * shared-syndrome groups (§4.5): `R3 = (R1^R2) ^ XOR of rotated
//!   domain values` collapses to the XOR of rotated error masks, so
//!   the *same* [`locate_spatial_into`] the full engine calls runs on
//!   error-derived inputs; a successful locate applies its masks
//!   (`err_f ^= mask_f`). A locate the locator *refuses* — or a shared
//!   group under a config without the locator — is DUE territory: the
//!   batch path reports [`BatchOutcome::NeedsFull`] and the caller
//!   runs that lane through the ordinary per-trial simulator (the
//!   "recovery tail" fallback).
//!
//! A lane's inputs are the fault pattern's own `(row, mask)` pairs
//! ([`FaultPattern::row_masks`]): [`BatchSim::gather`] is a filtered
//! copy of the pairs on valid rows, and each lane entry's warm-state
//! facts (valid, dirty, domain, rotation, class) come from one packed
//! record per row, loaded once per classify. [`BatchSim::classify`]
//! walks the entries in gather order: no outcome or residual depends
//! on the order (see the disjoint-group point above; domains touch
//! disjoint entries, and the locator keys each suspect by its class).
//!
//! After recovery the trial is a silent corruption iff any residual
//! error mask is non-zero on a valid row; the §4.4 post-condition scan
//! cannot fire for data-array faults (every patched word's parity is
//! refreshed, every unpatched erroneous word was undetected), and the
//! register file is never struck by a [`FaultPattern`], so the
//! remaining outcomes are exactly Masked / Corrected / SDC.
//!
//! The per-trial fall-back plus the trial-by-trial differential tests
//! in `cppc-bench` keep this path pinned bit-identical to the full
//! simulator.

use cppc_ecc::InterleavedParity;
use cppc_fault::model::FaultPattern;

use crate::locator::{locate_spatial_into, Suspect};
use crate::rotate::{rotate_left_bytes, rotate_right_bytes};

/// How one trial classified under error-mask propagation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchOutcome {
    /// No flip landed on a valid row — nothing to detect or recover.
    Masked,
    /// Every detected fault recovered through the single-word or
    /// disjoint-group reconstruction; `residual` reports whether any
    /// error mask survived (silent corruption) or all cleared
    /// (corrected).
    Recovered {
        /// `true` iff some valid row still carries a non-zero error.
        residual: bool,
    },
    /// Some protection domain reached DUE territory: the spatial
    /// locator refused a shared-syndrome group, or the configuration
    /// has no locator. The caller must run this lane through the full
    /// per-trial simulator for the reference outcome.
    NeedsFull,
}

/// Reusable per-thread buffers of [`BatchSim::classify`].
#[derive(Debug, Default)]
pub struct BatchScratch {
    /// Each lane entry's row record, loaded once per classify.
    info: Vec<RowInfo>,
    /// Indices of the detected dirty entries, in gather order.
    detected: Vec<usize>,
    /// Indices of the current domain's detected dirty members.
    group: Vec<usize>,
    /// Locator inputs of the current shared-syndrome group.
    suspects: Vec<Suspect>,
    /// Locator outputs (per-suspect correction masks).
    masks: Vec<u64>,
}

/// The warm state's fault geometry of one physical row, packed so that
/// classifying a lane entry costs one table load.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RowInfo {
    /// Protection domain: `register pair << 16 | register lane`.
    pub(crate) domain: u32,
    /// Byte rotation applied before XOR into the registers.
    pub(crate) rot: u8,
    /// CPPC rotation class (the locator's `Suspect::class`).
    pub(crate) class: u8,
    /// Lands a flip on resident data?
    pub(crate) valid: bool,
    /// Dirty word (register-protected)?
    pub(crate) dirty: bool,
}

/// Precomputed warm-state fault-geometry tables (one per warm state;
/// see the module docs).
#[derive(Debug, Clone)]
pub struct BatchSim {
    /// One record per physical data row.
    pub(crate) info: Vec<RowInfo>,
    pub(crate) code: InterleavedParity,
    /// Whether the §4.5 spatial locator applies (8-way parity + byte
    /// shifting); without it shared-syndrome groups are DUEs.
    pub(crate) locator_ok: bool,
}

impl BatchSim {
    /// Number of physical data rows of the warm cache.
    #[must_use]
    pub fn num_rows(&self) -> usize {
        self.info.len()
    }

    /// Appends one `(row, error-mask)` entry per *valid* struck row of
    /// `pattern` to the parallel arenas and returns the number of
    /// applied bit flips (the batch form of
    /// [`inject`](crate::CppcCache::inject)'s return value).
    ///
    /// Rows that hold no valid block are dropped exactly like `inject`
    /// drops them.
    pub fn gather(&self, pattern: &FaultPattern, rows: &mut Vec<u32>, errs: &mut Vec<u64>) -> u32 {
        let mut applied = 0u32;
        for &(row, mask) in pattern.row_masks() {
            if self.info[row].valid {
                applied += mask.count_ones();
                rows.push(row as u32);
                errs.push(mask);
            }
        }
        applied
    }

    /// Computes the parity syndrome of every error mask in `errs` into
    /// `out` — by XOR-linearity, `syndrome(warm ^ err) = encode(err)`
    /// on a fault-free warm state. One call covers every lane of a
    /// batch: this is the single vectorized instruction stream the
    /// syndromes of all trials flow through
    /// ([`cppc_ecc::kernels::encode_many`]).
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn syndromes(&self, errs: &[u64], out: &mut [u64]) {
        cppc_ecc::kernels::encode_many(errs, self.code.ways(), out);
    }

    /// Classifies one lane from its gathered `(row, err, syn)` entries,
    /// replaying the recovery algebra on the error masks. `errs` is
    /// updated in place to the post-recovery residual errors.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    #[must_use]
    pub fn classify(
        &self,
        rows: &[u32],
        errs: &mut [u64],
        syns: &[u64],
        scratch: &mut BatchScratch,
    ) -> BatchOutcome {
        assert_eq!(rows.len(), errs.len(), "parallel slices");
        assert_eq!(rows.len(), syns.len(), "parallel slices");
        if errs.iter().all(|&e| e == 0) {
            return BatchOutcome::Masked;
        }
        let BatchScratch {
            info,
            detected,
            group,
            suspects,
            masks,
        } = scratch;
        info.clear();
        info.extend(rows.iter().map(|&row| self.info[row as usize]));

        // Detected clean words: the re-fetch restores the warm (==
        // backing) value, clearing the error. Detected dirty words go
        // to the register reconstruction below.
        detected.clear();
        for (i, (&syn, row)) in syns.iter().zip(info.iter()).enumerate() {
            if syn == 0 {
                continue;
            }
            if row.dirty {
                detected.push(i);
            } else {
                errs[i] = 0;
            }
        }

        // Detected dirty words, grouped by protection domain in
        // first-encounter order.
        for gi in 0..detected.len() {
            let domain = info[detected[gi]].domain;
            if detected[..gi].iter().any(|&p| info[p].domain == domain) {
                continue;
            }
            group.clear();
            group.extend(detected[gi..].iter().filter(|&&j| info[j].domain == domain));

            if group.len() == 1 {
                let f = group[0];
                errs[f] = residual_of(info, errs, f, domain);
                continue;
            }
            let disjoint = group
                .iter()
                .enumerate()
                .all(|(i, &a)| group[i + 1..].iter().all(|&b| syns[a] & syns[b] == 0));
            if !disjoint {
                // Shared syndromes: the §4.5 locator, on error-derived
                // inputs. R3 is the XOR of the rotated errors of every
                // erroneous dirty word of the domain (the warm values
                // cancel against R1^R2, module docs).
                if !self.locator_ok {
                    return BatchOutcome::NeedsFull;
                }
                let r3 = domain_xor(info, errs, usize::MAX, domain);
                suspects.clear();
                suspects.extend(group.iter().map(|&f| Suspect {
                    row: rows[f] as usize,
                    class: usize::from(info[f].class),
                    syndrome: syns[f] as u8,
                }));
                if locate_spatial_into(r3, suspects, masks).is_err() {
                    // The locator refused — the full path's DUE. The
                    // caller's per-trial fallback owns this lane.
                    return BatchOutcome::NeedsFull;
                }
                for (&f, &mask) in group.iter().zip(masks.iter()) {
                    errs[f] ^= mask;
                }
                continue;
            }
            // Masked reconstruction: each member takes the
            // reconstruction only in its own fired parity-group
            // columns, which no other member's update reaches.
            for &f in group.iter() {
                let residual = residual_of(info, errs, f, domain);
                let mask = self.group_mask(syns[f]);
                errs[f] = (errs[f] & !mask) | (residual & mask);
            }
        }

        BatchOutcome::Recovered {
            residual: errs.iter().any(|&e| e != 0),
        }
    }

    /// Column mask of the fired parity groups of `syndrome` (the mask
    /// of `reconstruct_word_masked`).
    fn group_mask(&self, syndrome: u64) -> u64 {
        let ways = self.code.ways();
        let mut mask = 0u64;
        for g in 0..ways {
            if syndrome >> g & 1 == 1 {
                let mut col = g;
                while col < 64 {
                    mask |= 1u64 << col;
                    col += ways;
                }
            }
        }
        mask
    }
}

/// XOR of the rotated errors of `domain`'s erroneous dirty entries other
/// than entry `skip`: the R3 of the §4.5 locator, or (with `skip` the
/// word being rebuilt) the register side of its §4.4 reconstruction.
fn domain_xor(info: &[RowInfo], errs: &[u64], skip: usize, domain: u32) -> u64 {
    let mut acc = 0u64;
    for (j, (r, &err)) in info.iter().zip(errs.iter()).enumerate() {
        if j != skip && err != 0 && r.dirty && r.domain == domain {
            acc ^= rotate_left_bytes(err, u32::from(r.rot));
        }
    }
    acc
}

/// Residual error the §4.4 reconstruction of entry `f` leaves behind:
/// `rot_f⁻¹(XOR over the domain's other erroneous dirty words w of
/// rot_w(err_w))`. The warm values cancel against the registers (module
/// docs), so only error masks appear.
fn residual_of(info: &[RowInfo], errs: &[u64], f: usize, domain: u32) -> u64 {
    rotate_right_bytes(domain_xor(info, errs, f, domain), u32::from(info[f].rot))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CppcCache, CppcConfig};
    use cppc_cache_sim::geometry::CacheGeometry;
    use cppc_cache_sim::memory::MainMemory;
    use cppc_cache_sim::replacement::ReplacementPolicy;
    use cppc_campaign::rng::rngs::StdRng;
    use cppc_campaign::rng::{RngExt, SeedableRng};
    use cppc_fault::model::{FaultGenerator, FaultModel};

    /// The classifier as it was before its per-row tables were packed
    /// into one record: seven parallel per-row tables, looked up afresh
    /// at every use, and entries walked in `recover_all`'s set-major
    /// scan order. Kept as the oracle the packed classifier, which walks
    /// gather order, is checked against.
    mod reference {
        use super::super::{BatchOutcome, BatchSim};
        use crate::locator::{locate_spatial_into, Suspect};
        use crate::rotate::{rotate_left_bytes, rotate_right_bytes};
        use crate::CppcCache;

        #[derive(Default)]
        pub(super) struct Scratch {
            order: Vec<usize>,
            group: Vec<usize>,
            suspects: Vec<Suspect>,
            masks: Vec<u64>,
        }

        pub(super) struct Legacy {
            valid: Vec<bool>,
            dirty: Vec<bool>,
            pair: Vec<u16>,
            lane: Vec<u16>,
            rot: Vec<u8>,
            class: Vec<u8>,
            scan_rank: Vec<u32>,
            ways: u32,
            locator_ok: bool,
        }

        impl Legacy {
            /// Unpacks `sim`'s row records into six tables and ranks
            /// `cache`'s rows in its scan order for the seventh.
            pub(super) fn of(sim: &BatchSim, cache: &CppcCache) -> Self {
                let info = &sim.info;
                let geo = cache.geometry();
                let scan_rank = (0..info.len())
                    .map(|row| {
                        let (set, way, w) = cache.layout().location_of(row);
                        ((set * geo.associativity() + way) * geo.words_per_block() + w) as u32
                    })
                    .collect();
                Legacy {
                    valid: info.iter().map(|r| r.valid).collect(),
                    dirty: info.iter().map(|r| r.dirty).collect(),
                    pair: info.iter().map(|r| (r.domain >> 16) as u16).collect(),
                    lane: info.iter().map(|r| r.domain as u16).collect(),
                    rot: info.iter().map(|r| r.rot).collect(),
                    class: info.iter().map(|r| r.class).collect(),
                    scan_rank,
                    ways: sim.code.ways(),
                    locator_ok: sim.locator_ok,
                }
            }

            pub(super) fn valid(&self, row: usize) -> bool {
                self.valid[row]
            }

            pub(super) fn classify(
                &self,
                rows: &[u32],
                errs: &mut [u64],
                syns: &[u64],
                scratch: &mut Scratch,
            ) -> BatchOutcome {
                if errs.iter().all(|&e| e == 0) {
                    return BatchOutcome::Masked;
                }
                scratch.order.clear();
                scratch.order.extend(0..rows.len());
                let rank = |i: usize| self.scan_rank[rows[i] as usize];
                for i in 1..scratch.order.len() {
                    let mut j = i;
                    while j > 0 && rank(scratch.order[j - 1]) > rank(scratch.order[j]) {
                        scratch.order.swap(j - 1, j);
                        j -= 1;
                    }
                }
                for &i in &scratch.order {
                    let row = rows[i] as usize;
                    if syns[i] != 0 && !self.dirty[row] {
                        errs[i] = 0;
                    }
                }
                for gi in 0..scratch.order.len() {
                    let i = scratch.order[gi];
                    let row = rows[i] as usize;
                    if syns[i] == 0 || !self.dirty[row] {
                        continue;
                    }
                    let key = (self.pair[row], self.lane[row]);
                    let seen = scratch.order[..gi].iter().any(|&p| {
                        let r = rows[p] as usize;
                        syns[p] != 0 && self.dirty[r] && (self.pair[r], self.lane[r]) == key
                    });
                    if seen {
                        continue;
                    }
                    scratch.group.clear();
                    for &j in &scratch.order[gi..] {
                        let r = rows[j] as usize;
                        if syns[j] != 0 && self.dirty[r] && (self.pair[r], self.lane[r]) == key {
                            scratch.group.push(j);
                        }
                    }
                    if scratch.group.len() == 1 {
                        let f = scratch.group[0];
                        errs[f] = self.residual_of(rows, errs, f, key);
                        continue;
                    }
                    let disjoint = scratch.group.iter().enumerate().all(|(i, &a)| {
                        scratch.group[i + 1..]
                            .iter()
                            .all(|&b| syns[a] & syns[b] == 0)
                    });
                    if !disjoint {
                        if !self.locator_ok {
                            return BatchOutcome::NeedsFull;
                        }
                        let mut r3 = 0u64;
                        for (&row, &err) in rows.iter().zip(errs.iter()) {
                            let r = row as usize;
                            if err != 0 && self.dirty[r] && (self.pair[r], self.lane[r]) == key {
                                r3 ^= rotate_left_bytes(err, u32::from(self.rot[r]));
                            }
                        }
                        scratch.suspects.clear();
                        for &f in &scratch.group {
                            let r = rows[f] as usize;
                            scratch.suspects.push(Suspect {
                                row: r,
                                class: usize::from(self.class[r]),
                                syndrome: syns[f] as u8,
                            });
                        }
                        if locate_spatial_into(r3, &scratch.suspects, &mut scratch.masks).is_err() {
                            return BatchOutcome::NeedsFull;
                        }
                        for (k, &f) in scratch.group.iter().enumerate() {
                            errs[f] ^= scratch.masks[k];
                        }
                        continue;
                    }
                    for k in 0..scratch.group.len() {
                        let f = scratch.group[k];
                        let residual = self.residual_of(rows, errs, f, key);
                        let mask = self.group_mask(syns[f]);
                        errs[f] = (errs[f] & !mask) | (residual & mask);
                    }
                }
                BatchOutcome::Recovered {
                    residual: errs.iter().any(|&e| e != 0),
                }
            }

            fn residual_of(&self, rows: &[u32], errs: &[u64], f: usize, key: (u16, u16)) -> u64 {
                let mut acc = 0u64;
                for (j, (&row, &err)) in rows.iter().zip(errs.iter()).enumerate() {
                    let r = row as usize;
                    if j != f && err != 0 && self.dirty[r] && (self.pair[r], self.lane[r]) == key {
                        acc ^= rotate_left_bytes(err, u32::from(self.rot[r]));
                    }
                }
                rotate_right_bytes(acc, u32::from(self.rot[rows[f] as usize]))
            }

            fn group_mask(&self, syndrome: u64) -> u64 {
                let mut mask = 0u64;
                for g in 0..self.ways {
                    if syndrome >> g & 1 == 1 {
                        let mut col = g;
                        while col < 64 {
                            mask |= 1u64 << col;
                            col += self.ways;
                        }
                    }
                }
                mask
            }
        }
    }

    /// The packed classifier against the seven-table reference, lane by
    /// lane: the same outcome and, when it recovers, the same residual
    /// errors. Every fault model, the paper and two-pair configurations,
    /// L1 (one register lane) and L2 (a lane per block word). Each lane
    /// is classified once more with its entries permuted, which must
    /// change neither the outcome nor any entry's residual.
    #[test]
    fn packed_classify_matches_seven_table_reference() {
        let models = [
            FaultModel::TemporalSingleBit,
            FaultModel::TemporalMultiBit { count: 3 },
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
            FaultModel::HorizontalBurst { cols: 6 },
            FaultModel::VerticalStripe { rows: 5 },
        ];
        // Corrected, silent-corruption and fallback lanes.
        let mut counts = [0u32; 3];
        for config in [CppcConfig::paper(), CppcConfig::two_pairs()] {
            for l2 in [false, true] {
                let seed = 0x9AC4 + u64::from(l2) + 2 * config.register_pairs as u64;
                let (cache, _mem, _probes) = warm_with(l2, config, seed);
                let sim = cache.batch_sim().expect("warm state certifies");
                let legacy = reference::Legacy::of(&sim, &cache);
                let mut shuffle = StdRng::seed_from_u64(seed);
                let mut generator = FaultGenerator::new(sim.num_rows(), seed);
                let (mut scratch, mut legacy_scratch) =
                    (BatchScratch::default(), reference::Scratch::default());
                let (mut rows, mut errs, mut syns) = (Vec::new(), Vec::new(), Vec::new());
                for i in 0..4_000 {
                    let model = models[i % models.len()];
                    let pattern = generator.sample(model);
                    rows.clear();
                    errs.clear();
                    let applied = sim.gather(&pattern, &mut rows, &mut errs);
                    let want: Vec<(u32, u64)> = pattern
                        .row_masks()
                        .iter()
                        .filter(|&&(row, _)| legacy.valid(row))
                        .map(|&(row, mask)| (row as u32, mask))
                        .collect();
                    let got: Vec<(u32, u64)> =
                        rows.iter().copied().zip(errs.iter().copied()).collect();
                    assert_eq!(got, want, "gather, trial {i}");
                    assert_eq!(
                        applied,
                        want.iter().map(|&(_, m)| m.count_ones()).sum::<u32>()
                    );
                    syns.resize(errs.len(), 0);
                    sim.syndromes(&errs, &mut syns);
                    let mut legacy_errs = errs.clone();
                    let mut perm: Vec<usize> = (0..rows.len()).collect();
                    for k in (1..perm.len()).rev() {
                        perm.swap(k, shuffle.random_range(0..=k));
                    }
                    let permuted_rows: Vec<u32> = perm.iter().map(|&k| rows[k]).collect();
                    let permuted_syns: Vec<u64> = perm.iter().map(|&k| syns[k]).collect();
                    let mut permuted_errs: Vec<u64> = perm.iter().map(|&k| errs[k]).collect();
                    let permuted = sim.classify(
                        &permuted_rows,
                        &mut permuted_errs,
                        &permuted_syns,
                        &mut scratch,
                    );
                    let packed = sim.classify(&rows, &mut errs, &syns, &mut scratch);
                    let oracle =
                        legacy.classify(&rows, &mut legacy_errs, &syns, &mut legacy_scratch);
                    assert_eq!(packed, oracle, "{model:?} trial {i}");
                    assert_eq!(permuted, packed, "{model:?} trial {i}: permuted entries");
                    match packed {
                        BatchOutcome::Masked => {}
                        BatchOutcome::Recovered { residual } => {
                            counts[usize::from(residual)] += 1;
                            assert_eq!(errs, legacy_errs, "{model:?} trial {i}: residual errors");
                            for (&k, &err) in perm.iter().zip(&permuted_errs) {
                                assert_eq!(err, errs[k], "{model:?} trial {i}: permuted residual");
                            }
                        }
                        BatchOutcome::NeedsFull => counts[2] += 1,
                    }
                }
            }
        }
        assert!(
            counts.iter().all(|&n| n > 0),
            "every outcome exercised: {counts:?}"
        );
    }

    /// The reference outcome of one injected pattern, from the full
    /// simulator: `None` = masked, `Ok(true)` = corrected, `Ok(false)`
    /// = silent corruption, `Err(())` = DUE.
    fn full_outcome(
        cache: &mut CppcCache,
        mem: &mut MainMemory,
        pattern: &cppc_fault::model::FaultPattern,
        probes: &[(u64, u64)],
    ) -> Option<Result<bool, ()>> {
        if cache.inject(pattern) == 0 {
            return None;
        }
        Some(match cache.recover_all(mem) {
            Err(_) => Err(()),
            Ok(_) => Ok(probes
                .iter()
                .all(|&(addr, v)| cache.peek_word(addr).is_none_or(|got| got == v))),
        })
    }

    /// Drives mixed store/load traffic (larger than the cache, so LRU
    /// creates resident *clean* blocks with non-zero values) and
    /// returns the warm pair plus the probe list of every word of
    /// every resident block with its expected value.
    fn warm(l2: bool, seed: u64) -> (CppcCache, MainMemory, Vec<(u64, u64)>) {
        warm_with(l2, CppcConfig::paper(), seed)
    }

    fn warm_with(
        l2: bool,
        config: CppcConfig,
        seed: u64,
    ) -> (CppcCache, MainMemory, Vec<(u64, u64)>) {
        let geo = CacheGeometry::new(1024, 2, 32).unwrap(); // 16 sets, 4 words
        let mut mem = MainMemory::new();
        let mut cache = if l2 {
            CppcCache::new_l2(geo, config, ReplacementPolicy::Lru).unwrap()
        } else {
            CppcCache::new_l1(geo, config, ReplacementPolicy::Lru).unwrap()
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut oracle = std::collections::HashMap::new();
        for _ in 0..4_000 {
            let addr = (rng.random_range(0..3 * 1024u64)) & !7;
            if rng.random_bool(0.5) {
                let v: u64 = rng.random();
                cache.store_word(addr, v, &mut mem).unwrap();
                oracle.insert(addr, v);
            } else {
                let _ = cache.load_word(addr, &mut mem).unwrap();
            }
        }
        let wpb = geo.words_per_block();
        let mut probes = Vec::new();
        let mut clean_words = 0usize;
        for set in 0..geo.num_sets() {
            for way in 0..geo.associativity() {
                let Some((tag, dirty_mask)) = cache.tag_state_of(set, way) else {
                    continue;
                };
                let base = geo.address_of(tag, set);
                for w in 0..wpb {
                    let addr = base + (w * 8) as u64;
                    probes.push((addr, *oracle.get(&addr).unwrap_or(&0)));
                    clean_words += usize::from(dirty_mask >> w & 1 == 0);
                }
            }
        }
        assert!(clean_words > 0, "traffic must leave clean resident words");
        for &(addr, v) in &probes {
            assert_eq!(cache.peek_word(addr), Some(v), "warm probe list is truth");
        }
        (cache, mem, probes)
    }

    /// The pinning property: wherever `classify` claims an outcome
    /// (anything but `NeedsFull`), it equals the full simulator's,
    /// across random spatial/temporal strikes on both lane modes.
    #[test]
    fn classify_matches_full_simulator() {
        for l2 in [false, true] {
            let (mut cache, mut mem, probes) = warm(l2, 0xBA7C + u64::from(l2));
            let (warm, warm_mem) = (cache.clone(), mem.clone());
            let sim = cache.batch_sim().expect("warm state certifies");
            let models = [
                FaultModel::TemporalSingleBit,
                FaultModel::TemporalMultiBit { count: 3 },
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
            ];
            let mut generator = FaultGenerator::new(sim.num_rows(), 0x5EED + u64::from(l2));
            let mut scratch = BatchScratch::default();
            let (mut rows, mut errs, mut syns) = (Vec::new(), Vec::new(), Vec::new());
            let (mut fast, mut fell_back) = (0u32, 0u32);
            for i in 0..600 {
                let pattern = generator.sample(models[i % models.len()]);

                rows.clear();
                errs.clear();
                let applied = sim.gather(&pattern, &mut rows, &mut errs);
                syns.resize(errs.len(), 0);
                sim.syndromes(&errs, &mut syns);
                let batch = if applied == 0 {
                    BatchOutcome::Masked
                } else {
                    sim.classify(&rows, &mut errs, &syns, &mut scratch)
                };

                cache.clone_from(&warm);
                mem.clone_from(&warm_mem);
                let full = full_outcome(&mut cache, &mut mem, &pattern, &probes);
                match batch {
                    // A locate-refusal: the reference path owns the
                    // lane, so the batch claims nothing to check.
                    BatchOutcome::NeedsFull => {
                        fell_back += 1;
                        assert_eq!(full, Some(Err(())), "trial {i}: NeedsFull is DUE territory");
                    }
                    BatchOutcome::Masked => assert!(full.is_none(), "trial {i}"),
                    BatchOutcome::Recovered { residual } => {
                        fast += 1;
                        assert_eq!(full, Some(Ok(!residual)), "trial {i}");
                    }
                }
            }
            assert!(fast > 100, "fast path must carry the bulk ({fast})");
            // `fell_back` may be zero here: with the locator
            // replicated, only locate-refusals (rare in this sample)
            // take the tail — the bench-level sparse campaign test
            // pins that seam with `due > 0`.
            let _ = fell_back;
        }
    }

    #[test]
    fn struck_cache_does_not_certify() {
        let (mut cache, _mem, _probes) = warm(false, 0xDEAD);
        assert!(cache.batch_sim().is_some());
        let pattern = cppc_fault::model::FaultPattern::new(vec![cppc_fault::model::BitFlip {
            row: 0,
            col: 7,
        }]);
        // Strike a resident word and *don't* recover: the baseline is
        // no longer fault-free, so the batch algebra must refuse.
        if cache.inject(&pattern) == 1 {
            assert!(cache.batch_sim().is_none());
        }
    }
}
