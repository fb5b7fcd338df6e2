//! Replacement policies.
//!
//! A cache keeps the replacement state of all its sets in one flat
//! arena (`ReplacementArena`): a `sets × ways` order array, where
//! promoting a way shifts the entries ahead of it in its set's slice
//! back by one and puts it first, plus a per-set xorshift state under
//! Random. The cache calls `touch` on every access
//! and `victim` when it must evict. Random replacement is deterministic
//! (an xorshift stream seeded per set) so every experiment in the
//! workspace is reproducible.

/// Which replacement policy a cache uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReplacementPolicy {
    /// Least-recently-used (the default, and what the paper's
    /// SimpleScalar configuration uses).
    #[default]
    Lru,
    /// First-in first-out.
    Fifo,
    /// Pseudo-random (deterministic xorshift).
    Random,
}

/// Replacement bookkeeping for every set of one cache, in one flat
/// arena: a `sets × ways` order array plus, under
/// [`ReplacementPolicy::Random`], one xorshift state per set. The whole
/// state is two buffers, so restoring a warm clone (`clone_from`) is two
/// in-place copies and a cache of 8,192 sets costs no more allocations
/// than one of one set.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct ReplacementArena {
    policy: ReplacementPolicy,
    ways: usize,
    /// Set `s` owns `order[s * ways..(s + 1) * ways]`. For LRU its first
    /// entry is the most recently used way; for FIFO the most recently
    /// *filled* way.
    order: Vec<u32>,
    /// Per-set xorshift state; empty unless the policy is Random.
    rng: Vec<u64>,
}

crate::clone_in_place! { ReplacementArena { policy, ways, order, rng } }

impl ReplacementArena {
    /// State for `sets` sets of `ways` ways standing for sets `first`,
    /// `first + stride`, `first + 2·stride`, … of a cache: local set `s`
    /// takes the Random stream of set `first + s·stride`, seeded with
    /// that index `^ 0x9E37_79B9`, so a cache split by set-index residue
    /// draws the victims the whole cache would.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero or does not fit a `u32`.
    pub(crate) fn interleaved(
        policy: ReplacementPolicy,
        sets: usize,
        ways: usize,
        first: usize,
        stride: usize,
    ) -> Self {
        assert!(ways > 0, "a set needs at least one way");
        let ways32 = u32::try_from(ways).expect("way count fits a u32");
        let rng = if policy == ReplacementPolicy::Random {
            // xorshift must never be seeded with zero.
            (0..sets)
                .map(|s| ((first + s * stride) as u64 ^ 0x9E37_79B9) | 1)
                .collect()
        } else {
            Vec::new()
        };
        ReplacementArena {
            policy,
            ways,
            order: (0..sets).flat_map(|_| 0..ways32).collect(),
            rng,
        }
    }

    /// Records an access (hit) to `way` of `set`.
    #[inline]
    pub(crate) fn touch(&mut self, set: usize, way: usize) {
        if self.policy == ReplacementPolicy::Lru {
            self.promote(set, way);
        }
    }

    /// Records that `way` of `set` was just filled with a new block.
    #[inline]
    pub(crate) fn filled(&mut self, set: usize, way: usize) {
        if self.policy != ReplacementPolicy::Random {
            self.promote(set, way);
        }
    }

    /// Moves `way` to the front of its set's order, shifting the entries
    /// ahead of it back by one — `rotate_right(1)` of the prefix that
    /// ends at `way`, done as one pass that carries the displaced entry
    /// forward until it meets `way`.
    #[inline]
    fn promote(&mut self, set: usize, way: usize) {
        debug_assert!(way < self.ways, "way {way} out of range");
        let way = way as u32;
        let order = &mut self.order[set * self.ways..(set + 1) * self.ways];
        let mut carried = order[0];
        if carried == way {
            return;
        }
        // The order is a permutation of the set's ways, so `way` is met
        // before the slice ends.
        for slot in &mut order[1..] {
            let here = std::mem::replace(slot, carried);
            if here == way {
                break;
            }
            carried = here;
        }
        order[0] = way;
    }

    /// Chooses the way of `set` to evict. Invalid ways should be
    /// preferred by the caller before consulting this.
    pub(crate) fn victim(&mut self, set: usize) -> usize {
        match self.policy {
            ReplacementPolicy::Lru | ReplacementPolicy::Fifo => {
                self.order[(set + 1) * self.ways - 1] as usize
            }
            ReplacementPolicy::Random => {
                // xorshift64*
                let mut x = self.rng[set];
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                self.rng[set] = x;
                (x.wrapping_mul(0x2545_F491_4F6C_DD1D) % self.ways as u64) as usize
            }
        }
    }
}

/// The per-set replacement state the arena replaced, one heap `Vec` per
/// set — kept as the reference oracle the arena is tested against.
#[cfg(test)]
#[derive(Debug, Clone)]
struct SetReplacementState {
    policy: ReplacementPolicy,
    order: Vec<usize>,
    rng_state: u64,
}

#[cfg(test)]
impl ReplacementArena {
    /// State for a whole cache of `sets` sets of `ways` ways.
    fn new(policy: ReplacementPolicy, sets: usize, ways: usize) -> Self {
        Self::interleaved(policy, sets, ways, 0, 1)
    }
}

#[cfg(test)]
impl SetReplacementState {
    fn new(policy: ReplacementPolicy, ways: usize, seed: u64) -> Self {
        SetReplacementState {
            policy,
            order: (0..ways).collect(),
            rng_state: seed | 1,
        }
    }

    fn touch(&mut self, way: usize) {
        if self.policy == ReplacementPolicy::Lru {
            self.promote(way);
        }
    }

    fn filled(&mut self, way: usize) {
        match self.policy {
            ReplacementPolicy::Lru | ReplacementPolicy::Fifo => self.promote(way),
            ReplacementPolicy::Random => {}
        }
    }

    fn promote(&mut self, way: usize) {
        if let Some(pos) = self.order.iter().position(|&w| w == way) {
            self.order.remove(pos);
            self.order.insert(0, way);
        }
    }

    fn victim(&mut self) -> usize {
        match self.policy {
            ReplacementPolicy::Lru | ReplacementPolicy::Fifo => *self.order.last().unwrap(),
            ReplacementPolicy::Random => {
                let mut x = self.rng_state;
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                self.rng_state = x;
                (x.wrapping_mul(0x2545_F491_4F6C_DD1D) % self.order.len() as u64) as usize
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cppc_campaign::rng::rngs::StdRng;
    use cppc_campaign::rng::{RngExt, SeedableRng};

    const POLICIES: [ReplacementPolicy; 3] = [
        ReplacementPolicy::Lru,
        ReplacementPolicy::Fifo,
        ReplacementPolicy::Random,
    ];

    #[test]
    fn lru_evicts_least_recent() {
        let mut s = ReplacementArena::new(ReplacementPolicy::Lru, 1, 4);
        s.filled(0, 0);
        s.filled(0, 1);
        s.filled(0, 2);
        s.filled(0, 3);
        s.touch(0, 0); // 0 becomes MRU; 1 is now LRU
        assert_eq!(s.victim(0), 1);
        s.touch(0, 1);
        assert_eq!(s.victim(0), 2);
    }

    #[test]
    fn fifo_ignores_touches() {
        let mut s = ReplacementArena::new(ReplacementPolicy::Fifo, 1, 3);
        s.filled(0, 0);
        s.filled(0, 1);
        s.filled(0, 2);
        s.touch(0, 0); // must not promote under FIFO
        assert_eq!(s.victim(0), 0, "oldest fill evicted regardless of touches");
    }

    #[test]
    fn random_is_deterministic_and_in_range() {
        let mut a = ReplacementArena::new(ReplacementPolicy::Random, 4, 4);
        let mut b = ReplacementArena::new(ReplacementPolicy::Random, 4, 4);
        for i in 0..100 {
            let (va, vb) = (a.victim(i % 4), b.victim(i % 4));
            assert_eq!(va, vb);
            assert!(va < 4);
        }
    }

    #[test]
    fn random_differs_across_seeds() {
        // Seeds are `(s ^ 0x9E37_79B9) | 1`, so sets 2k and 2k + 1 share a
        // stream (kept: every Random victim stays what it always was);
        // sets 0 and 2 do not.
        let mut s = ReplacementArena::new(ReplacementPolicy::Random, 3, 8);
        let seq_a: Vec<usize> = (0..32).map(|_| s.victim(0)).collect();
        let seq_b: Vec<usize> = (0..32).map(|_| s.victim(2)).collect();
        assert_ne!(seq_a, seq_b);
    }

    #[test]
    fn single_way_always_victim_zero() {
        for policy in POLICIES {
            let mut s = ReplacementArena::new(policy, 3, 1);
            for set in 0..3 {
                assert_eq!(s.victim(set), 0);
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn zero_ways_panics() {
        let _ = ReplacementArena::new(ReplacementPolicy::Lru, 1, 0);
    }

    #[test]
    fn lru_full_rotation() {
        let mut s = ReplacementArena::new(ReplacementPolicy::Lru, 1, 2);
        s.filled(0, 0);
        s.filled(0, 1);
        // Alternate touches; victim must always be the other way.
        for i in 0..10 {
            let way = i % 2;
            s.touch(0, way);
            assert_eq!(s.victim(0), 1 - way);
        }
    }

    #[test]
    fn sets_are_independent() {
        let mut s = ReplacementArena::new(ReplacementPolicy::Lru, 2, 4);
        s.touch(1, 0);
        assert_eq!(s.victim(0), 3, "set 0 untouched");
        assert_eq!(s.victim(1), 3);
        s.touch(1, 3);
        assert_eq!(s.victim(0), 3);
        assert_eq!(s.victim(1), 2);
    }

    #[test]
    fn restore_copies_the_whole_state() {
        for policy in POLICIES {
            let mut live = ReplacementArena::new(policy, 8, 4);
            let saved = live.clone();
            for set in 0..8 {
                live.touch(set, 2);
                live.filled(set, 1);
                let _ = live.victim(set);
            }
            live.clone_from(&saved);
            assert_eq!(live, saved, "{policy:?}");
        }
    }

    /// The arena against the per-set oracle over random operation
    /// streams: every victim — including each set's Random stream —
    /// and the final order of every set must agree.
    #[test]
    fn arena_matches_per_set_oracle() {
        let mut rng = StdRng::seed_from_u64(0x5E7_A4E4A);
        let mut ops = 0usize;
        for policy in POLICIES {
            for ways in [1usize, 2, 4, 8, 16] {
                for sets in [1usize, 3, 16, 64] {
                    let mut arena = ReplacementArena::new(policy, sets, ways);
                    let mut oracle: Vec<SetReplacementState> = (0..sets)
                        .map(|s| SetReplacementState::new(policy, ways, s as u64 ^ 0x9E37_79B9))
                        .collect();
                    for _ in 0..2_000 {
                        let set = rng.random_range(0..sets);
                        let way = rng.random_range(0..ways);
                        match rng.random_range(0..3u32) {
                            0 => {
                                arena.touch(set, way);
                                oracle[set].touch(way);
                            }
                            1 => {
                                arena.filled(set, way);
                                oracle[set].filled(way);
                            }
                            _ => assert_eq!(
                                arena.victim(set),
                                oracle[set].victim(),
                                "{policy:?} {sets}x{ways} set {set}"
                            ),
                        }
                        ops += 1;
                    }
                    for (set, o) in oracle.iter().enumerate() {
                        let got: Vec<usize> = arena.order[set * ways..(set + 1) * ways]
                            .iter()
                            .map(|&w| w as usize)
                            .collect();
                        assert_eq!(got, o.order, "{policy:?} {sets}x{ways} set {set}");
                    }
                }
            }
        }
        assert!(ops >= 100_000, "{ops} operations compared");
    }
}
