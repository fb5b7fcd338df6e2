//! The multiprocessor CPPC (§7): private *CPPC-protected* L1s kept
//! coherent by the MSI write-invalidate protocol over a shared L2.
//!
//! This answers §7's question end-to-end: coherence actions (downgrades
//! and invalidations) parity-check outgoing dirty data and move it into
//! R2, so the register invariant survives arbitrary sharing — and
//! faults in dirty data are corrected even when it is a *remote* core's
//! access that forces the data out.

use cppc_cache_sim::cache::{Backing, Cache};
use cppc_cache_sim::geometry::CacheGeometry;
use cppc_cache_sim::memory::MainMemory;
use cppc_cache_sim::replacement::ReplacementPolicy;
use cppc_cache_sim::stats::CacheStats;
use cppc_core::{CppcCache, CppcConfig, Due};

use crate::system::{CoherenceStats, CoreOp};

struct L2Backing<'a> {
    l2: &'a mut Cache,
    mem: &'a mut MainMemory,
}

impl Backing for L2Backing<'_> {
    fn fetch_block_into(&mut self, base: u64, buf: &mut [u64]) {
        debug_assert_eq!(buf.len(), self.l2.geometry().words_per_block());
        self.l2.read_block_into(base, self.mem, buf);
    }

    fn write_back(&mut self, base: u64, data: &[u64], dirty_mask: u64) {
        let _ = self.l2.write_block(base, data, dirty_mask, self.mem);
    }
}

/// An `n`-core system whose private L1s are CPPC-protected.
///
/// # Example
///
/// ```
/// use cppc_cache_sim::{CacheGeometry, ReplacementPolicy};
/// use cppc_coherence::{CoreOp, CppcCoherentSystem};
/// use cppc_core::CppcConfig;
///
/// let l1 = CacheGeometry::new(1024, 2, 32)?;
/// let l2 = CacheGeometry::new(8192, 4, 32)?;
/// let mut sys = CppcCoherentSystem::new(2, l1, l2, CppcConfig::paper(), ReplacementPolicy::Lru);
/// sys.step(CoreOp::Store { core: 0, addr: 0x40, value: 7 })?;
/// assert_eq!(sys.step(CoreOp::Load { core: 1, addr: 0x40 })?, 7);
/// assert_eq!(sys.stats().downgrades, 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct CppcCoherentSystem {
    cores: Vec<CppcCache>,
    l2: Cache,
    mem: MainMemory,
    stats: CoherenceStats,
}

impl CppcCoherentSystem {
    /// Builds the system.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero, the CPPC configuration is invalid, or the
    /// block sizes differ between levels.
    #[must_use]
    pub fn new(
        n: usize,
        l1_geo: CacheGeometry,
        l2_geo: CacheGeometry,
        config: CppcConfig,
        policy: ReplacementPolicy,
    ) -> Self {
        assert!(n > 0, "need at least one core");
        assert_eq!(
            l1_geo.block_bytes(),
            l2_geo.block_bytes(),
            "L1 and L2 must share a block size"
        );
        CppcCoherentSystem {
            cores: (0..n)
                .map(|_| {
                    CppcCache::new_l1(l1_geo, config, policy).expect("validated configuration")
                })
                .collect(),
            l2: Cache::new(l2_geo, policy),
            mem: MainMemory::new(),
            stats: CoherenceStats::default(),
        }
    }

    /// Protocol statistics.
    #[must_use]
    pub fn stats(&self) -> &CoherenceStats {
        &self.stats
    }

    /// Core `c`'s CPPC.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    #[must_use]
    pub fn core(&self, c: usize) -> &CppcCache {
        &self.cores[c]
    }

    /// Mutable access to core `c`'s CPPC (fault injection).
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    pub fn core_mut(&mut self, c: usize) -> &mut CppcCache {
        &mut self.cores[c]
    }

    /// The shared L2's statistics.
    #[must_use]
    pub fn l2_stats(&self) -> &CacheStats {
        self.l2.stats()
    }

    /// Machine-wide read-before-write count.
    #[must_use]
    pub fn total_read_before_writes(&self) -> u64 {
        self.cores
            .iter()
            .map(|c| c.stats().read_before_writes)
            .sum()
    }

    /// Every core's register invariant.
    #[must_use]
    pub fn verify_invariants(&self) -> bool {
        self.cores.iter().all(CppcCache::verify_invariant)
    }

    fn snoop(&mut self, requester: usize, addr: u64, for_store: bool) -> Result<(), Due> {
        for c in 0..self.cores.len() {
            if c == requester || self.cores[c].probe(addr).is_none() {
                continue;
            }
            let dirty = {
                let (set, way) = self.cores[c].probe(addr).expect("probed above");
                self.cores[c]
                    .tag_state_of(set, way)
                    .is_some_and(|(_, mask)| mask != 0)
            };
            let mut backing = L2Backing {
                l2: &mut self.l2,
                mem: &mut self.mem,
            };
            if for_store {
                self.cores[c].invalidate_block(addr, &mut backing)?;
                self.stats.invalidations += 1;
                if dirty {
                    self.stats.dirty_invalidations += 1;
                }
            } else if dirty {
                self.cores[c].clean_block(addr, &mut backing)?;
                self.stats.downgrades += 1;
            }
        }
        Ok(())
    }

    /// Executes one operation, returning the loaded value (0 for
    /// stores).
    ///
    /// # Errors
    ///
    /// Returns [`Due`] when a fault anywhere in the protocol path is
    /// uncorrectable.
    ///
    /// # Panics
    ///
    /// Panics if the core index is out of range.
    pub fn step(&mut self, op: CoreOp) -> Result<u64, Due> {
        match op {
            CoreOp::Load { core, addr } => {
                self.snoop(core, addr, false)?;
                let mut backing = L2Backing {
                    l2: &mut self.l2,
                    mem: &mut self.mem,
                };
                self.cores[core].load_word(addr, &mut backing)
            }
            CoreOp::Store { core, addr, value } => {
                self.snoop(core, addr, true)?;
                let mut backing = L2Backing {
                    l2: &mut self.l2,
                    mem: &mut self.mem,
                };
                self.cores[core].store_word(addr, value, &mut backing)?;
                Ok(0)
            }
        }
    }
}

/// Test-only reference engine: the same MSI protocol over plain,
/// unprotected [`Cache`]s, sharing none of CPPC's parity or register
/// logic. The differential test in `tests` requires
/// [`CppcCoherentSystem`] to match it event for event: protection must
/// not change what the protocol does.
#[cfg(test)]
mod reference {
    use super::*;

    /// An `n`-core system with plain (unprotected) private L1s, one
    /// shared L2 and the MSI write-invalidate protocol.
    #[derive(Debug, Clone)]
    pub struct CoherentSystem {
        cores: Vec<Cache>,
        l2: Cache,
        mem: MainMemory,
        stats: CoherenceStats,
    }

    impl CoherentSystem {
        /// Builds the system with `n` private L1s.
        ///
        /// # Panics
        ///
        /// Panics if `n` is zero or block sizes differ between levels.
        #[must_use]
        pub fn new(
            n: usize,
            l1_geo: CacheGeometry,
            l2_geo: CacheGeometry,
            policy: ReplacementPolicy,
        ) -> Self {
            assert!(n > 0, "need at least one core");
            assert_eq!(
                l1_geo.block_bytes(),
                l2_geo.block_bytes(),
                "L1 and L2 must share a block size"
            );
            CoherentSystem {
                cores: (0..n).map(|_| Cache::new(l1_geo, policy)).collect(),
                l2: Cache::new(l2_geo, policy),
                mem: MainMemory::new(),
                stats: CoherenceStats::default(),
            }
        }

        /// Protocol statistics.
        #[must_use]
        pub fn stats(&self) -> &CoherenceStats {
            &self.stats
        }

        /// The shared L2's statistics.
        #[must_use]
        pub fn l2_stats(&self) -> &CacheStats {
            self.l2.stats()
        }

        /// Sum of per-core stores-to-dirty — the CPPC read-before-write
        /// count across the machine.
        #[must_use]
        pub fn total_stores_to_dirty(&self) -> u64 {
            self.cores.iter().map(|c| c.stats().stores_to_dirty).sum()
        }

        /// Sum of per-core stores.
        #[must_use]
        pub fn total_stores(&self) -> u64 {
            self.cores.iter().map(|c| c.stats().stores()).sum()
        }

        /// Invalidate (or downgrade) every remote copy of `addr`'s block.
        fn snoop(&mut self, requester: usize, addr: u64, for_store: bool) {
            for c in 0..self.cores.len() {
                if c == requester {
                    continue;
                }
                let Some((set, way)) = self.cores[c].probe(addr) else {
                    continue;
                };
                let dirty = self.cores[c].block(set, way).is_dirty();
                if dirty {
                    let mut backing = L2Backing {
                        l2: &mut self.l2,
                        mem: &mut self.mem,
                    };
                    self.cores[c].writeback_block(set, way, &mut backing);
                }
                if for_store {
                    self.cores[c].invalidate_way(set, way);
                    self.stats.invalidations += 1;
                    if dirty {
                        self.stats.dirty_invalidations += 1;
                    }
                } else if dirty {
                    // Load: remote copy stays resident, now S (clean).
                    self.stats.downgrades += 1;
                }
            }
        }

        /// Executes one operation, returning the loaded value (0 for
        /// stores).
        ///
        /// # Panics
        ///
        /// Panics if the core index is out of range.
        pub fn step(&mut self, op: CoreOp) -> u64 {
            match op {
                CoreOp::Load { core, addr } => {
                    self.snoop(core, addr, false);
                    let mut backing = L2Backing {
                        l2: &mut self.l2,
                        mem: &mut self.mem,
                    };
                    self.cores[core].load_word(addr, &mut backing)
                }
                CoreOp::Store { core, addr, value } => {
                    self.snoop(core, addr, true);
                    let mut backing = L2Backing {
                        l2: &mut self.l2,
                        mem: &mut self.mem,
                    };
                    self.cores[core].store_word(addr, value, &mut backing);
                    0
                }
            }
        }
    }

    mod tests {
        use super::*;
        use cppc_campaign::rng::rngs::StdRng;
        use cppc_campaign::rng::{RngExt, SeedableRng};
        use std::collections::HashMap;

        fn system(cores: usize) -> CoherentSystem {
            CoherentSystem::new(
                cores,
                CacheGeometry::new(512, 2, 32).unwrap(),
                CacheGeometry::new(4096, 4, 32).unwrap(),
                ReplacementPolicy::Lru,
            )
        }

        #[test]
        fn cross_core_visibility() {
            let mut sys = system(2);
            sys.step(CoreOp::Store {
                core: 0,
                addr: 0x100,
                value: 42,
            });
            assert_eq!(
                sys.step(CoreOp::Load {
                    core: 1,
                    addr: 0x100
                }),
                42
            );
            assert_eq!(sys.stats().downgrades, 1);
        }

        #[test]
        fn store_invalidates_remote_copies() {
            let mut sys = system(4);
            for c in 0..4 {
                sys.step(CoreOp::Load {
                    core: c,
                    addr: 0x40,
                });
            }
            sys.step(CoreOp::Store {
                core: 0,
                addr: 0x40,
                value: 9,
            });
            assert_eq!(sys.stats().invalidations, 3);
            for c in 1..4 {
                assert_eq!(
                    sys.step(CoreOp::Load {
                        core: c,
                        addr: 0x40
                    }),
                    9
                );
            }
        }

        #[test]
        fn write_ping_pong_removes_dirty_blocks() {
            // §7's mechanism: alternating writers keep invalidating each
            // other's dirty copy, so stores rarely find their word already
            // dirty locally.
            let mut sys = system(2);
            for i in 0..1_000u64 {
                sys.step(CoreOp::Store {
                    core: (i % 2) as usize,
                    addr: 0x80,
                    value: i,
                });
            }
            assert!(sys.stats().dirty_invalidations > 900);
            let rbw_rate = sys.total_stores_to_dirty() as f64 / sys.total_stores() as f64;
            assert!(rbw_rate < 0.05, "ping-pong rbw rate {rbw_rate}");

            // Contrast: one core storing alone re-dirties its own word.
            let mut solo = system(1);
            for i in 0..1_000u64 {
                solo.step(CoreOp::Store {
                    core: 0,
                    addr: 0x80,
                    value: i,
                });
            }
            let solo_rate = solo.total_stores_to_dirty() as f64 / solo.total_stores() as f64;
            assert!(solo_rate > 0.95, "solo rbw rate {solo_rate}");
        }

        #[test]
        fn sequentially_consistent_oracle() {
            let mut rng = StdRng::seed_from_u64(0xC0E);
            let mut sys = system(3);
            let mut oracle: HashMap<u64, u64> = HashMap::new();
            for _ in 0..20_000 {
                let core = rng.random_range(0..3);
                let addr = (rng.random_range(0..4096u64)) & !7;
                if rng.random_bool(0.4) {
                    let v: u64 = rng.random();
                    sys.step(CoreOp::Store {
                        core,
                        addr,
                        value: v,
                    });
                    oracle.insert(addr, v);
                } else {
                    let got = sys.step(CoreOp::Load { core, addr });
                    assert_eq!(got, *oracle.get(&addr).unwrap_or(&0), "addr {addr:#x}");
                }
            }
        }

        #[test]
        fn private_data_stays_unaffected() {
            let mut sys = system(2);
            sys.step(CoreOp::Store {
                core: 0,
                addr: 0x200,
                value: 5,
            });
            // Core 1 works elsewhere.
            for i in 0..50u64 {
                sys.step(CoreOp::Store {
                    core: 1,
                    addr: 0x4000 + i * 8,
                    value: i,
                });
            }
            assert_eq!(sys.stats().invalidations, 0);
            assert_eq!(
                sys.step(CoreOp::Load {
                    core: 0,
                    addr: 0x200
                }),
                5
            );
        }

        #[test]
        #[should_panic(expected = "at least one core")]
        fn zero_cores_panics() {
            let _ = system(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cppc_campaign::rng::rngs::StdRng;
    use cppc_campaign::rng::{RngExt, SeedableRng};
    use std::collections::HashMap;

    fn system(cores: usize) -> CppcCoherentSystem {
        CppcCoherentSystem::new(
            cores,
            CacheGeometry::new(1024, 2, 32).unwrap(),
            CacheGeometry::new(8192, 4, 32).unwrap(),
            CppcConfig::paper(),
            ReplacementPolicy::Lru,
        )
    }

    #[test]
    fn cross_core_visibility_with_protection() {
        let mut sys = system(2);
        sys.step(CoreOp::Store {
            core: 0,
            addr: 0x100,
            value: 42,
        })
        .unwrap();
        assert_eq!(
            sys.step(CoreOp::Load {
                core: 1,
                addr: 0x100
            })
            .unwrap(),
            42
        );
        assert!(sys.verify_invariants());
    }

    #[test]
    fn fault_corrected_when_remote_core_forces_writeback() {
        // The §7 scenario: core 0 holds corrupted dirty data; core 1's
        // load forces the downgrade, whose parity check triggers
        // recovery — the fault never propagates.
        let mut sys = system(2);
        sys.step(CoreOp::Store {
            core: 0,
            addr: 0x200,
            value: 0xFEED,
        })
        .unwrap();
        sys.core_mut(0).flip_data_bit_at(0x200, 11);
        assert_eq!(
            sys.step(CoreOp::Load {
                core: 1,
                addr: 0x200
            })
            .unwrap(),
            0xFEED
        );
        assert!(sys.core(0).stats().corrected_dirty >= 1);
        assert!(sys.verify_invariants());
    }

    #[test]
    fn fault_corrected_when_remote_store_invalidates() {
        let mut sys = system(2);
        sys.step(CoreOp::Store {
            core: 0,
            addr: 0x300,
            value: 0xAAAA,
        })
        .unwrap();
        sys.core_mut(0).flip_data_bit_at(0x300, 50);
        // Core 1 writes the same block: core 0's copy is invalidated,
        // its corrupted dirty data recovered before the write-back.
        sys.step(CoreOp::Store {
            core: 1,
            addr: 0x308,
            value: 0xBBBB,
        })
        .unwrap();
        assert_eq!(
            sys.step(CoreOp::Load {
                core: 1,
                addr: 0x300
            })
            .unwrap(),
            0xAAAA
        );
        assert!(sys.verify_invariants());
    }

    #[test]
    fn randomized_sharing_oracle_with_invariants() {
        let mut rng = StdRng::seed_from_u64(0x77);
        let mut sys = system(3);
        let mut oracle: HashMap<u64, u64> = HashMap::new();
        for i in 0..15_000 {
            let core = rng.random_range(0..3);
            let addr = (rng.random_range(0..4096u64)) & !7;
            if rng.random_bool(0.4) {
                let v: u64 = rng.random();
                sys.step(CoreOp::Store {
                    core,
                    addr,
                    value: v,
                })
                .unwrap();
                oracle.insert(addr, v);
            } else {
                let got = sys.step(CoreOp::Load { core, addr }).unwrap();
                assert_eq!(got, *oracle.get(&addr).unwrap_or(&0), "addr {addr:#x}");
            }
            if i % 1000 == 0 {
                assert!(sys.verify_invariants(), "op {i}");
            }
        }
    }

    #[test]
    fn sharing_reduces_rbw_on_protected_l1s_too() {
        // §7's efficiency hypothesis measured on the real CPPC.
        let run = |sharing: f64| {
            let mut sys = system(2);
            let gen = crate::sharing::SharedTraceGenerator::new(2, 512, 128, sharing, 0.4, 3);
            let mut stores = 0u64;
            for op in gen.take(30_000) {
                if matches!(op, CoreOp::Store { .. }) {
                    stores += 1;
                }
                sys.step(op).unwrap();
            }
            sys.total_read_before_writes() as f64 / stores as f64
        };
        let private_only = run(0.0);
        let heavy_sharing = run(0.6);
        assert!(
            heavy_sharing < private_only,
            "{heavy_sharing} vs {private_only}"
        );
    }

    /// The two engines agree on every SharedTraceGenerator stream: same
    /// protocol events, same loaded values, same L2 traffic, and CPPC's
    /// read-before-writes are exactly the plain L1s' stores to dirty
    /// words.
    #[test]
    fn cppc_engine_matches_the_reference_on_shared_streams() {
        use super::reference::CoherentSystem;
        use crate::SharedTraceGenerator;

        for cores in [1usize, 2, 4] {
            for sharing in [0.0, 0.1, 0.5, 0.9] {
                let l1 = CacheGeometry::new(1024, 2, 32).unwrap();
                let l2 = CacheGeometry::new(8192, 4, 32).unwrap();
                let mut reference = CoherentSystem::new(cores, l1, l2, ReplacementPolicy::Lru);
                let mut cppc = CppcCoherentSystem::new(
                    cores,
                    l1,
                    l2,
                    CppcConfig::paper(),
                    ReplacementPolicy::Lru,
                );
                let seed = 0xD1FF ^ (cores as u64) << 8 ^ (sharing * 100.0) as u64;
                let trace = SharedTraceGenerator::new(cores, 4096, 1024, sharing, 0.4, seed);
                for (i, op) in trace.take(12_000).enumerate() {
                    let want = reference.step(op);
                    let got = cppc.step(op).unwrap();
                    assert_eq!(
                        got, want,
                        "{cores} cores, sharing {sharing}, op {i}: {op:?}"
                    );
                }
                let label = format!("{cores} cores, sharing {sharing}");
                assert_eq!(cppc.stats(), reference.stats(), "{label}");
                assert_eq!(cppc.l2_stats(), reference.l2_stats(), "{label}");
                assert_eq!(
                    cppc.total_read_before_writes(),
                    reference.total_stores_to_dirty(),
                    "{label}"
                );
                assert!(cppc.verify_invariants(), "{label}");
                if cores > 1 && sharing > 0.0 {
                    assert!(reference.stats().dirty_invalidations > 0, "{label}");
                }
            }
        }
    }
}
