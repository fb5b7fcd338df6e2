//! The vocabulary of the MSI engine: trace operations and protocol
//! event counters.

/// One operation of a multiprocessor trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreOp {
    /// Core `core` loads `addr`.
    Load {
        /// Issuing core.
        core: usize,
        /// Byte address.
        addr: u64,
    },
    /// Core `core` stores `value` to `addr`.
    Store {
        /// Issuing core.
        core: usize,
        /// Byte address.
        addr: u64,
        /// Value stored.
        value: u64,
    },
}

/// Protocol event counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoherenceStats {
    /// Remote copies invalidated by stores.
    pub invalidations: u64,
    /// Of those, copies that were dirty (M) and had to be written back
    /// to the shared L2 first — each one *removes* dirty words from a
    /// private L1, which is what cuts CPPC's read-before-write rate
    /// (§7's hypothesis).
    pub dirty_invalidations: u64,
    /// Remote M copies downgraded to S by loads.
    pub downgrades: u64,
}
