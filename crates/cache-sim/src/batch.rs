//! Pre-decoded structure-of-arrays operation batches.
//!
//! The per-op enum dispatch of [`MemOp`] is fine for correctness work
//! but shows up once traces stream in at simulation speed: every op
//! pays a discriminant match plus the iterator protocol. An [`OpBatch`]
//! holds a chunk of operations as three parallel lanes (address, kind,
//! value) — the same structure-of-arrays layout the cross-trial
//! `TrialBatch` engine uses on the injection side — so batch consumers
//! like [`TwoLevelHierarchy::run_batch`](crate::hierarchy::TwoLevelHierarchy::run_batch)
//! can hoist their per-op setup and walk flat arrays.
//!
//! A batch is plain reusable storage: producers (`SharedTrace`, the
//! binary streaming reader) [`clear`](OpBatch::clear) and refill the
//! same allocation, so steady-state decoding performs no heap traffic.

use crate::hierarchy::MemOp;

/// Lane tag for a 64-bit load.
pub const KIND_LOAD: u8 = 0;
/// Lane tag for a 64-bit store.
pub const KIND_STORE: u8 = 1;
/// Lane tag for a single-byte (partial) store.
pub const KIND_STORE_BYTE: u8 = 2;

/// The `(address, kind, value)` lane entries of one operation.
#[inline]
pub(crate) fn lanes(op: MemOp) -> (u64, u8, u64) {
    match op {
        MemOp::Load(a) => (a, KIND_LOAD, 0),
        MemOp::Store(a, v) => (a, KIND_STORE, v),
        MemOp::StoreByte(a, v) => (a, KIND_STORE_BYTE, u64::from(v)),
    }
}

/// A chunk of memory operations in structure-of-arrays form.
///
/// Invariant: all three lanes are the same length and every kind lane
/// entry is one of [`KIND_LOAD`], [`KIND_STORE`], [`KIND_STORE_BYTE`]
/// (enforced on push).
///
/// # Example
///
/// ```
/// use cppc_cache_sim::batch::OpBatch;
/// use cppc_cache_sim::hierarchy::MemOp;
///
/// let ops = [MemOp::Load(0x40), MemOp::Store(0x48, 7)];
/// let batch = OpBatch::from_ops(&ops);
/// assert_eq!(batch.len(), 2);
/// assert!(batch.iter().eq(ops));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpBatch {
    addrs: Vec<u64>,
    kinds: Vec<u8>,
    values: Vec<u64>,
}

impl OpBatch {
    /// An empty batch with no storage.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty batch with room for `cap` operations in every lane.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        OpBatch {
            addrs: Vec::with_capacity(cap),
            kinds: Vec::with_capacity(cap),
            values: Vec::with_capacity(cap),
        }
    }

    /// Decodes a whole operation slice into a fresh batch.
    #[must_use]
    pub fn from_ops(ops: &[MemOp]) -> Self {
        let mut batch = Self::with_capacity(ops.len());
        batch.extend_from_ops(ops);
        batch
    }

    /// Number of operations held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// `true` when no operations are held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// Lane capacity (operations that fit without reallocating).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.addrs
            .capacity()
            .min(self.kinds.capacity())
            .min(self.values.capacity())
    }

    /// Empties the batch, keeping lane storage for reuse.
    pub fn clear(&mut self) {
        self.addrs.clear();
        self.kinds.clear();
        self.values.clear();
    }

    /// Ensures room for `additional` more operations in every lane.
    pub fn reserve(&mut self, additional: usize) {
        self.addrs.reserve(additional);
        self.kinds.reserve(additional);
        self.values.reserve(additional);
    }

    /// Appends one decoded operation.
    pub fn push(&mut self, op: MemOp) {
        let (addr, kind, value) = lanes(op);
        self.addrs.push(addr);
        self.kinds.push(kind);
        self.values.push(value);
    }

    /// Appends one operation already split into lanes (decoder path).
    ///
    /// # Panics
    ///
    /// Panics if `kind` is not one of the `KIND_*` tags, or if `kind`
    /// is [`KIND_STORE_BYTE`] and `value` does not fit in one byte.
    pub fn push_raw(&mut self, addr: u64, kind: u8, value: u64) {
        assert!(kind <= KIND_STORE_BYTE, "invalid op kind {kind}");
        assert!(
            kind != KIND_STORE_BYTE || value <= 0xFF,
            "byte-store value {value:#x} exceeds one byte"
        );
        self.addrs.push(addr);
        self.kinds.push(kind);
        self.values.push(value);
    }

    /// Replaces the batch's operations with those of `src` in `range`.
    pub(crate) fn copy_range(&mut self, src: &OpBatch, range: std::ops::Range<usize>) {
        self.clear();
        self.addrs.extend_from_slice(&src.addrs[range.clone()]);
        self.kinds.extend_from_slice(&src.kinds[range.clone()]);
        self.values.extend_from_slice(&src.values[range]);
    }

    /// Appends every operation of `ops`.
    pub fn extend_from_ops(&mut self, ops: &[MemOp]) {
        self.reserve(ops.len());
        for &op in ops {
            self.push(op);
        }
    }

    /// The address lane.
    #[must_use]
    pub fn addrs(&self) -> &[u64] {
        &self.addrs
    }

    /// The kind lane (`KIND_*` tags).
    #[must_use]
    pub fn kinds(&self) -> &[u8] {
        &self.kinds
    }

    /// The value lane (store word; byte-store value in the low byte;
    /// zero for loads).
    #[must_use]
    pub fn values(&self) -> &[u64] {
        &self.values
    }

    /// Reassembles operation `i` as a [`MemOp`].
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn get(&self, i: usize) -> MemOp {
        match self.kinds[i] {
            KIND_LOAD => MemOp::Load(self.addrs[i]),
            KIND_STORE => MemOp::Store(self.addrs[i], self.values[i]),
            KIND_STORE_BYTE => MemOp::StoreByte(self.addrs[i], self.values[i] as u8),
            k => unreachable!("invalid op kind {k}"),
        }
    }

    /// Iterates the batch as reassembled [`MemOp`]s.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = MemOp> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }
}

impl FromIterator<MemOp> for OpBatch {
    fn from_iter<I: IntoIterator<Item = MemOp>>(iter: I) -> Self {
        let iter = iter.into_iter();
        let mut batch = Self::with_capacity(iter.size_hint().0);
        for op in iter {
            batch.push(op);
        }
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<MemOp> {
        vec![
            MemOp::Load(0x1000),
            MemOp::Store(0x1008, 0xDEAD_BEEF),
            MemOp::StoreByte(0x1011, 0x7F),
            MemOp::Load(0),
        ]
    }

    #[test]
    fn roundtrips_through_lanes() {
        let ops = sample();
        let batch = OpBatch::from_ops(&ops);
        assert_eq!(batch.len(), ops.len());
        assert_eq!(batch.iter().collect::<Vec<_>>(), ops);
        for (i, &op) in ops.iter().enumerate() {
            assert_eq!(batch.get(i), op);
        }
    }

    #[test]
    fn lanes_are_parallel() {
        let batch = OpBatch::from_ops(&sample());
        assert_eq!(batch.addrs().len(), batch.kinds().len());
        assert_eq!(batch.kinds().len(), batch.values().len());
        assert_eq!(
            batch.kinds(),
            &[KIND_LOAD, KIND_STORE, KIND_STORE_BYTE, KIND_LOAD]
        );
        assert_eq!(batch.values(), &[0, 0xDEAD_BEEF, 0x7F, 0]);
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut batch = OpBatch::from_ops(&sample());
        let cap = batch.capacity();
        batch.clear();
        assert!(batch.is_empty());
        assert_eq!(batch.capacity(), cap);
        batch.push(MemOp::Load(1));
        assert_eq!(batch.len(), 1);
    }

    #[test]
    fn push_raw_matches_push() {
        let mut a = OpBatch::new();
        let mut b = OpBatch::new();
        for op in sample() {
            a.push(op);
        }
        b.push_raw(0x1000, KIND_LOAD, 0);
        b.push_raw(0x1008, KIND_STORE, 0xDEAD_BEEF);
        b.push_raw(0x1011, KIND_STORE_BYTE, 0x7F);
        b.push_raw(0, KIND_LOAD, 0);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "invalid op kind")]
    fn push_raw_rejects_bad_kind() {
        OpBatch::new().push_raw(0, 3, 0);
    }

    #[test]
    #[should_panic(expected = "exceeds one byte")]
    fn push_raw_rejects_wide_byte_store() {
        OpBatch::new().push_raw(0, KIND_STORE_BYTE, 0x100);
    }

    #[test]
    fn from_iterator() {
        let ops = sample();
        let batch: OpBatch = ops.iter().copied().collect();
        assert!(batch.iter().eq(ops));
    }
}
