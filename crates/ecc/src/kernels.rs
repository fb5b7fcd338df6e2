//! Vectorized parity kernels with one-time runtime dispatch.
//!
//! Every hot loop of the fault-injection engine bottoms out in one of
//! three kernel shapes: an XOR fold (block parity), a per-word
//! interleaved-parity fold (syndrome computation) and a byte-parity
//! gather. This module provides explicit `core::arch::x86_64`
//! SSE2/AVX2 implementations of all three, selected once per process
//! by a CPU-feature probe, with the existing SWAR code as the
//! guaranteed-available fallback — so targets without SIMD (or builds
//! with the `simd` feature disabled) compile cleanly to the scalar
//! path with no `cfg` leakage into callers.
//!
//! Single-word helpers ([`crate::parity::byte_parity64`],
//! [`crate::parity::parity64`]) intentionally stay SWAR: a dispatch
//! branch per 64-bit word costs more than it saves. The kernels here
//! are the *slice* forms the recovery scans and the cross-trial batch
//! engine call — wide enough for the lane arithmetic to pay for the
//! dispatch.
//!
//! # Forcing a dispatch level
//!
//! The environment variable `CPPC_KERNEL` (`swar`, `sse2` or `avx2`,
//! read once at first use) caps the probe's choice, so CI can pin the
//! scalar path on any host. Requesting a level the CPU lacks falls
//! back to the best available one.
//!
//! # The `#[target_feature]` rule
//!
//! Every function in the private `x86` module that takes or returns a
//! vector type (`__m128i`, `__m256i`) carries the `#[target_feature]`
//! of its instruction set, the small reduce and fold helpers included.
//! The crate is compiled for the baseline x86_64 target, so without the
//! attribute a helper body is compiled for plain SSE2: `#[inline]`
//! cannot pull it into an AVX2 caller (the callee lacks the caller's
//! features), every AVX2 intrinsic inside it becomes an out-of-line
//! call, and each `__m256i` crosses that call boundary through memory.
//! The kernels stay correct but slow: before the helpers carried the
//! attribute, the dispatched `encode_many` and `block_syndrome_or` ran
//! about 7x slower than the SWAR fallback. `hotpath --gate` fails if any
//! dispatched kernel is slower than SWAR on the same host, which
//! catches a helper that breaks this rule.
#![allow(unsafe_code)]

use core::sync::atomic::{AtomicU8, Ordering};

/// Which kernel implementation the one-time probe selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// Portable scalar SWAR — always available.
    Swar,
    /// 128-bit `core::arch::x86_64` lanes (baseline on x86_64).
    Sse2,
    /// 256-bit `core::arch::x86_64` lanes.
    Avx2,
}

impl KernelKind {
    /// Stable lower-case name (`"swar"`, `"sse2"`, `"avx2"`) for
    /// metrics and logs.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::Swar => "swar",
            KernelKind::Sse2 => "sse2",
            KernelKind::Avx2 => "avx2",
        }
    }
}

/// `ACTIVE` holds `kind as u8 + 1`; 0 means "not probed yet".
static ACTIVE: AtomicU8 = AtomicU8::new(0);

fn decode(v: u8) -> KernelKind {
    match v {
        2 => KernelKind::Sse2,
        3 => KernelKind::Avx2,
        _ => KernelKind::Swar,
    }
}

/// What the hardware supports, before the `CPPC_KERNEL` cap.
fn detect() -> KernelKind {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        // SSE2 is architecturally guaranteed on x86_64.
        if std::arch::is_x86_feature_detected!("avx2") {
            KernelKind::Avx2
        } else {
            KernelKind::Sse2
        }
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    KernelKind::Swar
}

fn probe() -> KernelKind {
    let detected = detect();
    let capped = match std::env::var("CPPC_KERNEL").as_deref() {
        Ok("swar") => KernelKind::Swar,
        Ok("sse2") => {
            if detected == KernelKind::Swar {
                KernelKind::Swar
            } else {
                KernelKind::Sse2
            }
        }
        _ => detected,
    };
    capped
}

/// The kernel implementation in use, probed once per process.
#[must_use]
pub fn active() -> KernelKind {
    match ACTIVE.load(Ordering::Relaxed) {
        0 => {
            let kind = probe();
            ACTIVE.store(kind as u8 + 1, Ordering::Relaxed);
            kind
        }
        v => decode(v),
    }
}

/// XOR-folds a byte slice into one 64-bit lane (tail bytes folded into
/// the low byte). `parity64` of the result is the slice's block parity.
#[inline]
#[must_use]
pub fn fold_xor_bytes(bytes: &[u8]) -> u64 {
    match active() {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        // SAFETY: `active()` returned Avx2/Sse2 only after
        // `is_x86_feature_detected!` confirmed the feature.
        KernelKind::Avx2 => unsafe { x86::fold_xor_bytes_avx2(bytes) },
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        // SAFETY: as above — SSE2 is confirmed (and architectural).
        KernelKind::Sse2 => unsafe { x86::fold_xor_bytes_sse2(bytes) },
        _ => swar::fold_xor_bytes(bytes),
    }
}

/// Block parity of a byte slice — the vectorized form of
/// [`crate::parity::parity_bytes`].
#[inline]
#[must_use]
pub fn parity_bytes(bytes: &[u8]) -> u8 {
    crate::parity::parity64(fold_xor_bytes(bytes))
}

/// Interleaved-parity encode of every word in `words` into `out`
/// (the slice form of [`crate::InterleavedParity::encode`]).
///
/// # Panics
///
/// Panics if the slices differ in length or `ways` does not divide 64.
#[inline]
pub fn encode_many(words: &[u64], ways: u32, out: &mut [u64]) {
    assert_eq!(words.len(), out.len(), "parallel slices");
    assert!(ways > 0 && 64 % ways == 0, "ways must divide 64");
    match active() {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        // SAFETY: feature confirmed by the probe.
        KernelKind::Avx2 => unsafe { x86::encode_many_avx2(words, ways, out) },
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        // SAFETY: feature confirmed by the probe.
        KernelKind::Sse2 => unsafe { x86::encode_many_sse2(words, ways, out) },
        _ => swar::encode_many(words, ways, out),
    }
}

/// OR of per-word interleaved-parity syndromes: non-zero iff *any*
/// word disagrees with its stored parity (the slice form of
/// [`crate::InterleavedParity::block_syndrome_or`]).
///
/// # Panics
///
/// Panics if the slices differ in length or `ways` does not divide 64.
#[inline]
#[must_use]
pub fn block_syndrome_or(words: &[u64], stored: &[u64], ways: u32) -> u64 {
    assert_eq!(words.len(), stored.len(), "parallel slices");
    assert!(ways > 0 && 64 % ways == 0, "ways must divide 64");
    match active() {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        // SAFETY: feature confirmed by the probe.
        KernelKind::Avx2 => unsafe { x86::block_syndrome_or_avx2(words, stored, ways) },
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        // SAFETY: feature confirmed by the probe.
        KernelKind::Sse2 => unsafe { x86::block_syndrome_or_sse2(words, stored, ways) },
        _ => swar::block_syndrome_or(words, stored, ways),
    }
}

/// Byte parity of every word in `words` into `out` — the slice form of
/// [`crate::parity::byte_parity64`]. Bit `i` of `out[j]` is the even
/// parity of byte `i` of `words[j]`.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn byte_parity_many(words: &[u64], out: &mut [u8]) {
    assert_eq!(words.len(), out.len(), "parallel slices");
    match active() {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        // SAFETY: feature confirmed by the probe.
        KernelKind::Avx2 => unsafe { x86::byte_parity_many_avx2(words, out) },
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        // SAFETY: feature confirmed by the probe.
        KernelKind::Sse2 => unsafe { x86::byte_parity_many_sse2(words, out) },
        _ => swar::byte_parity_many(words, out),
    }
}

/// The guaranteed-available SWAR kernels — also the reference the
/// differential tests pin the vector paths against.
pub mod swar {
    /// Scalar interleaved-parity encode: fold the halves down to the
    /// low `ways` bits (bitwise-identical to
    /// [`crate::InterleavedParity::encode`] for every `ways` that
    /// divides 64 — all of which are powers of two).
    #[inline]
    #[must_use]
    pub fn encode_one(word: u64, ways: u32) -> u64 {
        let mut folded = word;
        let mut shift = 32u32;
        while shift >= ways {
            folded ^= folded >> shift;
            shift /= 2;
        }
        folded & mask(ways)
    }

    /// Low-`ways` bit mask.
    #[inline]
    #[must_use]
    pub fn mask(ways: u32) -> u64 {
        ((1u128 << ways) - 1) as u64
    }

    /// Scalar [`super::fold_xor_bytes`].
    #[inline]
    #[must_use]
    pub fn fold_xor_bytes(bytes: &[u8]) -> u64 {
        let mut chunks = bytes.chunks_exact(8);
        let mut folded = 0u64;
        for chunk in chunks.by_ref() {
            folded ^= u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        }
        let tail = chunks.remainder().iter().fold(0u8, |acc, &b| acc ^ b);
        folded ^ u64::from(tail)
    }

    /// Scalar [`super::encode_many`].
    #[inline]
    pub fn encode_many(words: &[u64], ways: u32, out: &mut [u64]) {
        for (o, &w) in out.iter_mut().zip(words) {
            *o = encode_one(w, ways);
        }
    }

    /// Scalar [`super::block_syndrome_or`].
    #[inline]
    #[must_use]
    pub fn block_syndrome_or(words: &[u64], stored: &[u64], ways: u32) -> u64 {
        words
            .iter()
            .zip(stored)
            .fold(0u64, |acc, (&w, &p)| acc | (encode_one(w, ways) ^ p))
    }

    /// Scalar [`super::byte_parity_many`].
    #[inline]
    pub fn byte_parity_many(words: &[u64], out: &mut [u8]) {
        for (o, &w) in out.iter_mut().zip(words) {
            *o = crate::parity::byte_parity64(w);
        }
    }
}

/// `core::arch::x86_64` lane implementations.
///
/// Each function carries a `#[target_feature]` attribute and is only
/// reachable through [`active`], which confirmed the feature at
/// runtime. The folds mirror the SWAR code lane-wise: high garbage
/// bits introduced by skipping intermediate masking never reach the
/// low `ways` bits (each fold step only shifts *downward*), so one
/// final mask restores bit-exact equality with the scalar path.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod x86 {
    use super::swar;
    use core::arch::x86_64::{
        __m128i, __m256i, _mm256_and_si256, _mm256_castsi256_si128, _mm256_extracti128_si256,
        _mm256_loadu_si256, _mm256_movemask_epi8, _mm256_or_si256, _mm256_set1_epi64x,
        _mm256_setzero_si256, _mm256_slli_epi64, _mm256_srl_epi64, _mm256_srli_epi64,
        _mm256_storeu_si256, _mm256_xor_si256, _mm_and_si128, _mm_cvtsi128_si64, _mm_cvtsi32_si128,
        _mm_loadu_si128, _mm_movemask_epi8, _mm_or_si128, _mm_set1_epi64x, _mm_setzero_si128,
        _mm_slli_epi64, _mm_srl_epi64, _mm_srli_epi64, _mm_srli_si128, _mm_storeu_si128,
        _mm_xor_si128,
    };

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn reduce_xor_256(v: __m256i) -> u64 {
        let folded = _mm_xor_si128(_mm256_castsi256_si128(v), _mm256_extracti128_si256::<1>(v));
        reduce_xor_128(folded)
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn reduce_xor_128(v: __m128i) -> u64 {
        (_mm_cvtsi128_si64(v) ^ _mm_cvtsi128_si64(_mm_srli_si128::<8>(v))) as u64
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn reduce_or_256(v: __m256i) -> u64 {
        let folded = _mm_or_si128(_mm256_castsi256_si128(v), _mm256_extracti128_si256::<1>(v));
        reduce_or_128(folded)
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn reduce_or_128(v: __m128i) -> u64 {
        (_mm_cvtsi128_si64(v) | _mm_cvtsi128_si64(_mm_srli_si128::<8>(v))) as u64
    }

    /// Lane-wise interleaved-parity fold of four words at once. The
    /// shift count travels in a register (`srl`, not `srli`), so a
    /// `ways` known only at run time costs no branch per fold step.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn encode_lanes_256(mut v: __m256i, ways: u32) -> __m256i {
        let mut shift = 32u32;
        while shift >= ways {
            let count = _mm_cvtsi32_si128(shift as i32);
            v = _mm256_xor_si256(v, _mm256_srl_epi64(v, count));
            shift /= 2;
        }
        _mm256_and_si256(v, _mm256_set1_epi64x(swar::mask(ways) as i64))
    }

    /// Lane-wise interleaved-parity fold of two words at once.
    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn encode_lanes_128(mut v: __m128i, ways: u32) -> __m128i {
        let mut shift = 32u32;
        while shift >= ways {
            let count = _mm_cvtsi32_si128(shift as i32);
            v = _mm_xor_si128(v, _mm_srl_epi64(v, count));
            shift /= 2;
        }
        _mm_and_si128(v, _mm_set1_epi64x(swar::mask(ways) as i64))
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn fold_xor_bytes_avx2(bytes: &[u8]) -> u64 {
        let mut chunks = bytes.chunks_exact(32);
        let mut acc = _mm256_setzero_si256();
        for chunk in chunks.by_ref() {
            acc = _mm256_xor_si256(acc, _mm256_loadu_si256(chunk.as_ptr().cast()));
        }
        reduce_xor_256(acc) ^ swar::fold_xor_bytes(chunks.remainder())
    }

    #[target_feature(enable = "sse2")]
    pub unsafe fn fold_xor_bytes_sse2(bytes: &[u8]) -> u64 {
        let mut chunks = bytes.chunks_exact(16);
        let mut acc = _mm_setzero_si128();
        for chunk in chunks.by_ref() {
            acc = _mm_xor_si128(acc, _mm_loadu_si128(chunk.as_ptr().cast()));
        }
        reduce_xor_128(acc) ^ swar::fold_xor_bytes(chunks.remainder())
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn encode_many_avx2(words: &[u64], ways: u32, out: &mut [u64]) {
        let mut chunks = words.chunks_exact(4);
        let mut outs = out.chunks_exact_mut(4);
        for (chunk, o) in chunks.by_ref().zip(outs.by_ref()) {
            let v = encode_lanes_256(_mm256_loadu_si256(chunk.as_ptr().cast()), ways);
            _mm256_storeu_si256(o.as_mut_ptr().cast(), v);
        }
        swar::encode_many(chunks.remainder(), ways, outs.into_remainder());
    }

    #[target_feature(enable = "sse2")]
    pub unsafe fn encode_many_sse2(words: &[u64], ways: u32, out: &mut [u64]) {
        let mut chunks = words.chunks_exact(2);
        let mut outs = out.chunks_exact_mut(2);
        for (chunk, o) in chunks.by_ref().zip(outs.by_ref()) {
            let v = encode_lanes_128(_mm_loadu_si128(chunk.as_ptr().cast()), ways);
            _mm_storeu_si128(o.as_mut_ptr().cast(), v);
        }
        swar::encode_many(chunks.remainder(), ways, outs.into_remainder());
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn block_syndrome_or_avx2(words: &[u64], stored: &[u64], ways: u32) -> u64 {
        let mut wchunks = words.chunks_exact(4);
        let mut pchunks = stored.chunks_exact(4);
        let mut acc = _mm256_setzero_si256();
        for (wc, pc) in wchunks.by_ref().zip(pchunks.by_ref()) {
            let enc = encode_lanes_256(_mm256_loadu_si256(wc.as_ptr().cast()), ways);
            let p = _mm256_loadu_si256(pc.as_ptr().cast());
            acc = _mm256_or_si256(acc, _mm256_xor_si256(enc, p));
        }
        reduce_or_256(acc) | swar::block_syndrome_or(wchunks.remainder(), pchunks.remainder(), ways)
    }

    #[target_feature(enable = "sse2")]
    pub unsafe fn block_syndrome_or_sse2(words: &[u64], stored: &[u64], ways: u32) -> u64 {
        let mut wchunks = words.chunks_exact(2);
        let mut pchunks = stored.chunks_exact(2);
        let mut acc = _mm_setzero_si128();
        for (wc, pc) in wchunks.by_ref().zip(pchunks.by_ref()) {
            let enc = encode_lanes_128(_mm_loadu_si128(wc.as_ptr().cast()), ways);
            let p = _mm_loadu_si128(pc.as_ptr().cast());
            acc = _mm_or_si128(acc, _mm_xor_si128(enc, p));
        }
        reduce_or_128(acc) | swar::block_syndrome_or(wchunks.remainder(), pchunks.remainder(), ways)
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn byte_parity_many_avx2(words: &[u64], out: &mut [u8]) {
        let mut chunks = words.chunks_exact(4);
        let mut outs = out.chunks_exact_mut(4);
        let ones = _mm256_set1_epi64x(0x0101_0101_0101_0101u64 as i64);
        for (chunk, o) in chunks.by_ref().zip(outs.by_ref()) {
            // Fold each byte's parity onto its bit 0, move it to the
            // byte's MSB and gather all 32 MSBs with movemask: bits
            // 8j..8j+8 of the mask are word j's byte parities.
            let mut v = _mm256_loadu_si256(chunk.as_ptr().cast());
            v = _mm256_xor_si256(v, _mm256_srli_epi64::<4>(v));
            v = _mm256_xor_si256(v, _mm256_srli_epi64::<2>(v));
            v = _mm256_xor_si256(v, _mm256_srli_epi64::<1>(v));
            v = _mm256_slli_epi64::<7>(_mm256_and_si256(v, ones));
            let mask = _mm256_movemask_epi8(v) as u32;
            o.copy_from_slice(&mask.to_le_bytes());
        }
        swar::byte_parity_many(chunks.remainder(), outs.into_remainder());
    }

    #[target_feature(enable = "sse2")]
    pub unsafe fn byte_parity_many_sse2(words: &[u64], out: &mut [u8]) {
        let mut chunks = words.chunks_exact(2);
        let mut outs = out.chunks_exact_mut(2);
        let ones = _mm_set1_epi64x(0x0101_0101_0101_0101u64 as i64);
        for (chunk, o) in chunks.by_ref().zip(outs.by_ref()) {
            let mut v = _mm_loadu_si128(chunk.as_ptr().cast());
            v = _mm_xor_si128(v, _mm_srli_epi64::<4>(v));
            v = _mm_xor_si128(v, _mm_srli_epi64::<2>(v));
            v = _mm_xor_si128(v, _mm_srli_epi64::<1>(v));
            v = _mm_slli_epi64::<7>(_mm_and_si128(v, ones));
            let mask = _mm_movemask_epi8(v) as u16;
            o.copy_from_slice(&mask.to_le_bytes());
        }
        swar::byte_parity_many(chunks.remainder(), outs.into_remainder());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cppc_campaign::rng::{rngs::StdRng, RngExt, SeedableRng};

    /// Bit-at-a-time reference encode, independent of both the SWAR
    /// fold and the vector lanes.
    fn naive_encode(word: u64, ways: u32) -> u64 {
        let mut parity = 0u64;
        for bit in 0..64u32 {
            if word >> bit & 1 == 1 {
                parity ^= 1u64 << (bit % ways);
            }
        }
        parity
    }

    fn naive_byte_parity(word: u64) -> u8 {
        let mut out = 0u8;
        for i in 0..8 {
            let byte = ((word >> (8 * i)) & 0xFF) as u8;
            out |= ((byte.count_ones() & 1) as u8) << i;
        }
        out
    }

    fn naive_parity_bytes(bytes: &[u8]) -> u8 {
        let ones: u32 = bytes.iter().map(|b| b.count_ones()).sum();
        (ones & 1) as u8
    }

    const ALL_WAYS: [u32; 7] = [1, 2, 4, 8, 16, 32, 64];

    #[test]
    fn active_is_stable_and_named() {
        let k = active();
        assert_eq!(active(), k, "probe must be cached");
        assert!(["swar", "sse2", "avx2"].contains(&k.name()));
    }

    #[test]
    fn swar_encode_matches_naive_all_ways() {
        let mut rng = StdRng::seed_from_u64(0x5EED_0001);
        for _ in 0..512 {
            let w = rng.random::<u64>();
            for ways in ALL_WAYS {
                assert_eq!(
                    swar::encode_one(w, ways),
                    naive_encode(w, ways),
                    "ways {ways}"
                );
            }
        }
    }

    #[test]
    fn dispatched_encode_many_matches_swar_and_naive() {
        let mut rng = StdRng::seed_from_u64(0x5EED_0002);
        // Random lengths hit the empty, sub-lane-width and remainder
        // edges of the vector paths.
        for len in 0..48usize {
            let words: Vec<u64> = (0..len).map(|_| rng.random()).collect();
            for ways in ALL_WAYS {
                let mut got = vec![0u64; len];
                let mut swar_out = vec![0u64; len];
                encode_many(&words, ways, &mut got);
                swar::encode_many(&words, ways, &mut swar_out);
                assert_eq!(got, swar_out, "len {len} ways {ways}");
                for (i, &w) in words.iter().enumerate() {
                    assert_eq!(got[i], naive_encode(w, ways), "len {len} ways {ways} i {i}");
                }
            }
        }
    }

    #[test]
    fn dispatched_block_syndrome_or_matches_swar() {
        let mut rng = StdRng::seed_from_u64(0x5EED_0003);
        for len in 0..24usize {
            let words: Vec<u64> = (0..len).map(|_| rng.random()).collect();
            for ways in ALL_WAYS {
                let mut stored = vec![0u64; len];
                swar::encode_many(&words, ways, &mut stored);
                // Clean block: both paths agree on zero.
                assert_eq!(
                    block_syndrome_or(&words, &stored, ways),
                    0,
                    "clean len {len}"
                );
                // Struck block: flip a burst in one word.
                if len > 0 {
                    let mut struck = words.clone();
                    let i = rng.random_range(0..len);
                    struck[i] ^= 0b111 << rng.random_range(0u32..61);
                    assert_eq!(
                        block_syndrome_or(&struck, &stored, ways),
                        swar::block_syndrome_or(&struck, &stored, ways),
                        "len {len} ways {ways}"
                    );
                }
            }
        }
    }

    #[test]
    fn dispatched_byte_parity_many_matches_swar_and_naive() {
        let mut rng = StdRng::seed_from_u64(0x5EED_0004);
        for len in 0..40usize {
            let words: Vec<u64> = (0..len).map(|_| rng.random()).collect();
            let mut got = vec![0u8; len];
            let mut swar_out = vec![0u8; len];
            byte_parity_many(&words, &mut got);
            swar::byte_parity_many(&words, &mut swar_out);
            assert_eq!(got, swar_out, "len {len}");
            for (i, &w) in words.iter().enumerate() {
                assert_eq!(got[i], naive_byte_parity(w), "len {len} i {i}");
            }
        }
    }

    #[test]
    fn dispatched_parity_bytes_matches_naive_across_alignments() {
        let mut rng = StdRng::seed_from_u64(0x5EED_0005);
        let backing: Vec<u8> = (0..256).map(|_| rng.random::<u64>() as u8).collect();
        // Sweep lengths and start offsets so vector loads hit every
        // alignment class, including empty and sub-lane slices.
        for start in 0..8usize {
            for len in [0usize, 1, 7, 8, 9, 15, 16, 31, 32, 33, 63, 64, 100, 200] {
                let slice = &backing[start..start + len];
                assert_eq!(
                    parity_bytes(slice),
                    naive_parity_bytes(slice),
                    "start {start} len {len}"
                );
                assert_eq!(
                    crate::parity::parity_bytes(slice),
                    naive_parity_bytes(slice),
                    "public API, start {start} len {len}"
                );
            }
        }
    }

    #[test]
    fn fold_xor_bytes_matches_swar() {
        let mut rng = StdRng::seed_from_u64(0x5EED_0006);
        for len in 0..130usize {
            let bytes: Vec<u8> = (0..len).map(|_| rng.random::<u64>() as u8).collect();
            assert_eq!(
                fold_xor_bytes(&bytes),
                swar::fold_xor_bytes(&bytes),
                "len {len}"
            );
        }
    }
}
