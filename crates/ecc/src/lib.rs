//! Error-protection-code substrate for the CPPC reproduction.
//!
//! This crate implements every protection code the paper evaluates or
//! depends on:
//!
//! * [`parity`] — one-dimensional parity at word and byte granularity,
//!   the detection substrate of CPPC itself.
//! * [`interleaved`] — *k*-way interleaved parity
//!   (`P[i] = XOR(bit[i], bit[i+k], …)`), which detects spatial multi-bit
//!   errors of up to `k` adjacent bits inside one word (paper §3.6).
//! * [`secded`] — Single-Error-Correction Double-Error-Detection Hamming
//!   codes for 64-bit and 32-bit data words (the (72,64) and (39,32)
//!   codes used by the paper's SECDED baseline).
//! * [`kernels`] — vectorized slice kernels (XOR folds, syndrome
//!   evaluation, byte-parity gathers) behind a one-time CPU-feature
//!   probe, with the SWAR code as the guaranteed fallback. The `simd`
//!   cargo feature (default on) gates the `core::arch` paths; without
//!   it every kernel is the scalar implementation.
//!
//! All codes operate on real data (`u64` words or byte slices), encode to
//! real check bits, and decode by recomputation — nothing is emulated with
//! flags. Fault injection in the wider workspace flips actual stored bits
//! and these codes detect/correct them exactly as hardware would.
//!
//! # Example
//!
//! ```
//! use cppc_ecc::secded::Secded64;
//!
//! let code = Secded64::encode(0xDEAD_BEEF_0123_4567);
//! // Flip a data bit in flight…
//! let mut corrupted = code;
//! corrupted.flip_data_bit(17);
//! let decoded = corrupted.decode();
//! assert_eq!(decoded.data(), Some(0xDEAD_BEEF_0123_4567));
//! ```

// `deny` rather than `forbid`: the `kernels` module opts back in for
// its runtime-dispatched `core::arch` intrinsics (each call site is
// guarded by the one-time CPU-feature probe). Everything else in the
// crate remains unsafe-free.
#![deny(unsafe_code)]
#![deny(missing_docs)]

pub mod interleaved;
pub mod kernels;
pub mod parity;
pub mod secded;

pub use interleaved::InterleavedParity;
pub use parity::parity64;
pub use secded::{DecodeOutcome, Secded32, Secded64};
