//! Criterion benches for the protection-code primitives: the
//! common-case hardware operations every access performs.

use cppc_bench::microbench::{BatchSize, Criterion};
use cppc_bench::{criterion_group, criterion_main};
use std::hint::black_box;

use cppc_core::rotate::{rotate_left_bytes, rotate_right_bytes};
use cppc_ecc::interleaved::InterleavedParity;
use cppc_ecc::parity::{byte_parity64, parity64};
use cppc_ecc::secded::Secded64;

fn bench_parity(c: &mut Criterion) {
    let mut group = c.benchmark_group("parity");
    group.bench_function("word_parity", |b| {
        b.iter(|| parity64(black_box(0xDEAD_BEEF_0123_4567)))
    });
    group.bench_function("byte_parity", |b| {
        b.iter(|| byte_parity64(black_box(0xDEAD_BEEF_0123_4567)))
    });
    let code = InterleavedParity::new(8);
    group.bench_function("interleaved8_encode", |b| {
        b.iter(|| code.encode(black_box(0xDEAD_BEEF_0123_4567)))
    });
    group.bench_function("interleaved8_syndrome", |b| {
        let stored = code.encode(0xDEAD_BEEF_0123_4567);
        b.iter(|| code.syndrome(black_box(0xDEAD_BEEF_0123_4567), black_box(stored)))
    });
    group.finish();
}

fn bench_secded(c: &mut Criterion) {
    let mut group = c.benchmark_group("secded");
    group.bench_function("encode", |b| {
        b.iter(|| Secded64::encode(black_box(0xA5A5_0F0F_1234_5678)))
    });
    let clean = Secded64::encode(0xA5A5_0F0F_1234_5678);
    group.bench_function("decode_clean", |b| b.iter(|| black_box(clean).decode()));
    group.bench_function("decode_correct_single", |b| {
        b.iter_batched(
            || {
                let mut cw = clean;
                cw.flip_data_bit(17);
                cw
            },
            |cw| cw.decode(),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_rotation(c: &mut Criterion) {
    let mut group = c.benchmark_group("barrel_shifter");
    group.bench_function("rotate_left", |b| {
        b.iter(|| rotate_left_bytes(black_box(0x0123_4567_89AB_CDEF), black_box(5)))
    });
    group.bench_function("rotate_right", |b| {
        b.iter(|| rotate_right_bytes(black_box(0x0123_4567_89AB_CDEF), black_box(5)))
    });
    group.finish();
}

criterion_group!(benches, bench_parity, bench_secded, bench_rotation);
criterion_main!(benches);
