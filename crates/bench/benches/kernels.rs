//! Application-kernel benchmarks: one iteration of each of the paper's
//! four application classes.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use appsim::{Cavity, Kernel, OilReservoir, ReggeWheeler, Seismic};

fn bench_oilres(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernel_oilres");
    for &n in &[16usize, 32, 64] {
        g.bench_function(format!("step_{n}x{n}"), |b| {
            b.iter_batched(
                || OilReservoir::new(n),
                |mut k| {
                    k.advance();
                    black_box(k.recovery())
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

fn bench_cfd(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernel_cfd");
    for &n in &[16usize, 32, 64] {
        g.bench_function(format!("step_{n}x{n}"), |b| {
            b.iter_batched(
                || Cavity::new(n),
                |mut k| {
                    k.advance();
                    black_box(k.kinetic_energy())
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

fn bench_seismic(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernel_seismic");
    for &n in &[32usize, 64, 128] {
        g.bench_function(format!("step_{n}x{n}"), |b| {
            b.iter_batched(
                || Seismic::new(n),
                |mut k| {
                    k.advance();
                    black_box(k.max_amplitude())
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

fn bench_relativity(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernel_relativity");
    for &n in &[256usize, 1024, 4096] {
        g.bench_function(format!("step_n{n}"), |b| {
            b.iter_batched(
                || ReggeWheeler::new(n),
                |mut k| {
                    k.advance();
                    black_box(k.observer_signal())
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

criterion_group!(benches, bench_oilres, bench_cfd, bench_seismic, bench_relativity);
criterion_main!(benches);
