//! Threaded strategy benchmarks: the real (non-simulated) transformations
//! on the SPICE-style list workload and an induction DOALL. On a
//! single-core host these measure the *overhead* of each scheme (the
//! paper's speedup curves come from the simulator; see the `figures` bin).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use wlp_core::general::{general1, general2, general3, GeneralConfig};
use wlp_core::induction::induction2;
use wlp_list::ListArena;
use wlp_runtime::{DoallOptions, Pool};

fn work(v: u64) -> u64 {
    let mut acc = v;
    for _ in 0..16 {
        acc = acc
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
    }
    acc
}

fn bench_general_methods(c: &mut Criterion) {
    let n = 20_000u64;
    let list = ListArena::from_values_shuffled(0..n, 5);
    let mut g = c.benchmark_group("list_traversal");
    g.throughput(Throughput::Elements(n));

    g.bench_function("sequential", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for (_, &v) in list.iter() {
                acc = acc.wrapping_add(work(v));
            }
            black_box(acc)
        })
    });

    for &p in &[2usize, 4] {
        let pool = Pool::new(p);
        g.bench_with_input(BenchmarkId::new("general1", p), &p, |b, _| {
            b.iter(|| {
                let acc = AtomicU64::new(0);
                general1(&pool, &list, GeneralConfig::default(), |_i, node| {
                    acc.fetch_add(work(list[node]), Ordering::Relaxed);
                });
                black_box(acc.load(Ordering::Relaxed))
            })
        });
        g.bench_with_input(BenchmarkId::new("general2", p), &p, |b, _| {
            b.iter(|| {
                let acc = AtomicU64::new(0);
                general2(&pool, &list, GeneralConfig::default(), |_i, node| {
                    acc.fetch_add(work(list[node]), Ordering::Relaxed);
                });
                black_box(acc.load(Ordering::Relaxed))
            })
        });
        g.bench_with_input(BenchmarkId::new("general3", p), &p, |b, _| {
            b.iter(|| {
                let acc = AtomicU64::new(0);
                general3(&pool, &list, GeneralConfig::default(), |_i, node| {
                    acc.fetch_add(work(list[node]), Ordering::Relaxed);
                });
                black_box(acc.load(Ordering::Relaxed))
            })
        });
    }
    g.finish();
}

fn bench_induction(c: &mut Criterion) {
    let n = 50_000usize;
    let mut g = c.benchmark_group("induction_doall");
    g.throughput(Throughput::Elements(n as u64));

    g.bench_function("sequential_while", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            let mut i = 0usize;
            while i < n && i < 40_000 {
                acc = acc.wrapping_add(work(i as u64));
                i += 1;
            }
            black_box(acc)
        })
    });

    for &p in &[2usize, 4] {
        let pool = Pool::new(p);
        g.bench_with_input(BenchmarkId::new("induction2_quit", p), &p, |b, _| {
            b.iter(|| {
                let acc = AtomicU64::new(0);
                let out = induction2(
                    &pool,
                    n,
                    DoallOptions::default(),
                    |i| i >= 40_000,
                    |i, _| {
                        acc.fetch_add(work(i as u64), Ordering::Relaxed);
                    },
                );
                black_box((acc.load(Ordering::Relaxed), out.last_valid))
            })
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15).measurement_time(std::time::Duration::from_millis(900)).warm_up_time(std::time::Duration::from_millis(300));
    targets = bench_general_methods, bench_induction
}
criterion_main!(benches);
