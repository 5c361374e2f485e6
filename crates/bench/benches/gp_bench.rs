//! Criterion micro-benchmarks for the GP stack: fit (Cholesky) and batch
//! prediction as functions of training-set size, plus the augment-vs-refit
//! contrast. These are the inner loops of every AL iteration. The LML
//! gradient and warm-start optimizer benches live in the `perf` registry
//! (`lml_gradient_n*`, `gp_fit_optimized_n250`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use al_gp::{GpModel, KernelKind};
use al_linalg::Matrix;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn training_data(n: usize, d: usize, seed: u64) -> (Matrix, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut data = Vec::with_capacity(n * d);
    let mut y = Vec::with_capacity(n);
    for _ in 0..n {
        let row: Vec<f64> = (0..d).map(|_| rng.random::<f64>()).collect();
        // Smooth multi-dimensional response.
        y.push(row.iter().map(|x| (3.0 * x).sin()).sum::<f64>());
        data.extend(row);
    }
    (Matrix::from_vec(n, d, data), y)
}

fn bench_gp_fit(c: &mut Criterion) {
    let mut group = c.benchmark_group("gp_fit");
    group.sample_size(10);
    for n in [50usize, 100, 200, 400] {
        let (x, y) = training_data(n, 5, 1);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            let mut gp = GpModel::new(KernelKind::Rbf.build(0.3), 1e-3);
            b.iter(|| {
                gp.fit(black_box(&x), black_box(&y)).unwrap();
                black_box(gp.lml().unwrap())
            });
        });
    }
    group.finish();
}

fn bench_gp_predict(c: &mut Criterion) {
    let mut group = c.benchmark_group("gp_predict_100pts");
    group.sample_size(10);
    for n in [100usize, 200, 400] {
        let (x, y) = training_data(n, 5, 2);
        let (xq, _) = training_data(100, 5, 3);
        let mut gp = GpModel::new(KernelKind::Rbf.build(0.3), 1e-3);
        gp.fit(&x, &y).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(gp.predict(black_box(&xq)).unwrap()));
        });
    }
    group.finish();
}

fn bench_augment_vs_refit(c: &mut Criterion) {
    // The AL loop's per-sample model update: O(n²) bordered-Cholesky
    // augment against the O(n³) full refactorization it replaces.
    let mut group = c.benchmark_group("absorb_one_sample_n400");
    group.sample_size(10);
    let (x, y) = training_data(400, 5, 6);
    let (x_new, y_new) = training_data(1, 5, 7);

    group.bench_function("augment", |b| {
        let mut gp = GpModel::new(KernelKind::Rbf.build(0.3), 1e-3);
        gp.fit(&x, &y).unwrap();
        b.iter(|| {
            let mut m = gp.clone();
            m.augment(black_box(x_new.row(0)), black_box(y_new[0]))
                .unwrap();
            black_box(m.n_train())
        });
    });

    group.bench_function("full_refit", |b| {
        let x_next = x.vstack(&x_new).unwrap();
        let mut y_next = y.clone();
        y_next.push(y_new[0]);
        let mut gp = GpModel::new(KernelKind::Rbf.build(0.3), 1e-3);
        b.iter(|| {
            gp.fit(black_box(&x_next), black_box(&y_next)).unwrap();
            black_box(gp.n_train())
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_gp_fit,
    bench_gp_predict,
    bench_augment_vs_refit
);
criterion_main!(benches);
