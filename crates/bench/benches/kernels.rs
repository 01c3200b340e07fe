//! Criterion bench: the dense linear-algebra kernels (the BLAS/LAPACK
//! substitute layer) — GEMM, SYRK, TRSM, POTRF, QR, SVD at tile sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use exa_linalg::{dgemm, dgeqrf, dpotrf, dsyrk, dtrsm, jacobi_svd, Mat, Side, Trans};
use exa_util::Rng;
use std::hint::black_box;

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels");
    group.sample_size(10);
    for &n in &[64usize, 128, 256] {
        let mut rng = Rng::seed_from_u64(1);
        let a = Mat::gaussian(n, n, &mut rng);
        let b = Mat::gaussian(n, n, &mut rng);
        group.bench_with_input(BenchmarkId::new("dgemm", n), &n, |bench, &n| {
            let mut cmat = Mat::zeros(n, n);
            bench.iter(|| {
                dgemm(
                    Trans::No,
                    Trans::No,
                    n,
                    n,
                    n,
                    1.0,
                    a.as_slice(),
                    n,
                    b.as_slice(),
                    n,
                    0.0,
                    cmat.as_mut_slice(),
                    n,
                );
                black_box(cmat.as_slice()[0])
            });
        });
        group.bench_with_input(BenchmarkId::new("dsyrk", n), &n, |bench, &n| {
            let mut cmat = Mat::zeros(n, n);
            bench.iter(|| {
                dsyrk(
                    Trans::No,
                    n,
                    n,
                    -1.0,
                    a.as_slice(),
                    n,
                    1.0,
                    cmat.as_mut_slice(),
                    n,
                );
                black_box(cmat.as_slice()[0])
            });
        });
        let spd = Mat::random_spd(n, &mut rng);
        group.bench_with_input(BenchmarkId::new("dpotrf", n), &n, |bench, &n| {
            bench.iter(|| {
                let mut w = spd.clone();
                dpotrf(n, w.as_mut_slice(), n).unwrap();
                black_box(w.as_slice()[0])
            });
        });
        let mut l = spd.clone();
        dpotrf(n, l.as_mut_slice(), n).unwrap();
        group.bench_with_input(BenchmarkId::new("dtrsm", n), &n, |bench, &n| {
            bench.iter(|| {
                let mut x = b.clone();
                dtrsm(
                    Side::Left,
                    Trans::No,
                    n,
                    n,
                    1.0,
                    l.as_slice(),
                    n,
                    x.as_mut_slice(),
                    n,
                );
                black_box(x.as_slice()[0])
            });
        });
        group.bench_with_input(BenchmarkId::new("dgeqrf", n), &n, |bench, &n| {
            bench.iter(|| {
                let mut w = a.clone();
                let mut tau = vec![0.0; n];
                dgeqrf(n, n, w.as_mut_slice(), n, &mut tau);
                black_box(tau[0])
            });
        });
    }
    // Exact SVD on a compressible tile.
    for &n in &[64usize, 128] {
        let mut rng = Rng::seed_from_u64(2);
        let u = Mat::gaussian(n, 8, &mut rng);
        let v = Mat::gaussian(n, 8, &mut rng);
        let a = u.matmul(&v.transposed());
        group.bench_with_input(BenchmarkId::new("jacobi_svd", n), &n, |bench, &n| {
            bench.iter(|| black_box(jacobi_svd(n, n, a.as_slice(), n).unwrap().rank()));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
