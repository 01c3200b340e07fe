//! Criterion bench: tile compression — the production compressor (ACA,
//! recompressed and residual-checked) vs the exact SVD oracle per accuracy
//! threshold (DESIGN.md §4.3's ablation).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use exa_covariance::{sort_morton, DistanceMetric, Location, MaternKernel, MaternParams};
use exa_tlr::{compress_kernel_block, CompressionMethod};
use exa_util::Rng;
use std::hint::black_box;
use std::sync::Arc;

fn bench_compression(c: &mut Criterion) {
    let mut group = c.benchmark_group("compression");
    group.sample_size(10);
    let n = 512;
    let nb = 128;
    let mut rng = Rng::seed_from_u64(1);
    let mut locs: Vec<Location> = (0..n)
        .map(|_| Location::new(rng.next_f64(), rng.next_f64()))
        .collect();
    sort_morton(&mut locs);
    let kernel = MaternKernel::new(
        Arc::new(locs),
        MaternParams::new(1.0, 0.1, 0.5),
        DistanceMetric::Euclidean,
        0.0,
    );
    for method in [CompressionMethod::Svd, CompressionMethod::Aca] {
        for eps in [1e-5, 1e-9] {
            let label = format!("{method}-{eps:.0e}");
            group.bench_with_input(
                BenchmarkId::new("off_diag_tile", label),
                &eps,
                |bench, &eps| {
                    bench.iter(|| {
                        let mut r = Rng::seed_from_u64(7);
                        // Compress the far-field block (rows 3nb.., cols 0..nb).
                        black_box(
                            compress_kernel_block(&kernel, 3 * nb, nb, 0, nb, eps, method, &mut r)
                                .unwrap()
                                .tile
                                .rank(),
                        )
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_compression);
criterion_main!(benches);
