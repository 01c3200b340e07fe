//! Criterion bench: block vs tile vs TLR Cholesky factorization — the
//! kernel behind Figure 3 — including the nb (tile-size) sweep ablation of
//! DESIGN.md §4.2.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use exa_covariance::{DistanceMetric, MaternKernel, MaternParams};
use exa_geostat::synthetic_locations_n;
use exa_runtime::Runtime;
use exa_tile::{block_potrf_with_panel, tile_potrf, TileMatrix};
use exa_tlr::{tlr_potrf, CompressionMethod, TlrMatrix};
use exa_util::Rng;
use std::hint::black_box;
use std::sync::Arc;

fn bench_cholesky(c: &mut Criterion) {
    let mut group = c.benchmark_group("cholesky");
    group.sample_size(10);
    let n = 1024;
    let workers = exa_runtime::default_parallelism().min(8);
    let rt = Runtime::new(workers);
    let mut rng = Rng::seed_from_u64(1);
    let locs = Arc::new(synthetic_locations_n(n, &mut rng));
    let kernel = MaternKernel::new(
        locs,
        MaternParams::new(1.0, 0.1, 0.5),
        DistanceMetric::Euclidean,
        1e-8,
    );
    // Block (fork-join) baseline.
    let dense = TileMatrix::from_kernel_symmetric_lower(&kernel, n, 1).to_dense_symmetric();
    group.bench_function("full_block", |b| {
        b.iter(|| {
            let mut w = dense.clone();
            block_potrf_with_panel(&mut w, workers, 128).unwrap();
            black_box(w.as_slice()[0])
        });
    });
    // Tile variant across tile sizes (the nb trade-off ablation).
    for &nb in &[64usize, 128, 256] {
        let tiles = TileMatrix::from_kernel_symmetric_lower(&kernel, nb, workers);
        group.bench_with_input(BenchmarkId::new("full_tile_nb", nb), &nb, |b, _| {
            b.iter(|| {
                let mut w = tiles.clone();
                tile_potrf(&mut w, &rt).unwrap();
                black_box(w.at(0, 0))
            });
        });
    }
    // TLR variant across accuracies (nb fixed at the larger TLR size).
    for eps in [1e-5, 1e-9] {
        let tlr =
            TlrMatrix::from_kernel(&kernel, 128, eps, CompressionMethod::default(), workers, 3)
                .unwrap();
        let label = format!("{eps:.0e}");
        group.bench_with_input(BenchmarkId::new("tlr_acc", label), &eps, |b, _| {
            b.iter(|| {
                let mut w = tlr.clone();
                tlr_potrf(&mut w, &rt).unwrap();
                black_box(w.diag(0).at(0, 0))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_cholesky);
criterion_main!(benches);
