//! Fixed-accuracy tile compression: ACA with verified recompression, and the
//! exact SVD as its oracle.
//!
//! The contract, for a tile `A` and threshold `eps`, is the exact SVD's
//! absolute 2-norm cut: keep the singular values `σ_k > eps`, so
//! `‖A − U·Vᵀ‖₂ ≤ eps` and `‖A − U·Vᵀ‖_F ≤ √min(m,n)·eps`.
//!
//! * [`CompressionMethod::Aca`] (default, the production compressor) meets it
//!   in three steps:
//!   1. [`aca`] — adaptive cross approximation with partial pivoting builds
//!      the factors from `O((m+n)·k)` entry evaluations, with no dense
//!      scratch tile;
//!   2. [`recompress`] — QR of both factors plus an SVD of the small core
//!      truncates at the same absolute cut (ACA alone overshoots the rank);
//!   3. a sampled-residual check — `p = 8` rows drawn from the tile's RNG
//!      estimate `‖A − U·Vᵀ‖_F ≈ √(m/p · Σ‖rᵢ‖²)`, compared with the
//!      Frobenius bound above. ACA's stopping rule has no guarantee, so a tile that
//!      fails the check is filled densely and cut by the exact SVD instead;
//!      [`Compressed::fallback`] records that it did.
//! * [`CompressionMethod::Svd`] — exact one-sided Jacobi SVD of the dense
//!   fill, the reference the tests hold the production path to.

use crate::arith::recompress;
use crate::lr::LrTile;
use exa_covariance::CovarianceKernel;
use exa_linalg::{axpy, jacobi_svd, truncation_rank_cut, Cutoff, LinalgError};
use exa_util::Rng;

/// Rows the residual check evaluates per tile (all rows of shorter tiles).
const PROBE_ROWS: usize = 8;

/// Which algorithm compresses a tile to the accuracy threshold.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CompressionMethod {
    /// ACA → recompression → sampled-residual check, with the exact SVD as
    /// the fallback for tiles that fail the check.
    #[default]
    Aca,
    /// Exact one-sided Jacobi SVD (`O(m n²)`): the test oracle.
    Svd,
}

impl std::fmt::Display for CompressionMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompressionMethod::Aca => write!(f, "ACA"),
            CompressionMethod::Svd => write!(f, "SVD"),
        }
    }
}

/// A compressed tile.
#[derive(Clone, Debug)]
pub struct Compressed {
    pub tile: LrTile,
    /// ACA's result failed the residual check and the tile was cut from its
    /// dense fill instead.
    pub fallback: bool,
}

/// Compresses a dense column-major `m × n` tile to absolute accuracy `eps`;
/// `rng` draws the residual check's probe rows.
pub fn compress_dense(
    m: usize,
    n: usize,
    a: &[f64],
    lda: usize,
    eps: f64,
    method: CompressionMethod,
    rng: &mut Rng,
) -> Result<Compressed, LinalgError> {
    compress(
        m,
        n,
        |i, j| a[i + j * lda],
        || {
            (0..n)
                .flat_map(|j| &a[j * lda..j * lda + m])
                .copied()
                .collect()
        },
        eps,
        method,
        rng,
    )
}

/// Compresses the `nrows × ncols` block `Σ[row_off.., col_off..]` of a
/// covariance kernel. ACA evaluates single entries; only the SVD oracle and
/// the fallback fill the block densely.
#[allow(clippy::too_many_arguments)]
pub fn compress_kernel_block<K: CovarianceKernel>(
    kernel: &K,
    row_off: usize,
    nrows: usize,
    col_off: usize,
    ncols: usize,
    eps: f64,
    method: CompressionMethod,
    rng: &mut Rng,
) -> Result<Compressed, LinalgError> {
    compress(
        nrows,
        ncols,
        |i, j| kernel.entry(row_off + i, col_off + j),
        || {
            let mut dense = vec![0.0; nrows * ncols];
            kernel.fill_tile(row_off, nrows, col_off, ncols, &mut dense, nrows);
            dense
        },
        eps,
        method,
        rng,
    )
}

/// The one compression path: `entry` serves ACA and the check, `fill` the
/// dense `m × n` tile (leading dimension `m`) for the oracle and the fallback.
fn compress(
    m: usize,
    n: usize,
    entry: impl Fn(usize, usize) -> f64,
    fill: impl FnOnce() -> Vec<f64>,
    eps: f64,
    method: CompressionMethod,
    rng: &mut Rng,
) -> Result<Compressed, LinalgError> {
    assert!(eps > 0.0, "accuracy threshold must be positive");
    if method == CompressionMethod::Aca {
        let mut tile = aca(m, n, &entry, eps);
        recompress(&mut tile, eps)?;
        if residual_within_bound(&tile, &entry, eps, rng) {
            return Ok(Compressed {
                tile,
                fallback: false,
            });
        }
    }
    Ok(Compressed {
        tile: svd_cut(m, n, &fill(), m, eps)?,
        fallback: method == CompressionMethod::Aca,
    })
}

/// Exact SVD truncated at the absolute cut `σ_k > eps`.
pub(crate) fn svd_cut(
    m: usize,
    n: usize,
    a: &[f64],
    lda: usize,
    eps: f64,
) -> Result<LrTile, LinalgError> {
    let mut svd = jacobi_svd(m, n, a, lda)?;
    svd.truncate(truncation_rank_cut(&svd.s, Cutoff::Absolute(eps)));
    Ok(LrTile::from_svd(&svd))
}

/// Sampled-residual check: estimates `‖A − U·Vᵀ‖_F` from [`PROBE_ROWS`]
/// distinct random rows (exactly, from all rows, on shorter tiles) and
/// compares it with the Frobenius bound `√min(m,n)·eps` of the absolute cut.
fn residual_within_bound(
    t: &LrTile,
    entry: impl Fn(usize, usize) -> f64,
    eps: f64,
    rng: &mut Rng,
) -> bool {
    let (m, n) = (t.rows, t.cols);
    if m == 0 || n == 0 {
        return true;
    }
    let rows = rng.sample_indices(m, PROBE_ROWS.min(m));
    let mut sum = 0.0;
    let mut r = vec![0.0; n];
    for &i in &rows {
        // rᵢ = A[i,:] − Σ_c U[i,c]·V[:,c].
        for (j, x) in r.iter_mut().enumerate() {
            *x = entry(i, j);
        }
        for (c, v) in t.v.chunks_exact(n).enumerate() {
            axpy(-t.u[i + c * m], v, &mut r);
        }
        sum += r.iter().map(|x| x * x).sum::<f64>();
    }
    let estimate = (m as f64 / rows.len() as f64 * sum).sqrt();
    estimate <= (m.min(n) as f64).sqrt() * eps
}

/// Adaptive cross approximation with partial pivoting (Bebendorf).
///
/// Builds rank-1 cross updates `A ← A − u vᵀ` until the increment's 2-norm
/// (`‖u‖·‖v‖`, the singular value of the rank-1 term) drops below the
/// absolute threshold `eps`. The rule is a heuristic: the result can keep
/// more rank than needed (hence [`recompress`]) or stop early on a tile whose
/// pivots miss its mass (hence the residual check).
pub fn aca(m: usize, n: usize, entry: impl Fn(usize, usize) -> f64, eps: f64) -> LrTile {
    let max_rank = m.min(n);
    let mut us: Vec<Vec<f64>> = Vec::new();
    let mut vs: Vec<Vec<f64>> = Vec::new();
    let mut used_rows = vec![false; m];
    let mut used_cols = vec![false; n];
    let mut i_star = 0usize;

    while us.len() < max_rank {
        used_rows[i_star] = true;
        // Residual row i*: A[i*,:] − Σ_k u_k[i*] v_k.
        let mut row: Vec<f64> = (0..n).map(|j| entry(i_star, j)).collect();
        for (u, v) in us.iter().zip(&vs) {
            let c = u[i_star];
            if c != 0.0 {
                for (r, &vv) in row.iter_mut().zip(v.iter()) {
                    *r -= c * vv;
                }
            }
        }
        // Pivot column: largest residual entry among unused columns.
        let mut j_star = usize::MAX;
        let mut best = 0.0f64;
        for (j, &r) in row.iter().enumerate() {
            if !used_cols[j] && r.abs() > best {
                best = r.abs();
                j_star = j;
            }
        }
        if j_star == usize::MAX || best == 0.0 {
            // Residual row is exactly zero: try another unused row, or stop.
            match next_unused(&used_rows) {
                Some(next) => {
                    i_star = next;
                    continue;
                }
                None => break,
            }
        }
        used_cols[j_star] = true;
        let pivot = row[j_star];
        let v_new: Vec<f64> = row.iter().map(|&r| r / pivot).collect();
        // Residual column j*: A[:,j*] − Σ_k u_k v_k[j*].
        let mut col: Vec<f64> = (0..m).map(|i| entry(i, j_star)).collect();
        for (u, v) in us.iter().zip(&vs) {
            let c = v[j_star];
            if c != 0.0 {
                for (cc, &uu) in col.iter_mut().zip(u.iter()) {
                    *cc -= c * uu;
                }
            }
        }
        let u_new = col;

        let u_norm2: f64 = u_new.iter().map(|x| x * x).sum();
        let v_norm2: f64 = v_new.iter().map(|x| x * x).sum();

        // Next row pivot: largest entry of u_new among unused rows (pick
        // before moving u_new).
        let mut next_i = usize::MAX;
        let mut best_u = -1.0f64;
        for (i, &u) in u_new.iter().enumerate() {
            if !used_rows[i] && u.abs() > best_u {
                best_u = u.abs();
                next_i = i;
            }
        }

        us.push(u_new);
        vs.push(v_new);

        // Convergence: the rank-1 increment's singular value fell under the
        // absolute threshold.
        if (u_norm2 * v_norm2).sqrt() <= eps {
            break;
        }
        match next_i {
            usize::MAX => break,
            i => i_star = i,
        }
    }

    let k = us.len();
    LrTile::from_factors(m, n, k, us.concat(), vs.concat())
}

fn next_unused(used: &[bool]) -> Option<usize> {
    used.iter().position(|&u| !u)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use exa_covariance::{DistanceMetric, Location, MaternKernel, MaternParams};
    use exa_linalg::{frobenius_norm, Mat};
    use std::sync::Arc;

    /// A tile of a Matérn covariance between two well-separated clusters —
    /// numerically low rank, the exact structure TLR exploits.
    fn separated_covariance_tile(m: usize, n: usize, seed: u64) -> Mat {
        let mut rng = Rng::seed_from_u64(seed);
        let mut locs = Vec::with_capacity(m + n);
        for _ in 0..m {
            locs.push(Location::new(rng.uniform(0.0, 0.3), rng.uniform(0.0, 0.3)));
        }
        for _ in 0..n {
            locs.push(Location::new(rng.uniform(0.7, 1.0), rng.uniform(0.7, 1.0)));
        }
        let kernel = MaternKernel::new(
            Arc::new(locs),
            MaternParams::new(1.0, 0.3, 0.5),
            DistanceMetric::Euclidean,
            0.0,
        );
        Mat::from_fn(m, n, |i, j| kernel.entry(i, m + j))
    }

    fn diff(a: &Mat, t: &LrTile) -> Vec<f64> {
        let mut d = t.to_dense();
        for (x, q) in d.iter_mut().zip(a.as_slice()) {
            *x -= q;
        }
        d
    }

    fn rel_error(a: &Mat, t: &LrTile) -> f64 {
        frobenius_norm(a.nrows(), a.ncols(), &diff(a, t), a.nrows())
            / frobenius_norm(a.nrows(), a.ncols(), a.as_slice(), a.nrows())
    }

    /// `‖A − U·Vᵀ‖₂`, the quantity the absolute cut bounds.
    fn two_norm_error(a: &Mat, t: &LrTile) -> f64 {
        let s = jacobi_svd(a.nrows(), a.ncols(), &diff(a, t), a.nrows())
            .unwrap()
            .s;
        s.first().copied().unwrap_or(0.0)
    }

    fn compress_mat(a: &Mat, eps: f64, method: CompressionMethod, seed: u64) -> Compressed {
        let mut rng = Rng::seed_from_u64(seed);
        let (m, n) = (a.nrows(), a.ncols());
        compress_dense(m, n, a.as_slice(), m, eps, method, &mut rng).unwrap()
    }

    #[test]
    fn all_methods_meet_threshold_on_covariance_tile() {
        let a = separated_covariance_tile(40, 36, 1);
        for method in [CompressionMethod::Svd, CompressionMethod::Aca] {
            for eps in [1e-5, 1e-7, 1e-9] {
                let c = compress_mat(&a, eps, method, 2);
                let err = rel_error(&a, &c.tile);
                // Both paths cut at the same absolute threshold now.
                assert!(
                    err <= 2.0 * eps,
                    "{method} eps={eps}: rel err {err}, rank {}",
                    c.tile.rank()
                );
                assert!(two_norm_error(&a, &c.tile) <= eps, "{method} eps={eps}");
                assert!(
                    c.tile.rank() < 20,
                    "{method} rank {} not low",
                    c.tile.rank()
                );
                assert!(!c.fallback, "{method} eps={eps} fell back");
            }
        }
    }

    #[test]
    fn lower_accuracy_gives_lower_rank() {
        let a = separated_covariance_tile(48, 48, 3);
        let loose = compress_mat(&a, 1e-3, CompressionMethod::Svd, 4).tile;
        let tight = compress_mat(&a, 1e-11, CompressionMethod::Svd, 4).tile;
        assert!(loose.rank() <= tight.rank());
        assert!(loose.rank() >= 1);
    }

    #[test]
    fn aca_exact_on_exactly_low_rank_matrix() {
        let mut rng = Rng::seed_from_u64(5);
        let u = Mat::gaussian(30, 3, &mut rng);
        let v = Mat::gaussian(20, 3, &mut rng);
        let a = u.matmul(&v.transposed());
        let t = aca(30, 20, |i, j| a[(i, j)], 1e-12);
        assert!(t.rank() <= 4, "rank {}", t.rank());
        assert!(rel_error(&a, &t) < 1e-10);
    }

    #[test]
    fn kernel_block_aca_avoids_dense_path() {
        let mut rng = Rng::seed_from_u64(6);
        let mut locs = Vec::new();
        for _ in 0..60 {
            locs.push(Location::new(rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)));
        }
        let kernel = MaternKernel::new(
            Arc::new(locs),
            MaternParams::new(1.0, 0.1, 0.5),
            DistanceMetric::Euclidean,
            0.0,
        );
        let c = compress_kernel_block(
            &kernel,
            0,
            25,
            30,
            30,
            1e-7,
            CompressionMethod::Aca,
            &mut rng,
        )
        .unwrap();
        assert!(!c.fallback, "the check must pass without the dense fill");
        let dense = Mat::from_fn(25, 30, |i, j| kernel.entry(i, 30 + j));
        assert!(rel_error(&dense, &c.tile) < 1e-4);
    }

    #[test]
    fn zero_matrix_compresses_to_rank_zero() {
        let t = aca(10, 10, |_, _| 0.0, 1e-9);
        assert_eq!(t.rank(), 0);
        let z = Mat::zeros(10, 10);
        for method in [CompressionMethod::Svd, CompressionMethod::Aca] {
            let c = compress_mat(&z, 1e-9, method, 7);
            assert_eq!(c.tile.rank(), 0, "{method}");
            assert!(!c.fallback);
        }
    }

    #[test]
    fn default_compressor_matches_svd_rank() {
        let a = separated_covariance_tile(32, 32, 8);
        let s = compress_mat(&a, 1e-7, CompressionMethod::Svd, 9).tile;
        let c = compress_mat(&a, 1e-7, CompressionMethod::default(), 9);
        assert!(!c.fallback);
        // Recompression cuts ACA's factors where the exact SVD cuts A.
        assert!(
            c.tile.rank().abs_diff(s.rank()) <= 1,
            "svd {} aca {}",
            s.rank(),
            c.tile.rank()
        );
    }

    /// Plain partial-pivot ACA starts on row 0, whose only entry is 1e-12 in
    /// a column the block below does not touch: the first cross is below
    /// `eps` and ACA stops at rank 1, missing the O(1) rank-1 block.
    pub(crate) fn planted_aca_miss(m: usize, n: usize) -> Mat {
        Mat::from_fn(m, n, |i, j| match (i, j) {
            (0, 0) => 1e-12,
            (0, _) | (_, 0) => 0.0,
            _ if i < m - 2 => (1.0 + i as f64 / m as f64) * (2.0 - j as f64 / n as f64),
            _ => 0.0,
        })
    }

    #[test]
    fn planted_aca_miss_trips_the_check_and_falls_back() {
        let a = planted_aca_miss(40, 30);
        let eps = 1e-9;
        let plain = aca(40, 30, |i, j| a[(i, j)], eps);
        assert_eq!(plain.rank(), 1, "the planted tile must fool plain ACA");
        assert!(two_norm_error(&a, &plain) > 1.0);
        let c = compress_mat(&a, eps, CompressionMethod::Aca, 3);
        assert!(c.fallback, "the residual check must catch the miss");
        assert!(two_norm_error(&a, &c.tile) <= eps);
        assert_eq!(c.tile.rank(), 1);
    }
}
