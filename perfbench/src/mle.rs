//! The budgeted MLE and the decomposition of one ℓ(θ) into layer calls.

use crate::trace::{SpanId, Tracer};
use exa_covariance::MaternKernel;
use exa_geostat::{Backend, FitOptions, FittedModel, GeoModel, NelderMeadConfig};
use exa_linalg::Mat;
use exa_runtime::{ExecStats, Runtime};
use exa_tile::{tile_logdet, tile_potrf, tile_trsm, TileMatrix, TriangularSide};
use exa_tlr::{tlr_logdet, tlr_potrf, tlr_trsm, TlrMatrix};
use std::time::Instant;

/// The fixed start θ₀: off the generating θ, at a smoothness fitted models
/// visit, where the Matérn kernel needs the Bessel function.
pub const THETA0: [f64; 3] = [1.0, 0.1, 0.8];

/// Evaluations every fit spends: the initial simplex in three parameters.
/// With both tolerances at zero no fit stops early, so the work does not
/// depend on the ℓ values.
pub const EVAL_BUDGET: usize = 4;

/// The budgeted fit and its wall time (including the final factorization
/// at θ̂).
pub fn budgeted_fit(
    model: &GeoModel<MaternKernel>,
    rt: &Runtime,
) -> Result<(FittedModel<MaternKernel>, f64), String> {
    let mut opts = FitOptions::starting_at(&THETA0);
    opts.nm = NelderMeadConfig {
        max_evals: EVAL_BUDGET,
        ftol: 0.0,
        xtol: 0.0,
        ..NelderMeadConfig::default()
    };
    let t = Instant::now();
    let fitted = model.fit(&opts, rt).map_err(|e| format!("fit: {e}"))?;
    Ok((fitted, t.elapsed().as_secs_f64()))
}

/// One ℓ(θ) assembled from public layer calls, with what each layer did.
pub struct Decomposed {
    pub value: f64,
    pub generate_s: f64,
    pub factor_s: f64,
    pub solve_s: f64,
    pub potrf: ExecStats,
    pub rank_mean: f64,
    pub rank_max: f64,
    pub compression_ratio: f64,
}

fn timed<T>(
    tracer: &Tracer,
    name: &'static str,
    parent: Option<SpanId>,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let t = Instant::now();
    let out = tracer.span(name, parent, |_| f());
    (out, t.elapsed().as_secs_f64())
}

/// ℓ(θ) as generate → factor → forward solve + log-determinant, in the
/// order and arithmetic `GeoModel::log_likelihood_at` uses, with a span
/// around each layer call.
pub fn decompose(
    model: &GeoModel<MaternKernel>,
    theta: &[f64],
    rt: &Runtime,
    tracer: &Tracer,
) -> Result<Decomposed, String> {
    let kernel = model.kernel_at(theta).map_err(|e| e.to_string())?;
    let z = model.data().ok_or("model has no data")?;
    let n = z.len();
    let cfg = model.config();
    let workers = rt.num_workers();
    let mut w = Mat::from_vec(n, 1, z.to_vec());
    tracer.span("core.loglik", None, |root| {
        let (logdet, generate_s, factor_s, solve_s, potrf, ranks) = match model.backend() {
            Backend::FullTile => {
                let (mut sigma, g) = timed(tracer, "covariance.generate", root, || {
                    TileMatrix::from_kernel_symmetric_lower(&kernel, cfg.nb, workers)
                });
                let (potrf, f) = timed(tracer, "tile.potrf", root, || tile_potrf(&mut sigma, rt));
                let potrf = potrf.map_err(|e| format!("tile_potrf: {e}"))?;
                let (logdet, s) = timed(tracer, "tile.trsm", root, || {
                    let logdet = tile_logdet(&sigma);
                    tile_trsm(&mut sigma, TriangularSide::Forward, &mut w, rt);
                    logdet
                });
                (logdet, g, f, s, potrf, (0.0, 0.0, 1.0))
            }
            Backend::Tlr { eps, method } => {
                let (sigma, g) = timed(tracer, "tlr.compress", root, || {
                    TlrMatrix::from_kernel(&kernel, cfg.nb, eps, method, workers, cfg.seed)
                });
                let mut sigma = sigma.map_err(|e| format!("tlr compress: {e}"))?;
                let rs = sigma.rank_stats();
                let ranks = (rs.mean, rs.max as f64, sigma.compression_ratio());
                let (potrf, f) = timed(tracer, "tlr.potrf", root, || tlr_potrf(&mut sigma, rt));
                let potrf = potrf.map_err(|e| format!("tlr_potrf: {e}"))?;
                let (logdet, s) = timed(tracer, "tlr.trsm", root, || {
                    let logdet = tlr_logdet(&sigma);
                    tlr_trsm(&mut sigma, TriangularSide::Forward, &mut w, rt);
                    logdet
                });
                (logdet, g, f, s, potrf, ranks)
            }
            Backend::FullBlock => {
                return Err("decomposition covers the tile and TLR backends".into())
            }
        };
        let quadratic: f64 = w.as_slice().iter().map(|v| v * v).sum();
        let value =
            -0.5 * (n as f64) * (2.0 * std::f64::consts::PI).ln() - 0.5 * logdet - 0.5 * quadratic;
        Ok(Decomposed {
            value,
            generate_s,
            factor_s,
            solve_s,
            potrf,
            rank_mean: ranks.0,
            rank_max: ranks.1,
            compression_ratio: ranks.2,
        })
    })
}

/// |ℓ_TLR − ℓ_dense| / |ℓ|, and whether it stays within the accuracy `eps`
/// the TLR time is stated at. No perturbation bound ties the two when Σ is
/// ill-conditioned, so the check asks ℓ itself to agree to a relative
/// `eps`: at ε = 1e-9 on the `mle_tlr` data the measured error is about
/// 1e-11, a hundredfold margin, while a compressor that loses accuracy
/// toward ε = 1e-4 fails (see the tests).
pub fn tlr_accuracy(ll_tlr: f64, ll_dense: f64, eps: f64) -> (f64, bool) {
    let rel = (ll_tlr - ll_dense).abs() / ll_dense.abs();
    (rel, rel <= eps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use exa_geostat::synthetic_locations_n;
    use exa_util::Rng;
    use std::sync::Arc;

    fn model(backend: Backend, nb: usize) -> GeoModel<MaternKernel> {
        let mut rng = Rng::seed_from_u64(4);
        let locs = Arc::new(synthetic_locations_n(144, &mut rng));
        let z: Vec<f64> = (0..144).map(|_| rng.next_gaussian()).collect();
        GeoModel::<MaternKernel>::builder()
            .locations(locs)
            .data(z)
            .backend(backend)
            .tile_size(nb)
            .build()
            .unwrap()
    }

    #[test]
    fn decomposed_loglik_matches_the_model_to_the_bit() {
        let rt = Runtime::new(2);
        for (backend, nb) in [(Backend::FullTile, 30), (Backend::tlr(1e-9), 48)] {
            let model = model(backend, nb);
            let tracer = Tracer::new(true, 1);
            let d = decompose(&model, &THETA0, &rt, &tracer).unwrap();
            let reference = model.log_likelihood_at(&THETA0, &rt).unwrap().value;
            assert_eq!(d.value.to_bits(), reference.to_bits(), "{backend}");
            assert_eq!(tracer.spans().len(), 4);
        }
    }

    #[test]
    fn the_accuracy_check_refuses_a_coarse_compression() {
        let rt = Runtime::new(2);
        let ll = |backend| {
            model(backend, 48)
                .log_likelihood_at(&THETA0, &rt)
                .unwrap()
                .value
        };
        let dense = ll(Backend::FullTile);
        let (fine, fine_ok) = tlr_accuracy(ll(Backend::tlr(1e-9)), dense, 1e-9);
        let (coarse, coarse_ok) = tlr_accuracy(ll(Backend::tlr(1e-4)), dense, 1e-9);
        assert!(fine_ok, "ε = 1e-9: relative error {fine:e}");
        assert!(!coarse_ok, "ε = 1e-4: relative error {coarse:e}");
        assert!(!tlr_accuracy(f64::NAN, dense, 1e-9).1);
    }
}
