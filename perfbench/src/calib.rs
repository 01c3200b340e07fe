//! The box record and calibration microbenchmarks: per-core FMA peak,
//! `dgemm` at the workload tile sizes, task-dispatch cost, and the
//! simulator's single-node Cholesky model checked against a measured time.

use exa_distsim::{simulate_cholesky, BlockCyclic, DenseCost, MachineConfig};
use exa_linalg::{dgemm, Trans};
use exa_runtime::{Access, Runtime, TaskGraph};
use std::hint::black_box;
use std::time::Instant;

/// What the run executed on.
#[derive(Clone, Debug)]
pub struct BoxRecord {
    pub cpu_model: String,
    pub nproc: usize,
    pub simd: Vec<&'static str>,
}

pub fn box_record() -> BoxRecord {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    BoxRecord {
        cpu_model,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        simd: simd_features(),
    }
}

#[cfg(target_arch = "x86_64")]
fn simd_features() -> Vec<&'static str> {
    let mut out = Vec::new();
    macro_rules! probe {
        ($($f:tt),*) => {$(
            if std::arch::is_x86_feature_detected!($f) {
                out.push($f);
            }
        )*};
    }
    probe!("sse4.2", "avx", "avx2", "fma", "avx512f");
    out
}

#[cfg(not(target_arch = "x86_64"))]
fn simd_features() -> Vec<&'static str> {
    Vec::new()
}

/// Best-of-`reps` seconds of `f`.
fn best_of(reps: usize, mut f: impl FnMut()) -> f64 {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Independent accumulator chains: enough to cover FMA latency on both
/// ports of a current x86 core.
const CHAINS: usize = 10;

/// `iters` rounds of `CHAINS` 4-wide fused multiply-adds.
///
/// # Safety
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn fma_avx2(iters: u64) -> f64 {
    use std::arch::x86_64::*;
    let a = _mm256_set1_pd(0.999_999);
    let b = _mm256_set1_pd(1e-6);
    let mut acc = [_mm256_set1_pd(1.0); CHAINS];
    for _ in 0..iters / 100 {
        for _ in 0..100 {
            for v in acc.iter_mut() {
                *v = _mm256_fmadd_pd(*v, a, b);
            }
        }
        // Opaque to the optimizer, so no round of the loop can be elided.
        acc = black_box(acc);
    }
    let mut lanes = [0.0f64; 4];
    let mut sum = _mm256_setzero_pd();
    for v in acc {
        sum = _mm256_add_pd(sum, v);
    }
    _mm256_storeu_pd(lanes.as_mut_ptr(), sum);
    lanes.iter().sum()
}

/// The scalar fallback: `iters` rounds of `CHAINS` multiply-adds.
fn fma_scalar(iters: u64) -> f64 {
    let (a, b) = (black_box(0.999_999), black_box(1e-6));
    let mut acc = [1.0f64; CHAINS];
    for _ in 0..iters / 100 {
        for _ in 0..100 {
            for v in acc.iter_mut() {
                *v = *v * a + b;
            }
        }
        acc = black_box(acc);
    }
    acc.iter().sum()
}

/// Per-core double-precision peak in GFLOP/s from a loop the benchmark
/// owns: AVX2+FMA when the CPU has both, scalar otherwise.
pub fn fma_peak_gflops() -> f64 {
    const ITERS: u64 = 20_000_000;
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
        let secs = best_of(3, || {
            // SAFETY: AVX2 and FMA support was detected at runtime just above.
            black_box(unsafe { fma_avx2(black_box(ITERS)) });
        });
        return (ITERS * CHAINS as u64 * 4 * 2) as f64 / secs / 1e9;
    }
    let iters = ITERS / 4;
    let secs = best_of(3, || {
        black_box(fma_scalar(black_box(iters)));
    });
    (iters * CHAINS as u64 * 2) as f64 / secs / 1e9
}

/// Single-thread `dgemm` rate at `nb × nb × nb`, GFLOP/s.
pub fn dgemm_gflops(nb: usize) -> f64 {
    let a: Vec<f64> = (0..nb * nb).map(|i| (i % 7) as f64 * 0.1).collect();
    let b: Vec<f64> = (0..nb * nb).map(|i| (i % 5) as f64 * 0.1).collect();
    let mut c = vec![0.0; nb * nb];
    let reps = (2e8 / (2.0 * (nb * nb * nb) as f64)).ceil() as usize;
    let secs = best_of(3, || {
        for _ in 0..reps {
            dgemm(
                Trans::No,
                Trans::No,
                nb,
                nb,
                nb,
                1.0,
                &a,
                nb,
                &b,
                nb,
                1.0,
                &mut c,
                nb,
            );
        }
        black_box(&c);
    });
    2.0 * (nb * nb * nb * reps) as f64 / secs / 1e9
}

/// Microseconds per task for `tasks` empty tasks on the runtime, either
/// independent or chained through one handle.
pub fn dispatch_us(rt: &Runtime, tasks: usize, chained: bool) -> f64 {
    let secs = best_of(3, || {
        let mut g = TaskGraph::new();
        if chained {
            let h = g.register();
            for _ in 0..tasks {
                g.submit("chain", 0, &[(h, Access::ReadWrite)], || {});
            }
        } else {
            for h in g.register_many(tasks) {
                g.submit("noop", 0, &[(h, Access::Write)], || {});
            }
        }
        let stats = rt.run(g);
        assert_eq!(stats.tasks_executed, tasks);
    });
    secs / tasks as f64 * 1e6
}

/// A one-node machine with `cores` cores at the measured per-core peak and
/// the measured `dgemm` share of it.
pub fn calibrated_machine(cores: usize, peak_gflops: f64, dgemm_gflops: f64) -> MachineConfig {
    MachineConfig {
        nodes: 1,
        cores_per_node: cores,
        peak_flops_per_core: peak_gflops * 1e9,
        dense_efficiency: dgemm_gflops / peak_gflops,
        lr_efficiency: dgemm_gflops / peak_gflops,
        network_latency: 0.0,
        network_bandwidth: f64::INFINITY,
        memory_per_node: usize::MAX / 2,
    }
}

/// Simulated seconds of the dense tile Cholesky of `nt × nt` tiles of
/// size `nb` on `machine`.
pub fn simulated_potrf_s(nt: usize, nb: usize, machine: &MachineConfig) -> Result<f64, String> {
    simulate_cholesky(nt, &DenseCost { nb }, machine, &BlockCyclic::squarest(1))
        .map(|s| s.makespan)
        .map_err(|e| format!("{e:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulator_scales_with_the_calibrated_rate() {
        let slow = calibrated_machine(2, 10.0, 5.0);
        let fast = calibrated_machine(2, 10.0, 10.0);
        let (s, f) = (
            simulated_potrf_s(8, 100, &slow).unwrap(),
            simulated_potrf_s(8, 100, &fast).unwrap(),
        );
        assert!((s / f - 2.0).abs() < 1e-9, "{s} vs {f}");
    }

    #[test]
    fn box_record_names_the_core_count() {
        assert!(box_record().nproc >= 1);
    }
}
