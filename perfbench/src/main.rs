//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <mle_dense|mle_tlr|serve_direct|serve_routed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload runs the paper's workflow end to end: simulate a field,
//! fit a Matérn model by a budgeted MLE, then serve the fitted model over
//! `exa-wire` (directly or through an `exa-fleet` router) to an open-loop
//! rung of predicts and then one of observes, and measure its capacity
//! with closed-loop bursts of predicts. The workloads differ in which part dominates; see
//! `perfbench/README.md`. The last stdout line is one JSON object:
//! end-to-end metrics with `--trace 0`, per-layer metrics from a traced
//! run with `--trace 1`. A failed correctness check prints
//! `"correct": false` and exits non-zero.

mod calib;
mod inputs;
mod load;
mod mle;
mod serve;
mod stats;
mod trace;

use exa_covariance::{Location, MaternKernel};
use exa_geostat::{Backend, FittedModel, GeoModel, LikelihoodConfig};
use exa_runtime::Runtime;
use exa_tile::TileMatrix;
use load::{Op, Rung, RungRule, Target};
use serve::{Fleet, Snapshot, WireTarget};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use trace::Tracer;

const USAGE: &str =
    "usage: perfbench --workload <mle_dense|mle_tlr|serve_direct|serve_routed> --seed <n> --seconds <s> --trace <0|1>";

/// End-to-end metrics, reported with `--trace 0`: (name, unit).
const END_TO_END: &[(&str, &str)] = &[
    ("fit_s", "s"),
    ("factor_bytes", "B"),
    ("predict_p50_s", "s"),
    ("predict_tail_s", "s"),
    ("observe_p50_s", "s"),
    ("observe_tail_s", "s"),
    ("predict_max_rps", "req/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported with `--trace 1`: (name, unit). A layer
/// that does no work on a workload reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("linalg.fma_peak_gflops", "GFLOP/s"),
    ("linalg.dgemm_gflops_nb100", "GFLOP/s"),
    ("linalg.dgemm_gflops_nb200", "GFLOP/s"),
    ("linalg.dgemm_frac_peak", "ratio"),
    ("covariance.generate_s", "s"),
    ("covariance.entries_per_s", "1/s"),
    ("runtime.tasks", "count"),
    ("runtime.busy_s", "s"),
    ("runtime.parallel_efficiency", "ratio"),
    ("runtime.critical_path_tasks", "count"),
    ("runtime.dispatch_us", "us"),
    ("runtime.chain_dispatch_us", "us"),
    ("tile.potrf_s", "s"),
    ("tile.potrf_gflops", "GFLOP/s"),
    ("tile.trsm_s", "s"),
    ("tlr.compress_s", "s"),
    ("tlr.potrf_s", "s"),
    ("tlr.trsm_s", "s"),
    ("tlr.rank_mean", "count"),
    ("tlr.rank_max", "count"),
    ("tlr.compression_ratio", "ratio"),
    ("tlr.loglik_rel_err", "ratio"),
    ("core.fit_evals", "count"),
    ("core.loglik_share", "ratio"),
    ("core.predict_points_per_s", "1/s"),
    ("core.refits_triggered", "count"),
    ("serve.queue_p50_s", "s"),
    ("serve.queue_p99_s", "s"),
    ("serve.solve_p50_s", "s"),
    ("serve.solve_p99_s", "s"),
    ("serve.batch_mean_requests", "count"),
    ("serve.coalesced_frac", "ratio"),
    ("serve.factorizations", "count"),
    ("wire.inline_frac", "ratio"),
    ("wire.errors", "count"),
    ("wire.overhead_p50_s", "s"),
    ("fleet.relay_p50_s", "s"),
    ("fleet.failovers", "count"),
    ("fleet.route_tax_p50", "ratio"),
    ("distsim.chol_model_err", "ratio"),
    ("load.predict_samples", "count"),
    ("load.observe_samples", "count"),
    ("load.lateness_max_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.loglik_delta_s", "s"),
];

/// One workload: what is fitted and how its fit is served.
struct Spec {
    name: &'static str,
    n: usize,
    backend: Backend,
    nb: usize,
    routed: bool,
    /// Offered rate of the read rung, in requests per second.
    read_rps: f64,
    /// The phase `peak_rss_mb` covers.
    rss_phase: Phase,
}

/// A measured phase of a run.
#[derive(Clone, Copy, PartialEq)]
enum Phase {
    /// The budgeted fits.
    Fit,
    /// Deploying θ̂ and serving it.
    Serve,
}

/// An open-loop rung is served when its latency tail stays under 250 ms
/// and the generator's lateness grows by less than 5% of the rung's length
/// from its first quarter to its last.
const RUNG_RULE: RungRule = RungRule {
    tail_limit_s: 0.25,
    growth_share: 0.05,
};
/// `predict_max_rps` is the median rate of this many closed-loop bursts of
/// [`BURST_COUNT`] predicts each: a third to half a second per burst.
const BURSTS: usize = 5;
const BURST_COUNT: usize = 200;

const WORKLOADS: &[&str] = &["mle_dense", "mle_tlr", "serve_direct", "serve_routed"];

/// Share of `--seconds` the read rung takes; the write rung takes the rest.
const READ_SHARE: f64 = 0.5;
/// Offered rate of the write rung on every workload. One observe takes
/// 15-40 ms at 1024 served points and about 55 ms at 1600, so the next is
/// due well after the last has finished even when the box runs slower.
const WRITE_RPS: f64 = 10.0;

fn spec(name: &str) -> Option<Spec> {
    // The `mle_*` workloads serve their 1600-point fit at 40 req/s, the
    // `serve_*` workloads their 1024-point fit at 90 req/s: 450 reads at
    // `--seconds 10`, so the reads' p90 has 45 samples beyond it.
    let mle = |name, backend, nb| Spec {
        name,
        n: 1600,
        backend,
        nb,
        routed: false,
        read_rps: 40.0,
        rss_phase: Phase::Fit,
    };
    let serving = |name, routed| Spec {
        name,
        n: 1024,
        backend: Backend::FullTile,
        nb: 100,
        routed,
        read_rps: 90.0,
        rss_phase: Phase::Serve,
    };
    Some(match name {
        "mle_dense" => mle("mle_dense", Backend::FullTile, 100),
        "mle_tlr" => mle("mle_tlr", Backend::tlr(1e-9), 200),
        "serve_direct" => serving("serve_direct", false),
        "serve_routed" => serving("serve_routed", true),
        _ => return None,
    })
}

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Fits per run at most; fewer once they have taken half of `--seconds`.
const FIT_REPS: usize = 8;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Counts, checks and metrics of one run.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Records one checked operation; a failure is counted and logged.
    fn check(&mut self, name: &str, ok: bool, detail: impl std::fmt::Display) {
        self.attempted += 1;
        if ok {
            eprintln!("check ok      {name}: {detail}");
        } else {
            self.failed += 1;
            eprintln!("check FAILED  {name}: {detail}");
        }
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// The result line: exactly the listed metrics, each with its unit.
    fn json(&self, listed: &[(&'static str, &'static str)]) -> String {
        let mut w = exa_wire::json::JsonWriter::new();
        w.begin_object();
        w.key("correct");
        w.boolean(self.failed == 0);
        w.field_uint("attempted", self.attempted.max(1));
        w.field_uint("failed", self.failed);
        w.key("metrics");
        w.begin_object();
        for &(name, unit) in listed {
            w.key(name);
            w.begin_object();
            w.field_num("value", self.metrics.get(name).copied().unwrap_or(0.0));
            w.field_str("unit", unit);
            w.end_object();
        }
        w.end_object();
        w.end_object();
        w.finish()
    }
}

/// Resets the peak resident set size to the current one, so that a later
/// [`peak_rss_mb`] covers only what ran in between. Linux only; when the
/// reset is refused the peak covers the whole process so far.
fn reset_peak_rss() {
    match std::fs::write("/proc/self/clear_refs", "5") {
        Ok(()) => eprintln!("peak RSS: reset at {:.1} MB resident", status_mb("VmRSS:")),
        Err(e) => eprintln!("peak RSS: reset refused ({e}); the peak covers the whole run"),
    }
}

/// Peak resident set size of this process, in MB.
fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// A `/proc/self/status` size field, in MB (0 when unavailable).
fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A connection whose calls are wrapped in spans when tracing.
struct Traced<'a> {
    inner: WireTarget,
    tracer: &'a Tracer,
}

impl Target for Traced<'_> {
    fn call(&mut self, op: &Op) -> Result<Option<f64>, String> {
        let name = if op.is_observe() {
            "client.observe"
        } else {
            "client.predict"
        };
        self.tracer.span(name, None, |_| self.inner.call(op))
    }
}

fn connections(
    addr: std::net::SocketAddr,
    count: usize,
    tracer: &Tracer,
) -> Result<Vec<Traced<'_>>, String> {
    (0..count)
        .map(|_| WireTarget::connect(addr).map(|inner| Traced { inner, tracer }))
        .collect()
}

fn snapshots(addrs: &[std::net::SocketAddr]) -> Result<Vec<Snapshot>, String> {
    addrs.iter().map(|&a| Snapshot::take(a)).collect()
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = spec(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {:?} (one of {WORKLOADS:?})\n{USAGE}",
            args.workload
        );
        return ExitCode::from(2);
    };
    match run(&spec, &args) {
        Ok(report) => {
            let listed = if args.trace { PER_LAYER } else { END_TO_END };
            println!("{}", report.json(listed));
            if report.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(spec: &Spec, args: &Args) -> Result<Report, String> {
    let box_record = calib::box_record();
    let threads = box_record.nproc.min(2);
    eprintln!(
        "box: {} | nproc {} | simd {:?} | workload {} seed {} trace {}",
        box_record.cpu_model, box_record.nproc, box_record.simd, spec.name, args.seed, args.trace
    );
    let rt = Runtime::new(threads);
    let tracer = Tracer::new(args.trace, args.seed);
    let mut rep = Report::default();

    let (field, model, fleet) = set_up(spec, args, &rt, &mut rep)?;
    let fitted = fit(spec, args, &field, &model, &rt, &mut rep)?;
    if args.trace {
        decompose_loglik(spec, &model, &fitted, &rt, &tracer, &mut rep)?;
    }

    // Deploy θ̂ on a dense factor, which observes update in place.
    if spec.rss_phase == Phase::Serve {
        reset_peak_rss();
    }
    let served = GeoModel::<MaternKernel>::builder()
        .locations(field.locations.clone())
        .data(field.z.clone())
        .backend(Backend::FullBlock)
        .build()
        .and_then(|m| m.at_params(&fitted.params(), &rt))
        .map_err(|e| format!("deploy θ̂: {e}"))?;
    let served = Arc::new(served);
    fleet.deploy(&served);
    probe(spec, args, &served, &fleet, &mut rep)?;
    serve(spec, args, &field, &fleet, threads, &tracer, &mut rep)?;
    if spec.rss_phase == Phase::Serve {
        rep.set("peak_rss_mb", peak_rss_mb());
    }
    if args.trace {
        if let Some(router) = fleet.router_addr() {
            let tax = route_tax(fleet.node_addrs()[0], router, args.seed)?;
            rep.set("fleet.route_tax_p50", tax);
        }
    }
    fleet.shutdown();

    if args.trace {
        calibrate(spec, &rt, &tracer, &mut rep);
        write_trace(spec.name, args.seed, &tracer.spans(), &box_record);
    }
    Ok(rep)
}

/// Locations, the simulated field, the `GeoModel` and the serving
/// tier, built several times; `setup_s` is the median.
fn set_up(
    spec: &Spec,
    args: &Args,
    rt: &Runtime,
    rep: &mut Report,
) -> Result<(inputs::Field, GeoModel<MaternKernel>, Fleet), String> {
    let streamed = write_count(args);
    let mut times = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        if let Some((_, _, fleet)) = built.take() {
            Fleet::shutdown(fleet);
        }
        let t = Instant::now();
        let field = inputs::field(spec.n, streamed, args.seed, rt)?;
        let model = GeoModel::<MaternKernel>::builder()
            .locations(field.locations.clone())
            .data(field.z.clone())
            .backend(spec.backend)
            .config(LikelihoodConfig {
                nb: spec.nb,
                seed: args.seed,
            })
            .build()
            .map_err(|e| format!("model: {e}"))?;
        let fleet = Fleet::start(spec.routed)?;
        times.push(t.elapsed().as_secs_f64());
        built = Some((field, model, fleet));
    }
    rep.set("setup_s", stats::median(&times));
    eprintln!("set-up: {times:.4?} s");
    Ok(built.expect("at least one set-up"))
}

/// The budgeted fit, repeated until the fits took half of `--seconds`;
/// `fit_s` is the median. On TLR, ℓ(θ̂) is checked against Full-tile.
fn fit(
    spec: &Spec,
    args: &Args,
    field: &inputs::Field,
    model: &GeoModel<MaternKernel>,
    rt: &Runtime,
    rep: &mut Report,
) -> Result<FittedModel<MaternKernel>, String> {
    let mut times = Vec::new();
    let mut fitted = None;
    if spec.rss_phase == Phase::Fit {
        reset_peak_rss();
    }
    while times.len() < FIT_REPS && times.iter().sum::<f64>() < args.seconds / 2.0 {
        let (f, secs) = mle::budgeted_fit(model, rt)?;
        times.push(secs);
        fitted = Some(f);
    }
    if spec.rss_phase == Phase::Fit {
        rep.set("peak_rss_mb", peak_rss_mb());
    }
    let fitted = fitted.expect("at least one fit");
    let fit_s = stats::median(&times);
    let theta_hat = fitted.params();
    let ll_hat = fitted
        .log_likelihood()
        .map(|l| l.value)
        .ok_or("fit has no likelihood")?;
    rep.check(
        "fit",
        ll_hat.is_finite(),
        format!("θ̂ = {theta_hat:?}, ℓ(θ̂) = {ll_hat}, fits {times:.3?} s"),
    );
    let report = fitted.report();
    rep.set("fit_s", fit_s);
    rep.set("factor_bytes", fitted.factor_bytes() as f64);
    rep.set("core.fit_evals", report.evaluations as f64);
    rep.set("core.loglik_share", report.likelihood_seconds / fit_s);
    eprintln!(
        "fit: {fit_s:.3} s, {} evaluations, {:.3} s in ℓ(θ) (share {:.3} of fit_s)",
        report.evaluations,
        report.likelihood_seconds,
        report.likelihood_seconds / fit_s
    );

    if let Backend::Tlr { eps, .. } = spec.backend {
        // Accuracy that makes the TLR time count: ℓ_TLR(θ̂) against the
        // Full-tile ℓ at the same θ̂ (untimed).
        let dense = GeoModel::<MaternKernel>::builder()
            .locations(field.locations.clone())
            .data(field.z.clone())
            .backend(Backend::FullTile)
            .tile_size(100)
            .build()
            .and_then(|m| m.log_likelihood_at(&theta_hat, rt))
            .map_err(|e| format!("dense reference: {e}"))?
            .value;
        let (rel, ok) = mle::tlr_accuracy(ll_hat, dense, eps);
        rep.set("tlr.loglik_rel_err", rel);
        rep.check(
            "tlr_loglik_accuracy",
            ok,
            format!(
                "|ℓ_TLR − ℓ_dense| = {:.3e}, relative {rel:.3e} (bound ε = {eps:.0e}; ℓ_TLR {ll_hat}, ℓ_dense {dense})",
                (ll_hat - dense).abs()
            ),
        );
    }
    Ok(fitted)
}

/// In-process prediction throughput, then the checks before load: wire
/// answers equal in-process answers bit for bit, routed answers equal
/// direct ones.
fn probe(
    spec: &Spec,
    args: &Args,
    served: &Arc<FittedModel<MaternKernel>>,
    fleet: &Fleet,
    rep: &mut Report,
) -> Result<(), String> {
    let probes = inputs::probes(args.seed);
    let refs: Vec<&[Location]> = probes.iter().map(Vec::as_slice).collect();
    let points: usize = probes.iter().map(Vec::len).sum();
    let t = Instant::now();
    let mut reps = 0;
    while reps < 3 || t.elapsed().as_secs_f64() < 0.2 {
        served
            .predict_batch(&refs)
            .map_err(|e| format!("predict_batch: {e}"))?;
        reps += 1;
    }
    let rate = (points * reps) as f64 / t.elapsed().as_secs_f64();
    rep.set("core.predict_points_per_s", rate);

    let mut direct = WireTarget::connect(fleet.node_addrs()[0])?;
    let mut routed = fleet.router_addr().map(WireTarget::connect).transpose()?;
    let (mut identical, mut routed_identical) = (true, true);
    for probe in &refs {
        let local = served
            .predict_batch(&[probe])
            .map_err(|e| format!("predict_batch: {e}"))?;
        let (wire, _) = direct.predict(probe)?;
        identical &= bits(&wire) == bits(&local[0].values);
        if let Some(r) = routed.as_mut() {
            routed_identical &= bits(&r.predict(probe)?.0) == bits(&wire);
        }
    }
    let detail = format!("{} probes", probes.len());
    rep.check("wire_bit_identical", identical, &detail);
    if spec.routed {
        rep.check("routed_equals_direct", routed_identical, &detail);
    }
    Ok(())
}

/// Requests in the read rung: its share of `--seconds` at the workload's
/// rate.
fn read_count(spec: &Spec, args: &Args) -> usize {
    (spec.read_rps * args.seconds * READ_SHARE).round() as usize
}

/// Observes in the write rung: the rest of `--seconds` at [`WRITE_RPS`].
fn write_count(args: &Args) -> usize {
    (WRITE_RPS * args.seconds * (1.0 - READ_SHARE)).round() as usize
}

/// Sets a median and the highest percentile with 10 samples beyond it.
fn set_latency(rep: &mut Report, p50: &'static str, tail: &'static str, sorted: &[f64]) {
    match stats::highest_supported(sorted.len()) {
        Some(q) => {
            rep.set(p50, stats::quantile(sorted, 0.5));
            rep.set(tail, stats::quantile(sorted, q));
            eprintln!(
                "{tail}: p{} of {} samples = {:.4} s (median {:.4} s)",
                q * 100.0,
                sorted.len(),
                stats::quantile(sorted, q),
                stats::quantile(sorted, 0.5)
            );
        }
        None => rep.check(
            tail,
            false,
            format!("{} samples support no percentile", sorted.len()),
        ),
    }
}

/// Logs an open-loop rung and checks it against [`RUNG_RULE`].
fn check_rung(rep: &mut Report, name: &str, rps: f64, rung: &Rung) {
    let lateness: Vec<f64> = rung.records.iter().map(load::Record::lateness).collect();
    eprintln!(
        "{name} rung {rps:.0} req/s: {} requests, achieved {:.1}, lateness p50 {:.5} s max {:.4} s, growth {:.4} s, failed {}",
        rung.records.len(),
        rung.achieved_rps(),
        stats::median(&lateness),
        rung.max_lateness(),
        rung.lateness_growth(),
        rung.failed(),
    );
    rep.check(
        &format!("{name}_rung_meets_limits"),
        RUNG_RULE.passes(rung),
        format!(
            "tail ≤ {} s, lateness growth ≤ {} of the rung, nothing failed",
            RUNG_RULE.tail_limit_s, RUNG_RULE.growth_share
        ),
    );
}

/// The open-loop read rung, the open-loop write rung, then closed-loop
/// bursts of reads for the capacity; latency and rate metrics, the
/// after-load checks and the serving layers' split over the read rung.
fn serve(
    spec: &Spec,
    args: &Args,
    field: &inputs::Field,
    fleet: &Fleet,
    threads: usize,
    tracer: &Tracer,
    rep: &mut Report,
) -> Result<(), String> {
    let nodes = fleet.node_addrs();
    let before = snapshots(&nodes)?;
    let router_before = fleet.router_addr().map(router_relay_buckets).transpose()?;
    let reads = inputs::reads(read_count(spec, args), spec.read_rps, args.seed);
    let read_rung = Rung {
        records: load::run(&reads, connections(fleet.entry(), threads, tracer)?),
    };
    let after_reads = snapshots(&nodes)?;
    let router_after = fleet.router_addr().map(router_relay_buckets).transpose()?;
    // Writes go over one connection: they serialize on the model anyway.
    let writes = inputs::writes(
        write_count(args),
        WRITE_RPS,
        &mut field.stream.iter().copied(),
    );
    let write_rung = Rung {
        records: load::run(&writes, connections(fleet.entry(), 1, tracer)?),
    };
    let bursts = inputs::burst(BURSTS * BURST_COUNT, args.seed)
        .chunks(BURST_COUNT)
        .map(|chunk| {
            Ok(Rung {
                records: load::run(chunk, connections(fleet.entry(), threads, tracer)?),
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let after_all = snapshots(&nodes)?;

    let predicts = read_rung.latencies();
    let observes = write_rung.latencies();
    set_latency(rep, "predict_p50_s", "predict_tail_s", &predicts);
    set_latency(rep, "observe_p50_s", "observe_tail_s", &observes);
    rep.set("load.predict_samples", predicts.len() as f64);
    rep.set("load.observe_samples", observes.len() as f64);
    rep.set(
        "load.lateness_max_s",
        read_rung.max_lateness().max(write_rung.max_lateness()),
    );
    check_rung(rep, "read", spec.read_rps, &read_rung);
    check_rung(rep, "write", WRITE_RPS, &write_rung);
    let rates: Vec<f64> = bursts.iter().map(Rung::achieved_rps).collect();
    rep.set("predict_max_rps", stats::median(&rates));
    eprintln!(
        "capacity: {BURSTS} closed-loop bursts of {BURST_COUNT} predicts over {threads} connections: {rates:.1?} req/s"
    );
    for r in [&read_rung, &write_rung].into_iter().chain(&bursts) {
        rep.attempted += r.records.len() as u64;
        rep.failed += r.failed() as u64;
    }

    // After load: nothing refactorized on a request path, nothing
    // panicked, every observe landed on every replica.
    let observes_sent = write_rung.records.iter().filter(|x| x.ok).count();
    let total = |section: &str, fields: &[&str]| -> f64 {
        after_all
            .iter()
            .map(|s| fields.iter().map(|f| s.num(section, f)).sum::<f64>())
            .sum()
    };
    let factorizations = total("serve", &["factorizations_during_serving"]);
    let panics = total("wire", &["panics_contained"]);
    let wire_errors = total(
        "wire",
        &[
            "requests_client_error",
            "requests_server_error",
            "malformed_requests",
        ],
    );
    rep.check(
        "no_factorizations_while_serving",
        factorizations == 0.0,
        factorizations,
    );
    rep.check("no_panics_contained", panics == 0.0, panics);
    rep.check("no_wire_errors", wire_errors == 0.0, wire_errors);
    for (i, s) in after_all.iter().enumerate() {
        let applied = s.num("serve", "observes_applied");
        let failed = s.num("serve", "observes_failed");
        rep.check(
            &format!("node{i}_observes_applied"),
            applied == observes_sent as f64 && failed == 0.0,
            format!("{applied} applied, {failed} failed, {observes_sent} sent"),
        );
    }
    if fleet.router_addr().is_some() {
        let failovers = fleet.router_failovers();
        rep.set("fleet.failovers", failovers as f64);
        rep.check("no_failovers", failovers == 0, failovers);
    }

    // The serving layers' split over the read rung.
    let stage = |stage: &str, q: f64| {
        let sel = format!("stage=\"{stage}\"");
        let pairs: Vec<_> = before
            .iter()
            .zip(&after_reads)
            .map(|(b, a)| {
                (
                    serve::buckets(&b.metrics, "exa_request_stage_seconds", &sel),
                    serve::buckets(&a.metrics, "exa_request_stage_seconds", &sel),
                )
            })
            .collect();
        stats::bucket_quantile(&serve::bucket_delta(&pairs), q).unwrap_or(0.0)
    };
    rep.set("serve.queue_p50_s", stage("queue", 0.5));
    rep.set("serve.queue_p99_s", stage("queue", 0.99));
    rep.set("serve.solve_p50_s", stage("solve", 0.5));
    rep.set("serve.solve_p99_s", stage("solve", 0.99));
    let delta = |section, field| -> f64 {
        before
            .iter()
            .zip(&after_reads)
            .map(|(b, a)| a.num(section, field) - b.num(section, field))
            .sum()
    };
    let served = delta("serve", "requests_served");
    rep.set(
        "serve.batch_mean_requests",
        served / delta("serve", "batches_executed").max(1.0),
    );
    rep.set(
        "serve.coalesced_frac",
        delta("serve", "requests_coalesced") / served.max(1.0),
    );
    rep.set("serve.factorizations", factorizations);
    rep.set(
        "core.refits_triggered",
        total("serve", &["ingest_refits_triggered"]),
    );
    let inline = delta("wire", "requests_inline");
    let dispatched = delta("wire", "requests_dispatched");
    rep.set("wire.inline_frac", inline / (inline + dispatched).max(1.0));
    rep.set("wire.errors", wire_errors);
    let ok: Vec<_> = read_rung.records.iter().filter(|r| r.ok).collect();
    let rtt: Vec<f64> = ok.iter().map(|r| r.done - r.sent).collect();
    let node: Vec<f64> = ok.iter().filter_map(|r| r.server_s).collect();
    if !rtt.is_empty() && !node.is_empty() {
        rep.set(
            "wire.overhead_p50_s",
            stats::median(&rtt) - stats::median(&node),
        );
    }
    if let (Some(b), Some(a)) = (router_before, router_after) {
        let relay = serve::bucket_delta(&[(b, a)]);
        rep.set(
            "fleet.relay_p50_s",
            stats::bucket_quantile(&relay, 0.5).unwrap_or(0.0),
        );
    }
    Ok(())
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn router_relay_buckets(addr: std::net::SocketAddr) -> Result<serve::Buckets, String> {
    let text = WireTarget::connect(addr)?.metrics_text()?;
    Ok(serve::buckets(&text, "exa_fleet_relay_seconds", ""))
}

/// Routed over direct median latency of interleaved 1-point predicts.
fn route_tax(
    node: std::net::SocketAddr,
    router: std::net::SocketAddr,
    seed: u64,
) -> Result<f64, String> {
    let mut direct = WireTarget::connect(node)?;
    let mut routed = WireTarget::connect(router)?;
    let mut rng = exa_util::Rng::seed_from_u64(seed ^ 0x7a5);
    let (mut d, mut r) = (Vec::new(), Vec::new());
    for _ in 0..200 {
        let p = [Location::new(rng.next_f64(), rng.next_f64())];
        let t = Instant::now();
        direct.predict(&p)?;
        d.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        routed.predict(&p)?;
        r.push(t.elapsed().as_secs_f64());
    }
    Ok(stats::median(&r) / stats::median(&d))
}

/// ℓ(θ) decomposed at θ₀ and θ̂, each checked to the bit against the
/// program's own evaluation; per-layer times are the mean of the two.
fn decompose_loglik(
    spec: &Spec,
    model: &GeoModel<MaternKernel>,
    fitted: &FittedModel<MaternKernel>,
    rt: &Runtime,
    tracer: &Tracer,
    rep: &mut Report,
) -> Result<(), String> {
    let t = Instant::now();
    let reference0 = model
        .log_likelihood_at(&mle::THETA0, rt)
        .map_err(|e| format!("ℓ(θ₀): {e}"))?
        .value;
    let untraced = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let d0 = mle::decompose(model, &mle::THETA0, rt, tracer)?;
    let traced = t.elapsed().as_secs_f64();
    rep.set("trace.loglik_delta_s", traced - untraced);
    let theta_hat = fitted.params();
    let dh = mle::decompose(model, &theta_hat, rt, tracer)?;
    let reference_hat = fitted.log_likelihood().map_or(f64::NAN, |l| l.value);
    rep.check(
        "decomposed_loglik_at_theta0",
        d0.value.to_bits() == reference0.to_bits(),
        format!("{} vs log_likelihood_at {}", d0.value, reference0),
    );
    rep.check(
        "decomposed_loglik_at_theta_hat",
        dh.value.to_bits() == reference_hat.to_bits(),
        format!("{} vs fitted ℓ(θ̂) {}", dh.value, reference_hat),
    );
    let mean = |f: fn(&mle::Decomposed) -> f64| 0.5 * (f(&d0) + f(&dh));
    let n = spec.n as f64;
    let tlr = matches!(spec.backend, Backend::Tlr { .. });
    let (gen, fac, sol) = (
        mean(|d| d.generate_s),
        mean(|d| d.factor_s),
        mean(|d| d.solve_s),
    );
    eprintln!(
        "ℓ(θ) split ({}): generate{} {gen:.3} s, factor {fac:.3} s, solve {sol:.4} s{}",
        spec.backend,
        if tlr { "+compress" } else { "" },
        if tlr {
            format!(
                ", |Δℓ|/|ℓ| = {:.2e}",
                rep.metrics
                    .get("tlr.loglik_rel_err")
                    .copied()
                    .unwrap_or(f64::NAN)
            )
        } else {
            String::new()
        }
    );
    if tlr {
        rep.set("tlr.compress_s", gen);
        rep.set("tlr.potrf_s", fac);
        rep.set("tlr.trsm_s", sol);
        rep.set("tlr.rank_mean", dh.rank_mean);
        rep.set("tlr.rank_max", dh.rank_max);
        rep.set("tlr.compression_ratio", dh.compression_ratio);
        // Generation alone, for comparison with what compression adds.
        let kernel = model.kernel_at(&theta_hat).map_err(|e| e.to_string())?;
        let t = Instant::now();
        tracer.span("covariance.generate", None, |_| {
            TileMatrix::from_kernel_symmetric_lower(&kernel, spec.nb, rt.num_workers())
        });
        rep.set("covariance.generate_s", t.elapsed().as_secs_f64());
    } else {
        rep.set("covariance.generate_s", gen);
        rep.set("tile.potrf_s", fac);
        rep.set("tile.potrf_gflops", n * n * n / 3.0 / fac / 1e9);
        rep.set("tile.trsm_s", sol);
    }
    let generate_s = rep.metrics["covariance.generate_s"];
    rep.set("covariance.entries_per_s", n * (n + 1.0) / 2.0 / generate_s);
    rep.set("runtime.tasks", dh.potrf.tasks_executed as f64);
    rep.set("runtime.busy_s", dh.potrf.busy_seconds);
    rep.set(
        "runtime.parallel_efficiency",
        dh.potrf.parallel_efficiency(),
    );
    rep.set(
        "runtime.critical_path_tasks",
        dh.potrf.critical_path_tasks as f64,
    );
    Ok(())
}

/// Box calibration, dispatch cost, the simulator check, and the cost of
/// recording spans.
fn calibrate(spec: &Spec, rt: &Runtime, tracer: &Tracer, rep: &mut Report) {
    let peak = calib::fma_peak_gflops();
    let g100 = calib::dgemm_gflops(100);
    let g200 = calib::dgemm_gflops(200);
    rep.set("linalg.fma_peak_gflops", peak);
    rep.set("linalg.dgemm_gflops_nb100", g100);
    rep.set("linalg.dgemm_gflops_nb200", g200);
    rep.set("linalg.dgemm_frac_peak", g100.max(g200) / peak);
    rep.set("runtime.dispatch_us", calib::dispatch_us(rt, 10_000, false));
    rep.set(
        "runtime.chain_dispatch_us",
        calib::dispatch_us(rt, 10_000, true),
    );
    eprintln!("calibration: FMA peak {peak:.2} GFLOP/s per core, dgemm {g100:.2} (nb 100) / {g200:.2} (nb 200) GFLOP/s");
    if spec.backend == Backend::FullTile {
        let measured = rep.metrics["tile.potrf_s"];
        let machine = calib::calibrated_machine(
            rt.num_workers(),
            peak,
            if spec.nb == 200 { g200 } else { g100 },
        );
        match calib::simulated_potrf_s(spec.n.div_ceil(spec.nb), spec.nb, &machine) {
            Ok(sim) => {
                let err = (sim - measured).abs() / measured;
                eprintln!("distsim: simulated tile potrf {sim:.4} s vs measured {measured:.4} s (error {err:.3})");
                rep.set("distsim.chol_model_err", err);
            }
            Err(e) => rep.check("distsim_simulation", false, e),
        }
    }
    // What recording the run's spans cost: spans × the cost of one.
    let probe = Tracer::new(true, 0);
    let t = Instant::now();
    for _ in 0..10_000 {
        probe.span("probe", None, |_| ());
    }
    let per_span = t.elapsed().as_secs_f64() / 10_000.0;
    rep.set("trace.overhead_s", tracer.spans().len() as f64 * per_span);
}

/// Writes the box record, the per-name self times and every span to
/// `.perfbench_out/` in the working directory.
fn write_trace(workload: &str, seed: u64, spans: &[trace::Span], bx: &calib::BoxRecord) {
    let selfs = trace::self_time_by_name(spans);
    let mut w = exa_wire::json::JsonWriter::new();
    w.begin_object();
    w.field_str("workload", workload);
    w.field_uint("seed", seed);
    w.field_str("cpu", &bx.cpu_model);
    w.field_uint("nproc", bx.nproc as u64);
    w.key("simd");
    w.begin_array();
    for f in &bx.simd {
        w.string(f);
    }
    w.end_array();
    w.key("self_seconds");
    w.begin_object();
    for (name, secs) in &selfs {
        w.field_num(name, *secs);
    }
    w.end_object();
    w.key("spans");
    w.raw(&trace::to_json(spans));
    w.end_object();
    let dir = std::path::Path::new(".perfbench_out");
    let path = dir.join(format!("trace_{workload}_{seed}.json"));
    match std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, w.finish())) {
        Ok(()) => eprintln!("trace: {} spans written to {}", spans.len(), path.display()),
        Err(e) => eprintln!("trace: could not write {}: {e}", path.display()),
    }
    // Layer self times apart from the serving phase's client spans.
    let mut top: Vec<_> = selfs.into_iter().collect();
    top.sort_by(|a, b| b.1.total_cmp(&a.1));
    for client in [false, true] {
        for (name, secs) in top.iter().filter(|t| t.0.starts_with("client.") == client) {
            eprintln!("self time {name:<22} {secs:.4} s");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        let mut chars = s.chars();
        s.len() <= 64
            && chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn metric_names_and_units_use_the_allowed_characters() {
        let all: Vec<_> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (name, unit) in &all {
            assert!(valid_name(name), "bad metric name {name:?}");
            assert!(valid_unit(unit), "bad unit {unit:?} for {name}");
        }
        let mut names: Vec<_> = all.iter().map(|m| m.0).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "metric names repeat");
        assert!(!valid_name("_x") && !valid_name("a b") && valid_name("tlr.rank_max"));
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = exa_wire::json::Json::parse(&text).expect("valid JSON");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|v| v.as_array())
                .expect(key)
                .iter()
                .map(|m| {
                    let get = |k| m.get(k).and_then(|v| v.as_str()).unwrap_or("").to_string();
                    (get("name"), get("unit"))
                })
                .collect()
        };
        let ours = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), ours(END_TO_END));
        assert_eq!(listed("per_layer"), ours(PER_LAYER));
        let workloads: Vec<String> = listed("workloads").into_iter().map(|w| w.0).collect();
        assert_eq!(workloads, WORKLOADS);
        assert!(WORKLOADS.iter().all(|w| spec(w).is_some()));
    }

    #[test]
    fn arguments_parse_and_refuse_junk() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&args(
            "--workload mle_dense --seed 3 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("mle_dense", 3, 10.0, true)
        );
        assert!(parse_args(&args("--workload x --seed -1")).is_err());
        assert!(parse_args(&args("--workload x --seed 1 --trace 2")).is_err());
        assert!(parse_args(&args("--workload x --seed 1 --bogus 2")).is_err());
        assert!(parse_args(&args("--seed 1")).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_listed_metrics() {
        let mut rep = Report::default();
        rep.set("fit_s", 1.5);
        rep.check("c", true, "");
        let doc = exa_wire::json::Json::parse(&rep.json(END_TO_END)).unwrap();
        assert_eq!(doc.get("correct").and_then(|v| v.as_bool()), Some(true));
        assert_eq!(doc.get("attempted").and_then(|v| v.as_u64()), Some(1));
        let metrics = doc.get("metrics").unwrap();
        for (name, unit) in END_TO_END {
            let m = metrics.get(name).expect(name);
            assert_eq!(m.get("unit").and_then(|v| v.as_str()), Some(*unit));
        }
        assert_eq!(
            metrics
                .get("fit_s")
                .and_then(|m| m.get("value"))
                .and_then(|v| v.as_f64()),
            Some(1.5)
        );
    }
}
