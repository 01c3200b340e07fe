//! Open-loop load generation and the rule a rung must meet.
//!
//! Requests are due on a fixed schedule; a small pool of connections takes
//! them in due order, each sending its next request once it is due and the
//! connection is free. Latency is timed from the due time, so a stall also
//! charges the wait it imposes on the requests queued behind it, and the
//! generator reports how late it sent each request. A schedule whose
//! requests are all due at once is a closed loop: every connection sends
//! its next request as soon as the last one returns.

use crate::stats;
use exa_covariance::Location;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One operation of the traffic mix.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// A 1-point prediction.
    Point(Location),
    /// A map-tile prediction over a small grid of points.
    Tile(Vec<Location>),
    /// One new observation.
    Observe(Location, f64),
}

impl Op {
    pub fn is_observe(&self) -> bool {
        matches!(self, Op::Observe(..))
    }
}

/// An operation and when it is due, in seconds from the rung's start.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    pub due: f64,
    pub op: Op,
}

/// What one request did, in seconds from the rung's start.
#[derive(Clone, Copy, Debug)]
pub struct Record {
    pub due: f64,
    pub sent: f64,
    pub done: f64,
    pub ok: bool,
    /// The server's own latency for the request, when it reports one.
    pub server_s: Option<f64>,
}

impl Record {
    /// Latency from the due time.
    pub fn latency(&self) -> f64 {
        self.done - self.due
    }

    /// How late the generator sent the request.
    pub fn lateness(&self) -> f64 {
        self.sent - self.due
    }
}

/// The side of the system a connection talks to.
pub trait Target {
    /// Executes one operation; `Ok` carries the server-side latency when
    /// the reply states one.
    fn call(&mut self, op: &Op) -> Result<Option<f64>, String>;
}

/// Sends `requests` (ascending due times) over the connections in
/// `targets`, and returns one record per request in request order.
pub fn run<T: Target + Send>(requests: &[Request], targets: Vec<T>) -> Vec<Record> {
    let next = AtomicUsize::new(0);
    let records: Mutex<Vec<Option<Record>>> = Mutex::new(vec![None; requests.len()]);
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for mut target in targets {
            let (next, records) = (&next, &records);
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(req) = requests.get(i) else { break };
                let due = Duration::from_secs_f64(req.due);
                if let Some(wait) = due.checked_sub(t0.elapsed()) {
                    std::thread::sleep(wait);
                }
                let sent = t0.elapsed().as_secs_f64();
                let result = target.call(&req.op);
                let done = t0.elapsed().as_secs_f64();
                if let Err(e) = &result {
                    eprintln!("request {i} failed: {e}");
                }
                records.lock().expect("record lock")[i] = Some(Record {
                    due: req.due,
                    sent,
                    done,
                    ok: result.is_ok(),
                    server_s: result.ok().flatten(),
                });
            });
        }
    });
    records
        .into_inner()
        .expect("record lock")
        .into_iter()
        .map(|r| r.expect("every request ran"))
        .collect()
}

/// Every request of one rung or burst.
#[derive(Clone, Debug)]
pub struct Rung {
    pub records: Vec<Record>,
}

impl Rung {
    /// Ascending latencies of the successful requests.
    pub fn latencies(&self) -> Vec<f64> {
        let v: Vec<f64> = self
            .records
            .iter()
            .filter(|r| r.ok)
            .map(Record::latency)
            .collect();
        stats::sorted(&v)
    }

    pub fn failed(&self) -> usize {
        self.records.iter().filter(|r| !r.ok).count()
    }

    /// Requests completed per second, from the first due time to the last
    /// completion.
    pub fn achieved_rps(&self) -> f64 {
        let first = self
            .records
            .iter()
            .map(|r| r.due)
            .fold(f64::INFINITY, f64::min);
        let last = self.records.iter().map(|r| r.done).fold(0.0, f64::max);
        let ok = self.records.iter().filter(|r| r.ok).count();
        ok as f64 / (last - first)
    }

    /// Seconds from the first due time to the last.
    pub fn span(&self) -> f64 {
        let due = self.records.iter().map(|r| r.due);
        due.clone().fold(0.0, f64::max) - due.fold(f64::INFINITY, f64::min)
    }

    pub fn max_lateness(&self) -> f64 {
        self.records
            .iter()
            .map(Record::lateness)
            .fold(0.0, f64::max)
    }

    /// Mean lateness of the last quarter of requests minus that of the
    /// first quarter: positive and large when the generator falls behind.
    pub fn lateness_growth(&self) -> f64 {
        let q = (self.records.len() / 4).max(1);
        let mean = |rs: &[Record]| rs.iter().map(Record::lateness).sum::<f64>() / rs.len() as f64;
        let n = self.records.len();
        if n == 0 {
            return 0.0;
        }
        mean(&self.records[n - q.min(n)..]) - mean(&self.records[..q.min(n)])
    }
}

/// When a rung counts as served.
#[derive(Clone, Copy, Debug)]
pub struct RungRule {
    /// Limit on the highest supported latency percentile.
    pub tail_limit_s: f64,
    /// Limit on [`Rung::lateness_growth`] as a share of the rung's
    /// schedule length.
    pub growth_share: f64,
}

impl RungRule {
    /// A rung passes when nothing failed, its latency tail meets the limit
    /// and the generator's lateness does not grow.
    pub fn passes(&self, rung: &Rung) -> bool {
        let lat = rung.latencies();
        let Some(q) = stats::highest_supported(lat.len()) else {
            return false;
        };
        rung.failed() == 0
            && stats::quantile(&lat, q) <= self.tail_limit_s
            && rung.lateness_growth() <= self.growth_share * rung.span()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Stall {
        at: Option<usize>,
        seen: usize,
    }

    impl Target for Stall {
        fn call(&mut self, _op: &Op) -> Result<Option<f64>, String> {
            let stall = self.at == Some(self.seen);
            self.seen += 1;
            std::thread::sleep(Duration::from_micros(if stall { 50_000 } else { 200 }));
            Ok(None)
        }
    }

    fn schedule(count: usize, rps: f64) -> Vec<Request> {
        (0..count)
            .map(|i| Request {
                due: i as f64 / rps,
                op: Op::Point(Location::new(0.5, 0.5)),
            })
            .collect()
    }

    #[test]
    fn a_planted_stall_raises_later_latency_and_lateness() {
        let reqs = schedule(60, 200.0);
        let calm = run(&reqs, vec![Stall { at: None, seen: 0 }]);
        let stalled = run(
            &reqs,
            vec![Stall {
                at: Some(20),
                seen: 0,
            }],
        );
        let calm = Rung { records: calm };
        let stalled = Rung { records: stalled };
        assert!(
            calm.max_lateness() < 0.02,
            "calm lateness {}",
            calm.max_lateness()
        );
        // The request due right after the stall waits out most of it.
        assert!(
            stalled.records[21].latency() > 0.04,
            "{:?}",
            stalled.records[21]
        );
        assert!(stalled.records[21].lateness() > 0.04);
        assert!(stalled.max_lateness() > 0.04);
        // Timing from the send instead would hide that wait.
        let r = stalled.records[21];
        assert!(r.done - r.sent < 0.02);
    }

    fn rung(latencies: &[f64], growth: f64) -> Rung {
        let n = latencies.len();
        let records = latencies
            .iter()
            .enumerate()
            .map(|(i, &l)| {
                let late = if i >= n - n / 4 { growth } else { 0.0 };
                Record {
                    due: i as f64,
                    sent: i as f64 + late,
                    done: i as f64 + l.max(late),
                    ok: true,
                    server_s: None,
                }
            })
            .collect();
        Rung { records }
    }

    #[test]
    fn a_rung_fails_on_a_slow_tail_or_a_falling_behind_generator() {
        let rule = RungRule {
            tail_limit_s: 0.05,
            growth_share: 0.01,
        };
        assert!(rule.passes(&rung(&[0.01; 1000], 0.0)));
        assert!(!rule.passes(&rung(&[0.1; 1000], 0.0)));
        assert!(!rule.passes(&rung(&[0.01; 1000], 12.0)));
        // Too few samples for any supported percentile: not a pass.
        assert!(!rule.passes(&rung(&[0.01; 5], 0.0)));
    }

    #[test]
    fn requests_due_at_once_run_closed_loop() {
        let reqs: Vec<Request> = schedule(40, 1.0)
            .into_iter()
            .map(|r| Request { due: 0.0, ..r })
            .collect();
        let stalls = || Stall { at: None, seen: 0 };
        let burst = Rung {
            records: run(&reqs, vec![stalls(), stalls()]),
        };
        // 40 calls of 0.2 ms over two connections: done in well under the
        // 40 s the same schedule takes at 1 req/s.
        assert!(burst.achieved_rps() > 100.0, "{}", burst.achieved_rps());
    }

    #[test]
    fn growth_is_judged_against_the_rung_length() {
        // These rungs span 999 s: 1% of that is 9.99 s of growth.
        let rule = RungRule {
            tail_limit_s: 100.0,
            growth_share: 0.01,
        };
        assert!(rule.passes(&rung(&[0.01; 1000], 9.0)));
        assert!(!rule.passes(&rung(&[0.01; 1000], 11.0)));
    }
}
