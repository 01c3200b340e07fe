//! Every input a run uses, generated from the workload seed alone.
//!
//! A seed fixes the observed locations, one draw of the Gaussian field over
//! those locations plus the points later streamed in as observations, and
//! the traffic schedule. The program under test only ever receives these
//! generated values.

use crate::load::{Op, Request};
use exa_covariance::{Location, MaternKernel};
use exa_geostat::{synthetic_locations_n, GeoModel};
use exa_runtime::Runtime;
use exa_util::Rng;
use std::sync::Arc;

/// The generating parameters θ = (variance, range, smoothness).
pub const THETA_TRUE: [f64; 3] = [1.0, 0.1, 0.5];

/// A map tile is a `TILE_SIDE × TILE_SIDE` grid of prediction points.
pub const TILE_SIDE: usize = 4;
const TILE_SPACING: f64 = 0.02;

/// Locations and one field draw: `z[..n]` is the fitted data, the rest the
/// values of `stream` that observes send later.
#[derive(Clone, Debug, PartialEq)]
pub struct Field {
    pub locations: Arc<Vec<Location>>,
    pub z: Vec<f64>,
    pub stream: Vec<(Location, f64)>,
}

/// Sub-seeds so each input stream is independent of the others' lengths.
fn stream_rng(seed: u64, stream: u64) -> Rng {
    Rng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ stream)
}

/// `k` in-domain points at least `gap` from every other point.
fn fresh_points(k: usize, existing: &[Location], gap: f64, rng: &mut Rng) -> Vec<Location> {
    let mut taken: Vec<Location> = existing.to_vec();
    let mut out = Vec::with_capacity(k);
    while out.len() < k {
        let p = Location::new(rng.next_f64(), rng.next_f64());
        let clear = taken
            .iter()
            .all(|q| (p.x - q.x).powi(2) + (p.y - q.y).powi(2) >= gap * gap);
        if clear {
            taken.push(p);
            out.push(p);
        }
    }
    out
}

/// `n` jittered-grid locations plus `observes` extra points, with one joint
/// draw of the field at [`THETA_TRUE`] over all of them.
pub fn field(n: usize, observes: usize, seed: u64, rt: &Runtime) -> Result<Field, String> {
    let mut rng = stream_rng(seed, 1);
    let data = synthetic_locations_n(n, &mut rng);
    let gap = 0.25 / (n as f64).sqrt();
    let extra = fresh_points(observes, &data, gap, &mut rng);
    let all: Vec<Location> = data.iter().chain(&extra).copied().collect();
    let generator = GeoModel::<MaternKernel>::builder()
        .locations(Arc::new(all))
        .nugget(0.0)
        .tile_size(100)
        .build()
        .and_then(|m| m.at_params(&THETA_TRUE, rt))
        .map_err(|e| format!("field generator: {e}"))?;
    let draw = generator.simulate(&mut rng, rt);
    Ok(Field {
        locations: Arc::new(data),
        z: draw[..n].to_vec(),
        stream: extra.into_iter().zip(draw[n..].iter().copied()).collect(),
    })
}

/// Reads repeat every `READ_CYCLE` requests: one map tile, 1-point
/// predicts elsewhere. A fixed pattern keeps the load's shape the same for
/// every seed; the seed picks the points and tile origins. With a fifth of
/// the reads being map tiles, the reads' p90 falls in the middle of the
/// tiles' latencies instead of on the edge between the two classes.
const READ_CYCLE: usize = 5;
const TILE_SLOT: usize = 2;

fn read_op(i: usize, rng: &mut Rng) -> Op {
    if i % READ_CYCLE == TILE_SLOT {
        Op::Tile(tile(rng))
    } else {
        Op::Point(Location::new(rng.next_f64(), rng.next_f64()))
    }
}

/// The read rung's schedule: `count` predicts in the read mix, evenly
/// spaced at `rps`.
pub fn reads(count: usize, rps: f64, seed: u64) -> Vec<Request> {
    let mut rng = stream_rng(seed, 100);
    (0..count)
        .map(|i| Request {
            due: i as f64 / rps,
            op: read_op(i, &mut rng),
        })
        .collect()
}

/// The write rung's schedule: `count` 1-point observes taken in order from
/// `stream`, evenly spaced at `rps`.
pub fn writes(
    count: usize,
    rps: f64,
    stream: &mut impl Iterator<Item = (Location, f64)>,
) -> Vec<Request> {
    (0..count)
        .map(|i| {
            let (p, v) = stream.next().expect("enough streamed observations");
            Request {
                due: i as f64 / rps,
                op: Op::Observe(p, v),
            }
        })
        .collect()
}

/// `count` predicts in the read mix, all due at once: a closed-loop burst
/// that keeps every connection busy, for the serving capacity.
pub fn burst(count: usize, seed: u64) -> Vec<Request> {
    let mut rng = stream_rng(seed, 200);
    (0..count)
        .map(|i| Request {
            due: 0.0,
            op: read_op(i, &mut rng),
        })
        .collect()
}

/// A map tile at a random in-domain origin.
fn tile(rng: &mut Rng) -> Vec<Location> {
    let span = TILE_SPACING * (TILE_SIDE - 1) as f64;
    let (x0, y0) = (rng.uniform(0.0, 1.0 - span), rng.uniform(0.0, 1.0 - span));
    (0..TILE_SIDE * TILE_SIDE)
        .map(|k| {
            let (r, c) = (k / TILE_SIDE, k % TILE_SIDE);
            Location::new(x0 + c as f64 * TILE_SPACING, y0 + r as f64 * TILE_SPACING)
        })
        .collect()
}

/// A fixed probe set of 1-point and map-tile queries for the bit-identity
/// checks before load.
pub fn probes(seed: u64) -> Vec<Vec<Location>> {
    let mut rng = stream_rng(seed, 50);
    (0..24)
        .map(|i| match i % 6 {
            5 => tile(&mut rng),
            _ => vec![Location::new(rng.next_f64(), rng.next_f64())],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_reproduces_identical_inputs() {
        let rt = Runtime::new(1);
        let a = field(100, 20, 42, &rt).unwrap();
        let b = field(100, 20, 42, &rt).unwrap();
        assert_eq!(a, b);
        let c = field(100, 20, 43, &rt).unwrap();
        assert_ne!(a.z, c.z);
        let run = |f: &Field| {
            let mut s = f.stream.clone().into_iter();
            writes(20, 10.0, &mut s)
        };
        assert_eq!(run(&a), run(&b));
        assert_eq!(reads(200, 90.0, 42), reads(200, 90.0, 42));
        assert_ne!(reads(200, 90.0, 42), reads(200, 90.0, 43));
        assert_eq!(probes(9), probes(9));
        assert_eq!(burst(90, 9), burst(90, 9));
    }

    #[test]
    fn reads_have_the_exact_mix_and_rate() {
        let reqs = reads(2000, 200.0, 5);
        assert!(matches!(reqs[2].op, Op::Tile(_)) && matches!(reqs[0].op, Op::Point(_)));
        let tiles = reqs.iter().filter(|r| matches!(r.op, Op::Tile(_))).count();
        assert_eq!(tiles, 400);
        assert!(reqs.iter().all(|r| !r.op.is_observe()));
        assert!((reqs[1].due - 0.005).abs() < 1e-12);
        assert!((reqs[1999].due - 1999.0 * 0.005).abs() < 1e-9);
        for r in &reqs {
            if let Op::Tile(t) = &r.op {
                assert_eq!(t.len(), TILE_SIDE * TILE_SIDE);
                assert!(t
                    .iter()
                    .all(|p| (0.0..=1.0).contains(&p.x) && (0.0..=1.0).contains(&p.y)));
            }
        }
    }

    #[test]
    fn writes_take_the_stream_in_order_at_the_rate() {
        let mut s = (0..).map(|i| (Location::new(0.5, i as f64 * 1e-3), i as f64));
        let reqs = writes(50, 10.0, &mut s);
        assert!(reqs.iter().all(|r| r.op.is_observe()));
        assert_eq!(reqs[7].op, Op::Observe(Location::new(0.5, 7e-3), 7.0));
        assert!((reqs[49].due - 4.9).abs() < 1e-12);
    }

    #[test]
    fn burst_is_the_read_mix_due_at_once() {
        let reqs = burst(900, 5);
        let tiles = reqs.iter().filter(|r| matches!(r.op, Op::Tile(_))).count();
        assert_eq!(tiles, 180);
        assert!(reqs.iter().all(|r| r.due == 0.0 && !r.op.is_observe()));
    }

    #[test]
    fn streamed_points_keep_their_distance() {
        let mut rng = Rng::seed_from_u64(3);
        let data = synthetic_locations_n(64, &mut rng);
        let pts = fresh_points(30, &data, 0.03, &mut rng);
        for (i, p) in pts.iter().enumerate() {
            for q in data.iter().chain(&pts[..i]) {
                assert!(((p.x - q.x).powi(2) + (p.y - q.y).powi(2)).sqrt() >= 0.03);
            }
        }
    }
}
