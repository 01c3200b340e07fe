//! The serving side: `exa-wire` nodes, optionally behind an `exa-fleet`
//! router, driven by the open-loop generator, plus the node and router
//! statistics the per-layer metrics come from.

use crate::load::{Op, Target};
use exa_covariance::{Location, MaternKernel};
use exa_fleet::{FleetConfig, FleetRouter, NodeSpec};
use exa_geostat::{FittedModel, LiveModel, LivePolicy};
use exa_serve::ModelRegistry;
use exa_wire::json::Json;
use exa_wire::{WireClient, WireConfig, WireServer};
use std::net::SocketAddr;
use std::sync::Arc;

/// The served model's name on every node.
pub const MODEL: &str = "m";

/// One node, or two replicas behind a router.
pub struct Fleet {
    registries: Vec<Arc<ModelRegistry<MaternKernel>>>,
    nodes: Vec<WireServer<MaternKernel>>,
    router: Option<FleetRouter>,
}

impl Fleet {
    pub fn start(routed: bool) -> Result<Fleet, String> {
        let count = if routed { 2 } else { 1 };
        let registries: Vec<_> = (0..count).map(|_| Arc::new(ModelRegistry::new())).collect();
        let nodes = registries
            .iter()
            .map(|r| WireServer::start(r.clone(), WireConfig::default()))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("start node: {e}"))?;
        let router = if routed {
            let specs = nodes
                .iter()
                .enumerate()
                .map(|(i, n)| NodeSpec::new(format!("node-{i}"), n.local_addr()))
                .collect();
            let config = FleetConfig {
                replication: count,
                ..FleetConfig::default()
            };
            Some(FleetRouter::start(specs, config).map_err(|e| format!("start router: {e}"))?)
        } else {
            None
        };
        Ok(Fleet {
            registries,
            nodes,
            router,
        })
    }

    /// Where clients connect: the router, or the only node.
    pub fn entry(&self) -> SocketAddr {
        match &self.router {
            Some(r) => r.local_addr(),
            None => self.nodes[0].local_addr(),
        }
    }

    pub fn node_addrs(&self) -> Vec<SocketAddr> {
        self.nodes.iter().map(|n| n.local_addr()).collect()
    }

    pub fn router_addr(&self) -> Option<SocketAddr> {
        self.router.as_ref().map(|r| r.local_addr())
    }

    pub fn router_failovers(&self) -> u64 {
        self.router.as_ref().map_or(0, |r| r.stats().failovers)
    }

    /// Makes `model` resident on every node under the default live policy.
    pub fn deploy(&self, model: &Arc<FittedModel<MaternKernel>>) {
        for r in &self.registries {
            r.insert_live(MODEL, LiveModel::new(model.clone(), LivePolicy::default()));
        }
    }

    /// Waits for background refits, then stops the router and the nodes.
    pub fn shutdown(self) {
        for r in &self.registries {
            if let Some(live) = r.live(MODEL) {
                live.wait_refit_idle();
            }
        }
        if let Some(r) = self.router {
            r.shutdown();
        }
        for n in self.nodes {
            n.shutdown();
        }
    }
}

/// A keep-alive connection that checks every reply it gets.
pub struct WireTarget {
    client: WireClient,
}

impl WireTarget {
    pub fn connect(addr: SocketAddr) -> Result<WireTarget, String> {
        WireClient::connect(addr)
            .map(|client| WireTarget { client })
            .map_err(|e| format!("connect {addr}: {e}"))
    }

    /// Means for `targets`, refused unless there is one finite mean per
    /// target; with the server-side latency.
    pub fn predict(&mut self, targets: &[Location]) -> Result<(Vec<f64>, f64), String> {
        let r = self
            .client
            .predict(MODEL, targets)
            .map_err(|e| format!("predict: {e}"))?;
        if r.mean.len() != targets.len() || !r.mean.iter().all(|v| v.is_finite()) {
            return Err(format!(
                "predict returned {} means for {} targets",
                r.mean.len(),
                targets.len()
            ));
        }
        Ok((r.mean, r.latency_seconds))
    }

    pub fn stats(&mut self) -> Result<Json, String> {
        self.client.stats().map_err(|e| format!("stats: {e}"))
    }

    pub fn metrics_text(&mut self) -> Result<String, String> {
        let r = self
            .client
            .request_raw("GET", "/metrics", "text/plain", "*/*", b"")
            .map_err(|e| format!("metrics: {e}"))?;
        String::from_utf8(r.body).map_err(|e| format!("metrics: {e}"))
    }
}

impl Target for WireTarget {
    fn call(&mut self, op: &Op) -> Result<Option<f64>, String> {
        match op {
            Op::Point(p) => self.predict(std::slice::from_ref(p)).map(|r| Some(r.1)),
            Op::Tile(t) => self.predict(t).map(|r| Some(r.1)),
            Op::Observe(p, v) => {
                let o = self
                    .client
                    .observe(MODEL, std::slice::from_ref(p), &[*v])
                    .map_err(|e| format!("observe: {e}"))?;
                if o.accepted != 1 || !o.used_incremental {
                    return Err(format!(
                        "observe accepted {} point(s), incremental {}",
                        o.accepted, o.used_incremental
                    ));
                }
                Ok(Some(o.latency_seconds))
            }
        }
    }
}

/// A node's `/v1/stats` document and `/metrics` text at one instant.
pub struct Snapshot {
    pub stats: Json,
    pub metrics: String,
}

impl Snapshot {
    pub fn take(addr: SocketAddr) -> Result<Snapshot, String> {
        let mut t = WireTarget::connect(addr)?;
        Ok(Snapshot {
            stats: t.stats()?,
            metrics: t.metrics_text()?,
        })
    }

    /// `section.field` of the stats document as a number (0 when absent).
    pub fn num(&self, section: &str, field: &str) -> f64 {
        self.stats
            .get(section)
            .and_then(|s| s.get(field))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    }
}

/// A cumulative histogram as `(upper bound, count at or below it)` pairs.
pub type Buckets = Vec<(f64, u64)>;

/// Cumulative buckets of histogram `family` whose labels contain
/// `selector` (empty selects the unlabeled series).
pub fn buckets(metrics: &str, family: &str, selector: &str) -> Buckets {
    let prefix = format!("{family}_bucket{{");
    let mut out: Buckets = metrics
        .lines()
        .filter_map(|l| {
            let rest = l.strip_prefix(&prefix)?;
            let (labels, value) = rest.split_once("} ")?;
            if !labels.contains(selector) {
                return None;
            }
            let le = labels.split("le=\"").nth(1)?.split('"').next()?;
            let le = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().ok()?
            };
            Some((le, value.trim().parse().ok()?))
        })
        .collect();
    out.sort_by(|a, b| a.0.total_cmp(&b.0));
    out
}

/// Bucket-wise sum of `after − before` over matching histograms.
pub fn bucket_delta(pairs: &[(Buckets, Buckets)]) -> Buckets {
    let mut out: Buckets = Vec::new();
    for (before, after) in pairs {
        for (i, &(le, count)) in after.iter().enumerate() {
            let base = before.get(i).map_or(0, |b| b.1);
            match out.get_mut(i) {
                Some(slot) => slot.1 += count.saturating_sub(base),
                None => out.push((le, count.saturating_sub(base))),
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_parse_one_labelled_series() {
        let text = "# TYPE h histogram\n\
            h_bucket{stage=\"queue\",le=\"0.001\"} 3\n\
            h_bucket{stage=\"queue\",le=\"+Inf\"} 5\n\
            h_bucket{stage=\"solve\",le=\"0.001\"} 9\n\
            h_sum{stage=\"queue\"} 0.1\n";
        let q = buckets(text, "h", "stage=\"queue\"");
        assert_eq!(q, vec![(0.001, 3), (f64::INFINITY, 5)]);
        let d = bucket_delta(&[(vec![(0.001, 1), (f64::INFINITY, 1)], q)]);
        assert_eq!(d, vec![(0.001, 2), (f64::INFINITY, 4)]);
    }
}
