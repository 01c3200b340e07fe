//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its name, start, end, parent and the run id. Spans stay in
//! memory while the run measures and are written out once at the end. A
//! layer's self time is its span's duration minus the part of that interval
//! its child spans cover.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span, used as the parent of nested spans.
pub type SpanId = usize;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Seconds since the tracer's epoch.
    pub start: f64,
    pub end: f64,
    pub parent: Option<SpanId>,
    pub run: u64,
}

/// Records spans when enabled; a disabled tracer only runs the closures.
pub struct Tracer {
    enabled: bool,
    run: u64,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool, run: u64) -> Tracer {
        Tracer {
            enabled,
            run,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name` under `parent`; `f` receives the
    /// span's id so it can open children.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce(Option<SpanId>) -> T,
    ) -> T {
        if !self.enabled {
            return f(None);
        }
        let id = {
            let mut spans = self.spans.lock().expect("span log lock");
            spans.push(Span {
                name,
                start: self.epoch.elapsed().as_secs_f64(),
                end: f64::NAN,
                parent,
                run: self.run,
            });
            spans.len() - 1
        };
        let out = f(Some(id));
        let end = self.epoch.elapsed().as_secs_f64();
        self.spans.lock().expect("span log lock")[id].end = end;
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log lock").clone()
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(f64, f64)>, lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut reach = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Self time of every span: its duration minus what its children cover.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| (s.end - s.start) - covered(kids, s.start, s.end))
        .collect()
}

/// Self time summed per span name.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0.0) += t;
    }
    out
}

/// The spans as one JSON document.
pub fn to_json(spans: &[Span]) -> String {
    let mut w = exa_wire::json::JsonWriter::new();
    w.begin_array();
    for s in spans {
        w.begin_object();
        w.field_str("name", s.name);
        w.field_num("start", s.start);
        w.field_num("end", s.end);
        match s.parent {
            Some(p) => w.field_uint("parent", p as u64),
            None => {
                w.key("parent");
                w.null();
            }
        }
        w.field_uint("run", s.run);
        w.end_object();
    }
    w.end_array();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            run: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", 0.0, 10.0, None),
            span("a", 1.0, 4.0, Some(0)),
            // Overlaps `a`: the union 1..6 is covered once.
            span("b", 3.0, 6.0, Some(0)),
            span("leaf", 1.5, 2.5, Some(1)),
        ];
        let t = self_times(&spans);
        assert!((t[0] - 5.0).abs() < 1e-12, "{t:?}");
        assert!((t[1] - 2.0).abs() < 1e-12, "{t:?}");
        assert!((t[2] - 3.0).abs() < 1e-12, "{t:?}");
        assert!((t[3] - 1.0).abs() < 1e-12, "{t:?}");
        let by_name = self_time_by_name(&spans);
        assert!((by_name["root"] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![span("p", 2.0, 4.0, None), span("c", 1.0, 3.0, Some(0))];
        assert!((self_times(&spans)[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tracer_records_nesting_and_disabled_tracer_records_nothing() {
        let t = Tracer::new(true, 7);
        let v = t.span("outer", None, |id| t.span("inner", id, |_| 42));
        assert_eq!(v, 42);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.run == 7 && s.end >= s.start));
        let off = Tracer::new(false, 7);
        off.span("x", None, |id| assert_eq!(id, None));
        assert!(off.spans().is_empty());
    }
}
