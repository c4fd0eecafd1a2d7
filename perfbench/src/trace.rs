//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records name, start, end, parent and request id. Spans stay
//! in memory until the run ends; [`Tracer::summary`] then gives each
//! name's total and self time, self time being the span's duration
//! minus the part of it its child spans cover.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u64);

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub request: Option<u64>,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer { on, epoch: Instant::now(), next: AtomicU64::new(1), spans: Mutex::new(Vec::new()) }
    }

    /// Runs `f` inside a span. With tracing off `f` runs bare and
    /// receives no span id.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        request: Option<u64>,
        f: impl FnOnce(Option<SpanId>) -> T,
    ) -> T {
        if !self.on {
            return f(None);
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f(Some(SpanId(id)));
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let span = Span { id, parent: parent.map(|p| p.0), name, request, start_ns, end_ns };
        self.spans.lock().expect("a span recorder panicked").push(span);
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("a span recorder panicked").clone()
    }

    /// Per span name: count, total ms and self ms.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let spans = self.spans();
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        let mut out = BTreeMap::new();
        for s in &spans {
            let dur = s.end_ns - s.start_ns;
            let covered = children.get(&s.id).map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
            let e = out.entry(s.name).or_insert((0u64, 0.0f64, 0.0f64));
            e.0 += 1;
            e.1 += dur as f64 / 1e6;
            e.2 += (dur - covered) as f64 / 1e6;
        }
        out
    }

    pub fn spans_json(&self) -> Json {
        let rows: Vec<Json> = self
            .spans()
            .iter()
            .map(|s| {
                let mut row = Json::obj()
                    .with("id", s.id)
                    .with("name", s.name)
                    .with("start_ns", s.start_ns)
                    .with("end_ns", s.end_ns);
                if let Some(p) = s.parent {
                    row.set("parent", p);
                }
                if let Some(r) = s.request {
                    row.set("request", r);
                }
                row
            })
            .collect();
        Json::arr(rows)
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`. Child
/// spans of concurrent clients overlap, so they are merged, not summed.
fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut v: Vec<(u64, u64)> =
        intervals.iter().map(|&(a, b)| (a.max(lo), b.min(hi))).filter(|(a, b)| a < b).collect();
    v.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in v {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlapping_children_are_merged() {
        assert_eq!(covered_ns(&[(0, 10), (5, 15), (20, 30)], 0, 100), 25);
        assert_eq!(covered_ns(&[(0, 10), (50, 200)], 5, 100), 55);
        assert_eq!(covered_ns(&[], 0, 10), 0);
    }

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::new(true);
        t.span("outer", None, None, |p| {
            t.span("inner", p, Some(7), |_| std::thread::sleep(std::time::Duration::from_millis(5)))
        });
        let s = t.summary();
        let (n, total, self_ms) = s["outer"];
        assert_eq!(n, 1);
        assert!(self_ms < total && total >= 5.0);
        assert!(t.spans().iter().any(|s| s.request == Some(7) && s.parent.is_some()));
        let off = Tracer::new(false);
        off.span("x", None, None, |p| assert!(p.is_none()));
        assert!(off.spans().is_empty());
    }
}
