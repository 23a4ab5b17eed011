//! The benchmark's own spans, opened around calls into the program's
//! public API. Spans live in memory and are written once, when the run
//! ends; a disabled tracer records nothing.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use diffnet_observe::Json;

/// One finished span. Times are seconds since the tracer started.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    /// Shared by every span of one request, job or inference.
    pub op: u64,
    pub name: String,
    pub start_s: f64,
    pub end_s: f64,
}

pub struct Tracer {
    enabled: bool,
    t0: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: Option<u64>,
    op: u64,
    name: &'static str,
    start_s: f64,
}

impl SpanGuard<'_> {
    /// This span's id, for children (`None` when tracing is off).
    pub fn id(&self) -> Option<u64> {
        self.tracer.enabled.then_some(self.id)
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if self.tracer.enabled {
            let end_s = self.tracer.now();
            self.tracer.push(Span {
                id: self.id,
                parent: self.parent,
                op: self.op,
                name: self.name.to_string(),
                start_s: self.start_s,
                end_s,
            });
        }
    }
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            t0: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Seconds since the tracer started.
    pub fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// Seconds from the tracer's start to `at`.
    pub fn offset(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.t0).as_secs_f64()
    }

    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub fn span(&self, name: &'static str, op: u64, parent: Option<u64>) -> SpanGuard<'_> {
        SpanGuard {
            tracer: self,
            id: if self.enabled { self.next_id() } else { 0 },
            parent,
            op,
            name,
            start_s: if self.enabled { self.now() } else { 0.0 },
        }
    }

    /// Records a span measured elsewhere (a worker process, a job report).
    pub fn push(&self, span: Span) {
        if self.enabled {
            self.spans.lock().expect("span buffer lock").push(span);
        }
    }

    /// Every span, plus per-name totals of duration and self time (the
    /// duration minus the part of it that child spans cover).
    pub fn to_json(&self) -> Json {
        let spans = self.spans.lock().expect("span buffer lock").clone();
        let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
        for s in &spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_s, s.end_s));
            }
        }
        let mut totals: BTreeMap<&str, (u64, f64, f64)> = BTreeMap::new();
        for s in &spans {
            let covered = children
                .get(&s.id)
                .map_or(0.0, |c| covered_within(c, s.start_s, s.end_s));
            let t = totals.entry(&s.name).or_default();
            t.0 += 1;
            t.1 += s.end_s - s.start_s;
            t.2 += (s.end_s - s.start_s - covered).max(0.0);
        }
        let mut summary = Json::object();
        for (name, (count, total, own)) in totals {
            let mut row = Json::object();
            row.push("count", count);
            row.push("total_s", total);
            row.push("self_s", own);
            summary.push(name, row);
        }
        let rows: Vec<Json> = spans
            .iter()
            .map(|s| {
                let mut row = Json::object();
                row.push("id", s.id);
                row.push("parent", s.parent.map_or(Json::Null, Json::from));
                row.push("op", s.op);
                row.push("name", s.name.as_str());
                row.push("start_s", s.start_s);
                row.push("end_s", s.end_s);
                row
            })
            .collect();
        let mut root = Json::object();
        root.push("summary", summary);
        root.push("spans", Json::Arr(rows));
        root
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_within(intervals: &[(f64, f64)], lo: f64, hi: f64) -> f64 {
    let mut v: Vec<(f64, f64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| b > a)
        .collect();
    v.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (a, b) in v {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0.0, |(a, b)| b - a)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlapping_children_count_once() {
        let c = [(1.0, 3.0), (2.0, 4.0), (6.0, 7.0), (9.0, 12.0)];
        assert!((covered_within(&c, 0.0, 10.0) - 5.0).abs() < 1e-12);
    }
}
