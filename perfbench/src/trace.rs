//! In-memory span recorder for the traced run, and its reduction to self
//! time per layer.
//!
//! Spans are recorded by the benchmark around each public call it makes
//! into the program; the program itself is not instrumented further. A
//! span's layer is the part of its name before the first `.`
//! (`index.build` belongs to `index`). Spans stay in memory and are written
//! out once, when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One finished span. Times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// Id of the enclosing span; 0 for a top-level span.
    pub parent: u64,
    /// Request id shared by every span of one request (0 when none).
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Records spans when enabled; when disabled, guards still time their
/// interval (the untraced run reads durations from them) but keep nothing.
pub struct Tracer {
    origin: Instant,
    spans: Option<Mutex<Vec<Span>>>,
    next_id: AtomicU64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: enabled.then(|| Mutex::new(Vec::new())),
            next_id: AtomicU64::new(1),
        }
    }

    pub fn enabled(&self) -> bool {
        self.spans.is_some()
    }

    /// Opens a span under `parent` (0 = top level).
    pub fn span(&self, name: &'static str, parent: u64) -> Guard<'_> {
        self.request_span(name, parent, 0)
    }

    /// Opens a span that belongs to request `request`.
    pub fn request_span(&self, name: &'static str, parent: u64, request: u64) -> Guard<'_> {
        let id = if self.enabled() {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        Guard {
            tracer: self,
            id,
            parent,
            request,
            name,
            start: Instant::now(),
            open: true,
        }
    }

    /// Nanoseconds since the recorder was created.
    pub fn elapsed_ns(&self) -> u64 {
        self.ns(Instant::now())
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Every span recorded so far, ordered by start.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = match &self.spans {
            Some(m) => m
                .lock()
                .expect("span list poisoned by a panicking recorder")
                .clone(),
            None => Vec::new(),
        };
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// An open span; closes on [`Guard::end`] or drop.
pub struct Guard<'t> {
    tracer: &'t Tracer,
    id: u64,
    parent: u64,
    request: u64,
    name: &'static str,
    start: Instant,
    open: bool,
}

impl Guard<'_> {
    /// This span's id, to pass as the parent of nested spans.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Closes the span and returns its duration.
    pub fn end(mut self) -> Duration {
        self.close()
    }

    fn close(&mut self) -> Duration {
        let now = Instant::now();
        let elapsed = now - self.start;
        if self.open {
            self.open = false;
            if let Some(spans) = &self.tracer.spans {
                let span = Span {
                    id: self.id,
                    parent: self.parent,
                    request: self.request,
                    name: self.name,
                    start_ns: self.tracer.ns(self.start),
                    end_ns: self.tracer.ns(now),
                };
                spans
                    .lock()
                    .expect("span list poisoned by a panicking recorder")
                    .push(span);
            }
        }
        elapsed
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        self.close();
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn union_len(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// The layer a span name belongs to.
pub fn layer(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Self time per layer, in seconds: each span's duration minus the part of
/// its interval covered by its children, summed by layer.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    for s in spans {
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |c| union_len(c, s.start_ns, s.end_ns));
        let own = (s.end_ns - s.start_ns).saturating_sub(covered);
        *out.entry(layer(s.name).to_string()).or_default() += own as f64 * 1e-9;
    }
    out
}

/// Share of `[start_ns, end_ns]` covered by top-level spans.
pub fn coverage(spans: &[Span], start_ns: u64, end_ns: u64) -> f64 {
    let mut top: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == 0)
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    let wall = end_ns.saturating_sub(start_ns);
    if wall == 0 {
        return 0.0;
    }
    union_len(&mut top, start_ns, end_ns) as f64 / wall as f64
}

/// The span list as a JSON array.
pub fn spans_json(spans: &[Span]) -> String {
    let mut out = String::from("[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
        );
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 0,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, "bench.run", 0, 100),
            span(2, 1, "core.step", 10, 40),
            span(3, 1, "core.step", 30, 50),
            span(4, 2, "graph.read", 15, 20),
        ];
        let st = self_time_by_layer(&spans);
        assert!((st["bench"] - 60e-9).abs() < 1e-15);
        assert!((st["core"] - 45e-9).abs() < 1e-15);
        assert!((st["graph"] - 5e-9).abs() < 1e-15);
        assert!((coverage(&spans, 0, 200) - 0.5).abs() < 1e-12);
    }
}
