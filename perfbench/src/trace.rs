//! Spans around the benchmark's calls into the simulator's layers.
//!
//! A [`Tracer`] records one span per call: name, start, end, parent span
//! and the request it served (a segment, seed or round). Spans stay in
//! memory until the pass ends; [`ledger`] then turns them into per-name
//! inclusive and self time, and [`chrome_json`] exports them in Chrome's
//! `trace_event` format (loadable in Perfetto).
//!
//! Span names that start with `req.` or equal `pass` are structure, not
//! layers: they group the calls one request made. Every other name is a
//! layer call, and the traced wall time no layer span covers is the
//! pass's unattributed share.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub req: u64,
    pub tid: u32,
}

/// Handle of an open span; `None` when tracing is off.
pub type Open = Option<usize>;

/// An in-memory span recorder. When off, `enter`/`exit` do nothing, so
/// a workload runs the same code traced and untraced.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    tid: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            tid: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder for worker thread `tid` on this tracer's clock; merge
    /// it back with [`Tracer::adopt`].
    pub fn worker(&self, tid: u32) -> Tracer {
        Tracer {
            on: self.on,
            epoch: self.epoch,
            tid,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    #[inline]
    pub fn enter(&mut self, name: &'static str, req: u64) -> Open {
        if !self.on {
            return None;
        }
        let idx = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            req,
            tid: self.tid,
        });
        self.open.push(idx);
        Some(idx)
    }

    /// Closes the innermost open span, which must be `span`.
    #[inline]
    pub fn exit(&mut self, span: Open) {
        if let Some(idx) = span {
            let top = self.open.pop();
            assert_eq!(top, Some(idx), "spans must close innermost first");
            self.spans[idx].end = self.now();
        }
    }

    /// Appends a worker's spans, re-parenting its top-level spans under
    /// `parent` (a span of this tracer).
    pub fn adopt(&mut self, worker: Tracer, parent: Open) {
        assert!(worker.open.is_empty(), "worker spans still open");
        let base = self.spans.len();
        for mut s in worker.spans {
            s.parent = match s.parent {
                Some(p) => Some(p + base),
                None => parent,
            };
            self.spans.push(s);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Time and call count of one span name over a pass.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Row {
    pub calls: u64,
    /// Summed span durations.
    pub incl_s: f64,
    /// Summed durations minus the part of each span its children cover.
    pub self_s: f64,
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
pub fn covered(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|&(s, e)| e > s)
        .collect();
    v.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in v {
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

/// Per-name inclusive and self time. Children on other threads overlap
/// each other inside their parent; self time subtracts their union, not
/// their sum.
pub fn ledger(spans: &[Span]) -> BTreeMap<&'static str, Row> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    let mut rows: BTreeMap<&'static str, Row> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&children) {
        let dur = s.end - s.start;
        let row = rows.entry(s.name).or_default();
        row.calls += 1;
        row.incl_s += dur as f64 * 1e-9;
        row.self_s += (dur - covered(kids, s.start, s.end)) as f64 * 1e-9;
    }
    rows
}

/// Whether a span name marks structure rather than a layer call.
pub fn is_structural(name: &str) -> bool {
    name == "pass" || name.starts_with("req.")
}

/// Share of the `pass` span's duration that no layer span on the main
/// thread covers.
///
/// # Panics
///
/// Panics if there is no `pass` span.
pub fn unattributed_frac(spans: &[Span]) -> f64 {
    let pass = spans
        .iter()
        .find(|s| s.name == "pass")
        .expect("a traced pass records a `pass` span");
    let layer: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.tid == 0 && !is_structural(s.name))
        .map(|s| (s.start, s.end))
        .collect();
    let dur = (pass.end - pass.start).max(1);
    1.0 - covered(&layer, pass.start, pass.end) as f64 / dur as f64
}

/// Chrome `trace_event` JSON: one complete (`"X"`) event per span, with
/// its index, parent index (-1 for none) and request id as arguments.
pub fn chrome_json(spans: &[Span], process: &str) -> String {
    let mut out = String::with_capacity(spans.len() * 120 + 128);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let _ = write!(
        out,
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
         \"args\":{{\"name\":\"{process}\"}}}}"
    );
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or(-1, |p| p as i64);
        let _ = write!(
            out,
            ",\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\
             \"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"req\":{}}}}}",
            s.name,
            s.tid,
            s.start as f64 / 1e3,
            (s.end - s.start) as f64 / 1e3,
            s.req
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, tid: u32) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            req: 0,
            tid,
        }
    }

    #[test]
    fn union_of_overlapping_intervals() {
        assert_eq!(covered(&[(0, 10), (5, 15), (20, 30)], 0, 100), 25);
        assert_eq!(covered(&[(0, 10), (5, 15), (20, 30)], 8, 25), 12);
        assert_eq!(covered(&[], 0, 10), 0);
        assert_eq!(covered(&[(0, 10), (0, 10), (2, 3)], 0, 10), 10);
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // A 100 ns parent whose two children, on two worker threads,
        // overlap during [30, 60): they cover [10, 80) = 70 ns, so the
        // parent keeps 30 ns of self time, not 100 - (50 + 50) = 0.
        let spans = vec![
            span("farm.round.quantum", 0, 100, None, 0),
            span("core.machine.run", 10, 60, Some(0), 1),
            span("core.machine.run", 30, 80, Some(0), 2),
        ];
        let rows = ledger(&spans);
        let q = rows["farm.round.quantum"];
        assert_eq!(q.calls, 1);
        assert!((q.incl_s - 100e-9).abs() < 1e-15);
        assert!((q.self_s - 30e-9).abs() < 1e-15);
        let r = rows["core.machine.run"];
        assert_eq!(r.calls, 2);
        assert!((r.self_s - 100e-9).abs() < 1e-15);
    }

    #[test]
    fn unattributed_counts_only_main_thread_layer_spans() {
        let spans = vec![
            span("pass", 0, 100, None, 0),
            span("req.seed", 0, 100, Some(0), 0),
            span("diff.generate", 0, 40, Some(1), 0),
            span("diff.golden_dry", 50, 90, Some(1), 0),
            // Worker spans never add coverage the main thread lacks.
            span("core.machine.run", 40, 50, None, 1),
        ];
        assert!((unattributed_frac(&spans) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn tracer_nests_and_adopts_worker_spans() {
        let mut t = Tracer::new(true);
        let pass = t.enter("pass", 0);
        let q = t.enter("farm.round.quantum", 3);
        let mut w = t.worker(1);
        let r = w.enter("core.machine.run", 7);
        w.exit(r);
        t.adopt(w, q);
        t.exit(q);
        t.exit(pass);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(1));
        assert_eq!((s[2].tid, s[2].req), (1, 7));
        assert!(s[0].start <= s[1].start && s[1].end <= s[0].end);
        let json = chrome_json(s, "test");
        assert!(json.contains("\"parent\":1,\"req\":7"));
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.enter("pass", 0);
        t.exit(s);
        assert!(t.spans().is_empty());
    }
}
