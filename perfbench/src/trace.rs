//! In-memory spans recorded around calls into the program's layers.
//!
//! A span has a name (`<layer>.<operation>`), a start, an end, the span
//! that caused it and a request id (one per frame in `daemon-mixed`),
//! plus the rows and bytes it handled.  Spans stay in memory while the
//! run lasts and are written out as JSON lines when it ends.  A
//! disabled trace records nothing, so the untraced runs that give the
//! end-to-end numbers share the traced code path at no cost.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span; [`NONE`] for a disabled trace or no parent.
pub type SpanId = usize;

/// The id a disabled trace hands out, and the parent of a root span.
pub const NONE: SpanId = usize::MAX;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: SpanId,
    req: u64,
    start_ns: u64,
    end_ns: u64,
    rows: u64,
    bytes: u64,
}

/// A span recorder shared by every thread of one run.
pub struct Trace {
    on: bool,
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

/// What one span name added up to over a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed duration, seconds.
    pub total_s: f64,
    /// Summed duration minus the time covered by each span's children.
    pub self_s: f64,
    /// Rows handled.
    pub rows: u64,
    /// Bytes handled.
    pub bytes: u64,
}

impl Trace {
    /// A recorder; `on = false` records nothing.
    pub fn new(on: bool) -> Trace {
        Trace {
            on,
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Trace::end`].
    pub fn begin(&self, name: &'static str, parent: SpanId, req: u64) -> SpanId {
        if !self.on {
            return NONE;
        }
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("no span holder panics");
        spans.push(Span {
            name,
            parent,
            req,
            start_ns,
            end_ns: start_ns,
            rows: 0,
            bytes: 0,
        });
        spans.len() - 1
    }

    /// Closes span `id`, recording the rows and bytes it handled.
    pub fn end(&self, id: SpanId, rows: u64, bytes: u64) {
        if id == NONE {
            return;
        }
        let end_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("no span holder panics");
        let s = &mut spans[id];
        s.end_ns = end_ns;
        s.rows = rows;
        s.bytes = bytes;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, parent: SpanId, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, parent, 0);
        let r = f();
        self.end(id, 0, 0);
        r
    }

    /// Seconds span `id` lasted (0 for [`NONE`]).
    pub fn duration_s(&self, id: SpanId) -> f64 {
        if id == NONE {
            return 0.0;
        }
        let spans = self.spans.lock().expect("no span holder panics");
        (spans[id].end_ns - spans[id].start_ns) as f64 * 1e-9
    }

    /// Per-name totals, with self time net of each span's children.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let spans = self.spans.lock().expect("no span holder panics");
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (id, s) in spans.iter().enumerate() {
            let dur = (s.end_ns - s.start_ns) as f64 * 1e-9;
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_s += dur;
            t.self_s += dur - children_cover_s(&spans, id);
            t.rows += s.rows;
            t.bytes += s.bytes;
        }
        out
    }

    /// Share of span `id` covered by its direct children (overlapping
    /// children count once).
    pub fn coverage(&self, id: SpanId) -> f64 {
        if id == NONE {
            return 0.0;
        }
        let spans = self.spans.lock().expect("no span holder panics");
        let dur = (spans[id].end_ns - spans[id].start_ns) as f64 * 1e-9;
        if dur == 0.0 {
            return 0.0;
        }
        children_cover_s(&spans, id) / dur
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("no span holder panics");
        let mut text = String::new();
        for (id, s) in spans.iter().enumerate() {
            let parent = if s.parent == NONE {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                text,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"req\":{},\
                 \"start_ns\":{},\"end_ns\":{},\"rows\":{},\"bytes\":{}}}",
                s.name, s.req, s.start_ns, s.end_ns, s.rows, s.bytes
            )
            .expect("writing to a String cannot fail");
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}

/// Seconds of span `id` covered by the union of its direct children.
fn children_cover_s(spans: &[Span], id: SpanId) -> f64 {
    let (lo, hi) = (spans[id].start_ns, spans[id].end_ns);
    let mut iv: Vec<(u64, u64)> = spans
        .iter()
        .filter(|c| c.parent == id)
        .map(|c| (c.start_ns.max(lo), c.end_ns.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort_unstable();
    let mut covered = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    covered as f64 * 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_nets_out_overlapping_children() {
        let t = Trace::new(true);
        let root = t.begin("root", NONE, 0);
        {
            let mut spans = t.spans.lock().unwrap();
            spans[root].start_ns = 0;
            spans[root].end_ns = 100;
            for (a, b) in [(10, 40), (30, 60), (80, 90)] {
                spans.push(Span {
                    name: "child",
                    parent: root,
                    req: 0,
                    start_ns: a,
                    end_ns: b,
                    rows: 1,
                    bytes: 0,
                });
            }
        }
        let totals = t.totals();
        assert!((totals["root"].self_s - 40e-9).abs() < 1e-15);
        assert_eq!(totals["child"].count, 3);
        assert_eq!(totals["child"].rows, 3);
        assert!((t.coverage(root) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn a_disabled_trace_records_nothing() {
        let t = Trace::new(false);
        let id = t.begin("x", NONE, 0);
        t.end(id, 5, 5);
        assert_eq!(id, NONE);
        assert!(t.totals().is_empty());
    }
}
