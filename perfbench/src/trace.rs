//! In-memory spans for the traced run.
//!
//! A span has a name, a start, an end, a parent and the request it belongs
//! to. Spans nest through a stack; when one closes, its duration is charged
//! to its parent's children, so self time (duration minus children) is known
//! at close. Aggregates per name cover every span; the raw spans are kept
//! up to a cap and written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Raw spans kept for the written trace; aggregates keep counting past it.
const KEEP: usize = 200_000;

/// No parent, or no request.
pub const NONE: u32 = u32::MAX;

/// One closed span. Times are nanoseconds since the recorder's origin.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// What ran.
    pub name: &'static str,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
    /// Index of the parent span among all spans opened, or [`NONE`].
    pub parent: u32,
    /// The request the span belongs to, or [`NONE`].
    pub request: u32,
}

/// Count, total and self time of every span with one name.
#[derive(Clone, Copy, Debug, Default)]
pub struct Totals {
    /// Spans closed.
    pub count: u64,
    /// Sum of durations, ns.
    pub total_ns: u64,
    /// Sum of self times, ns.
    pub self_ns: u64,
}

impl Totals {
    /// Mean self time, µs (0 when no span closed).
    pub fn mean_self_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64 / 1e3
        }
    }
}

struct Open {
    name: &'static str,
    id: u32,
    start: u64,
    parent: u32,
    request: u32,
    children_ns: u64,
}

/// The span recorder.
pub struct Recorder {
    origin: Instant,
    next_id: u32,
    stack: Vec<Open>,
    kept: Vec<Span>,
    totals: BTreeMap<&'static str, Totals>,
}

/// What [`Recorder::close`] reports about the span it closed.
#[derive(Clone, Copy, Debug)]
pub struct Closed {
    /// Time spent in child spans, ns.
    pub children_ns: u64,
}

impl Recorder {
    /// A recorder whose clock starts at `origin`.
    pub fn new(origin: Instant) -> Self {
        Recorder {
            origin,
            next_id: 0,
            stack: Vec::new(),
            kept: Vec::new(),
            totals: BTreeMap::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str, request: u32) {
        let parent = self.stack.last().map_or(NONE, |open| open.id);
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        let start = self.now();
        self.stack.push(Open {
            name,
            id,
            start,
            parent,
            request,
            children_ns: 0,
        });
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) -> Closed {
        let end = self.now();
        let open = self.stack.pop().expect("close without open");
        let total_ns = end - open.start;
        if let Some(parent) = self.stack.last_mut() {
            parent.children_ns += total_ns;
        }
        self.finish(
            Span {
                name: open.name,
                start: open.start,
                end,
                parent: open.parent,
                request: open.request,
            },
            open.children_ns,
        );
        Closed {
            children_ns: open.children_ns,
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, request: u32, f: impl FnOnce() -> T) -> T {
        self.open(name, request);
        let out = f();
        self.close();
        out
    }

    /// Records a span measured elsewhere (a client round trip), with no
    /// parent and no children.
    pub fn record(&mut self, name: &'static str, request: u32, start: Instant, end: Instant) {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.next_id = self.next_id.wrapping_add(1);
        self.finish(
            Span {
                name,
                start: at(start),
                end: at(end),
                parent: NONE,
                request,
            },
            0,
        );
    }

    fn finish(&mut self, span: Span, children_ns: u64) {
        let total = span.end - span.start;
        let totals = self.totals.entry(span.name).or_default();
        totals.count += 1;
        totals.total_ns += total;
        totals.self_ns += total.saturating_sub(children_ns);
        if self.kept.len() < KEEP {
            self.kept.push(span);
        }
    }

    /// The aggregates for `name`.
    pub fn totals(&self, name: &str) -> Totals {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Writes the kept spans as CSV (`name,start_ns,end_ns,parent,request`)
    /// followed by nothing else; returns how many were written.
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<usize> {
        let mut out = String::from("name,start_ns,end_ns,parent,request\n");
        for span in &self.kept {
            let _ = writeln!(
                out,
                "{},{},{},{},{}",
                span.name,
                span.start,
                span.end,
                opt(span.parent),
                opt(span.request)
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)?;
        Ok(self.kept.len())
    }
}

fn opt(v: u32) -> String {
    if v == NONE {
        String::new()
    } else {
        v.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut rec = Recorder::new(Instant::now());
        rec.open("outer", 0);
        rec.span("inner", 0, || {
            std::thread::sleep(std::time::Duration::from_millis(3))
        });
        let closed = rec.close();
        let outer = rec.totals("outer");
        let inner = rec.totals("inner");
        assert_eq!(outer.count, 1);
        assert!(inner.total_ns >= 3_000_000);
        assert_eq!(closed.children_ns, inner.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert_eq!(rec.kept[1].parent, NONE);
        assert_eq!(rec.kept[0].parent, 0, "inner's parent is the outer span");
    }
}
