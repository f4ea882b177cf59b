//! In-memory spans around calls into the layers, and self time.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `dag.build`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The operation (cell column, candidate, request) the span served.
    pub op: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans when enabled; when disabled, [`Tracer::span`] only
/// calls through, so the same replay code gives the untraced baseline.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    /// A tracer; `enabled = false` records nothing.
    #[must_use]
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// Tags the spans opened from now on with operation `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`; spans `f` opens become its
    /// children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let parent = self.stack.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op: self.op,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Everything recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Nanoseconds of `[start, end)` covered by the union of `intervals`.
fn covered(start: u64, end: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = start;
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

fn children(spans: &[Span]) -> Vec<Vec<usize>> {
    let mut kids = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            kids[p].push(i);
        }
    }
    kids
}

/// Each span's self time: its duration minus the part of it that its
/// direct children cover (overlapping children count once).
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let kids = children(spans);
    spans
        .iter()
        .zip(&kids)
        .map(|(s, k)| {
            let cover = covered(
                s.start_ns,
                s.end_ns,
                k.iter()
                    .map(|&c| (spans[c].start_ns, spans[c].end_ns))
                    .collect(),
            );
            s.duration_ns() - cover
        })
        .collect()
}

/// Share of parent-span time that child spans account for, over every
/// span that has children; `None` when no span has any.
#[must_use]
pub fn coverage(spans: &[Span]) -> Option<f64> {
    let kids = children(spans);
    let selfs = self_times(spans);
    let (mut parent_ns, mut covered_ns) = (0u64, 0u64);
    for ((s, k), own) in spans.iter().zip(&kids).zip(&selfs) {
        if !k.is_empty() {
            parent_ns += s.duration_ns();
            covered_ns += s.duration_ns() - own;
        }
    }
    (parent_ns > 0).then(|| covered_ns as f64 / parent_ns as f64)
}

/// Per span name: (count, total ns, self ns).
#[must_use]
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.duration_ns();
        e.2 += own;
    }
    out
}

/// The spans as JSONL, one object per line, times in microseconds.
#[must_use]
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s
            .parent
            .map_or_else(|| "null".to_owned(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent},\"op\":{}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            s.end_ns as f64 / 1e3,
            s.op
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn nested_children_subtract_only_from_their_own_parent() {
        let spans = vec![
            span("root", 0, 100, None),
            span("child", 10, 60, Some(0)),
            span("grandchild", 20, 50, Some(1)),
            span("child", 70, 80, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 30, 10]);
        // root: 60 of 100 covered; child: 30 of 50 covered.
        let c = coverage(&spans).unwrap();
        assert!((c - 90.0 / 150.0).abs() < 1e-12, "{c}");
        let t = totals(&spans);
        assert_eq!(t["child"], (2, 60, 30));
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 30, 70, Some(0)),
            span("c", 90, 130, Some(0)), // runs past the parent's end
        ];
        assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn tracer_nests_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        t.set_op(7);
        let v = t.span("outer", |t| t.span("inner", |_| 3) + 1);
        assert_eq!(v, 4);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].op, 7);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        assert!(to_jsonl(t.spans()).lines().count() == 2);
        let mut off = Tracer::new(false);
        assert_eq!(off.span("x", |_| 1), 1);
        assert!(off.spans().is_empty());
    }
}
