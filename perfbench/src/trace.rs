//! In-memory span recording for the traced run.
//!
//! The benchmark wraps each call it makes into a layer's public API in a
//! span (name, start, end, parent, request id, item count). Spans stay in
//! memory while the workload runs and are written out once at the end;
//! per-layer figures are computed from them, including self time (a
//! span's duration minus the part of it its children cover).

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call. Times are nanoseconds since the run's shared origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same trace.
    pub parent: Option<usize>,
    /// Spans of one request (one resolve call, one query, one write)
    /// share this id.
    pub request: u64,
    /// Work done inside the span (rows, candidates, evaluations), when
    /// the call reports one.
    pub items: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span recorder owned by one thread. Threads of one run record into
/// their own tracer against a shared origin and are merged with
/// [`Tracer::absorb`] after they join.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    /// The request id stamped on spans opened from now on.
    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    /// Run `f` inside a span named `name`; spans opened by `f` through the
    /// tracer it receives become children of this one.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            request: self.request,
            items: 0,
        });
        self.open.push(index);
        let start = self.now_ns();
        let out = f(self);
        let end = self.now_ns();
        self.open.pop();
        let span = &mut self.spans[index];
        span.start_ns = start;
        span.end_ns = end;
        out
    }

    /// Attach an item count to the innermost open span.
    pub fn set_items(&mut self, items: u64) {
        let index = *self.open.last().expect("set_items outside any span");
        self.spans[index].items = items;
    }

    /// Number of spans recorded so far, to delimit a group of spans.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Append another thread's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// Self time of every span in `spans` (which must hold whole trees: every
/// parent index points into the same slice): its duration minus the union
/// of its children's intervals, clipped to its own interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            children[p].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, span.start_ns);
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(span.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Durations in nanoseconds of the spans named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    named(spans, name).map(|s| s.duration_ns() as f64).collect()
}

/// Total duration and total items of the spans named `name`.
pub fn totals(spans: &[Span], name: &str) -> (u64, u64) {
    named(spans, name).fold((0, 0), |(d, i), s| (d + s.duration_ns(), i + s.items))
}

/// Per request id, the longest span named `name`.
pub fn longest_per_request(spans: &[Span], name: &str) -> HashMap<u64, u64> {
    let mut out = HashMap::new();
    for s in named(spans, name) {
        let slot = out.entry(s.request).or_insert(0);
        *slot = (*slot).max(s.duration_ns());
    }
    out
}

fn named<'a>(spans: &'a [Span], name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
    spans.iter().filter(move |s| s.name == name)
}

/// The spans as tab-separated lines: `index name start_ns end_ns parent
/// request items` (`-` for no parent), after a header line.
pub fn to_tsv(spans: &[Span]) -> String {
    let mut out = String::from("index\tname\tstart_ns\tend_ns\tparent\trequest\titems\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{i}\t{}\t{}\t{}\t{parent}\t{}\t{}",
            s.name, s.start_ns, s.end_ns, s.request, s.items
        )
        .expect("writing to a String cannot fail");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 0,
            items: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // root [0,100) with children [10,30), [20,50) (overlapping: they
        // cover 40 together) and [90,120) (clipped to 10 inside root);
        // the first child has a grandchild [12,18) that must not count
        // against root a second time.
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 50, Some(0)),
            span("c", 90, 120, Some(0)),
            span("a.child", 12, 18, Some(1)),
            span("other", 200, 260, None),
        ];
        assert_eq!(self_times(&spans), vec![50, 14, 30, 30, 6, 60]);
    }

    #[test]
    fn nested_spans_record_parents_requests_and_items() {
        let mut t = Tracer::new(Instant::now());
        t.set_request(7);
        let v = t.span("outer", |t| {
            t.set_items(3);
            t.span("inner", |_| 5)
        });
        assert_eq!(v, 5);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].items, 3);
        assert!(spans.iter().all(|s| s.request == 7));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let st = self_times(spans);
        assert_eq!(st[0], spans[0].duration_ns() - spans[1].duration_ns());
    }

    #[test]
    fn absorb_rebases_parents_and_aggregates_by_name() {
        let origin = Instant::now();
        let mut a = Tracer::new(origin);
        a.span("x", |_| ());
        let mut b = Tracer::new(origin);
        b.set_request(2);
        b.span("y", |t| t.span("x", |t| t.set_items(4)));
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(durations(a.spans(), "x").len(), 2);
        assert_eq!(totals(a.spans(), "x").1, 4);
        assert_eq!(longest_per_request(a.spans(), "y").len(), 1);
        assert_eq!(to_tsv(a.spans()).lines().count(), 4);
    }
}
