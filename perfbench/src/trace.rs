//! Spans around the benchmark's calls into each layer's public
//! functions. Spans live in memory and are written out when the run
//! ends; a disabled tracer records nothing, so untraced operations run
//! the same code with tracing off.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call: its layer name, start and end in seconds since the
/// tracer was created, and the span it ran inside.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Span recorder for code running on one thread.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` become
    /// its children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.t0.elapsed().as_secs_f64(),
            end: f64::NAN,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end = self.t0.elapsed().as_secs_f64();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed self time per span name: see [`self_times`].
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        self_times(&self.spans)
    }

    /// Summed duration of every span called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .sum()
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start\": {}, \"end\": {}, \"parent\": {parent}}}",
                s.name, s.start, s.end
            );
        }
        out
    }
}

/// Self time per span name, summed over spans: each span's duration
/// minus the part of its interval that its children cover (overlapping
/// children count once).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    let mut out = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children) {
        let own = s.duration() - covered(s.start, s.end, kids);
        *out.entry(s.name).or_insert(0.0) += own;
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(lo: f64, hi: f64, mut intervals: Vec<(f64, f64)>) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut reach = lo;
    for (a, b) in intervals {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span("op", 0.0, 10.0, None),
            span("gen", 1.0, 4.0, Some(0)),
            span("play", 4.0, 9.0, Some(0)),
            span("decode", 5.0, 6.0, Some(2)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["op"], 2.0);
        assert_eq!(t["gen"], 3.0);
        assert_eq!(t["play"], 4.0);
        assert_eq!(t["decode"], 1.0);
    }

    #[test]
    fn overlapping_children_count_once_and_names_sum() {
        let spans = [
            span("op", 0.0, 10.0, None),
            span("a", 2.0, 6.0, Some(0)),
            span("a", 4.0, 8.0, Some(0)),
            span("op", 10.0, 12.0, None),
        ];
        let t = self_times(&spans);
        assert_eq!(t["op"], 4.0 + 2.0);
        assert_eq!(t["a"], 8.0);
    }

    #[test]
    fn tracer_nests_and_disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(true);
        let v = tr.span("outer", |tr| tr.span("inner", |_| 7));
        assert_eq!(v, 7);
        let s = tr.spans();
        assert_eq!((s[0].name, s[0].parent), ("outer", None));
        assert_eq!((s[1].name, s[1].parent), ("inner", Some(0)));
        assert!(s[0].start <= s[1].start && s[1].end <= s[0].end);
        assert_eq!(tr.to_json_lines().lines().count(), 2);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("outer", |tr| tr.span("inner", |_| 7)), 7);
        assert!(off.spans().is_empty());
    }
}
