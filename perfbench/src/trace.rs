//! Spans recorded by the benchmark around each call into a layer.
//!
//! A [`Tracer`] keeps its spans in memory; nothing is written until the
//! run ends. A disabled tracer runs the wrapped call and records nothing,
//! so the untimed and timed paths execute the same calls.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// The request, op or step the span belongs to.
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Self { enabled, epoch, spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span whose end is set later by [`Tracer::close`]; returns its
    /// index, or `None` when tracing is off.
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, request });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, span: Option<usize>) {
        if let Some(i) = span {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.open(name, parent, request);
        let out = f();
        self.close(open);
        out
    }

    /// Record an interval measured elsewhere (e.g. from callback
    /// timestamps).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start_ns = start.saturating_duration_since(self.epoch).as_nanos() as u64;
        let end_ns = end.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span { name, start_ns, end_ns, parent, request });
        Some(self.spans.len() - 1)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in milliseconds of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64 / 1e6).collect()
    }
}

/// Per span name: count, total and self time (ns). A span's self time is
/// its duration minus the part of it its child spans cover.
fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let mut covered: Vec<(u64, u64)> = children[i]
            .iter()
            .map(|&c| (spans[c].start_ns.max(s.start_ns), spans[c].end_ns.min(s.end_ns)))
            .filter(|(a, b)| b > a)
            .collect();
        covered.sort_unstable();
        let (mut union, mut reach) = (0u64, s.start_ns);
        for (a, b) in covered {
            let a = a.max(reach);
            if b > a {
                union += b - a;
                reach = b;
            }
        }
        let entry = out.entry(s.name).or_default();
        entry.0 += 1;
        entry.1 += s.duration_ns();
        entry.2 += s.duration_ns().saturating_sub(union);
    }
    out
}

/// The self-time table as text, one line per span name.
pub fn self_time_table(spans: &[Span]) -> String {
    let mut text = String::from("span                       count     total_ms      self_ms\n");
    for (name, (count, total, own)) in self_times(spans) {
        let _ = writeln!(
            text,
            "{name:<24} {count:>8} {:>12.3} {:>12.3}",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
    text
}

/// Spans as tab-separated lines: name, start_ns, end_ns, parent, request.
pub fn spans_tsv(spans: &[Span]) -> String {
    let mut text = String::from("name\tstart_ns\tend_ns\tparent\trequest\n");
    for s in spans {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        let _ =
            writeln!(text, "{}\t{}\t{}\t{}\t{}", s.name, s.start_ns, s.end_ns, parent, s.request);
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, request: 0 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("op", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),  // overlaps a: union 10..60
            span("c", 90, 120, Some(0)), // clipped to the parent: 90..100
        ];
        let t = self_times(&spans);
        assert_eq!(t["op"], (1, 100, 40));
        assert_eq!(t["a"], (1, 30, 30));
        assert_eq!(t["c"], (1, 30, 30));
    }

    #[test]
    fn disabled_tracer_records_nothing_but_runs_the_call() {
        let mut t = Tracer::new(false, Instant::now());
        assert_eq!(t.span("x", None, 1, || 7), 7);
        assert!(t.spans().is_empty());
    }
}
