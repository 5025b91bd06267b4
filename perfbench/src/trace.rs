//! Benchmark-owned spans: name, start, end and parent, kept in memory and
//! written out when the benchmark ends.
//!
//! The spans wrap calls into the simulator's public functions from the
//! outside; the simulator itself is not instrumented. A disabled
//! [`Tracer`] runs the same pass code with one branch per span, which
//! is how the untraced half of `telemetry.on_over_off` is timed.

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Default)]
pub struct NameStats {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the time covered by direct children.
    pub self_ns: u64,
    /// Each span's duration, seconds, in recording order.
    pub durations_s: Vec<f64>,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self { enabled, origin: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`; spans opened inside `f` become
    /// its children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent: self.stack.last().copied() });
        self.stack.push(idx);
        let r = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Aggregates spans `from..` by name, with self time.
    pub fn stats_since(&self, from: usize) -> BTreeMap<&'static str, NameStats> {
        let spans = &self.spans[from..];
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent.and_then(|p| p.checked_sub(from)) {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
        for (s, &c) in spans.iter().zip(&child_ns) {
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += s.dur_ns();
            e.self_ns += s.dur_ns().saturating_sub(c);
            e.durations_s.push(s.dur_ns() as f64 / 1e9);
        }
        out
    }

    /// The spans as Chrome trace-event JSON objects (`ph: "X"`), loadable
    /// in Perfetto or `chrome://tracing`; `args` carries the span id and
    /// its parent's id.
    pub fn chrome_events(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or_else(|| "null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3
            ));
        }
        out.push(']');
        out
    }
}

/// Renders a self-time breakdown, largest self time first.
pub fn breakdown_table(title: &str, stats: &BTreeMap<&'static str, NameStats>) -> String {
    let total_self: u64 = stats.values().map(|s| s.self_ns).sum();
    let mut rows: Vec<(&&str, &NameStats)> = stats.iter().collect();
    rows.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then(a.0.cmp(b.0)));
    let mut out = format!(
        "# self time, {title}\n#   {:<24} {:>8} {:>12} {:>12} {:>7}\n",
        "span", "count", "total_ms", "self_ms", "self%"
    );
    for (name, s) in rows {
        out.push_str(&format!(
            "#   {:<24} {:>8} {:>12.3} {:>12.3} {:>6.1}%\n",
            name,
            s.count,
            s.total_ns as f64 / 1e6,
            s.self_ns as f64 / 1e6,
            100.0 * s.self_ns as f64 / total_self.max(1) as f64
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.span("outer", |t| {
            t.span("inner", |_| std::thread::sleep(std::time::Duration::from_millis(2)));
            t.span("inner", |_| ());
        });
        let stats = t.stats_since(0);
        let outer = &stats["outer"];
        let inner = &stats["inner"];
        assert_eq!(inner.count, 2);
        assert_eq!(outer.self_ns + inner.total_ns, outer.total_ns);
        assert_eq!(t.spans()[1].parent, Some(0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |_| 7), 7);
        assert!(t.spans().is_empty());
    }
}
