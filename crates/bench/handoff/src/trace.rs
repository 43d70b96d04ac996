//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records a name, its start and end (nanoseconds since the tracer
//! was created) and the span that was open when it began. Spans stay in
//! memory and are written out once, at the end of a traced run. A disabled
//! tracer calls the wrapped function and records nothing, which is how the
//! end-to-end run measures with tracing off.
//!
//! Spans are recorded from the benchmark's own thread only; a span around a
//! call that fans out to worker threads covers the whole call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary name, e.g. `lppm.protect`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

#[derive(Debug, Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
    counters: BTreeMap<&'static str, f64>,
}

/// Span and counter recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    state: RefCell<State>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or only passes calls through.
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, origin: Instant::now(), state: RefCell::new(State::default()) }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let index = {
            let mut state = self.state.borrow_mut();
            let parent = state.open.last().copied();
            let index = state.spans.len();
            let start_ns = self.now_ns();
            state.spans.push(Span { name, start_ns, end_ns: start_ns, parent });
            state.open.push(index);
            index
        };
        let out = f();
        let end_ns = self.now_ns();
        let mut state = self.state.borrow_mut();
        state.open.pop();
        if let Some(span) = state.spans.get_mut(index) {
            span.end_ns = end_ns;
        }
        out
    }

    /// Adds `value` to the counter `name` (recorded only when enabled).
    pub fn count(&self, name: &'static str, value: f64) {
        if self.enabled {
            *self.state.borrow_mut().counters.entry(name).or_insert(0.0) += value;
        }
    }

    /// A counter's value (0 when never counted).
    pub fn counter(&self, name: &str) -> f64 {
        self.state.borrow().counters.get(name).copied().unwrap_or(0.0)
    }

    /// Number of spans recorded so far.
    pub fn span_count(&self) -> usize {
        self.state.borrow().spans.len()
    }

    /// Total duration of every span named `name`, in seconds.
    pub fn total(&self, name: &str) -> f64 {
        self.state.borrow().spans.iter().filter(|s| s.name == name).map(Span::seconds).sum()
    }

    /// Number of spans named `name`.
    pub fn calls(&self, name: &str) -> usize {
        self.state.borrow().spans.iter().filter(|s| s.name == name).count()
    }

    /// Self time of every span named `name`, in seconds: its duration minus
    /// the time covered by its direct children (which never overlap, being
    /// recorded from one thread).
    pub fn self_time(&self, name: &str) -> f64 {
        let state = self.state.borrow();
        let mut total = 0.0;
        for (index, span) in state.spans.iter().enumerate() {
            if span.name != name {
                continue;
            }
            let children: f64 = state
                .spans
                .iter()
                .filter(|child| child.parent == Some(index))
                .map(Span::seconds)
                .sum();
            total += span.seconds() - children;
        }
        total
    }

    /// All spans and counters as one JSON document.
    pub fn to_json(&self) -> String {
        let state = self.state.borrow();
        let mut out = String::from("{\n  \"spans\": [\n");
        for (i, span) in state.spans.iter().enumerate() {
            let parent = span.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "    {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}}}",
                span.name, span.start_ns, span.end_ns
            );
            out.push_str(if i + 1 < state.spans.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ],\n  \"counters\": {");
        let counters: Vec<String> =
            state.counters.iter().map(|(name, value)| format!("\"{name}\": {value}")).collect();
        out.push_str(&counters.join(", "));
        out.push_str("}\n}\n");
        out
    }
}

/// Measured cost of recording one empty span, in seconds: the tracing
/// overhead per span, taken as the median of several batches.
pub fn span_overhead_seconds() -> f64 {
    let mut batches = Vec::new();
    for _ in 0..7 {
        let tracer = Tracer::new(true);
        let started = Instant::now();
        for _ in 0..10_000 {
            tracer.span("overhead", || std::hint::black_box(0));
        }
        batches.push(started.elapsed().as_secs_f64() / 10_000.0);
    }
    crate::stats::median(&batches).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let tracer = Tracer::new(true);
        tracer.span("outer", || {
            tracer.span("inner", || std::thread::sleep(std::time::Duration::from_millis(20)));
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
        let outer = tracer.total("outer");
        let inner = tracer.total("inner");
        assert!(inner >= 0.020 && outer >= inner + 0.005);
        assert!((tracer.self_time("outer") - (outer - inner)).abs() < 1e-9);
        assert_eq!(tracer.calls("inner"), 1);
        assert!(tracer.to_json().contains("\"parent\": 0"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        assert_eq!(tracer.span("x", || 7), 7);
        tracer.count("c", 1.0);
        assert_eq!(tracer.span_count(), 0);
        assert_eq!(tracer.counter("c"), 0.0);
    }
}
