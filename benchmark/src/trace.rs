//! In-memory spans around the calls the harness makes into each layer's
//! public API, written out as a Chrome trace when the traced pass ends.
//! Spans inside the program under test are a later change; these sit at
//! the layer boundaries the harness can see from outside.

use crate::json::{count, object, text};
use serde_json::Value;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_us: f64,
    dur_us: f64,
    /// Index of the span that caused this one.
    parent: Option<usize>,
    /// A count taken at the same boundary (tokens, rounds, blocks...).
    count: Option<(&'static str, f64)>,
}

#[derive(Debug)]
pub struct Tracer {
    /// Every span of one pass shares the workload as its identifier.
    workload: &'static str,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(workload: &'static str) -> Self {
        Tracer {
            workload,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name`, nested under whichever span is
    /// open. Returns `f`'s result and the span's duration in seconds.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_us: 0.0,
            dur_us: 0.0,
            parent: self.open.last().copied(),
            count: None,
        });
        self.open.push(index);
        let started = Instant::now();
        let out = f(self);
        let elapsed = started.elapsed();
        self.open.pop();
        let span = &mut self.spans[index];
        span.start_us = (started - self.epoch).as_secs_f64() * 1e6;
        span.dur_us = elapsed.as_secs_f64() * 1e6;
        (out, elapsed.as_secs_f64())
    }

    /// Attach a count to the innermost open span.
    pub fn count(&mut self, what: &'static str, n: f64) {
        if let Some(&i) = self.open.last() {
            self.spans[i].count = Some((what, n));
        }
    }

    /// Total seconds spent in spans named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_us)
            .sum::<f64>()
            / 1e6
    }

    /// A span's self time: its duration minus what its children cover.
    pub fn self_s(&self, name: &str) -> f64 {
        let covered: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_some_and(|p| self.spans[p].name == name))
            .map(|s| s.dur_us)
            .sum();
        self.total_s(name) - covered / 1e6
    }

    /// Write the spans as Chrome trace events (`chrome://tracing`,
    /// Perfetto).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let args = [("span", count(i)), ("workload", text(self.workload))]
                    .into_iter()
                    .chain(s.parent.map(|p| ("parent", count(p))))
                    .chain(s.count.map(|(what, n)| (what, Value::Number(n))));
                object([
                    ("name", text(s.name)),
                    ("ph", text("X")),
                    ("ts", Value::Number(s.start_us)),
                    ("dur", Value::Number(s.dur_us)),
                    ("pid", count(1)),
                    ("tid", count(1)),
                    ("args", object(args)),
                ])
            })
            .collect();
        let doc = object([("traceEvents", Value::Array(events))]);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, doc.render())
    }
}
