//! Benchmark host crate. The [`inference`] module holds the engine-level
//! suite that the `bench_baseline` example runs, records into
//! `BENCH_inference.json` and gates on (each expert group's share of an
//! FMA-bound loop's rate); [`Timings`] is the timing loop it runs on. The
//! paper's tables and figures are printed by `hnlpu::experiments` (the
//! `generate_reports` example), not here.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::undocumented_unsafe_blocks))]

pub mod inference;

use std::fmt::Display;
use std::hint::black_box;
use std::time::Instant;

/// The timing loop: each benchmark runs its closure once untimed, then
/// `samples` times under one wall-clock span, prints a `bench <label>`
/// line with the mean and records `(label, mean ns/iter)`. A ceiling is
/// timed call by call instead ([`Timings::run_fastest`]).
#[derive(Debug)]
pub struct Timings {
    samples: usize,
    results: Vec<(String, f64)>,
}

/// The wall clock, read only by the timing loop.
#[expect(
    clippy::disallowed_methods,
    reason = "a benchmark timer reads the wall clock by definition"
)]
fn now() -> Instant {
    Instant::now()
}

impl Timings {
    /// A loop timing `samples` iterations per benchmark (at least one).
    pub fn new(samples: usize) -> Self {
        Timings {
            samples: samples.max(1),
            results: Vec::new(),
        }
    }

    /// Time `f` under the label `group/name`.
    pub fn run<O>(&mut self, group: &str, name: impl Display, mut f: impl FnMut() -> O) {
        black_box(f());
        let start = now();
        for _ in 0..self.samples {
            black_box(f());
        }
        let mean_ns = start.elapsed().as_nanos() as f64 / self.samples as f64;
        self.record(format!("{group}/{name}"), mean_ns);
    }

    /// Time `f` under the label `group/name` one call at a time, `calls`
    /// times after the warm-up whatever the sample count, and record the
    /// fastest call: the statistic of a ceiling, whose slower calls are
    /// the disturbed ones.
    pub fn run_fastest<O>(
        &mut self,
        group: &str,
        name: impl Display,
        calls: usize,
        mut f: impl FnMut() -> O,
    ) {
        black_box(f());
        let fastest_ns = (0..calls.max(1))
            .map(|_| {
                let start = now();
                black_box(f());
                start.elapsed().as_nanos() as f64
            })
            .fold(f64::INFINITY, f64::min);
        self.record(format!("{group}/{name}"), fastest_ns);
    }

    /// Print the `bench` line of `label` and record its ns/iter.
    fn record(&mut self, label: String, ns: f64) {
        if ns >= 1e6 {
            println!("bench {label:<60} {:>12.3} ms/iter", ns / 1e6);
        } else if ns >= 1e3 {
            println!("bench {label:<60} {:>12.3} us/iter", ns / 1e3);
        } else {
            println!("bench {label:<60} {:>12.1} ns/iter", ns);
        }
        self.results.push((label, ns));
    }

    /// `(label, ns/iter)` of every benchmark run so far, in run order: the
    /// mean, or a ceiling's fastest call.
    pub fn results(&self) -> &[(String, f64)] {
        &self.results
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_recorded_and_summarized() {
        let mut t = Timings::new(2);
        let mut calls = 0;
        t.run("alpha", "one", || calls += 1);
        // One untimed warm-up call, then the samples.
        assert_eq!(calls, 3);
        for name in ["zeta", "beta"] {
            t.run("grp", name, || black_box(name.len()));
        }
        let mut calls = 0;
        t.run_fastest("grp", "ceiling", 5, || calls += 1);
        // A ceiling's calls do not depend on the sample count.
        assert_eq!(calls, 6);
        let labels: Vec<&str> = t.results().iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(labels, ["alpha/one", "grp/zeta", "grp/beta", "grp/ceiling"]);
        assert!(t.results().iter().all(|&(_, ns)| ns >= 0.0));
    }
}
