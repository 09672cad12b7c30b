//! Benchmark host crate. The [`inference`] module holds the engine-level
//! suite that the `bench_baseline` example runs, records into
//! `BENCH_inference.json` and gates on; [`Timings`] is the timing loop it
//! runs on. The paper's tables and figures, the design sweeps among them,
//! are printed by `hnlpu::experiments` (the `generate_reports` example),
//! not here.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::undocumented_unsafe_blocks))]

pub mod inference;

use std::fmt::Display;
use std::hint::black_box;
use std::time::Instant;

/// The timing loop: each benchmark runs its closure once untimed, then
/// `samples` times under one wall-clock span, prints a `bench <label>`
/// line with the mean and records `(label, mean ns/iter)`.
#[derive(Debug)]
pub struct Timings {
    samples: usize,
    results: Vec<(String, f64)>,
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
        #[expect(
            clippy::disallowed_methods,
            reason = "a benchmark timer reads the wall clock by definition"
        )]
        let start = Instant::now();
        for _ in 0..self.samples {
            black_box(f());
        }
        let mean_ns = start.elapsed().as_nanos() as f64 / self.samples as f64;
        let label = format!("{group}/{name}");
        if mean_ns >= 1e6 {
            println!("bench {label:<60} {:>12.3} ms/iter", mean_ns / 1e6);
        } else if mean_ns >= 1e3 {
            println!("bench {label:<60} {:>12.3} us/iter", mean_ns / 1e3);
        } else {
            println!("bench {label:<60} {:>12.1} ns/iter", mean_ns);
        }
        self.results.push((label, mean_ns));
    }

    /// `(label, mean ns/iter)` of every benchmark run so far, in run order.
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
        let labels: Vec<&str> = t.results().iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(labels, ["alpha/one", "grp/zeta", "grp/beta"]);
        assert!(t.results().iter().all(|&(_, ns)| ns >= 0.0));
    }
}
