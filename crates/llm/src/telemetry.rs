//! In-program stage spans: where a worker's host time goes, by stage of
//! the block, measured by the program itself.
//!
//! Each worker's [`crate::Scratch`] arena carries one [`StageNanos`]
//! accumulator, so a span needs no atomic, lock or thread-local: the
//! worker that runs a stage adds its elapsed nanoseconds to its own arena,
//! and a reader sums the arenas. A span covers a whole stage once per call
//! of the function that runs it (`panel_block`, `expert_group` per
//! touched expert, on whichever worker runs the group, the unembedding,
//! `advance_chunk`, a helped group, `run_round`), never
//! once per head, chip or position. Spans are always on. Wall-clock time
//! lands only in these counters: it never feeds scheduling, accumulation
//! order or token selection.

use std::time::Instant;

/// A stage of the block, as the spans attribute host time to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// RMSNorm, the q / k / v projections, RoPE and KV landing, and the
    /// output projection with its residual.
    Projections,
    /// Scores, `exp`, value accumulation and the chip-order combine.
    Attention,
    /// The router, the expert up / gate / down matmuls and the mixture
    /// replay (SwiGLU excluded).
    ExpertMatmuls,
    /// SwiGLU over each expert group's gate and up rows.
    SwiGlu,
    /// The unembedding of the rows that need logits.
    Unembed,
    /// A worker's whole share of a round (`batch::advance_chunk`): every
    /// stage above plus embedding, sampling and the round's bookkeeping,
    /// and then the expert groups it ran for other workers while it waited
    /// at the join (`help`). Waiting with nothing to run is not counted.
    Worker,
    /// A whole round (`batch::run_round`), fan-out to join, charged to
    /// every arena that took part: `1 − worker / round` is the workers'
    /// idle share, the time they wait at the join.
    Round,
}

impl Stage {
    /// Every stage, in report order.
    pub const ALL: [Stage; 7] = [
        Stage::Projections,
        Stage::Attention,
        Stage::ExpertMatmuls,
        Stage::SwiGlu,
        Stage::Unembed,
        Stage::Worker,
        Stage::Round,
    ];

    /// The stage's name in reports.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Projections => "projections",
            Stage::Attention => "attention",
            Stage::ExpertMatmuls => "expert_matmuls",
            Stage::SwiGlu => "swiglu",
            Stage::Unembed => "unembed",
            Stage::Worker => "worker",
            Stage::Round => "round",
        }
    }
}

/// Host nanoseconds spent per [`Stage`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageNanos([u64; Stage::ALL.len()]);

impl StageNanos {
    /// Nanoseconds attributed to `stage`.
    pub fn get(&self, stage: Stage) -> u64 {
        self.0[stage as usize]
    }

    /// Close a span of `stage` opened at `since`, and return now, which
    /// opens the next span of a chain.
    #[inline]
    pub(crate) fn close(&mut self, stage: Stage, since: Instant) -> Instant {
        #[expect(
            clippy::disallowed_methods,
            reason = "a span's host time is only reported: no token, plan or virtual time reads it"
        )]
        let now = Instant::now();
        self.add(stage, nanos(now.duration_since(since)));
        now
    }

    /// Charge `stage` `ns` nanoseconds measured elsewhere.
    #[inline]
    pub(crate) fn add(&mut self, stage: Stage, ns: u64) {
        let total = &mut self.0[stage as usize];
        *total = total.saturating_add(ns);
    }
}

impl std::ops::AddAssign for StageNanos {
    fn add_assign(&mut self, rhs: StageNanos) {
        for (a, b) in self.0.iter_mut().zip(rhs.0) {
            *a = a.saturating_add(b);
        }
    }
}

impl std::iter::Sum for StageNanos {
    fn sum<I: Iterator<Item = StageNanos>>(iter: I) -> StageNanos {
        iter.fold(StageNanos::default(), |mut total, arena| {
            total += arena;
            total
        })
    }
}

/// Open a span.
#[inline]
#[expect(
    clippy::disallowed_methods,
    reason = "a span's host time is only reported: no token, plan or virtual time reads it"
)]
pub(crate) fn start() -> Instant {
    Instant::now()
}

/// Nanoseconds since `since`, saturating.
#[inline]
pub(crate) fn since(since: Instant) -> u64 {
    nanos(since.elapsed())
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_accumulate_per_stage_and_sum_across_arenas() {
        let mut a = StageNanos::default();
        let t = start();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let t = a.close(Stage::Attention, t);
        a.close(Stage::Unembed, t);
        assert!(since(t) < 1_000_000_000);
        a.add(Stage::Round, 7);
        assert_eq!(a.get(Stage::Round), 7);
        assert!(a.get(Stage::Attention) >= 2_000_000);
        assert_eq!(a.get(Stage::Projections), 0);
        let total: StageNanos = [a, a].into_iter().sum();
        for stage in Stage::ALL {
            assert_eq!(total.get(stage), 2 * a.get(stage), "{}", stage.name());
        }
    }
}
