//! Deterministic fault injection for the serving stack.
//!
//! Hardwired-neuron chips cannot be re-flashed: a dead or degraded chip
//! in the 4×4 grid must be survived by rescheduling onto the survivors,
//! never by repair, so the serving stack needs a first-class description of
//! everything that can go wrong. A [`FaultPlan`] is that description —
//! injected chip failures, per-chip straggler slowdowns, transient link
//! faults on the modeled interconnect, and per-request deadlines — all
//! stamped in virtual microseconds so [`crate::serve::OnlineServer`] can
//! consume the plan on its virtual clock. A plan is pure data: two runs
//! of the same workload under the same plan are bit-identical, which is
//! what makes chaos runs property-testable
//! (`tests/tests/serving_invariant.rs`).
//!
//! Plans are either hand-built or drawn from a seeded RNG via
//! [`FaultPlan::seeded`]; both go through `FaultPlan::validate` before
//! a server will accept them, so malformed chaos input surfaces as a
//! typed [`FaultError`] instead of a panic mid-run.
//!
//! Inside the server the crate-private `FaultPolicy` owns the validated
//! plan and the [`GridHealth`] it has degraded so far, and answers the
//! loop's questions about *time and the grid*: the next due death, a
//! round's stretch, the next fault wake, the survivors' capacity, the
//! recovery backoff, a submission's deadline. Which *sequences* a fault
//! touches stays with the server, whose queues they are; it reports what
//! became of them as [`RecoveryStats`].

#![cfg_attr(
    not(test),
    deny(
        clippy::arithmetic_side_effects,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_precision_loss,
        clippy::cast_possible_wrap,
        clippy::indexing_slicing
    )
)]

use crate::dataflow::{GridHealth, GRID};
use hnlpu_sim::fabric::retry_round_factor;
use hnlpu_sim::scheduler::micros_to_s;
use rand::{rngs::StdRng, Rng, SeedableRng};
use serde::Serialize;
use std::fmt;

/// Chips in the grid (the paper's 4×4 fabric).
pub(crate) const CHIPS: usize = GRID * GRID;

/// Largest modeled link-retransmission count per collective.
pub(crate) const MAX_LINK_RETRIES: u32 = 6;

/// Largest accepted straggler slowdown factor.
pub(crate) const MAX_SLOWDOWN: f64 = 64.0;

/// A permanent chip death at a point in virtual time. Hardwired chips
/// cannot be repaired or re-flashed, so failures never heal.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ChipFailure {
    /// When the chip dies, virtual microseconds.
    pub at_micros: u64,
    /// The dead chip, `0..CHIPS` (row-major over the 4×4 grid).
    pub chip: usize,
}

/// A transient per-chip slowdown window (thermal throttling, a marginal
/// voltage rail). The grid is lock-step, so the slowest live chip paces
/// every pipeline round in the window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Straggler {
    /// The slow chip, `0..CHIPS`.
    pub chip: usize,
    /// Window start, virtual microseconds (inclusive).
    pub from_micros: u64,
    /// Window end, virtual microseconds (exclusive).
    pub until_micros: u64,
    /// Round-time multiplier while active, `1.0..=MAX_SLOWDOWN`.
    pub slowdown: f64,
}

/// A transient lossy-link window: collectives crossing the fabric must
/// be retried `retries` times before they land.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct LinkFault {
    /// Window start, virtual microseconds (inclusive).
    pub from_micros: u64,
    /// Window end, virtual microseconds (exclusive).
    pub until_micros: u64,
    /// Retransmissions per collective while active,
    /// `1..=MAX_LINK_RETRIES`.
    pub retries: u32,
}

/// An absolute completion deadline for one submission of a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Deadline {
    /// Index of the submission in trace order (counting rejected
    /// submissions too).
    pub submission: usize,
    /// The deadline, virtual microseconds. A sequence still live when
    /// the clock passes this instant is terminated with a typed
    /// `ServeError::Deadline`.
    pub at_micros: u64,
}

/// A complete, reproducible description of every fault a serving run
/// will experience. Empty plans ([`FaultPlan::none`]) leave the server
/// bit-identical to the fault-free path.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct FaultPlan {
    /// Permanent chip deaths.
    pub chip_failures: Vec<ChipFailure>,
    /// Transient per-chip slowdown windows.
    pub stragglers: Vec<Straggler>,
    /// Transient lossy-link windows.
    pub link_faults: Vec<LinkFault>,
    /// Per-submission completion deadlines.
    pub deadlines: Vec<Deadline>,
}

/// Shape parameters for [`FaultPlan::seeded`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ChaosSpec {
    /// Window (from t = 0) in which fault times are drawn, microseconds.
    pub horizon_micros: u64,
    /// Trace length, for deadline targeting.
    pub submissions: usize,
    /// Distinct chips to kill (clamped to `CHIPS - 1` so at least one
    /// chip always survives).
    pub chip_failures: usize,
    /// Straggler windows to draw.
    pub stragglers: usize,
    /// Lossy-link windows to draw.
    pub link_faults: usize,
    /// Distinct submissions given deadlines (clamped to `submissions`).
    pub deadlines: usize,
    /// Minimum slack added to every drawn deadline, microseconds.
    pub min_deadline_micros: u64,
}

/// Why a fault plan was rejected. Plans are external input to the
/// server, so malformed ones surface as typed errors, never panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultError {
    /// A fault referenced a chip outside `0..CHIPS`.
    ChipOutOfRange {
        /// The offending chip index.
        chip: usize,
    },
    /// Two `ChipFailure` entries name the same chip.
    DuplicateChipFailure {
        /// The doubly-killed chip.
        chip: usize,
    },
    /// The plan kills every chip — nothing would survive to serve.
    NoSurvivors,
    /// A straggler or link-fault window is empty (`until <= from`).
    EmptyWindow {
        /// Window start, microseconds.
        from_micros: u64,
        /// Window end, microseconds.
        until_micros: u64,
    },
    /// A straggler slowdown is not in `1.0..=MAX_SLOWDOWN` (or not
    /// finite).
    SlowdownOutOfRange,
    /// A link fault's retries are not in `1..=MAX_LINK_RETRIES`.
    RetriesOutOfRange {
        /// The offending retry count.
        retries: u32,
    },
    /// Two deadlines target the same submission.
    DuplicateDeadline {
        /// The doubly-constrained submission index.
        submission: usize,
    },
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FaultError::ChipOutOfRange { chip } => {
                write!(f, "chip {chip} is outside the {CHIPS}-chip grid")
            }
            FaultError::DuplicateChipFailure { chip } => {
                write!(f, "chip {chip} is killed twice")
            }
            FaultError::NoSurvivors => {
                write!(f, "plan kills all {CHIPS} chips; at least one must survive")
            }
            FaultError::EmptyWindow {
                from_micros,
                until_micros,
            } => write!(f, "empty fault window [{from_micros}, {until_micros}) µs"),
            FaultError::SlowdownOutOfRange => {
                write!(
                    f,
                    "straggler slowdown must be finite in 1.0..={MAX_SLOWDOWN}"
                )
            }
            FaultError::RetriesOutOfRange { retries } => {
                write!(f, "link retries {retries} not in 1..={MAX_LINK_RETRIES}")
            }
            FaultError::DuplicateDeadline { submission } => {
                write!(f, "submission {submission} has two deadlines")
            }
        }
    }
}

impl std::error::Error for FaultError {}

impl FaultPlan {
    /// The empty plan: a server given this plan is bit-identical to the
    /// fault-free path.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.chip_failures.is_empty()
            && self.stragglers.is_empty()
            && self.link_faults.is_empty()
            && self.deadlines.is_empty()
    }

    /// Draw a valid plan from a seeded RNG: same seed and spec, same
    /// plan, forever. Chip kills target distinct chips (at most
    /// `CHIPS - 1`), deadlines target distinct submissions, and every
    /// drawn window and factor is inside the validated ranges.
    pub fn seeded(seed: u64, spec: &ChaosSpec) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let horizon = spec.horizon_micros.max(1);
        let mut chips: Vec<usize> = Vec::new();
        while chips.len() < spec.chip_failures.min(CHIPS - 1) {
            let chip = rng.gen_range(0..CHIPS);
            if !chips.contains(&chip) {
                chips.push(chip);
            }
        }
        let chip_failures = chips
            .iter()
            .map(|&chip| ChipFailure {
                at_micros: rng.gen_range(0..horizon),
                chip,
            })
            .collect();
        let stragglers = (0..spec.stragglers)
            .map(|_| {
                let from_micros = rng.gen_range(0..horizon);
                Straggler {
                    chip: rng.gen_range(0..CHIPS),
                    from_micros,
                    until_micros: from_micros.saturating_add(rng.gen_range(1..=horizon)),
                    slowdown: 1.5 + rng.gen::<f64>() * 6.5,
                }
            })
            .collect();
        let link_faults = (0..spec.link_faults)
            .map(|_| {
                let from_micros = rng.gen_range(0..horizon);
                LinkFault {
                    from_micros,
                    until_micros: from_micros.saturating_add(rng.gen_range(1..=horizon)),
                    retries: rng.gen_range(1..=3u32),
                }
            })
            .collect();
        let mut targets: Vec<usize> = Vec::new();
        while targets.len() < spec.deadlines.min(spec.submissions) {
            let submission = rng.gen_range(0..spec.submissions);
            if !targets.contains(&submission) {
                targets.push(submission);
            }
        }
        let deadlines = targets
            .iter()
            .map(|&submission| Deadline {
                submission,
                at_micros: spec
                    .min_deadline_micros
                    .saturating_add(rng.gen_range(0..horizon)),
            })
            .collect();
        FaultPlan {
            chip_failures,
            stragglers,
            link_faults,
            deadlines,
        }
    }

    /// Check every entry against the grid and the modeled ranges.
    ///
    /// # Errors
    ///
    /// The first violated rule, as a typed [`FaultError`].
    pub(crate) fn validate(&self) -> Result<(), FaultError> {
        let mut failed: Vec<usize> = Vec::new();
        for fail in &self.chip_failures {
            if fail.chip >= CHIPS {
                return Err(FaultError::ChipOutOfRange { chip: fail.chip });
            }
            if failed.contains(&fail.chip) {
                return Err(FaultError::DuplicateChipFailure { chip: fail.chip });
            }
            failed.push(fail.chip);
        }
        if failed.len() >= CHIPS {
            return Err(FaultError::NoSurvivors);
        }
        for s in &self.stragglers {
            if s.chip >= CHIPS {
                return Err(FaultError::ChipOutOfRange { chip: s.chip });
            }
            if s.until_micros <= s.from_micros {
                return Err(FaultError::EmptyWindow {
                    from_micros: s.from_micros,
                    until_micros: s.until_micros,
                });
            }
            if !(s.slowdown.is_finite() && (1.0..=MAX_SLOWDOWN).contains(&s.slowdown)) {
                return Err(FaultError::SlowdownOutOfRange);
            }
        }
        for l in &self.link_faults {
            if l.until_micros <= l.from_micros {
                return Err(FaultError::EmptyWindow {
                    from_micros: l.from_micros,
                    until_micros: l.until_micros,
                });
            }
            if l.retries == 0 || l.retries > MAX_LINK_RETRIES {
                return Err(FaultError::RetriesOutOfRange { retries: l.retries });
            }
        }
        let mut constrained: Vec<usize> = Vec::new();
        for d in &self.deadlines {
            if constrained.contains(&d.submission) {
                return Err(FaultError::DuplicateDeadline {
                    submission: d.submission,
                });
            }
            constrained.push(d.submission);
        }
        Ok(())
    }

    /// Round-time multiplier at virtual time `t_s`: the largest active
    /// straggler slowdown among chips still alive (a dead chip cannot
    /// pace the grid), or `1.0` when none is active. The multiply by
    /// `1.0` on the fault-free path is exact in IEEE arithmetic, so an
    /// empty plan changes no timestamp bit.
    pub(crate) fn slowdown_at<F: Fn(usize) -> bool>(&self, t_s: f64, is_alive: F) -> f64 {
        self.stragglers
            .iter()
            .filter(|s| is_alive(s.chip))
            .filter(|s| micros_to_s(s.from_micros) <= t_s && t_s < micros_to_s(s.until_micros))
            .map(|s| s.slowdown)
            .fold(1.0, f64::max)
    }

    /// Link retransmissions per collective at virtual time `t_s` (the
    /// largest active window), or 0 when the fabric is clean.
    pub(crate) fn link_retries_at(&self, t_s: f64) -> u32 {
        self.link_faults
            .iter()
            .filter(|l| micros_to_s(l.from_micros) <= t_s && t_s < micros_to_s(l.until_micros))
            .map(|l| l.retries)
            .fold(0, u32::max)
    }

    /// The deadline of submission `submission`, if any.
    pub(crate) fn deadline_of(&self, submission: usize) -> Option<u64> {
        self.deadlines
            .iter()
            .find(|d| d.submission == submission)
            .map(|d| d.at_micros)
    }
}

/// Typed accounting for fault recovery: sequences evicted by chip
/// failures and what became of them, filled in by the online server as
/// its [`FaultPlan`] unfolds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct RecoveryStats {
    /// In-flight sequences evicted because a chip holding their KV died.
    pub evictions: u64,
    /// Evicted sequences re-admitted and re-prefilled into fresh slots.
    pub resumed: u64,
    /// Evicted sequences abandoned after exhausting recovery retries.
    pub failed: u64,
    /// Prompt + already-emitted tokens re-prefilled during recoveries.
    pub re_prefill_tokens: u64,
}

#[cfg(test)]
impl RecoveryStats {
    /// True when no fault ever touched a resident sequence.
    pub fn is_clean(&self) -> bool {
        *self == RecoveryStats::default()
    }
}

/// A validated [`FaultPlan`] and the grid it has degraded so far. An
/// empty plan answers with a fault-free server's arithmetic (stretch
/// `1.0`, no wake, full capacity).
#[derive(Debug)]
pub(crate) struct FaultPolicy {
    /// Chip failures sorted by time, stably: equal times apply in plan order.
    plan: FaultPlan,
    /// A validated plan kills each chip at most once, so the first failure
    /// whose chip still lives is the next one due.
    health: GridHealth,
    /// Rounds run on a degraded grid or under a straggler / link stretch.
    degraded_rounds: u64,
    /// Rounds stretched by link-fault retransmissions.
    link_retry_rounds: u64,
}

impl FaultPolicy {
    /// Validate `plan` (its first [`FaultError`]) and sort its failures.
    pub(crate) fn new(mut plan: FaultPlan) -> Result<Self, FaultError> {
        plan.validate()?;
        plan.chip_failures.sort_by_key(|f| f.at_micros);
        Ok(FaultPolicy {
            plan,
            health: GridHealth::full(),
            degraded_rounds: 0,
            link_retry_rounds: 0,
        })
    }

    /// The earliest chip failure not yet applied.
    fn next_failure(&self) -> Option<&ChipFailure> {
        self.plan
            .chip_failures
            .iter()
            .find(|f| self.health.is_alive(f.chip))
    }

    /// The next chip death due at `now_s`, marked dead; `None` once every
    /// death up to `now_s` has been applied.
    pub(crate) fn next_due_failure(&mut self, now_s: f64) -> Option<usize> {
        let due = self.next_failure()?;
        let chip = (micros_to_s(due.at_micros) <= now_s).then_some(due.chip)?;
        self.health.fail(chip);
        Some(chip)
    }

    /// When an idle server must next wake for a fault: the earliest death
    /// still to come.
    pub(crate) fn next_wake(&self) -> Option<f64> {
        self.next_failure().map(|f| micros_to_s(f.at_micros))
    }

    /// Round-time multiplier for a round starting at `now_s` — the slowest
    /// live straggler times the link-retry factor — and whether the round
    /// runs degraded; both kinds of round are counted. Fault-free rounds
    /// return exactly `1.0 * 1.0`, so the clock keeps every bit.
    pub(crate) fn stretch(&mut self, now_s: f64) -> (f64, bool) {
        let health = self.health;
        let slowdown = self.plan.slowdown_at(now_s, |chip| health.is_alive(chip));
        let link_retries = self.plan.link_retries_at(now_s);
        let stretch = slowdown * retry_round_factor(link_retries);
        let degraded = health.is_degraded() || stretch > 1.0;
        if degraded {
            self.degraded_rounds = self.degraded_rounds.saturating_add(1);
        }
        if link_retries > 0 {
            self.link_retry_rounds = self.link_retry_rounds.saturating_add(1);
        }
        (stretch, degraded)
    }

    /// Capacity of a `slots`-slot machine on the surviving grid.
    pub(crate) fn effective_slots(&self, slots: usize) -> usize {
        self.health.effective_slots(slots)
    }

    /// How long recovery attempt `retry` waits: exponential in round
    /// time, `2^retry` rounds.
    pub(crate) fn backoff_s(round_s: f64, retry: u32) -> f64 {
        round_s * retry_round_factor(retry)
    }

    /// The completion deadline of submission `attempt`, virtual µs.
    pub(crate) fn deadline_of(&self, attempt: usize) -> Option<u64> {
        self.plan.deadline_of(attempt)
    }

    /// True when the plan sets any deadline.
    pub(crate) fn has_deadlines(&self) -> bool {
        !self.plan.deadlines.is_empty()
    }

    /// The survivor set of the grid.
    #[cfg(test)]
    pub(crate) fn health(&self) -> GridHealth {
        self.health
    }

    /// Chip deaths applied so far.
    pub(crate) fn chip_failures(&self) -> usize {
        CHIPS.saturating_sub(self.health.survivors())
    }

    /// Rounds run degraded, and rounds stretched by link retries.
    pub(crate) fn stretched_rounds(&self) -> (u64, u64) {
        (self.degraded_rounds, self.link_retry_rounds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ChaosSpec {
        ChaosSpec {
            horizon_micros: 2_000_000,
            submissions: 12,
            chip_failures: 2,
            stragglers: 2,
            link_faults: 1,
            deadlines: 3,
            min_deadline_micros: 50_000,
        }
    }

    #[test]
    fn seeded_plans_are_reproducible_and_valid() {
        for seed in 0..32u64 {
            let a = FaultPlan::seeded(seed, &spec());
            let b = FaultPlan::seeded(seed, &spec());
            assert_eq!(a, b, "seed {seed} not reproducible");
            a.validate().expect("seeded plan validates");
            assert_eq!(a.chip_failures.len(), 2);
            assert_eq!(a.deadlines.len(), 3);
        }
    }

    #[test]
    fn seeded_chip_kills_leave_a_survivor() {
        let mut greedy = spec();
        greedy.chip_failures = CHIPS + 5;
        let plan = FaultPlan::seeded(7, &greedy);
        assert_eq!(plan.chip_failures.len(), CHIPS - 1);
        plan.validate().expect("clamped kills validate");
    }

    #[test]
    fn validation_rejects_each_malformation() {
        let kill = |chip| ChipFailure { at_micros: 0, chip };
        let mut plan = FaultPlan::none();
        plan.chip_failures = vec![kill(CHIPS)];
        assert_eq!(
            plan.validate(),
            Err(FaultError::ChipOutOfRange { chip: CHIPS })
        );
        plan.chip_failures = vec![kill(3), kill(3)];
        assert_eq!(
            plan.validate(),
            Err(FaultError::DuplicateChipFailure { chip: 3 })
        );
        plan.chip_failures = (0..CHIPS).map(kill).collect();
        assert_eq!(plan.validate(), Err(FaultError::NoSurvivors));

        let mut plan = FaultPlan::none();
        plan.stragglers = vec![Straggler {
            chip: 0,
            from_micros: 10,
            until_micros: 10,
            slowdown: 2.0,
        }];
        assert_eq!(
            plan.validate(),
            Err(FaultError::EmptyWindow {
                from_micros: 10,
                until_micros: 10,
            })
        );
        plan.stragglers = vec![Straggler {
            chip: 0,
            from_micros: 0,
            until_micros: 10,
            slowdown: 0.5,
        }];
        assert_eq!(plan.validate(), Err(FaultError::SlowdownOutOfRange));

        let mut plan = FaultPlan::none();
        plan.link_faults = vec![LinkFault {
            from_micros: 0,
            until_micros: 10,
            retries: MAX_LINK_RETRIES + 1,
        }];
        assert_eq!(
            plan.validate(),
            Err(FaultError::RetriesOutOfRange {
                retries: MAX_LINK_RETRIES + 1,
            })
        );

        let mut plan = FaultPlan::none();
        plan.deadlines = vec![
            Deadline {
                submission: 4,
                at_micros: 100,
            },
            Deadline {
                submission: 4,
                at_micros: 200,
            },
        ];
        assert_eq!(
            plan.validate(),
            Err(FaultError::DuplicateDeadline { submission: 4 })
        );
    }

    #[test]
    fn slowdown_window_edges_are_half_open() {
        let mut plan = FaultPlan::none();
        plan.stragglers = vec![Straggler {
            chip: 5,
            from_micros: 1_000_000,
            until_micros: 2_000_000,
            slowdown: 4.0,
        }];
        let alive = |_| true;
        assert_eq!(plan.slowdown_at(0.999_999, alive), 1.0);
        assert_eq!(plan.slowdown_at(1.0, alive), 4.0);
        assert_eq!(plan.slowdown_at(1.999_999, alive), 4.0);
        assert_eq!(plan.slowdown_at(2.0, alive), 1.0);
        // A dead straggler cannot pace the grid.
        assert_eq!(plan.slowdown_at(1.5, |chip| chip != 5), 1.0);
    }

    #[test]
    fn link_retries_take_the_max_active_window() {
        let mut plan = FaultPlan::none();
        plan.link_faults = vec![
            LinkFault {
                from_micros: 0,
                until_micros: 3_000_000,
                retries: 1,
            },
            LinkFault {
                from_micros: 1_000_000,
                until_micros: 2_000_000,
                retries: 3,
            },
        ];
        assert_eq!(plan.link_retries_at(0.5), 1);
        assert_eq!(plan.link_retries_at(1.5), 3);
        assert_eq!(plan.link_retries_at(2.5), 1);
        assert_eq!(plan.link_retries_at(3.5), 0);
    }

    #[test]
    fn empty_plan_queries_are_inert() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        plan.validate().expect("empty plan validates");
        assert_eq!(plan.slowdown_at(1.0, |_| true), 1.0);
        assert_eq!(plan.link_retries_at(1.0), 0);
        assert_eq!(plan.deadline_of(0), None);
        let mut policy = FaultPolicy::new(plan).expect("empty plan validates");
        assert_eq!(policy.next_wake(), None);
        assert_eq!(policy.next_due_failure(f64::MAX), None);
        assert_eq!(policy.stretch(1.0), (1.0, false));
        assert_eq!(policy.effective_slots(216), 216);
        assert!(!policy.has_deadlines());
    }

    #[test]
    fn policy_applies_equal_time_deaths_in_plan_order_once() {
        let mut plan = FaultPlan::none();
        plan.chip_failures = vec![
            ChipFailure {
                at_micros: 500,
                chip: 9,
            },
            ChipFailure {
                at_micros: 100,
                chip: 2,
            },
            ChipFailure {
                at_micros: 500,
                chip: 1,
            },
        ];
        let mut policy = FaultPolicy::new(plan).expect("valid plan");
        // The next wake is always the earliest death not yet applied.
        assert_eq!(policy.next_wake(), Some(micros_to_s(100)));
        assert_eq!(policy.next_due_failure(micros_to_s(99)), None);
        assert_eq!(policy.next_due_failure(micros_to_s(499)), Some(2));
        assert_eq!(policy.next_due_failure(micros_to_s(499)), None, "once");
        assert_eq!(policy.next_wake(), Some(micros_to_s(500)));
        // Equal times apply in plan order, each exactly once.
        assert_eq!(policy.next_due_failure(1.0), Some(9));
        assert_eq!(policy.next_due_failure(1.0), Some(1));
        assert_eq!(policy.next_due_failure(1.0), None);
        assert_eq!(policy.next_wake(), None);
        assert_eq!(policy.chip_failures(), 3);
        assert_eq!(policy.effective_slots(216), 216 * 13 / 16);
        assert_eq!(policy.stretch(1.0), (1.0, true), "a degraded grid");
        assert_eq!(policy.stretched_rounds(), (1, 0));
    }
}
