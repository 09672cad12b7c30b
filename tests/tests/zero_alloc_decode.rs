//! Zero-allocation decode sentinel: the dynamic twin of the static
//! `hot-path-alloc` rule in `hnlpu-analyze`.
//!
//! The static analyzer proves no *allocation call* is reachable from the
//! decode hot path; this test proves the *allocator* agrees. A counting
//! `#[global_allocator]` wraps the system allocator, and after a warmup
//! generation the steady-state `step_with` loop — and the batched
//! `step_batch_with` step over several sequences — must perform exactly
//! zero heap allocations.
//!
//! Run with: `cargo test -p hnlpu-integration --features count-alloc`

#![cfg(feature = "count-alloc")]

use hnlpu::llm::dataflow::DataflowState;
use hnlpu::llm::{DataflowExecutor, PrefixCache, PrefixCacheConfig, Scratch};
use hnlpu::model::{zoo, ModelWeights, WeightGenerator};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// System allocator counting allocations per thread: the tests of this
/// file run on parallel threads, and each must see only its own.
struct CountingAlloc;

thread_local! {
    // Const-initialized and without a destructor, so the allocator may
    // touch it at any point of a thread's life.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Allocations the calling thread has made so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: forwarded verbatim to the system allocator.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim to the system allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: forwarded verbatim to the system allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_decode_performs_zero_allocations() {
    const PROMPT: &[u32] = &[2, 4, 8, 16];
    const WARMUP_STEPS: usize = 4;
    const MEASURED_STEPS: usize = 16;

    let card = zoo::dataflow_test_model();
    let weights = ModelWeights::materialize(&card.config, &WeightGenerator::new(42));
    let engine = DataflowExecutor::new(weights);
    let mut state = engine.new_state();
    let mut scratch = engine.new_scratch();

    // Size the context-dependent buffers for the whole run up front —
    // the serving layer does the same per admitted sequence.
    let horizon = PROMPT.len() + WARMUP_STEPS + MEASURED_STEPS;
    state.reserve_context(horizon);
    scratch.reserve_context(horizon);

    // Prefill plus warmup decode: first touches of lazily-sized buffers
    // (rope table growth, lora scratch, kernel dispatch init) land here.
    let mut token = *PROMPT.last().expect("non-empty prompt");
    for &t in PROMPT {
        engine.step_with(t, &mut state, &mut scratch);
    }
    for _ in 0..WARMUP_STEPS {
        engine.step_with(token, &mut state, &mut scratch);
        token = argmax(scratch.logits());
    }

    let before = allocations();
    assert!(
        before > 0,
        "counter miswired: model construction must have allocated"
    );
    for _ in 0..MEASURED_STEPS {
        engine.step_with(token, &mut state, &mut scratch);
        token = argmax(scratch.logits());
    }
    let after = allocations();

    assert_eq!(
        after - before,
        0,
        "steady-state decode allocated {} times over {MEASURED_STEPS} steps",
        after - before
    );
}

/// The paged twin of the sentinel above: a sequence that *hit* the
/// prefix cache decodes through shared, refcounted pages (indirect page
/// lookup in `key`/`value`) — and the steady-state loop still performs
/// exactly zero heap allocations. Attach-time work (boundary-block
/// copy-on-write, page table growth) happens before the measured window,
/// exactly as it does at admission in the serving layer.
#[test]
fn prefix_hit_decode_through_shared_pages_performs_zero_allocations() {
    const WARMUP_STEPS: usize = 4;
    const MEASURED_STEPS: usize = 16;

    // Three full 16-token blocks; the cache caps the match at 47 so the
    // final token is prefilled by the reader itself.
    let prompt: Vec<u32> = (0..48u32).map(|i| (i * 11 + 5) % 96).collect();

    let card = zoo::dataflow_test_model();
    let weights = ModelWeights::materialize(&card.config, &WeightGenerator::new(42));
    let engine = DataflowExecutor::new(weights);

    let (mut cache, mut donor_grant) = committed_prompt(&engine, &prompt);

    // Reader sequence: attach the cached prefix and decode through it.
    let m = cache.match_prompt(&prompt);
    assert_eq!(m.matched, prompt.len() - 1, "full-block prefix hit");
    let mut grant = Vec::new();
    cache.retain_match(&m, &mut grant);

    let mut state = engine.new_state();
    let mut scratch = engine.new_scratch();
    state.attach_prefix(m.matched, &m.blocks, cache.pool());
    let horizon = prompt.len() + WARMUP_STEPS + MEASURED_STEPS;
    state.reserve_context(horizon);
    scratch.reserve_context(horizon);

    // Prefill the unmatched final token, then warm up the decode loop.
    let mut token = *prompt.last().expect("non-empty prompt");
    engine.step_with(token, &mut state, &mut scratch);
    for _ in 0..WARMUP_STEPS {
        engine.step_with(token, &mut state, &mut scratch);
        token = argmax(scratch.logits());
    }

    let before = allocations();
    for _ in 0..MEASURED_STEPS {
        engine.step_with(token, &mut state, &mut scratch);
        token = argmax(scratch.logits());
    }
    let after = allocations();

    assert_eq!(
        after - before,
        0,
        "shared-page decode allocated {} times over {MEASURED_STEPS} steps",
        after - before
    );

    // The grant ledger still balances after the measured run.
    cache.release_grant(&mut grant);
    cache.release_grant(&mut donor_grant);
    cache.flush();
    assert!(cache.ledger_balanced(), "every page freed exactly once");
}

/// The batched twin: eight sequences at different positions — row 0
/// reading its matched prefix through shared pages — advance by one
/// `step_batch_with` per round, and the steady-state rounds perform
/// exactly zero heap allocations. The row lists the serving layer builds
/// per round are built once here, outside the measured window; the step
/// itself borrows the first row's panel buffers and allocates nothing.
#[test]
fn steady_state_batched_decode_performs_zero_allocations() {
    const ROWS: usize = 8;
    const WARMUP_STEPS: usize = 4;
    const MEASURED_STEPS: usize = 16;

    let prompt: Vec<u32> = (0..48u32).map(|i| (i * 11 + 5) % 96).collect();
    let horizon = prompt.len() + WARMUP_STEPS + MEASURED_STEPS;

    let card = zoo::dataflow_test_model();
    let weights = ModelWeights::materialize(&card.config, &WeightGenerator::new(42));
    let engine = DataflowExecutor::new(weights);

    let (mut cache, mut donor_grant) = committed_prompt(&engine, &prompt);
    let m = cache.match_prompt(&prompt);
    assert_eq!(m.matched, prompt.len() - 1, "full-block prefix hit");
    let mut grant = Vec::new();
    cache.retain_match(&m, &mut grant);

    // Row 0 attaches the cached prefix; rows 1.. prefill dense prompts of
    // different lengths.
    let mut states: Vec<DataflowState> = Vec::new();
    let mut scratches: Vec<Scratch> = Vec::new();
    for row in 0..ROWS {
        let mut state = engine.new_state();
        let mut scratch = engine.new_scratch();
        let own = if row == 0 {
            state.attach_prefix(m.matched, &m.blocks, cache.pool());
            &prompt[m.matched..]
        } else {
            &prompt[..3 + 5 * row]
        };
        state.reserve_context(horizon);
        scratch.reserve_context(horizon);
        engine.prefill_with(own, &mut state, &mut scratch, true);
        states.push(state);
        scratches.push(scratch);
    }
    let mut tokens: Vec<u32> = scratches.iter().map(|s| argmax(s.logits())).collect();
    let mut rows: Vec<&mut DataflowState> = states.iter_mut().collect();
    let mut arenas: Vec<&mut Scratch> = scratches.iter_mut().collect();

    let mut round = |tokens: &mut [u32]| {
        engine.step_batch_with(tokens, &mut rows, &mut arenas);
        for (token, arena) in tokens.iter_mut().zip(arenas.iter()) {
            *token = argmax(arena.logits());
        }
    };
    for _ in 0..WARMUP_STEPS {
        round(&mut tokens);
    }
    let before = allocations();
    for _ in 0..MEASURED_STEPS {
        round(&mut tokens);
    }
    let after = allocations();

    assert_eq!(
        after - before,
        0,
        "batched decode allocated {} times over {MEASURED_STEPS} rounds of {ROWS} rows",
        after - before
    );

    cache.release_grant(&mut grant);
    cache.release_grant(&mut donor_grant);
    cache.flush();
    assert!(cache.ledger_balanced(), "every page freed exactly once");
}

/// A prefix cache holding `prompt`'s full blocks: a donor sequence
/// prefills the whole prompt, then commits it (freezing its blocks into
/// shared pages). Returns the cache and the donor's page grant.
fn committed_prompt(engine: &DataflowExecutor, prompt: &[u32]) -> (PrefixCache, Vec<u32>) {
    let mut cache = PrefixCache::new(PrefixCacheConfig::default());
    let mut grant = Vec::new();
    let mut donor = engine.new_state();
    let mut scratch = engine.new_scratch();
    engine.prefill_with(prompt, &mut donor, &mut scratch, false);
    cache.commit(prompt, |b| donor.share_block(b), &mut grant);
    (cache, grant)
}

/// Greedy next token without allocating.
fn argmax(logits: &[f32]) -> u32 {
    let mut best = 0usize;
    for (i, &v) in logits.iter().enumerate() {
        if v > logits[best] {
            best = i;
        }
    }
    best as u32
}
