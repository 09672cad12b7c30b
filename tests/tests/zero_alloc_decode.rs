//! Zero-allocation sentinel: the gate that the steady-state forward pass
//! never touches the heap.
//!
//! The `Scratch` arena is the host twin of the paper's fixed on-chip
//! buffers, so after warm-up a decode step, a batched decode round and a
//! prefill panel must run in the buffers they were given. A counting
//! `#[global_allocator]` wraps the system allocator, and each case below
//! measures a window after warm-up that must perform exactly zero heap
//! allocations: the grid's `step_with` loop, on private and on shared
//! pages; a batched `step_batch_with` round with the per-round KV
//! accounting; a wide-panel prefill; the single-chip reference's
//! `step_with` and `hidden_step_with`; and one
//! direct 64-row panel on the portable half-unit arm, which hosts with
//! vector units never dispatch.
//!
//! Run with: `cargo test -p hnlpu-integration --features count-alloc`

#![cfg(feature = "count-alloc")]

use hnlpu::llm::dataflow::DataflowState;
use hnlpu::llm::kernels::matmul_into_on;
use hnlpu::llm::{DataflowExecutor, PrefixCache, PrefixCacheConfig, Transformer};
use hnlpu::model::arm::Arm;
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

    // Size the context-dependent buffers for the whole run up front. The
    // serving layer does not: each admitted sequence gets a fresh state
    // whose KV pages grow on first use as its context does, and each
    // worker's arena grows its attention scores to the longest context it
    // has served. Reserving moves those first-use allocations out of the
    // measured window, so what is left is the steady state.
    let horizon = PROMPT.len() + WARMUP_STEPS + MEASURED_STEPS;
    state.reserve_context(horizon);
    scratch.reserve_context(horizon);

    // Prefill plus warmup decode: first touches of lazily-sized buffers
    // (rope table growth, kernel dispatch init) land here.
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

/// The batched twin: eight sequences at different positions — the four
/// even rows reading their matched prefix through the same shared pages,
/// so their decode rows share lane blocks — advance by one
/// `step_batch_with` per round in one shared arena, each row's logits
/// landing in its own buffer, and the steady-state rounds perform exactly
/// zero heap allocations. Each round also sums the rows' logical and owned
/// KV bytes, the per-round accounting of the serving layer's peak KV
/// figures. The row lists the serving layer builds per round are built
/// once here, outside the measured window; the step itself runs in the
/// worker's arena and allocates nothing.
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

    // Even rows attach the cached prefix; odd rows prefill dense prompts of
    // different lengths, all in the one arena.
    let mut arena = engine.new_scratch();
    arena.reserve_context(horizon);
    let mut states: Vec<DataflowState> = Vec::new();
    let mut logits: Vec<Vec<f32>> = Vec::new();
    for row in 0..ROWS {
        let mut state = engine.new_state();
        let own = if row % 2 == 0 {
            cache.retain_match(&m, &mut grant);
            state.attach_prefix(m.matched, &m.blocks, cache.pool());
            &prompt[m.matched..]
        } else {
            &prompt[..3 + 5 * row]
        };
        state.reserve_context(horizon);
        engine.prefill_with(own, &mut state, &mut arena, true);
        states.push(state);
        logits.push(arena.logits().to_vec());
    }
    let mut tokens: Vec<u32> = logits.iter().map(|l| argmax(l)).collect();
    let mut rows: Vec<&mut DataflowState> = states.iter_mut().collect();
    let mut outs: Vec<&mut [f32]> = logits.iter_mut().map(Vec::as_mut_slice).collect();

    let (mut peak_logical, mut peak_owned) = (0u64, 0u64);
    let mut round = |tokens: &mut [u32]| {
        engine.step_batch_with(tokens, &mut rows, &mut arena, &mut outs);
        for (token, row_logits) in tokens.iter_mut().zip(outs.iter()) {
            *token = argmax(row_logits);
        }
        let logical: u64 = rows.iter().map(|state| state.kv_bytes_fp16()).sum();
        let owned: u64 = rows.iter().map(|state| state.kv_owned_bytes_fp16()).sum();
        peak_logical = peak_logical.max(logical);
        peak_owned = peak_owned.max(owned);
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
    assert!(peak_logical > 0 && peak_owned > 0, "every row holds KV");

    cache.release_grant(&mut grant);
    cache.release_grant(&mut donor_grant);
    cache.flush();
    assert!(cache.ledger_balanced(), "every page freed exactly once");
}

/// The prefill twin: after a warm-up prefill, a second 128-token
/// `prefill_chunked` in 64-row panels — every row of a panel attending its
/// own causal prefix of the same shards, the last row unembedded —
/// performs exactly zero heap allocations, given a state and scratch
/// sized for the whole context up front.
#[test]
fn prefill_panel_performs_zero_allocations() {
    const PROMPT_LEN: usize = 128;
    const PANEL: usize = 64;

    let prompt: Vec<u32> = (0..PROMPT_LEN as u32).map(|i| (i * 7 + 3) % 96).collect();
    let card = zoo::dataflow_test_model();
    let weights = ModelWeights::materialize(&card.config, &WeightGenerator::new(42));
    let engine = DataflowExecutor::new(weights);
    let mut state = engine.new_state();
    let mut scratch = engine.new_scratch();
    let horizon = 2 * PROMPT_LEN;
    state.reserve_context(horizon);
    scratch.reserve_context(horizon);

    engine.prefill_chunked(&prompt, &mut state, &mut scratch, PANEL, true);
    let before = allocations();
    let stats = engine.prefill_chunked(&prompt, &mut state, &mut scratch, PANEL, true);
    let after = allocations();

    assert_eq!((stats.panels, stats.max_panel), (2, PANEL));
    assert_eq!(state.position(), horizon);
    assert_eq!(
        after - before,
        0,
        "a {PROMPT_LEN}-token prefill in {PANEL}-row panels allocated {} times",
        after - before
    );
}

/// The single-chip reference: after warm-up, `step_with` (logits) and `hidden_step_with`
/// (the final normalized hidden state, read back from `scratch.hidden()`)
/// alternate through the same `KvCache` and arena with exactly zero heap
/// allocations.
#[test]
fn reference_decode_and_hidden_step_perform_zero_allocations() {
    const PROMPT: &[u32] = &[3, 9, 27, 81];
    const WARMUP_STEPS: usize = 4;
    const MEASURED_STEPS: usize = 16;

    let card = zoo::dataflow_test_model();
    let weights = ModelWeights::materialize(&card.config, &WeightGenerator::new(42));
    let engine = Transformer::new(weights);
    let mut cache = engine.new_cache();
    let mut scratch = engine.new_scratch();
    let horizon = PROMPT.len() + WARMUP_STEPS + 2 * MEASURED_STEPS;
    cache.reserve(horizon);
    scratch.reserve_context(horizon);

    let mut token = *PROMPT.last().expect("non-empty prompt");
    for &t in PROMPT {
        engine.step_with(t, &mut cache, &mut scratch);
    }
    let mut pooled = 0.0f32;
    let mut decode = |token: &mut u32| {
        engine.step_with(*token, &mut cache, &mut scratch);
        *token = argmax(scratch.logits());
        engine.hidden_step_with(*token, &mut cache, &mut scratch);
        pooled += scratch.hidden().iter().sum::<f32>();
    };
    decode(&mut token);
    decode(&mut token);

    let before = allocations();
    for _ in 0..MEASURED_STEPS {
        decode(&mut token);
    }
    let after = allocations();

    assert!(pooled.is_finite());
    assert_eq!(
        after - before,
        0,
        "reference decode allocated {} times over {MEASURED_STEPS} step + hidden-step pairs",
        after - before
    );
}

/// The portable half-unit arm, called directly: one 64-row panel through
/// `matmul_into_on(Arm::Portable, ..)`, the arm the dispatcher takes only
/// on hosts without AVX2, so the engine cases above never reach it there.
#[test]
fn portable_half_unit_panel_performs_zero_allocations() {
    const PANEL: usize = 64;

    let card = zoo::dataflow_test_model();
    let weights = ModelWeights::materialize(&card.config, &WeightGenerator::new(42));
    let wq = &weights.layers[0].wq;
    let (rows, cols) = (wq.rows(), wq.cols());
    let xs: Vec<f32> = (0..PANEL * rows).map(|i| (i % 13) as f32 - 6.0).collect();
    let mut outs = vec![0.0f32; PANEL * cols];

    let before = allocations();
    matmul_into_on(Arm::Portable, &xs, rows, PANEL, wq, &mut outs, cols);
    let after = allocations();

    assert!(outs.iter().any(|&v| v != 0.0));
    assert_eq!(
        after - before,
        0,
        "a {PANEL}-row portable half-unit panel allocated {} times",
        after - before
    );
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
