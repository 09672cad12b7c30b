//! Dataflow verification: run the same prompts through the single-device
//! reference transformer and the 16-chip HNLPU dataflow executor, confirm
//! the tokens match, and show the collective-communication schedule the
//! executor actually performed (which the cycle-level simulator prices).
//!
//! Run with: `cargo run --release -p hnlpu --example dataflow_verifier`

use hnlpu::llm::{DataflowExecutor, Sampler, Transformer};
use hnlpu::model::{zoo, ModelWeights, WeightGenerator};

fn main() {
    let card = zoo::dataflow_test_model();
    println!(
        "model: {} (hidden {}, {} layers, {} experts top-{}, {} q / {} kv heads)",
        card.name,
        card.config.hidden_size,
        card.config.num_layers,
        card.config.moe.num_experts,
        card.config.moe.experts_per_token,
        card.config.attention.num_query_heads,
        card.config.attention.num_kv_heads,
    );
    let weights = ModelWeights::materialize(&card.config, &WeightGenerator::new(2026));
    let reference = Transformer::new(weights.clone());
    let hnlpu = DataflowExecutor::new(weights);

    println!("\n--- greedy decoding, reference vs 16-chip dataflow ---");
    let mut all_match = true;
    for prompt in [vec![1u32, 5, 9], vec![100, 2, 64, 33], vec![7]] {
        let a = reference.generate_greedy(&prompt, 16);
        let (b, comm) = hnlpu.generate_with_report(&prompt, 16, &mut Sampler::Greedy);
        let ok = a == b;
        all_match &= ok;
        println!("prompt {prompt:?}");
        println!("  reference: {a:?}");
        println!(
            "  hnlpu:     {b:?}   [{}]",
            if ok { "MATCH" } else { "MISMATCH" }
        );
        println!(
            "  collectives: {} group all-reduces, {} all-chip all-reduces, {} all-gathers, {:.1} KB",
            comm.all_reduces,
            comm.all_chip_all_reduces,
            comm.all_gathers,
            comm.bytes as f64 / 1024.0
        );
    }

    println!("\n--- seeded multinomial sampling (temperature 0.7) ---");
    let mut s1 = Sampler::multinomial(0.7, 42);
    let mut s2 = Sampler::multinomial(0.7, 42);
    let a = reference.generate(&[3, 1, 4], 12, &mut s1);
    let (b, _) = hnlpu.generate_with_report(&[3, 1, 4], 12, &mut s2);
    let ok = a == b;
    all_match &= ok;
    println!("reference: {a:?}");
    println!(
        "hnlpu:     {b:?}   [{}]",
        if ok { "MATCH" } else { "MISMATCH" }
    );

    println!(
        "\nresult: {}",
        if all_match {
            "16-chip dataflow is functionally equivalent to the reference ✔"
        } else {
            "DIVERGENCE DETECTED ✘"
        }
    );
    assert!(all_match, "dataflow diverged from the reference");
}
