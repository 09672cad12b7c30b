//! The "prompting as ISA" loop (Figure 1 / §2.1): the HNLPU receives token
//! ids and emits token ids with no software stack in between. This demo
//! closes the text loop on the 16-chip dataflow executor with a byte-level
//! tokenizer, then uses the same machine for three different "programs" —
//! generation, sequence scoring, and text embedding — without changing a
//! single weight.
//!
//! (Weights are seeded synthetic, so the prose is noise; the point is the
//! token-in/token-out execution model and task generality.)
//!
//! Run with: `cargo run --release -p hnlpu --example prompt_interface`

use hnlpu::llm::{AsciiTokenizer, DataflowExecutor, Sampler};
use hnlpu::model::{zoo, ModelWeights, WeightGenerator};

fn main() {
    let card = zoo::dataflow_test_model();
    let weights = ModelWeights::materialize(&card.config, &WeightGenerator::new(2026));
    let machine = DataflowExecutor::new(weights);
    let tk = AsciiTokenizer::new();

    // --- Program 1: generation (the Figure 1 "Ask Me Anything" loop) ---
    let prompt = "Life, Science, and Art. Ask me anything: ";
    let tokens = tk.encode(prompt);
    let mut sampler = Sampler::top_p(0.9, 0.8, 42);
    let (out, comm) = machine.generate_with_report(&tokens, 48, &mut sampler);
    println!("prompt> {prompt}");
    println!("hnlpu > {}", tk.decode(&out));
    println!(
        "        ({} tokens in, {} out; {} collectives on the 4x4 fabric)\n",
        tokens.len(),
        out.len(),
        comm.all_reduces + comm.all_chip_all_reduces + comm.all_gathers
    );

    // --- Program 2: sequence scoring (no new hardware, new "program") ---
    let a = tk.encode("the cat sat on the mat");
    let b = tk.encode("zqx jvw kpf blrg nnnn!!");
    let score_a = machine.score_sequence(&a);
    let score_b = machine.score_sequence(&b);
    println!("sequence scoring (log-prob):");
    println!("  \"the cat sat on the mat\"  -> {score_a:.2}");
    println!("  \"zqx jvw kpf blrg nnnn!!\" -> {score_b:.2}");
    println!("  (the machine ranks candidate continuations with zero reconfiguration)\n");

    // --- Program 3: text embedding ---
    let e1 = machine.text_embedding(&tk.encode("alpha beta gamma"));
    let e2 = machine.text_embedding(&tk.encode("alpha beta delta"));
    let e3 = machine.text_embedding(&tk.encode("01234 56789 ^^^^"));
    let cos = |x: &[f32], y: &[f32]| {
        let dot: f32 = x.iter().zip(y).map(|(a, b)| a * b).sum();
        let nx: f32 = x.iter().map(|a| a * a).sum::<f32>().sqrt();
        let ny: f32 = y.iter().map(|a| a * a).sum::<f32>().sqrt();
        dot / (nx * ny)
    };
    println!("text embedding (cosine similarity):");
    println!(
        "  sim(\"alpha beta gamma\", \"alpha beta delta\") = {:.4}",
        cos(&e1, &e2)
    );
    println!(
        "  sim(\"alpha beta gamma\", \"01234 56789 ^^^^\") = {:.4}",
        cos(&e1, &e3)
    );
    assert!(
        cos(&e1, &e2) > cos(&e1, &e3),
        "related text should embed closer"
    );
    println!(
        "\nOne hardwired machine, three tasks: the general-purpose cognitive substrate thesis."
    );
}
