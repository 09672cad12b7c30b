//! Integration coverage of the §8 future-work features across crates:
//! sequence scoring / text embedding, conditional decoding, and the
//! packet-level fabric.

use hnlpu::llm::{DataflowExecutor, Sampler, Transformer};
use hnlpu::model::{zoo, ModelWeights, WeightGenerator};
use hnlpu::sim::{pipeline, PacketSim};

#[test]
fn scoring_and_embedding_tasks_work_on_the_16_chip_machine() {
    let card = zoo::dataflow_test_model();
    let w = ModelWeights::materialize(&card.config, &WeightGenerator::new(77));
    let hnlpu = DataflowExecutor::new(w.clone());
    let reference = Transformer::new(w);
    // Scoring: the machine's own greedy continuation scores best.
    let prompt = [3u32, 7];
    let cont = hnlpu.generate_greedy(&prompt, 4);
    let mut seq: Vec<u32> = prompt.to_vec();
    seq.extend_from_slice(&cont);
    let own = hnlpu.score_sequence(&seq);
    let reference_score = reference.score_sequence(&seq);
    assert!((own - reference_score).abs() < 1e-3);
    // Embedding: similar prefixes embed closer than dissimilar ones.
    let e1 = hnlpu.text_embedding(&[1, 2, 3, 4]);
    let e2 = hnlpu.text_embedding(&[1, 2, 3, 5]);
    let e3 = hnlpu.text_embedding(&[90, 80, 70, 60]);
    let dist = |a: &[f32], b: &[f32]| -> f32 {
        a.iter().zip(b).map(|(x, y)| (x - y).powi(2)).sum::<f32>()
    };
    assert!(dist(&e1, &e2) < dist(&e1, &e3));
}

#[test]
fn packet_sim_and_analytical_agree_through_the_facade_config() {
    let system = hnlpu::HnlpuSystem::design(zoo::gpt_oss_120b());
    let cfg = system.engine().config.clone();
    let des = PacketSim::new(cfg.clone(), 2048).steady_state_throughput(400);
    let analytical = pipeline::decode_throughput(&cfg, 2048);
    let ratio = des / analytical;
    assert!((0.8..1.3).contains(&ratio), "ratio = {ratio:.3}");
}

#[test]
fn conditional_decoding_policies_run_on_both_machines() {
    let card = zoo::dataflow_test_model();
    let w = ModelWeights::materialize(&card.config, &WeightGenerator::new(11));
    let reference = Transformer::new(w.clone());
    let hnlpu = DataflowExecutor::new(w);
    let mut s1 = Sampler::top_p(0.9, 0.9, 1234);
    let mut s2 = Sampler::top_p(0.9, 0.9, 1234);
    let a = reference.generate(&[5, 6, 7], 10, &mut s1);
    let (b, _) = hnlpu.generate_with_report(&[5, 6, 7], 10, &mut s2);
    assert_eq!(a, b);
}
