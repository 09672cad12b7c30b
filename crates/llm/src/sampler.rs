//! Logit sampling (the VEX's multinomial sampling unit, §4.3).

use crate::ops::softmax;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A sampling strategy (the VEX sampling unit is programmable — §8's
/// "conditional decoding" future work — so all of these are hardware-
/// realizable policies).
#[derive(Debug, Clone)]
pub enum Sampler {
    /// Argmax (deterministic).
    Greedy,
    /// Seeded multinomial with temperature.
    Multinomial {
        /// Softmax temperature (> 0).
        temperature: f32,
        /// Deterministic RNG state.
        rng: StdRng,
    },
    /// Nucleus sampling: the smallest candidate set with cumulative
    /// probability >= `p`.
    TopP {
        /// Cumulative-probability threshold in (0, 1].
        p: f32,
        /// Softmax temperature (> 0).
        temperature: f32,
        /// Deterministic RNG state.
        rng: StdRng,
    },
}

impl Sampler {
    /// A seeded multinomial sampler.
    ///
    /// # Panics
    ///
    /// Panics if `temperature <= 0`.
    pub fn multinomial(temperature: f32, seed: u64) -> Self {
        assert!(temperature > 0.0, "temperature must be positive");
        Sampler::Multinomial {
            temperature,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// A seeded nucleus (top-p) sampler.
    ///
    /// # Panics
    ///
    /// Panics if `temperature <= 0` or `p` is outside `(0, 1]`.
    pub fn top_p(p: f32, temperature: f32, seed: u64) -> Self {
        assert!(temperature > 0.0, "temperature must be positive");
        assert!(p > 0.0 && p <= 1.0, "p must be in (0, 1]");
        Sampler::TopP {
            p,
            temperature,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Pick a token id from `logits`.
    ///
    /// # Panics
    ///
    /// Panics if `logits` is empty.
    pub fn sample(&mut self, logits: &[f32]) -> u32 {
        assert!(!logits.is_empty(), "cannot sample from empty logits");
        match self {
            Sampler::Greedy => argmax(logits),
            Sampler::Multinomial { temperature, rng } => {
                let scaled: Vec<f32> = logits.iter().map(|&l| l / *temperature).collect();
                let probs = softmax(&scaled);
                draw(&probs, rng) as u32
            }
            Sampler::TopP {
                p,
                temperature,
                rng,
            } => {
                let scaled: Vec<f32> = logits.iter().map(|&l| l / *temperature).collect();
                let order = crate::ops::topk(&scaled, scaled.len());
                let probs = softmax(&scaled);
                // Smallest prefix of the sorted order with cumulative
                // probability >= p.
                let mut cum = 0.0f32;
                let mut cut = order.len();
                for (n, &i) in order.iter().enumerate() {
                    cum += probs[i];
                    if cum >= *p {
                        cut = n + 1;
                        break;
                    }
                }
                let candidates = &order[..cut];
                let cand_probs: Vec<f32> = {
                    let total: f32 = candidates.iter().map(|&i| probs[i]).sum();
                    candidates.iter().map(|&i| probs[i] / total).collect()
                };
                candidates[draw(&cand_probs, rng)] as u32
            }
        }
    }
}

/// Draw a position of `probs`, a distribution over its positions.
fn draw(probs: &[f32], rng: &mut StdRng) -> usize {
    let mut u: f32 = rng.gen_range(0.0..1.0);
    for (i, &p) in probs.iter().enumerate() {
        if u < p {
            return i;
        }
        u -= p;
    }
    probs.len().saturating_sub(1)
}

/// Deterministic argmax (lowest index wins ties).
pub fn argmax(logits: &[f32]) -> u32 {
    let mut best = 0usize;
    for (i, &v) in logits.iter().enumerate() {
        if v > logits[best] {
            best = i;
        }
    }
    best as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn greedy_picks_max() {
        assert_eq!(Sampler::Greedy.sample(&[0.1, 2.0, 1.0]), 1);
    }

    #[test]
    fn greedy_tie_breaks_low() {
        assert_eq!(Sampler::Greedy.sample(&[5.0, 5.0]), 0);
    }

    #[test]
    fn multinomial_is_deterministic_per_seed() {
        let logits = vec![0.0f32; 64];
        let mut a = Sampler::multinomial(1.0, 9);
        let mut b = Sampler::multinomial(1.0, 9);
        for _ in 0..10 {
            assert_eq!(a.sample(&logits), b.sample(&logits));
        }
    }

    #[test]
    fn low_temperature_approaches_greedy() {
        let logits = [0.0, 3.0, 1.0];
        let mut s = Sampler::multinomial(0.01, 3);
        for _ in 0..20 {
            assert_eq!(s.sample(&logits), 1);
        }
    }

    #[test]
    fn top_p_tiny_threshold_is_greedy() {
        let logits = [0.0f32, 3.0, 1.0];
        let mut s = Sampler::top_p(0.01, 1.0, 5);
        for _ in 0..20 {
            assert_eq!(s.sample(&logits), 1);
        }
    }

    #[test]
    fn top_p_one_covers_support() {
        let logits = [1.0f32, 1.0, 1.0];
        let mut s = Sampler::top_p(1.0, 1.0, 17);
        let mut seen = [false; 3];
        for _ in 0..300 {
            seen[s.sample(&logits) as usize] = true;
        }
        assert!(seen.iter().all(|&b| b), "{seen:?}");
    }

    #[test]
    fn top_p_excludes_tail() {
        // Token 0 has ~88% probability; p=0.5 keeps only it.
        let logits = [3.0f32, 1.0, 0.0];
        let mut s = Sampler::top_p(0.5, 1.0, 23);
        for _ in 0..100 {
            assert_eq!(s.sample(&logits), 0);
        }
    }

    #[test]
    fn multinomial_covers_support() {
        let logits = [1.0f32, 1.0];
        let mut s = Sampler::multinomial(1.0, 5);
        let mut seen = [false; 2];
        for _ in 0..100 {
            seen[s.sample(&logits) as usize] = true;
        }
        assert!(seen[0] && seen[1]);
    }
}
