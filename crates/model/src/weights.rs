//! Deterministic, seeded synthetic weight generation.
//!
//! The paper hardwires the released gpt-oss 120 B checkpoint. Published
//! results depend on tensor *shapes* and on the *distribution* of FP4 codes
//! (which sets POPCNT region sizing slack), not on the trained values, so a
//! seeded synthetic checkpoint preserves every behaviour under study while
//! remaining reproducible byte-for-byte across runs and hosts.
//!
//! Generation is lazy and per-matrix: a full 120 B-parameter model does not
//! fit in memory, and none of the analyses need it materialized at once.
//! Each matrix is one seeded stream of standard normals, drawn 32 at a
//! time by `Normals::block` — both Box–Muller outputs of every uniform
//! pair, with `ln`, `sin` and `cos` from [`crate::math`] — then stretched
//! and quantized to E2M1. The code, histogram and packed
//! APIs all read that one stream, so packing never holds a matrix of
//! codes; the embedding table is the same stream unquantized.
//!
//! Every reader runs the stream through one block loop, compiled once per
//! lane arm (AVX-512, AVX2 and portable) by [`crate::arm::per_arm!`] and
//! entered once per matrix on the arm of [`crate::arm::arm`], the selector
//! `hnlpu-llm`'s kernels take too. The arm sets how many of a block's 16
//! pairs advance together; each is an IEEE basic operation with nothing
//! fused or reassociated, so every arm writes the same bytes.
//!
//! [`ModelWeights::materialize`] fans out: the matrices are dealt across
//! the host's cores, each written into its own preallocated buffer from its
//! own stream, so the bytes do not depend on the worker count or on the
//! order the workers take the matrices in.

use crate::arm::{arm, Arm};
use crate::config::{TransformerConfig, WeightKind, WeightMatrix};
use crate::fp4::{Fp4, NUM_CODES};
use crate::math::{ln, sin_cos_turn};
use crate::packed::PackedFp4Matrix;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::num::NonZeroUsize;
use std::sync::{Mutex, PoisonError};

/// Stretch of the N(0, 1) draws over the FP4 lattice before quantizing.
const STRETCH: f32 = 1.8;

/// Uniform pairs per block of normals: a block is `2 × PAIRS` normals,
/// `PAIRS` packed code bytes.
const PAIRS: usize = 16;

/// 2⁻²⁴, the step of the 24-bit uniforms.
const STEP: f32 = 1.0 / 16_777_216.0;

/// One seeded stream of standard normals, drawn a block at a time. Pair
/// `i` of a block is stream positions `2i` (the cosine output) and `2i + 1`
/// (the sine output).
struct Normals(StdRng);

impl Normals {
    /// The next `2 × PAIRS` standard normals, by Box–Muller, as the
    /// cosine and the sine outputs of `PAIRS` pairs. Each generator word is
    /// split into two 24-bit uniforms, `u1 = (a + 1) · 2⁻²⁴ ∈ (0, 1]` and
    /// the angle `b · 2⁻²⁴` of a turn, and both `√(−2 ln u1) · cos` and
    /// `√(−2 ln u1) · sin` are kept. The lanes are fixed-size arrays and
    /// every operation is an IEEE basic one, so the compiler vectorises
    /// the loop at the width of the arm it is inlined into (see
    /// `each_block_on`) and each lane holds the scalar sequence's bits.
    #[inline(always)]
    fn block(&mut self) -> ([f32; PAIRS], [f32; PAIRS]) {
        let mut a = [0u32; PAIRS];
        let mut b = [0u32; PAIRS];
        for (a, b) in a.iter_mut().zip(&mut b) {
            let w = self.0.next_u64();
            *a = (w >> 40) as u32;
            *b = (w >> 16) as u32 & 0x00FF_FFFF;
        }
        let mut cos = [0.0; PAIRS];
        let mut sin = [0.0; PAIRS];
        for (((&a, &b), c), s) in a.iter().zip(&b).zip(&mut cos).zip(&mut sin) {
            let radius = (-2.0 * ln((a + 1) as f32 * STEP)).sqrt();
            let (sin_b, cos_b) = sin_cos_turn(b);
            *c = radius * cos_b;
            *s = radius * sin_b;
        }
        (cos, sin)
    }

    /// The next block stretched over the FP4 lattice, quantized and packed
    /// as a matrix row packs its codes: pair `i`'s cosine code in the low
    /// nibble of byte `i`, its sine code in the high nibble.
    #[inline(always)]
    fn packed_codes(&mut self) -> [u8; PAIRS] {
        let (cos, sin) = self.block();
        let mut bytes = [0u8; PAIRS];
        for ((byte, c), s) in bytes.iter_mut().zip(cos).zip(sin) {
            *byte = Fp4::from_f32(c * STRETCH).code() | Fp4::from_f32(s * STRETCH).code() << 4;
        }
        bytes
    }
}

/// One block of a stream as a reader takes it.
trait Draw {
    /// The next block of `normals`.
    fn draw(normals: &mut Normals) -> Self;
}

/// Quantized and packed: [`Normals::packed_codes`].
impl Draw for [u8; PAIRS] {
    #[inline(always)]
    fn draw(normals: &mut Normals) -> Self {
        normals.packed_codes()
    }
}

/// The cosine and the sine outputs: [`Normals::block`].
impl Draw for ([f32; PAIRS], [f32; PAIRS]) {
    #[inline(always)]
    fn draw(normals: &mut Normals) -> Self {
        normals.block()
    }
}

crate::arm::per_arm! {
    /// Hand one block of `normals` to `sink` per target, in order, with
    /// [`Draw::draw`] inlined into a loop compiled at the width of `arm`.
    fn each_block_on[T, B: Draw](
        normals: &mut Normals,
        targets: impl Iterator<Item = T>,
        sink: impl FnMut(T, B),
    ) {
        let mut sink = sink;
        for target in targets {
            sink(target, B::draw(normals));
        }
    }
}

/// Deterministic weight generator.
///
/// The same `(seed, layer, kind)` triple always yields the same matrix.
///
/// # Example
///
/// ```
/// use hnlpu_model::{WeightGenerator, WeightKind, WeightMatrix};
/// let g = WeightGenerator::new(42);
/// let m = WeightMatrix::new(WeightKind::Query, 64, 32);
/// let a = g.matrix(0, &m);
/// let b = g.matrix(0, &m);
/// assert_eq!(a, b); // fully deterministic
/// assert_eq!(a.len(), 64 * 32);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WeightGenerator {
    seed: u64,
}

impl WeightGenerator {
    /// Create a generator rooted at `seed`.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// The normal stream of one matrix.
    fn normals(&self, layer: usize, kind: WeightKind) -> Normals {
        // Mix (seed, layer, kind-tag, expert) into a per-matrix stream.
        let (tag, expert) = match kind {
            WeightKind::Query => (1u64, 0u64),
            WeightKind::Key => (2, 0),
            WeightKind::Value => (3, 0),
            WeightKind::Output => (4, 0),
            WeightKind::Router => (5, 0),
            WeightKind::ExpertUp { expert } => (6, expert as u64),
            WeightKind::ExpertGate { expert } => (7, expert as u64),
            WeightKind::ExpertDown { expert } => (8, expert as u64),
        };
        let mut s = self.seed;
        for v in [layer as u64, tag, expert] {
            // SplitMix64-style mixing.
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15 ^ v.wrapping_mul(0xBF58_476D_1CE4_E5B9));
            s ^= s >> 30;
            s = s.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            s ^= s >> 27;
            s = s.wrapping_mul(0x94D0_49BB_1331_11EB);
            s ^= s >> 31;
        }
        Normals(StdRng::seed_from_u64(s))
    }

    /// Hand the first `len` codes of the one code stream of a matrix to
    /// `f`: its normals, stretched over the FP4 lattice and quantized,
    /// row-major, read from the packed blocks on `arm`. Every
    /// per-matrix API reads it.
    fn each_code(
        &self,
        layer: usize,
        kind: WeightKind,
        len: usize,
        arm: Arm,
        mut f: impl FnMut(Fp4),
    ) {
        let mut left = len;
        let blocks = 0..len.div_ceil(2 * PAIRS);
        each_block_on(
            arm,
            &mut self.normals(layer, kind),
            blocks,
            |_, bytes: [u8; PAIRS]| {
                let codes = bytes.iter().flat_map(|byte| [byte & 0x0F, byte >> 4]);
                for code in codes.take(left) {
                    f(Fp4::from_code(code));
                }
                left = left.saturating_sub(2 * PAIRS);
            },
        );
    }

    /// Generate the FP4 codes of one matrix (row-major).
    pub fn matrix(&self, layer: usize, m: &WeightMatrix) -> Vec<Fp4> {
        let mut codes = Vec::with_capacity(m.len());
        self.each_code(layer, m.kind, m.len(), arm(), |c| codes.push(c));
        codes
    }

    /// Write the code stream of `(layer, kind)` into `packed` on `arm`;
    /// the matrix's shape sets how many codes are drawn. With an even width
    /// every row is whole bytes, so the packed blocks are copied straight
    /// into the matrix; an odd width pads each row's last byte with a zero
    /// nibble, and the codes go in one at a time.
    fn pack(&self, layer: usize, kind: WeightKind, packed: &mut PackedFp4Matrix, arm: Arm) {
        let cols = packed.cols();
        if cols.is_multiple_of(2) {
            each_block_on(
                arm,
                &mut self.normals(layer, kind),
                packed.data_mut().chunks_mut(PAIRS),
                |chunk: &mut [u8], bytes: [u8; PAIRS]| {
                    chunk.copy_from_slice(&bytes[..chunk.len()]);
                },
            );
        } else {
            let len = packed.rows() * cols;
            let data = packed.data_mut();
            data.fill(0);
            let mut k = 0;
            self.each_code(layer, kind, len, arm, |code| {
                // Code `k` follows the pad nibbles of the `k / cols` rows
                // before its own.
                let nibble = k + k / cols;
                data[nibble / 2] |= code.code() << (nibble % 2 * 4);
                k += 1;
            });
        }
    }

    /// The dequantization scale of a matrix with `rows` rows:
    /// `1/sqrt(rows)` over the 1.8 generator stretch.
    fn norm_for(rows: usize) -> f32 {
        1.0 / (rows as f32).sqrt() / STRETCH
    }

    /// Histogram of the 16 FP4 codes in one matrix, without retaining the
    /// matrix. Drives POPCNT-region slack sizing in the ME compiler.
    pub fn code_histogram(&self, layer: usize, m: &WeightMatrix) -> [u64; NUM_CODES] {
        self.histogram(layer, m, arm())
    }

    /// [`WeightGenerator::code_histogram`] on `arm`.
    fn histogram(&self, layer: usize, m: &WeightMatrix, arm: Arm) -> [u64; NUM_CODES] {
        let mut hist = [0u64; NUM_CODES];
        self.each_code(layer, m.kind, m.len(), arm, |c| {
            hist[c.code() as usize] += 1;
        });
        hist
    }

    /// Write the embedding table of `cfg` into `table` (`vocab × hidden`)
    /// on `arm`.
    fn fill_embedding(&self, cfg: &TransformerConfig, table: &mut [f32], arm: Arm) {
        let norm = 1.0 / (cfg.hidden_size as f32).sqrt();
        each_block_on(
            arm,
            &mut self.normals(usize::MAX, WeightKind::Router),
            table.chunks_mut(2 * PAIRS),
            |chunk: &mut [f32], (cos, sin): ([f32; PAIRS], [f32; PAIRS])| {
                let pairs = cos.iter().zip(&sin).flat_map(|(&c, &s)| [c, s]);
                for (v, z) in chunk.iter_mut().zip(pairs) {
                    *v = z * norm;
                }
            },
        );
    }
}

/// All weights of one transformer layer, resident in the nibble-packed FP4
/// format the region-accumulation kernels consume. Nothing is dequantized
/// at materialization: a decode step touches only the bytes of the tensors
/// it uses (top-4 routing reads 4 of `num_experts` expert blocks).
#[derive(Debug, Clone)]
pub struct LayerWeights {
    /// `Wq` (`hidden × q_width`), row-major packed.
    pub wq: PackedFp4Matrix,
    /// `Wk` (`hidden × kv_width`).
    pub wk: PackedFp4Matrix,
    /// `Wv` (`hidden × kv_width`).
    pub wv: PackedFp4Matrix,
    /// `Wo` (`q_width × hidden`).
    pub wo: PackedFp4Matrix,
    /// Router (`hidden × num_experts`).
    pub router: PackedFp4Matrix,
    /// Per-expert up projections (`hidden × intermediate`).
    pub up: Vec<PackedFp4Matrix>,
    /// Per-expert gate projections (`hidden × intermediate`).
    pub gate: Vec<PackedFp4Matrix>,
    /// Per-expert down projections (`intermediate × hidden`).
    pub down: Vec<PackedFp4Matrix>,
}

impl LayerWeights {
    /// One layer of `cfg` with every tensor allocated, every code zero and
    /// every norm set.
    fn zeroed(cfg: &TransformerConfig) -> Self {
        let h = cfg.hidden_size;
        let q = cfg.attention.q_width();
        let kv = cfg.attention.kv_width();
        let i = cfg.moe.intermediate_size;
        let e = cfg.moe.num_experts;
        let blank =
            |rows, cols| PackedFp4Matrix::zeroed(rows, cols, WeightGenerator::norm_for(rows));
        let experts = |rows, cols| (0..e).map(|_| blank(rows, cols)).collect();
        LayerWeights {
            wq: blank(h, q),
            wk: blank(h, kv),
            wv: blank(h, kv),
            wo: blank(q, h),
            router: blank(h, e),
            up: experts(h, i),
            gate: experts(h, i),
            down: experts(i, h),
        }
    }

    /// Every tensor of the layer with the kind whose code stream fills it.
    fn tensors_mut(&mut self) -> impl Iterator<Item = (WeightKind, &mut PackedFp4Matrix)> {
        fn experts(
            kind: fn(usize) -> WeightKind,
            tensors: &mut [PackedFp4Matrix],
        ) -> impl Iterator<Item = (WeightKind, &mut PackedFp4Matrix)> {
            tensors
                .iter_mut()
                .enumerate()
                .map(move |(x, m)| (kind(x), m))
        }
        [
            (WeightKind::Query, &mut self.wq),
            (WeightKind::Key, &mut self.wk),
            (WeightKind::Value, &mut self.wv),
            (WeightKind::Output, &mut self.wo),
            (WeightKind::Router, &mut self.router),
        ]
        .into_iter()
        .chain(experts(
            |expert| WeightKind::ExpertUp { expert },
            &mut self.up,
        ))
        .chain(experts(
            |expert| WeightKind::ExpertGate { expert },
            &mut self.gate,
        ))
        .chain(experts(
            |expert| WeightKind::ExpertDown { expert },
            &mut self.down,
        ))
    }

    /// Resident bytes of this layer's packed tensors.
    pub(crate) fn resident_bytes(&self) -> u64 {
        let experts: u64 = self
            .up
            .iter()
            .chain(&self.gate)
            .chain(&self.down)
            .map(|m| m.bytes() as u64)
            .sum();
        [&self.wq, &self.wk, &self.wv, &self.wo, &self.router]
            .iter()
            .map(|m| m.bytes() as u64)
            .sum::<u64>()
            + experts
    }
}

/// A fully materialized (necessarily small) model for functional tests.
#[derive(Debug, Clone)]
pub struct ModelWeights {
    /// The architecture these weights belong to.
    pub config: TransformerConfig,
    /// Token embedding table (`vocab × hidden`); also used (transposed) as
    /// the unembedding, as in weight-tied small models.
    pub embedding: Vec<f32>,
    /// Per-layer weights.
    pub layers: Vec<LayerWeights>,
}

impl ModelWeights {
    /// Materialize every weight of `cfg` from `gen`, on every core the host
    /// offers (see `materialize_on`), with the sampler at the lane width of
    /// [`crate::arm::arm`]: AVX-512 or AVX2 where the CPU has it. The
    /// bytes are the same at every width and worker count.
    ///
    /// # Panics
    ///
    /// Panics if the model is unreasonably large to materialize
    /// (> 200 M parameters) — use the lazy [`WeightGenerator`] APIs instead.
    pub fn materialize(cfg: &TransformerConfig, gen: &WeightGenerator) -> Self {
        let workers = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        Self::materialize_on(cfg, gen, workers, arm())
    }

    /// Materialize on `workers` threads with the sampler on `arm`, each
    /// matrix one entry into its block loop: the calling thread allocates
    /// every packed tensor and the embedding, then spawns `workers − 1`
    /// scoped workers that take matrices from one shared queue; it fills
    /// the embedding itself and then joins the queue. Each matrix is its own
    /// seeded code stream written into its own buffer, so the bytes do not
    /// depend on `workers` or on which thread takes which matrix, and no
    /// worker allocates.
    fn materialize_on(
        cfg: &TransformerConfig,
        gen: &WeightGenerator,
        workers: usize,
        arm: Arm,
    ) -> Self {
        assert!(
            cfg.total_params() < 200_000_000,
            "refusing to materialize a {}-parameter model; use WeightGenerator lazily",
            cfg.total_params()
        );
        let mut layers: Vec<LayerWeights> = (0..cfg.num_layers)
            .map(|_| LayerWeights::zeroed(cfg))
            .collect();
        let mut embedding = vec![0.0; cfg.vocab_size * cfg.hidden_size];
        let jobs: Vec<_> = layers
            .iter_mut()
            .enumerate()
            .flat_map(|(l, w)| w.tensors_mut().map(move |(kind, m)| (l, kind, m)))
            .collect();
        let queue = Mutex::new(jobs.into_iter());
        let drain = || loop {
            // The queue's one update is `next`, which leaves it valid even
            // if a worker panicked; the scope re-raises that panic.
            let job = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
            let Some((layer, kind, packed)) = job else {
                break;
            };
            gen.pack(layer, kind, packed, arm);
        };
        std::thread::scope(|s| {
            for _ in 1..workers {
                s.spawn(drain);
            }
            gen.fill_embedding(cfg, &mut embedding, arm);
            drain();
        });
        ModelWeights {
            config: *cfg,
            embedding,
            layers,
        }
    }

    /// Bytes actually resident for the weights: packed FP4 layer tensors
    /// plus the `f32` embedding table (which stays dense — it is an indexed
    /// lookup, not a matvec operand, and the paper keeps embeddings in
    /// conventional memory rather than metal).
    pub fn resident_weight_bytes(&self) -> u64 {
        let layers: u64 = self.layers.iter().map(LayerWeights::resident_bytes).sum();
        layers + (self.embedding.len() * std::mem::size_of::<f32>()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;

    /// One matrix dequantized to `f32` with the `1/sqrt(rows)` norm: the
    /// lazy oracle of the packed format.
    fn matrix_f32(g: &WeightGenerator, layer: usize, m: &WeightMatrix) -> Vec<f32> {
        let norm = WeightGenerator::norm_for(m.rows);
        g.matrix(layer, m)
            .into_iter()
            .map(|c| c.to_f32() * norm)
            .collect()
    }

    /// One matrix packed on its own on `arm`, outside `materialize`.
    fn packed_matrix(
        g: &WeightGenerator,
        layer: usize,
        m: &WeightMatrix,
        arm: Arm,
    ) -> PackedFp4Matrix {
        let mut packed = PackedFp4Matrix::zeroed(m.rows, m.cols, WeightGenerator::norm_for(m.rows));
        g.pack(layer, m.kind, &mut packed, arm);
        packed
    }

    /// Bytes the weights would occupy fully dequantized to `f32`: the
    /// baseline of the ≥4× residency claim.
    fn dense_f32_weight_bytes(w: &ModelWeights) -> u64 {
        let f = std::mem::size_of::<f32>() as u64;
        let layers: u64 = w
            .layers
            .iter()
            .map(|l| {
                let experts: u64 =
                    l.up.iter()
                        .chain(&l.gate)
                        .chain(&l.down)
                        .map(|m| (m.rows() * m.cols()) as u64)
                        .sum();
                let attn: u64 = [&l.wq, &l.wk, &l.wv, &l.wo, &l.router]
                    .iter()
                    .map(|m| (m.rows() * m.cols()) as u64)
                    .sum();
                (attn + experts) * f
            })
            .sum();
        layers + w.embedding.len() as u64 * f
    }

    fn small() -> TransformerConfig {
        zoo::test_model().config
    }

    #[test]
    fn deterministic_across_generators() {
        let m = WeightMatrix::new(WeightKind::Key, 96, 32);
        let a = WeightGenerator::new(7).matrix(3, &m);
        let b = WeightGenerator::new(7).matrix(3, &m);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let m = WeightMatrix::new(WeightKind::Key, 96, 32);
        let a = WeightGenerator::new(7).matrix(3, &m);
        let b = WeightGenerator::new(8).matrix(3, &m);
        assert_ne!(a, b);
    }

    #[test]
    fn different_layers_differ() {
        let m = WeightMatrix::new(WeightKind::Query, 96, 32);
        let g = WeightGenerator::new(7);
        assert_ne!(g.matrix(0, &m), g.matrix(1, &m));
    }

    #[test]
    fn different_experts_differ() {
        let g = WeightGenerator::new(7);
        let a = WeightMatrix::expert(WeightKind::ExpertUp { expert: 0 }, 64, 64);
        let b = WeightMatrix::expert(WeightKind::ExpertUp { expert: 1 }, 64, 64);
        assert_ne!(g.matrix(0, &a), g.matrix(0, &b));
    }

    #[test]
    fn histogram_counts_all_elements() {
        let g = WeightGenerator::new(1);
        let m = WeightMatrix::new(WeightKind::Query, 128, 64);
        let h = g.code_histogram(0, &m);
        assert_eq!(h.iter().sum::<u64>(), (128 * 64) as u64);
    }

    #[test]
    fn histogram_uses_most_codes() {
        // A N(0, 1.8) source quantized to FP4 should populate many codes.
        let g = WeightGenerator::new(1);
        let m = WeightMatrix::new(WeightKind::Query, 256, 256);
        let h = g.code_histogram(0, &m);
        let nonzero = h.iter().filter(|&&c| c > 0).count();
        assert!(nonzero >= 12, "only {nonzero} codes used: {h:?}");
    }

    #[test]
    fn materialize_small_model() {
        let cfg = small();
        let w = ModelWeights::materialize(&cfg, &WeightGenerator::new(3));
        assert_eq!(w.layers.len(), cfg.num_layers);
        assert_eq!(w.embedding.len(), cfg.vocab_size * cfg.hidden_size);
        let l = &w.layers[0];
        assert_eq!(l.wq.rows(), cfg.hidden_size);
        assert_eq!(l.wq.cols(), cfg.attention.q_width());
        assert_eq!(l.up.len(), cfg.moe.num_experts);
    }

    /// The tensor of `layer` that holds `kind`, by name.
    fn tensor(layer: &LayerWeights, kind: WeightKind) -> &PackedFp4Matrix {
        match kind {
            WeightKind::Query => &layer.wq,
            WeightKind::Key => &layer.wk,
            WeightKind::Value => &layer.wv,
            WeightKind::Output => &layer.wo,
            WeightKind::Router => &layer.router,
            WeightKind::ExpertUp { expert } => &layer.up[expert],
            WeightKind::ExpertGate { expert } => &layer.gate[expert],
            WeightKind::ExpertDown { expert } => &layer.down[expert],
        }
    }

    /// Odd widths everywhere, so every row of every tensor ends in a
    /// half-filled byte.
    fn odd_columns() -> TransformerConfig {
        let mut cfg = small();
        cfg.hidden_size = 33;
        cfg.attention.num_query_heads = 3;
        cfg.attention.num_kv_heads = 1;
        cfg.attention.head_dim = 5;
        cfg.moe.num_experts = 3;
        cfg.moe.intermediate_size = 37;
        cfg.vocab_size = 17;
        cfg
    }

    #[test]
    fn materialize_is_the_lazy_apis_at_every_worker_count() {
        for cfg in [zoo::dataflow_test_model().config, odd_columns()] {
            let gen = WeightGenerator::new(2026);
            // The lazy side, once: packed tensors, their codes, and the
            // histogram of those codes.
            let lazy: Vec<Vec<(WeightMatrix, PackedFp4Matrix, Vec<Fp4>)>> = (0..cfg.num_layers)
                .map(|l| {
                    cfg.layer_matrices()
                        .into_iter()
                        .map(|m| {
                            let codes = gen.matrix(l, &m);
                            let mut hist = [0u64; NUM_CODES];
                            for c in &codes {
                                hist[c.code() as usize] += 1;
                            }
                            assert_eq!(gen.code_histogram(l, &m), hist, "{m:?}");
                            (m, packed_matrix(&gen, l, &m, arm()), codes)
                        })
                        .collect()
                })
                .collect();
            let mut embedding = vec![0.0; cfg.vocab_size * cfg.hidden_size];
            gen.fill_embedding(&cfg, &mut embedding, arm());
            for workers in [1, 2, 3, 5] {
                let w = ModelWeights::materialize_on(&cfg, &gen, workers, arm());
                assert_eq!(w.embedding, embedding, "workers = {workers}");
                assert_eq!(w.layers.len(), cfg.num_layers);
                for (layer, lazy) in w.layers.iter().zip(&lazy) {
                    for len in [layer.up.len(), layer.gate.len(), layer.down.len()] {
                        assert_eq!(len, cfg.moe.num_experts);
                    }
                    for (m, packed, codes) in lazy {
                        let t = tensor(layer, m.kind);
                        assert_eq!(t, packed, "{m:?} at workers = {workers}");
                        for r in 0..m.rows {
                            for c in 0..m.cols {
                                assert_eq!(t.get(r, c), codes[r * m.cols + c]);
                            }
                        }
                    }
                }
            }
        }
    }

    /// The benchmark's bench-256 model: hidden 256, two layers, 16 experts
    /// of intermediate 512, a 2048-entry vocabulary.
    fn bench_256() -> TransformerConfig {
        let mut cfg = zoo::dataflow_test_model().config;
        cfg.hidden_size = 256;
        cfg.num_layers = 2;
        cfg.attention.num_query_heads = 8;
        cfg.attention.num_kv_heads = 4;
        cfg.attention.head_dim = 32;
        cfg.moe.num_experts = 16;
        cfg.moe.experts_per_token = 4;
        cfg.moe.intermediate_size = 512;
        cfg.vocab_size = 2048;
        cfg
    }

    /// Each arm of `arm::available()` (the dispatcher reaches only the
    /// widest) must write the portable arm's bits: every
    /// packed byte and every embedding float of a whole materialize of the
    /// bench-256 and test-dataflow shapes, an odd-width matrix, and a code
    /// histogram.
    #[test]
    fn every_sampler_arm_writes_the_portable_stream() {
        let gen = WeightGenerator::new(2026);
        let portable = Arm::Portable;
        println!("sampler arms on this CPU: {:?}", crate::arm::available());
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        let odd = WeightMatrix::new(WeightKind::Value, 64, 33);
        let square = WeightMatrix::new(WeightKind::Query, 256, 256);
        for cfg in [bench_256(), zoo::dataflow_test_model().config] {
            let want = ModelWeights::materialize_on(&cfg, &gen, 2, portable);
            for &arm in crate::arm::available() {
                let got = ModelWeights::materialize_on(&cfg, &gen, 2, arm);
                assert!(
                    bits(&got.embedding) == bits(&want.embedding),
                    "{arm:?} embedding"
                );
                for (l, (got, want)) in got.layers.iter().zip(&want.layers).enumerate() {
                    for m in cfg.layer_matrices() {
                        let (g, w) = (tensor(got, m.kind), tensor(want, m.kind));
                        assert!(g == w, "{arm:?} layer {l} {:?}", m.kind);
                    }
                }
            }
        }
        for &arm in crate::arm::available() {
            assert_eq!(
                packed_matrix(&gen, 1, &odd, arm),
                packed_matrix(&gen, 1, &odd, portable),
                "{arm:?} odd width"
            );
            for m in [&odd, &square] {
                assert_eq!(
                    gen.histogram(0, m, arm),
                    gen.histogram(0, m, portable),
                    "{arm:?} histogram of {m:?}"
                );
            }
        }
    }

    #[test]
    fn packed_matrix_dequantizes_to_matrix_f32() {
        let g = WeightGenerator::new(5);
        let m = WeightMatrix::new(WeightKind::Output, 96, 48);
        assert_eq!(
            packed_matrix(&g, 2, &m, arm()).to_f32(),
            matrix_f32(&g, 2, &m)
        );
    }

    #[test]
    fn packed_histogram_matches_generator_histogram() {
        let g = WeightGenerator::new(9);
        let m = WeightMatrix::new(WeightKind::Value, 64, 33);
        assert_eq!(
            packed_matrix(&g, 1, &m, arm()).code_histogram(),
            g.code_histogram(1, &m)
        );
    }

    #[test]
    fn resident_bytes_drop_at_least_four_fold() {
        // The PR's residency claim: packed FP4 tensors (embedding stays f32
        // on both sides) shrink a materialized model ≥ 4× vs dense f32.
        let cfg = crate::zoo::dataflow_test_model().config;
        let w = ModelWeights::materialize(&cfg, &WeightGenerator::new(2026));
        let packed = w.resident_weight_bytes();
        let dense = dense_f32_weight_bytes(&w);
        assert!(
            packed * 4 <= dense,
            "packed {packed} B vs dense {dense} B: only {:.2}x",
            dense as f64 / packed as f64
        );
    }

    #[test]
    #[should_panic(expected = "refusing to materialize")]
    fn materialize_refuses_huge_models() {
        let cfg = zoo::gpt_oss_120b().config;
        let _ = ModelWeights::materialize(&cfg, &WeightGenerator::new(0));
    }

    /// Both Box–Muller outputs are standard normals and uncorrelated:
    /// over 2¹⁶ pairs each half's mean is within 0.02 of 0 and its variance
    /// within 0.03 of 1 (about 5 standard errors), and the two halves'
    /// correlation is within 0.02 of 0.
    #[test]
    fn both_outputs_are_standard_normals() {
        let mut normals = WeightGenerator::new(3).normals(0, WeightKind::Query);
        let (mut cos, mut sin) = (Vec::new(), Vec::new());
        for _ in 0..(1 << 16) / PAIRS {
            let (c, s) = normals.block();
            cos.extend(c.map(f64::from));
            sin.extend(s.map(f64::from));
        }
        let n = cos.len() as f64;
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / n;
        for xs in [&cos, &sin] {
            let (m, v) = (mean(xs), xs.iter().map(|x| x * x).sum::<f64>() / n);
            assert!(
                m.abs() < 0.02 && (v - 1.0).abs() < 0.03,
                "mean {m}, variance {v}"
            );
        }
        let corr = cos.iter().zip(&sin).map(|(c, s)| c * s).sum::<f64>() / n;
        assert!(corr.abs() < 0.02, "correlation {corr}");
    }

    #[test]
    fn f32_weights_have_sane_scale() {
        let g = WeightGenerator::new(11);
        let m = WeightMatrix::new(WeightKind::Query, 256, 64);
        let w = matrix_f32(&g, 0, &m);
        let rms = (w.iter().map(|x| x * x).sum::<f32>() / w.len() as f32).sqrt();
        assert!(rms > 0.01 && rms < 0.2, "rms={rms}");
    }
}
