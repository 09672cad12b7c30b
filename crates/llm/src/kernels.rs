//! Region-accumulation matvec kernels over packed FP4 weights.
//!
//! A Hardwired Neuron never multiplies (Figure 4, §4.2): each input is
//! routed into one of 16 POPCNT accumulator regions keyed by its FP4 weight
//! code, the 16 per-region sums are weighted by the E2M1 magnitude lattice,
//! and a final shift applies the scale. These kernels compute `x · W`
//! directly on [`PackedFp4Matrix`] codes — no dequantized tensor ever
//! exists — with the 16 regions realized as the constant-multiplier bank.
//! Every FP4 value is an exact multiple of 0.5, so a 16-entry lookup maps
//! each nibble to its signed integer half-unit ([`HALF_UNITS`]) — the
//! per-region constant the hardware wires — and a fused multiply-add
//! accumulates `x_i · hu` with the trailing ×0.5 folded into the norm. The
//! textbook region form (bucket `x_i` by code, combine the buckets with
//! the magnitude lattice, `hnlpu_model::fp4::MAGNITUDES`) stays as the
//! tests' Figure-4 oracle; the two group the same sum differently, so they
//! agree to ~1e-5 relative, not bitwise.
//!
//! The half-unit kernel is written once, over a `tensor::Lanes` vector
//! extended by the decode, a lane-order restore, the fused multiply-add and
//! a multiply, and compiled per arm by [`hnlpu_model::arm::per_arm!`]:
//! `__m512` with token blocks of 8 activation rows × 32 columns, `__m256`
//! with 4 × 16 and one-lane `f32` with 4 × 2, so each packed byte is
//! decoded once per block. A lone activation row has no decode to share,
//! so it sweeps wider panels (eight vectors of columns), whose independent
//! chains hide the FMA latency.
//!
//! The decode is the arm's own. AVX2 looks each nibble half up with a
//! `pshufb`, interleaves the halves back into column order and widens to
//! floats. AVX-512 broadcasts a vector's 8 packed bytes to every qword,
//! shifts each dword lane by a constant so that one nibble sits at its
//! bottom, and `vpermps` reads that nibble as an index into the 16
//! half-units as floats: two ALU micro-ops per 16 columns, with the lanes
//! in a fixed column permutation that one `vpermps` per accumulator undoes
//! at store time. The portable arm indexes [`HALF_UNITS`] per nibble. The
//! lookup is the wiring of the paper's region decoder; only the FMAs are
//! arithmetic.
//!
//! Dispatch: `matmul_block_into` runs the arm the CPU alone selects
//! ([`hnlpu_model::arm::arm`]) on a column range that starts on a byte
//! boundary (the grid's column groups all do: `Grid::validate` rejects a
//! shape whose groups would not), and `matvec_block_into` is its one-row
//! case. The lane kernels (`tensor::Lanes`, under the unembedding and the
//! column attention) and the synthetic weights' sampler take their arm
//! from the same one, so [`kernel_path`] names all three.
//!
//! Every arm is **bit-identical** to every other, not merely close: every
//! (activation row, column) output of a block's first `len − len % 16`
//! columns is one FMA chain over the weight rows in ascending order on the
//! same decoded half-units, followed by one multiply by `0.5 · norm`, and
//! the last `len % 16` columns take the same scalar chain (a multiply, then
//! an add, per weight row) on every arm. A lane is one column and lanes
//! never interact, so neither the vector width (how many columns advance
//! together), nor the lane order a decode leaves, nor the block height (how
//! many activation rows share a decode) can reach a bit of any output.
//!
//! Both inference engines run every projection, router and expert product
//! through the panel form (`matmul_block_into`) — a decode step is its
//! one-row case — so they see one arithmetic on every host: the engines'
//! token streams stay in lockstep exactly as they did on the dense `f32`
//! path.

use hnlpu_model::arm::{arm, Arm};
use hnlpu_model::fp4::HALF_UNITS;
use hnlpu_model::PackedFp4Matrix;
use std::ops::Range;

/// `out = x · W` over the whole packed matrix (`x.len() == rows`,
/// `out.len() == cols`).
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn matvec_into(x: &[f32], m: &PackedFp4Matrix, out: &mut [f32]) {
    matvec_block_into(x, m, 0, 0..m.cols(), out);
}

/// Partial product `out = x · W[row_offset .. row_offset + x.len(),
/// col_range]`, overwriting `out` — what one chip holding a block of the
/// packed matrix contributes to its column group for one activation row:
/// [`matmul_block_into`] with one activation row.
///
/// # Panics
///
/// Panics if the addressed block exceeds the matrix shape, `col_range` is
/// reversed or starts on an odd column, or `out.len() != col_range.len()`.
pub(crate) fn matvec_block_into(
    x: &[f32],
    m: &PackedFp4Matrix,
    row_offset: usize,
    col_range: Range<usize>,
    out: &mut [f32],
) {
    assert_eq!(out.len(), col_range.len(), "output length mismatch");
    let len = out.len();
    matmul_block_into(x, x.len(), 1, m, row_offset, x.len(), col_range, out, len);
}

/// `outs = Xs · W` for a panel of `t` activation vectors over the whole
/// packed matrix: row `tt` of the activation panel (starting at
/// `xs[tt * x_stride]`, `m.rows()` long) produces row `tt` of the output
/// panel (starting at `outs[tt * out_stride]`, `m.cols()` wide).
///
/// Each output row is **bit-identical** to `matvec_into` on the same
/// activation row — see `matmul_block_into`.
///
/// # Panics
///
/// Panics on shape mismatch (see `matmul_block_into`).
pub fn matmul_into(
    xs: &[f32],
    x_stride: usize,
    t: usize,
    m: &PackedFp4Matrix,
    outs: &mut [f32],
    out_stride: usize,
) {
    matmul_into_on(arm(), xs, x_stride, t, m, outs, out_stride);
}

/// [`matmul_into`] on `arm`, which writes the same bits on every arm:
/// the entry that reaches an arm the dispatcher passes over on this CPU.
///
/// # Panics
///
/// Panics on shape mismatch, or unless this CPU runs `arm`
/// ([`hnlpu_model::arm::available`]).
pub fn matmul_into_on(
    arm: Arm,
    xs: &[f32],
    x_stride: usize,
    t: usize,
    m: &PackedFp4Matrix,
    outs: &mut [f32],
    out_stride: usize,
) {
    let cols = 0..m.cols();
    matmul_block_into_on(arm, xs, x_stride, t, m, 0, m.rows(), cols, outs, out_stride);
}

/// Panel partial product: for each of `t` activation rows, compute
/// `outs_row = xs_row · W[row_offset .. row_offset + rows, col_range]` —
/// the multi-token form of [`matvec_block_into`] that makes one pass over
/// the packed codes serve a whole prefill chunk or batched decode step, and
/// the form every engine projection takes (`t = 1` included).
///
/// Activation row `tt` starts at `xs[tt * x_stride]` and is `rows` long;
/// output row `tt` starts at `outs[tt * out_stride]` and is
/// `col_range.len()` wide, so both panels may be strided slices of wider
/// arenas (e.g. a chip's row slice of the activation panel).
///
/// **Bit-identity contract:** every output row equals
/// `matvec_block_into(xs_row, m, row_offset, col_range, outs_row)` bit for
/// bit, on every arm. The per-column accumulation chain depends only on the
/// row iteration order (ascending) and the accumulation operation (fused
/// multiply-adds, then the scalar tail), neither of which changes with the
/// panel width or with the rows beside it — so prefill results are
/// independent of how a prompt is chunked into panels, and the
/// differential harnesses stay token-exact.
///
/// # Panics
///
/// Panics if the addressed block exceeds the matrix shape, `col_range` is
/// reversed or starts on an odd column, or `xs`/`outs` are too short for
/// `t` strided rows.
#[allow(clippy::too_many_arguments)]
pub(crate) fn matmul_block_into(
    xs: &[f32],
    x_stride: usize,
    t: usize,
    m: &PackedFp4Matrix,
    row_offset: usize,
    rows: usize,
    col_range: Range<usize>,
    outs: &mut [f32],
    out_stride: usize,
) {
    let arm = arm();
    matmul_block_into_on(
        arm, xs, x_stride, t, m, row_offset, rows, col_range, outs, out_stride,
    );
}

/// [`matmul_block_into`] on `arm`.
///
/// # Panics
///
/// As [`matmul_block_into`], or unless this CPU runs `arm`.
#[allow(clippy::too_many_arguments)]
fn matmul_block_into_on(
    arm: Arm,
    xs: &[f32],
    x_stride: usize,
    t: usize,
    m: &PackedFp4Matrix,
    row_offset: usize,
    rows: usize,
    col_range: Range<usize>,
    outs: &mut [f32],
    out_stride: usize,
) {
    let len = col_range.len();
    let block = half_units::Block::new(
        xs, x_stride, t, m, row_offset, rows, col_range, outs, out_stride,
    );
    if let Some(block) = block {
        half_units::sweep_on(arm, &block);
    } else {
        // An empty block is an empty sum.
        for tt in 0..t {
            outs[tt * out_stride..][..len].fill(0.0);
        }
    }
}

/// Which arm `matmul_block_into` runs in this process:
/// `"avx512-half-units"`, `"avx2-half-units"` or `"portable-half-units"`.
/// The one arm ([`hnlpu_model::arm::arm`]) behind it also sets the lane
/// width of the unembedding, the column attention and the weight sampler
/// behind `ModelWeights::materialize`, so the name stands for all of them.
/// Every arm writes the same bits, so the name matters to host times only.
/// Recorded on every `BENCH_inference.json` point (and keys which point
/// `bench_baseline -- --check` gates against) and in the serving
/// benchmark's host fingerprint.
pub fn kernel_path() -> &'static str {
    match arm() {
        Arm::Avx512 => "avx512-half-units",
        Arm::Avx2 => "avx2-half-units",
        Arm::Portable => "portable-half-units",
    }
}

/// The half-unit kernel: one body over [`HalfUnits`], compiled once per
/// arm.
mod half_units {
    use super::{PackedFp4Matrix, Range, HALF_UNITS};
    use crate::tensor::Lanes;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;
    use std::marker::PhantomData;

    /// A [`Lanes`] vector as a half-unit arm holds it: the ops the
    /// constant-multiplier bank adds to the lane kernels'. Implemented for
    /// `__m512` (AVX-512F), `__m256` (AVX2+FMA) and `f32` (one lane).
    ///
    /// # Safety
    ///
    /// Every method needs the CPU to support its implementor's target
    /// features, under which it is compiled to be inlined into the arms;
    /// `decode` needs `⌈K · WIDTH / 2⌉` bytes readable at `row`.
    #[expect(
        clippy::missing_safety_doc,
        reason = "one contract for every method, stated above"
    )]
    pub(super) trait HalfUnits: Lanes {
        /// Activation rows a full token block carries (at most 8): with
        /// two vectors of columns per row, its accumulators take half the
        /// arm's vector registers (16 of 32 zmm, 8 of 16 ymm), which leaves
        /// room for the decoded weights and the broadcasts.
        const TOKEN_BLOCK: usize;
        /// The signed half-units of the `K · WIDTH` columns packed at `row`
        /// (two per byte, low nibble first), `WIDTH` columns per vector,
        /// vector `k` holding columns `k · WIDTH ..`, in the arm's lane
        /// order: the lookup into [`HALF_UNITS`] is the software image of
        /// the 16-region decoder.
        unsafe fn decode<const K: usize>(row: *const u8) -> [Self; K];
        /// A vector in `decode`'s lane order, put back in column order.
        /// The identity where `decode` already yields column order.
        #[inline(always)]
        unsafe fn columns(self) -> Self {
            self
        }
        /// `self · a + b`, rounded once.
        unsafe fn mul_add(self, a: Self, b: Self) -> Self;
        /// `self · a`.
        unsafe fn mul(self, a: Self) -> Self;
    }

    /// One column per "vector": the portable arm, the half-unit table
    /// indexed per nibble and `f32::mul_add` (one rounding, as the vector
    /// arms' FMA) as the fused step.
    impl HalfUnits for f32 {
        /// Eight accumulators at two columns a row, in the 16 scalar
        /// registers of baseline x86-64.
        const TOKEN_BLOCK: usize = 4;
        #[inline(always)]
        unsafe fn decode<const K: usize>(row: *const u8) -> [f32; K] {
            let mut w = [0.0; K];
            for (k, w) in w.iter_mut().enumerate() {
                let code = (*row.add(k / 2) >> (k % 2 * 4)) & 0x0F;
                *w = f32::from(HALF_UNITS[usize::from(code)]);
            }
            w
        }
        #[inline(always)]
        #[expect(
            clippy::disallowed_methods,
            reason = "the half-unit chain is defined fused; every arm fuses the same chain"
        )]
        unsafe fn mul_add(self, a: f32, b: f32) -> f32 {
            f32::mul_add(self, a, b)
        }
        #[inline(always)]
        unsafe fn mul(self, a: f32) -> f32 {
            self * a
        }
    }

    /// Sixteen columns per zmm register, in a lane order of the decode's
    /// choosing: lane `j` holds column `8 · (j mod 2) + j / 2`.
    #[cfg(target_arch = "x86_64")]
    impl HalfUnits for __m512 {
        const TOKEN_BLOCK: usize = 8;
        /// Per 16 columns, the 8 packed bytes broadcast to every qword
        /// lane, one variable shift that brings nibble `j / 2` of dword
        /// `j mod 2` to the bottom of lane `j`, and one `vpermps` that
        /// reads the low four bits as an index into the 16 half-units:
        /// the region decoder as a table lookup, two ALU micro-ops.
        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn decode<const K: usize>(row: *const u8) -> [Self; K] {
            // Integer half-units converted to floats, so code 8 is `+0.0`.
            let table = _mm512_cvtepi32_ps(_mm512_cvtepi8_epi32(_mm_loadu_si128(
                HALF_UNITS.as_ptr().cast(),
            )));
            let shift = _mm512_setr_epi32(0, 0, 4, 4, 8, 8, 12, 12, 16, 16, 20, 20, 24, 24, 28, 28);
            let mut w = [_mm512_setzero_ps(); K];
            for (k, w) in w.iter_mut().enumerate() {
                let packed = _mm512_set1_epi64(row.add(8 * k).cast::<i64>().read_unaligned());
                *w = _mm512_permutexvar_ps(_mm512_srlv_epi32(packed, shift), table);
            }
            w
        }
        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn columns(self) -> Self {
            let lane = _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 1, 3, 5, 7, 9, 11, 13, 15);
            _mm512_permutexvar_ps(lane, self)
        }
        #[inline]
        #[target_feature(enable = "avx512f")]
        #[expect(
            clippy::disallowed_methods,
            reason = "the half-unit chain is defined fused; every arm fuses the same chain"
        )]
        unsafe fn mul_add(self, a: Self, b: Self) -> Self {
            _mm512_fmadd_ps(self, a, b)
        }
        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn mul(self, a: Self) -> Self {
            _mm512_mul_ps(self, a)
        }
    }

    /// Eight columns per ymm register, in column order: a `pshufb` per
    /// nibble half, unpacked and widened.
    #[cfg(target_arch = "x86_64")]
    impl HalfUnits for __m256 {
        const TOKEN_BLOCK: usize = 4;
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn decode<const K: usize>(row: *const u8) -> [Self; K] {
            let mut w = [_mm256_setzero_ps(); K];
            for (c, w) in w.chunks_mut(4).enumerate() {
                let [lo, hi] = nibbles(bytes(row.add(16 * c), 4 * w.len()));
                let eighths = [lo, _mm_srli_si128(lo, 8), hi, _mm_srli_si128(hi, 8)];
                for (w, hu) in w.iter_mut().zip(eighths) {
                    *w = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(hu));
                }
            }
            w
        }
        #[inline]
        #[target_feature(enable = "avx2", enable = "fma")]
        #[expect(
            clippy::disallowed_methods,
            reason = "the half-unit chain is defined fused; every arm fuses the same chain"
        )]
        unsafe fn mul_add(self, a: Self, b: Self) -> Self {
            _mm256_fmadd_ps(self, a, b)
        }
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn mul(self, a: Self) -> Self {
            _mm256_mul_ps(self, a)
        }
    }

    /// The `n ≤ 16` packed bytes at `p`, zero above.
    ///
    /// # Safety
    ///
    /// `n` bytes must be readable at `p`.
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    unsafe fn bytes(p: *const u8, n: usize) -> __m128i {
        let mut b = [0u8; 16];
        std::ptr::copy_nonoverlapping(p, b.as_mut_ptr(), n);
        _mm_loadu_si128(b.as_ptr().cast())
    }

    /// The signed half-units of the 32 columns packed in `bytes`, as `i8`
    /// in column order: `[0]` holds columns 0..16, `[1]` columns 16..32.
    ///
    /// # Safety
    ///
    /// Register arithmetic only; the CPU must support SSSE3, which AVX2
    /// implies.
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    unsafe fn nibbles(bytes: __m128i) -> [__m128i; 2] {
        let lut = _mm_loadu_si128(HALF_UNITS.as_ptr().cast());
        let mask = _mm_set1_epi8(0x0F);
        let lo = _mm_shuffle_epi8(lut, _mm_and_si128(bytes, mask));
        let hi = _mm_shuffle_epi8(lut, _mm_and_si128(_mm_srli_epi16(bytes, 4), mask));
        // Interleave even/odd column values back into column order.
        [_mm_unpacklo_epi8(lo, hi), _mm_unpackhi_epi8(lo, hi)]
    }

    /// One [`super::matmul_block_into`] call as the arms address it: `t`
    /// activation rows of `rows` floats at `xs`, `x_stride` apart; `rows`
    /// weight rows of packed codes at `data` (the byte of the block's
    /// first column), `stride` apart; `t` output rows of `cols` floats at
    /// `outs`, `out_stride` apart. Only [`Block::new`] makes one, so every
    /// one holds at least one row and one column, all in bounds.
    pub(super) struct Block<'a> {
        xs: *const f32,
        x_stride: usize,
        t: usize,
        data: *const u8,
        stride: usize,
        rows: usize,
        cols: usize,
        half_norm: f32,
        outs: *mut f32,
        out_stride: usize,
        borrows: PhantomData<(&'a [f32], &'a [u8], &'a mut [f32])>,
    }

    impl<'a> Block<'a> {
        /// The block `matmul_block_into` addresses with these arguments,
        /// or `None` if it holds no activation row, weight row or column.
        ///
        /// # Panics
        ///
        /// Panics if the block exceeds the matrix shape, `col_range` is
        /// reversed or starts on an odd column, or `xs`/`outs` are too
        /// short for `t` strided rows.
        #[allow(clippy::too_many_arguments)]
        pub(super) fn new(
            xs: &'a [f32],
            x_stride: usize,
            t: usize,
            m: &'a PackedFp4Matrix,
            row_offset: usize,
            rows: usize,
            col_range: Range<usize>,
            outs: &'a mut [f32],
            out_stride: usize,
        ) -> Option<Self> {
            let last = t.checked_sub(1)?;
            assert!(row_offset + rows <= m.rows(), "row block out of bounds");
            assert!(col_range.start <= col_range.end, "col range reversed");
            assert!(col_range.end <= m.cols(), "col range out of bounds");
            assert!(
                col_range.start.is_multiple_of(2),
                "col range must start on a packed byte"
            );
            assert!(
                xs.len() >= last * x_stride + rows,
                "activation panel too short"
            );
            assert!(
                outs.len() >= last * out_stride + col_range.len(),
                "output panel too short"
            );
            // A block with no byte may sit at `row_offset == m.rows()`,
            // past the matrix: it addresses nothing.
            if rows == 0 || col_range.is_empty() {
                return None;
            }
            let data = &m.data()[row_offset * m.stride() + col_range.start / 2..];
            Some(Block {
                xs: xs.as_ptr(),
                x_stride,
                t,
                data: data.as_ptr(),
                stride: m.stride(),
                rows,
                cols: col_range.len(),
                half_norm: 0.5 * m.norm(),
                outs: outs.as_mut_ptr(),
                out_stride,
                borrows: PhantomData,
            })
        }
    }

    hnlpu_model::arm::per_arm! {
        /// The whole block on `arm`: [`sweep`] over the arm's lane vector.
        pub(super) fn sweep_on<V>(b: &Block<'_>) {
            // SAFETY: `Block::new` bounds every row and column of `b`, and
            // `V` is the lane vector of the arm this body is compiled for.
            unsafe { sweep::<V>(b) }
        }
    }

    /// The whole block: full token blocks of `V::TOKEN_BLOCK` rows, the
    /// remainder as one narrower block, each sweeping panels over the first
    /// `cols − cols % 16` columns, then [`tail`] for the rest.
    ///
    /// # Safety
    ///
    /// The CPU must support `V`'s arm; `b` comes from [`Block::new`].
    #[inline(always)]
    unsafe fn sweep<V: HalfUnits>(b: &Block) {
        const { assert!(V::TOKEN_BLOCK <= 8) };
        let covered = b.cols - b.cols % 16;
        let mut tt = 0;
        while tt < b.t {
            // One instantiation per block height, so the accumulators are
            // a compile-time array and live in registers.
            let n = (b.t - tt).min(V::TOKEN_BLOCK);
            match n {
                1 => rows::<V, 1>(b, tt, covered),
                2 => rows::<V, 2>(b, tt, covered),
                3 => rows::<V, 3>(b, tt, covered),
                4 => rows::<V, 4>(b, tt, covered),
                5 => rows::<V, 5>(b, tt, covered),
                6 => rows::<V, 6>(b, tt, covered),
                7 => rows::<V, 7>(b, tt, covered),
                _ => rows::<V, 8>(b, tt, covered),
            }
            tt += n;
        }
        tail(b, covered);
    }

    /// Activation rows `tt .. tt + N` over the first `covered` columns (a
    /// multiple of 16): panels two vectors wide, and one vector for a last
    /// 16 columns the width leaves. A lone row has no decode to share, so
    /// it first takes panels of eight and four vectors, which keep enough
    /// independent chains in flight to hide the FMA latency.
    ///
    /// # Safety
    ///
    /// As [`sweep`], with `tt + N ≤ b.t`.
    #[inline(always)]
    unsafe fn rows<V: HalfUnits, const N: usize>(b: &Block, tt: usize, covered: usize) {
        let mut c = 0;
        if N == 1 {
            while covered - c >= 8 * V::WIDTH {
                panel::<V, N, 8>(b, tt, c);
                c += 8 * V::WIDTH;
            }
            if covered - c >= 4 * V::WIDTH {
                panel::<V, N, 4>(b, tt, c);
                c += 4 * V::WIDTH;
            }
        }
        while covered - c >= 2 * V::WIDTH {
            panel::<V, N, 2>(b, tt, c);
            c += 2 * V::WIDTH;
        }
        if c < covered {
            panel::<V, N, 1>(b, tt, c);
        }
    }

    /// Activation rows `tt .. tt + N` × columns `c .. c + K · V::WIDTH`:
    /// each weight row's packed bytes are decoded **once** into `K` vectors
    /// of half-units and fused with `N` broadcast activations into `N · K`
    /// accumulators — per (row, column) one FMA chain over the weight rows
    /// in ascending order — then each is multiplied by `0.5 · norm` and put
    /// back in column order.
    ///
    /// # Safety
    ///
    /// As [`rows`], with `c` even and `c + K · V::WIDTH ≤ b.cols`.
    #[inline(always)]
    unsafe fn panel<V: HalfUnits, const N: usize, const K: usize>(b: &Block, tt: usize, c: usize) {
        let (xs, data) = (b.xs.add(tt * b.x_stride), b.data.add(c / 2));
        let mut acc = [[V::splat(0.0); K]; N];
        for i in 0..b.rows {
            let w = V::decode::<K>(data.add(i * b.stride));
            for (n, acc) in acc.iter_mut().enumerate() {
                let x = V::splat(*xs.add(n * b.x_stride + i));
                for (a, w) in acc.iter_mut().zip(w) {
                    *a = w.mul_add(x, *a);
                }
            }
        }
        let (half_norm, outs) = (V::splat(b.half_norm), b.outs.add(tt * b.out_stride + c));
        for (n, acc) in acc.iter().enumerate() {
            for (k, a) in acc.iter().enumerate() {
                a.mul(half_norm)
                    .columns()
                    .store(outs.add(n * b.out_stride + k * V::WIDTH), V::WIDTH);
            }
        }
    }

    /// Columns `covered .. cols` of every row: the scalar half-unit chain,
    /// a multiply then an add per weight row (not fused), then the multiply
    /// by `0.5 · norm`.
    ///
    /// # Safety
    ///
    /// As [`sweep`].
    #[inline(always)]
    unsafe fn tail(b: &Block, covered: usize) {
        for j in covered..b.cols {
            let shift = (j % 2) * 4;
            for tt in 0..b.t {
                let mut acc = 0.0f32;
                for i in 0..b.rows {
                    let code = (*b.data.add(i * b.stride + j / 2) >> shift) & 0x0F;
                    let x = *b.xs.add(tt * b.x_stride + i);
                    acc += x * f32::from(HALF_UNITS[usize::from(code)]);
                }
                *b.outs.add(tt * b.out_stride + j) = acc * b.half_norm;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::{add_assign, vec_mat};
    use hnlpu_model::arm::available;
    use hnlpu_model::fp4::{MAGNITUDES, NUM_CODES};
    use hnlpu_model::Fp4;
    use proptest::prelude::*;

    /// The scalar multi-token region-accumulation kernel, the Figure-4 oracle:
    /// per output column, read each packed byte **once** and route the
    /// corresponding `x_i` of every activation row in a block of 8 into that
    /// row's 16 buckets — one add per weight, no multiply — then combine each
    /// row's buckets with the magnitude lattice and the norm. Per activation
    /// row this is exactly the bucket chain of `region_matvec_block_into`
    /// (rows ascending), so each output row is bit-identical to it.
    ///
    /// # Panics
    ///
    /// Panics if the addressed block exceeds the matrix shape or `xs`/`outs`
    /// are too short for `t` strided rows.
    #[allow(clippy::too_many_arguments)]
    fn region_matmul_block_into(
        xs: &[f32],
        x_stride: usize,
        t: usize,
        m: &PackedFp4Matrix,
        row_offset: usize,
        rows: usize,
        col_range: Range<usize>,
        outs: &mut [f32],
        out_stride: usize,
    ) {
        const TOKEN_BLOCK: usize = 8;
        if t == 0 {
            return;
        }
        assert!(row_offset + rows <= m.rows(), "row block out of bounds");
        assert!(col_range.end <= m.cols(), "col range out of bounds");
        assert!(
            xs.len() >= (t - 1) * x_stride + rows,
            "activation panel too short"
        );
        assert!(
            outs.len() >= (t - 1) * out_stride + col_range.len(),
            "output panel too short"
        );
        let stride = m.stride();
        let data = m.data();
        let norm = m.norm();
        let mut tb = 0;
        while tb < t {
            let bt = (t - tb).min(TOKEN_BLOCK);
            for j in col_range.start..col_range.end {
                let shift = (j % 2) * 4;
                let col = j / 2;
                let mut buckets = [[0.0f32; NUM_CODES]; TOKEN_BLOCK];
                for i in 0..rows {
                    let byte = data[(row_offset + i) * stride + col];
                    let code = ((byte >> shift) & 0x0F) as usize;
                    for (tt, b) in buckets[..bt].iter_mut().enumerate() {
                        b[code] += xs[(tb + tt) * x_stride + i];
                    }
                }
                for (tt, b) in buckets[..bt].iter_mut().enumerate() {
                    outs[(tb + tt) * out_stride + (j - col_range.start)] =
                        combine_regions(b) * norm;
                }
            }
            tb += bt;
        }
    }

    /// The one-row form of [`region_matmul_block_into`].
    ///
    /// # Panics
    ///
    /// Panics on the same conditions as [`matvec_block_into`].
    fn region_matvec_block_into(
        x: &[f32],
        m: &PackedFp4Matrix,
        row_offset: usize,
        col_range: Range<usize>,
        out: &mut [f32],
    ) {
        assert_eq!(out.len(), col_range.len(), "output length mismatch");
        let len = out.len();
        region_matmul_block_into(x, x.len(), 1, m, row_offset, x.len(), col_range, out, len);
    }

    /// The 16 per-region input sums for one output column of `x · W` — what a
    /// Hardwired Neuron's POPCNT accumulator regions hold right before the
    /// magnitude combine. With `x = 1⃗`, region `k` equals the column's
    /// occupancy count of code `k`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != m.rows()` or `col >= m.cols()`.
    fn region_sums(x: &[f32], m: &PackedFp4Matrix, col: usize) -> [f32; NUM_CODES] {
        assert_eq!(x.len(), m.rows(), "input length mismatch");
        assert!(col < m.cols(), "col out of bounds");
        let stride = m.stride();
        let data = m.data();
        let shift = (col % 2) * 4;
        let mut buckets = [0.0f32; NUM_CODES];
        for (i, &xi) in x.iter().enumerate() {
            let byte = data[i * stride + col / 2];
            buckets[((byte >> shift) & 0x0F) as usize] += xi;
        }
        buckets
    }

    /// Magnitude-lattice combine: positive region `k` minus its sign twin
    /// `k | 8`, weighted by `MAGNITUDES[k]`. Region 0 (±0) contributes nothing.
    fn combine_regions(buckets: &[f32; NUM_CODES]) -> f32 {
        let mut acc = 0.0f32;
        for k in 1..8 {
            acc += MAGNITUDES[k] * (buckets[k] - buckets[k | 8]);
        }
        acc
    }

    fn packed_from(codes: &[u8], rows: usize, cols: usize) -> PackedFp4Matrix {
        let codes: Vec<Fp4> = codes.iter().map(|&c| Fp4::from_code(c)).collect();
        let norm = 1.0 / (rows as f32).sqrt() / 1.8;
        PackedFp4Matrix::from_codes(&codes, rows, cols, norm)
    }

    /// `n` codes with no period in the cell index: the top nibble of a
    /// multiplicative hash. (Its low nibble is `i + const` — column `c` and
    /// column `c + 16` would hold the same code, and a kernel that mixed up
    /// two 16-column halves of a panel would pass.)
    fn hashed_codes(n: usize, seed: u64) -> Vec<u8> {
        (0..n as u64)
            .map(|i| ((i + seed * 131).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 60) as u8)
            .collect()
    }

    fn assert_close(a: &[f32], b: &[f32], tol: f32) {
        for (i, (&x, &y)) in a.iter().zip(b.iter()).enumerate() {
            assert!(
                (x - y).abs() <= tol * (1.0 + x.abs()),
                "element {i}: {x} vs {y}"
            );
        }
    }

    /// The half-unit arms' definition on an even-start column range, one
    /// scalar chain per (activation row, column): over the weight rows in
    /// order, `acc = hu.mul_add(x, acc)` on the first `len − len % 16`
    /// columns and `acc += x · hu` on the rest; then `acc · 0.5·norm`.
    #[allow(clippy::too_many_arguments)]
    #[expect(
        clippy::disallowed_methods,
        reason = "the scalar definition of the fused chain the vector arms run"
    )]
    fn half_unit_chain(
        xs: &[f32],
        x_stride: usize,
        t: usize,
        m: &PackedFp4Matrix,
        row_offset: usize,
        rows: usize,
        col_range: Range<usize>,
        outs: &mut [f32],
        out_stride: usize,
    ) {
        let covered = col_range.len() - col_range.len() % 16;
        for tt in 0..t {
            for (k, j) in col_range.clone().enumerate() {
                let mut acc = 0.0f32;
                for i in 0..rows {
                    let byte = m.data()[(row_offset + i) * m.stride() + j / 2];
                    let hu = f32::from(HALF_UNITS[usize::from((byte >> (j % 2 * 4)) & 0x0F)]);
                    let x = xs[tt * x_stride + i];
                    acc = if k < covered {
                        hu.mul_add(x, acc)
                    } else {
                        acc + x * hu
                    };
                }
                outs[tt * out_stride + k] = acc * (0.5 * m.norm());
            }
        }
    }

    /// The AVX-512 decode, pinned lane by lane. Byte `o` of weight row `r`
    /// is `(r + 37 · o) mod 256`, so over the 256 rows every byte value sits
    /// at every byte offset of 16-, 32-, 64- and 128-column panels, and
    /// neighbouring offsets differ. The activations are one-hot and
    /// `0.5 · norm` is 1, so every output is the half-unit of one code as
    /// `f32`, bit for bit, code 8 as `+0.0`. The 256 rows run as one block
    /// (8-row token blocks) and one at a time (a lone row's wide panels).
    #[test]
    fn avx512_decode_is_every_half_unit_at_its_column() {
        if !available().contains(&Arm::Avx512) {
            println!("no AVX-512 arm on this CPU: the AVX-512 decode pin is skipped");
            return;
        }
        const ROWS: usize = 256;
        let byte = |r: usize, o: usize| ((r + 37 * o) % 256) as u8;
        let onehot: Vec<f32> = (0..ROWS * ROWS)
            .map(|i| if i / ROWS == i % ROWS { 1.0 } else { 0.0 })
            .collect();
        for cols in [16, 32, 64, 128] {
            let codes: Vec<Fp4> = (0..ROWS * cols)
                .map(|i| {
                    let (r, c) = (i / cols, i % cols);
                    Fp4::from_code((byte(r, c / 2) >> (c % 2 * 4)) & 0x0F)
                })
                .collect();
            let m = PackedFp4Matrix::from_codes(&codes, ROWS, cols, 2.0);
            let want: Vec<u32> = codes
                .iter()
                .map(|c| f32::from(HALF_UNITS[usize::from(c.code())]).to_bits())
                .collect();
            let mut block = vec![f32::NAN; ROWS * cols];
            matmul_into_on(Arm::Avx512, &onehot, ROWS, ROWS, &m, &mut block, cols);
            let mut lone = vec![f32::NAN; ROWS * cols];
            for (r, out) in lone.chunks_mut(cols).enumerate() {
                let x = &onehot[r * ROWS..][..ROWS];
                matmul_into_on(Arm::Avx512, x, ROWS, 1, &m, out, cols);
            }
            for (run, outs) in [("block", &block), ("lone row", &lone)] {
                for (i, (out, want)) in outs.iter().zip(&want).enumerate() {
                    let (r, c) = (i / cols, i % cols);
                    assert_eq!(
                        out.to_bits(),
                        *want,
                        "{cols} columns, {run}: row {r} column {c} (byte {:#04x}) decoded {out}",
                        byte(r, c / 2)
                    );
                }
            }
        }
    }

    #[test]
    fn matches_identity() {
        // Codes picked so the packed matrix dequantizes to (1/norm-scaled)
        // diagonal: code 2 = +1.0.
        let mut codes = vec![0u8; 9];
        for i in 0..3 {
            codes[i * 3 + i] = 2;
        }
        let m = packed_from(&codes, 3, 3);
        let mut out = [0.0f32; 3];
        matvec_into(&[2.0, 3.0, 4.0], &m, &mut out);
        let expect: Vec<f32> = [2.0f32, 3.0, 4.0].iter().map(|v| v * m.norm()).collect();
        assert_close(&out, &expect, 1e-6);
    }

    #[test]
    fn region_kernel_and_fast_path_agree() {
        let codes: Vec<u8> = (0..96 * 80).map(|i| ((i * 7 + 3) % 16) as u8).collect();
        let m = packed_from(&codes, 96, 80);
        let x: Vec<f32> = (0..96)
            .map(|i| ((i * 31) % 17) as f32 * 0.1 - 0.8)
            .collect();
        let mut fast = vec![0.0f32; 80];
        let mut regions = vec![0.0f32; 80];
        matvec_into(&x, &m, &mut fast);
        region_matvec_block_into(&x, &m, 0, 0..80, &mut regions);
        assert_close(&fast, &regions, 1e-5);
    }

    #[test]
    fn block_partials_sum_to_full() {
        let codes: Vec<u8> = (0..64 * 48).map(|i| ((i * 11 + 5) % 16) as u8).collect();
        let m = packed_from(&codes, 64, 48);
        #[expect(
            clippy::disallowed_methods,
            reason = "test input: both sides read the same values"
        )]
        let x: Vec<f32> = (0..64).map(|i| (i as f32 * 0.37).sin()).collect();
        let mut full = vec![0.0f32; 48];
        matvec_into(&x, &m, &mut full);
        // Four row blocks × col range [16, 48), as a chip column computes.
        let mut acc = vec![0.0f32; 32];
        let mut part = vec![0.0f32; 32];
        for r in 0..4 {
            matvec_block_into(&x[r * 16..(r + 1) * 16], &m, r * 16, 16..48, &mut part);
            add_assign(&mut acc, &part);
        }
        assert_close(&acc, &full[16..48], 1e-5);
    }

    #[test]
    fn region_sums_with_unit_input_count_occupancy() {
        // With x = 1⃗ the region sums ARE the per-column code occupancy, so
        // summing them over columns reproduces `code_histogram` exactly.
        let codes: Vec<u8> = (0..40 * 33).map(|i| ((i * 13 + 1) % 16) as u8).collect();
        let m = packed_from(&codes, 40, 33);
        let ones = vec![1.0f32; 40];
        let mut totals = [0u64; 16];
        for col in 0..33 {
            let sums = region_sums(&ones, &m, col);
            for (t, s) in totals.iter_mut().zip(sums.iter()) {
                assert_eq!(s.fract(), 0.0);
                *t += *s as u64;
            }
        }
        assert_eq!(totals, m.code_histogram());
    }

    #[test]
    fn kernel_path_names_a_realization() {
        let paths = [
            "avx512-half-units",
            "avx2-half-units",
            "portable-half-units",
        ];
        assert!(paths.contains(&kernel_path()));
    }

    #[test]
    #[should_panic(expected = "col range must start on a packed byte")]
    fn odd_col_start_rejected() {
        let m = packed_from(&[0; 32], 4, 8);
        matvec_block_into(&[1.0; 4], &m, 0, 1..8, &mut [0.0; 7]);
    }

    #[test]
    #[should_panic(expected = "col range reversed")]
    fn reversed_col_range_rejected() {
        // `100..4` has `len() == 0` and `end <= cols`, so before the
        // `start <= end` assert it reached the pointer arithmetic.
        let m = packed_from(&[0; 32], 4, 8);
        #[allow(clippy::reversed_empty_ranges)]
        matvec_block_into(&[1.0; 4], &m, 0, 100..4, &mut []);
    }

    #[test]
    #[should_panic(expected = "col range reversed")]
    fn reversed_col_range_rejected_by_matmul() {
        let m = packed_from(&[0; 32], 4, 8);
        #[allow(clippy::reversed_empty_ranges)]
        matmul_block_into(&[1.0; 8], 4, 2, &m, 0, 4, 100..4, &mut [], 0);
    }

    #[test]
    fn empty_row_block_yields_zeros() {
        // A zero-row block at `row_offset == rows` with a non-zero column
        // start addresses no byte of the matrix: an empty sum per column.
        let m = packed_from(&[5; 32], 4, 8);
        let mut out = [f32::NAN; 4];
        matvec_block_into(&[], &m, 4, 4..8, &mut out);
        assert_eq!(out, [0.0; 4]);
        // Strided output panel: the padding between rows is not written.
        let mut outs = [f32::NAN; 10];
        matmul_block_into(&[], 0, 2, &m, 4, 0, 4..8, &mut outs, 6);
        assert_eq!(outs[..4], [0.0; 4]);
        assert!(outs[4..6].iter().all(|v| v.is_nan()));
        assert_eq!(outs[6..], [0.0; 4]);
        // An empty column range writes nothing (row 1 would start at 4).
        matmul_block_into(&[1.0; 8], 4, 2, &m, 0, 4, 6..6, &mut outs, 4);
        assert!(outs[4..6].iter().all(|v| v.is_nan()));
    }

    #[test]
    #[should_panic(expected = "row block out of bounds")]
    fn oversized_row_block_rejected() {
        let m = packed_from(&[0; 16], 4, 4);
        let mut out = [0.0; 4];
        matvec_block_into(&[1.0; 3], &m, 2, 0..4, &mut out);
    }

    #[test]
    #[should_panic(expected = "activation panel too short")]
    fn short_activation_panel_rejected() {
        let m = packed_from(&[0; 16], 4, 4);
        let mut outs = [0.0; 8];
        matmul_block_into(&[1.0; 6], 4, 2, &m, 0, 4, 0..4, &mut outs, 4);
    }

    proptest! {
        /// The region-accumulation kernel matches the naive dense f32
        /// `vec_mat` within 1e-4 relative tolerance on random matrices —
        /// the satellite acceptance property. Covers both realizations
        /// plus odd widths and the scalar column tail.
        #[test]
        fn matvec_matches_naive_vec_mat(
            rows in 1usize..96,
            cols in 1usize..80,
            seed in 0u64..1000,
        ) {
            let m = packed_from(&hashed_codes(rows * cols, seed), rows, cols);
            let x: Vec<f32> = (0..rows)
                .map(|i| {
                    let v = (i as u64).wrapping_mul(seed.wrapping_add(11)) % 2000;
                    v as f32 * 0.001 - 1.0
                })
                .collect();
            let dense = m.to_f32();
            let naive = vec_mat(&x, &dense, cols);
            let mut fast = vec![0.0f32; cols];
            matvec_into(&x, &m, &mut fast);
            let mut regions = vec![0.0f32; cols];
            region_matvec_block_into(&x, &m, 0, 0..cols, &mut regions);
            for j in 0..cols {
                prop_assert!((fast[j] - naive[j]).abs() <= 1e-4 * (1.0 + naive[j].abs()),
                    "fast col {j}: {} vs {}", fast[j], naive[j]);
                prop_assert!((regions[j] - naive[j]).abs() <= 1e-4 * (1.0 + naive[j].abs()),
                    "regions col {j}: {} vs {}", regions[j], naive[j]);
            }
        }

        /// The dispatched panel matmul equals a loop of one-row
        /// `matvec_block_into` calls **bit for bit** — a row's bits depend
        /// neither on the rows beside it nor on the block height that ran
        /// it — over ragged token counts (two full blocks of the widest
        /// arm plus every remainder), column ranges of every length from
        /// even starts (scalar tails included), strided activation and
        /// output panels, and row sub-blocks; and the same of the region
        /// oracle, from any start.
        #[test]
        fn matmul_is_bitwise_loop_of_matvecs(
            rows in 1usize..72,
            cols in 1usize..120,
            t in 1usize..27,
            c0 in 0usize..8,
            c1 in 0usize..8,
            r0 in 0usize..6,
            xpad in 0usize..5,
            opad in 0usize..5,
            seed in 0u64..500,
        ) {
            let full_rows = rows + r0;
            let m = packed_from(&hashed_codes(full_rows * cols, seed), full_rows, cols);
            let cs = c0.min(cols - 1);
            let ce = cols - c1.min(cols - 1 - cs);
            let len = ce - cs;
            let x_stride = rows + xpad;
            let out_stride = len + opad;
            let xs: Vec<f32> = (0..(t - 1) * x_stride + rows)
                .map(|i| {
                    let v = (i as u64).wrapping_mul(seed.wrapping_add(7)).wrapping_add(3) % 2000;
                    v as f32 * 0.001 - 1.0
                })
                .collect();
            // The kernel's start is the even column at or below `cs`.
            let (ks, klen) = (cs & !1, ce - (cs & !1));
            let k_stride = klen + opad;
            let mut outs = vec![0.0f32; (t - 1) * k_stride + klen];
            matmul_block_into(&xs, x_stride, t, &m, r0, rows, ks..ce, &mut outs, k_stride);
            let mut regions = vec![0.0f32; (t - 1) * out_stride + len];
            region_matmul_block_into(&xs, x_stride, t, &m, r0, rows, cs..ce, &mut regions, out_stride);
            let mut want = vec![0.0f32; klen];
            let mut want_regions = vec![0.0f32; len];
            for tt in 0..t {
                let x = &xs[tt * x_stride..][..rows];
                matvec_block_into(x, &m, r0, ks..ce, &mut want);
                prop_assert_eq!(&outs[tt * k_stride..][..klen], want.as_slice(),
                    "dispatched row {} differs", tt);
                region_matvec_block_into(x, &m, r0, cs..ce, &mut want_regions);
                prop_assert_eq!(&regions[tt * out_stride..][..len], want_regions.as_slice(),
                    "scalar region row {} differs", tt);
            }
        }

        /// Every arm this CPU has, through `matmul_block_into_on` — the
        /// dispatcher only ever reaches the widest one — and the dispatcher
        /// itself, against [`half_unit_chain`] bit for bit:
        /// two full 8-row blocks plus every remainder; column ranges up to
        /// 255 wide, so a lone row's 128- and 64-column panels, the 32- and
        /// 16-column panels and a 1–15 column tail all run; even non-zero
        /// starts, row sub-blocks, strided panels. A quarter of the
        /// activations are `±0.0` and a quarter exact multiples of ±0.5, so
        /// products of signed zeros and exactly cancelling sums occur. An
        /// arm the CPU lacks is skipped, not failed; the portable arm runs
        /// everywhere.
        #[test]
        fn every_arm_is_bitwise_the_half_unit_chain(
            rows in 1usize..72,
            t in 1usize..25,
            panels16 in 0usize..16,
            tail in 0usize..16,
            c0 in 0usize..5,
            c1 in 0usize..3,
            r0 in 0usize..6,
            xpad in 0usize..5,
            opad in 0usize..5,
            seed in 0u64..500,
        ) {
            let cs = 2 * c0;
            let len = (16 * panels16 + tail).max(1);
            let ce = cs + len;
            let (full_rows, cols) = (rows + r0, ce + c1);
            let m = packed_from(&hashed_codes(full_rows * cols, seed), full_rows, cols);
            let x_stride = rows + xpad;
            let out_stride = len + opad;
            let xs: Vec<f32> = (0..(t - 1) * x_stride + rows)
                .map(|i| {
                    let v = (i as u64).wrapping_mul(seed.wrapping_add(7)).wrapping_add(3) % 2000;
                    match v % 8 {
                        0 => 0.0,
                        1 => -0.0,
                        2 => -0.5 * (v % 5) as f32,
                        3 => 0.5 * (v % 5) as f32,
                        _ => v as f32 * 0.001 - 1.0,
                    }
                })
                .collect();
            let mut want = vec![0.0f32; (t - 1) * out_stride + len];
            half_unit_chain(&xs, x_stride, t, &m, r0, rows, cs..ce, &mut want, out_stride);
            // NaN marks every cell a kernel must overwrite; the padding
            // between strided rows must come back untouched.
            let mut outs = vec![f32::NAN; want.len()];
            matmul_block_into(&xs, x_stride, t, &m, r0, rows, cs..ce, &mut outs, out_stride);
            let mut runs = vec![("dispatched".to_string(), outs)];
            for &arm in available() {
                let mut outs = vec![f32::NAN; want.len()];
                matmul_block_into_on(arm, &xs, x_stride, t, &m, r0, rows, cs..ce, &mut outs, out_stride);
                runs.push((format!("{arm:?}"), outs));
            }
            let bits = |v: &[f32]| v.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
            for (arm, outs) in runs {
                for tt in 0..t {
                    let row = &outs[tt * out_stride..];
                    prop_assert_eq!(bits(&row[..len]), bits(&want[tt * out_stride..][..len]),
                        "{} row {} differs", arm, tt);
                    prop_assert!(tt + 1 == t || row[len..out_stride].iter().all(|v| v.is_nan()),
                        "{} wrote past row {}", arm, tt);
                }
            }
        }

        /// Arbitrary sub-blocks from an even column match the dense
        /// `vec_mat_block` partials.
        #[test]
        fn block_matches_naive_block(
            rows in 8usize..64,
            cols in 8usize..64,
            fr in 0usize..4,
            fc in 0usize..4,
        ) {
            let codes: Vec<u8> = (0..rows * cols).map(|i| ((i * 5 + 2) % 16) as u8).collect();
            let m = packed_from(&codes, rows, cols);
            #[expect(clippy::disallowed_methods, reason = "test input: both sides read the same values")]
            let x: Vec<f32> = (0..rows).map(|i| (i as f32 * 0.13).cos()).collect();
            let r0 = fr * rows / 8;
            let r1 = rows - fr * rows / 8;
            let c0 = (fc * cols / 8) & !1;
            let c1 = cols - fc * cols / 8;
            let dense = m.to_f32();
            let naive = crate::tensor::vec_mat_block(&x, &dense, cols, r0..r1, c0..c1);
            let mut out = vec![0.0f32; c1 - c0];
            matvec_block_into(&x[r0..r1], &m, r0, c0..c1, &mut out);
            for j in 0..out.len() {
                prop_assert!((out[j] - naive[j]).abs() <= 1e-4 * (1.0 + naive[j].abs()));
            }
        }
    }
}
