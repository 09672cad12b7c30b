//! Minimal row-major matrix/vector kernels.

/// `y = x · W` where `x` is `(1, rows)` and `W` is row-major `(rows, cols)`.
///
/// # Panics
///
/// Panics if `x.len() * cols != w.len()`.
pub fn vec_mat(x: &[f32], w: &[f32], cols: usize) -> Vec<f32> {
    assert_eq!(x.len() * cols, w.len(), "shape mismatch");
    let mut y = vec![0.0f32; cols];
    for (i, &xi) in x.iter().enumerate() {
        if xi == 0.0 {
            continue;
        }
        let row = &w[i * cols..(i + 1) * cols];
        for (yj, &wij) in y.iter_mut().zip(row.iter()) {
            *yj += xi * wij;
        }
    }
    y
}

/// Allocation-free [`vec_mat`]: overwrite `y` with `x · W`. Same zero-skip
/// accumulation order, so results are bit-identical.
///
/// # Panics
///
/// Panics if `x.len() * cols != w.len()` or `y.len() != cols`.
pub fn vec_mat_into(x: &[f32], w: &[f32], cols: usize, y: &mut [f32]) {
    assert_eq!(x.len() * cols, w.len(), "shape mismatch");
    assert_eq!(y.len(), cols, "output length mismatch");
    y.fill(0.0);
    for (i, &xi) in x.iter().enumerate() {
        if xi == 0.0 {
            continue;
        }
        let row = &w[i * cols..(i + 1) * cols];
        for (yj, &wij) in y.iter_mut().zip(row.iter()) {
            *yj += xi * wij;
        }
    }
}

/// `y = x · W[row_range, col_range]` — a partial product over a sub-block
/// of `W`, as a chip computes it (the dataflow executor's workhorse).
///
/// # Panics
///
/// Panics if the ranges exceed the matrix shape.
pub fn vec_mat_block(
    x: &[f32],
    w: &[f32],
    cols: usize,
    row_range: std::ops::Range<usize>,
    col_range: std::ops::Range<usize>,
) -> Vec<f32> {
    assert!(row_range.end <= x.len(), "row range out of bounds");
    assert!(col_range.end <= cols, "col range out of bounds");
    let mut y = vec![0.0f32; col_range.len()];
    for i in row_range {
        let xi = x[i];
        if xi == 0.0 {
            continue;
        }
        let row = &w[i * cols + col_range.start..i * cols + col_range.end];
        for (yj, &wij) in y.iter_mut().zip(row.iter()) {
            *yj += xi * wij;
        }
    }
    y
}

/// Elementwise `a += b`.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn add_assign(a: &mut [f32], b: &[f32]) {
    assert_eq!(a.len(), b.len(), "length mismatch");
    for (x, y) in a.iter_mut().zip(b.iter()) {
        *x += y;
    }
}

/// Dot product.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "length mismatch");
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

/// Hidden rows one [`unembed_into`] call may carry.
pub const UNEMBED_MAX_ROWS: usize = 64;

/// Hidden rows per lane block of the batched unembedding: one 8-lane
/// vector of independent accumulation chains.
const LANES: usize = 8;

/// Weight-tied unembedding of `xs.len() / h` normalized hidden rows (`xs`
/// row-major, `h` wide) against the `vocab × h` row-major `embedding`
/// table, in **one pass over the table**: for each vocabulary row in
/// order, `emit(token, logits)` receives that token's logit for every
/// hidden row.
///
/// This function owns the contract that every logit is [`dot`]'s exact
/// accumulation chain — `dot`'s seed value, then strictly in-order
/// `acc + x[i] * e[i]` with a separate multiply and add (no FMA) — so a
/// logit never depends on how many rows were unembedded with it. One row
/// is the plain `dot` loop. More rows are lane-transposed into `lanes`
/// (which must hold `rows` rounded up to a multiple of 8, times `h`
/// floats; unused for one row) so each hidden row owns a SIMD lane with
/// its own chain, and the table is read once for all of them instead of
/// once per row.
///
/// # Panics
///
/// Panics if `xs` or `embedding` is not a whole number of `h`-wide rows,
/// there are no or more than [`UNEMBED_MAX_ROWS`] hidden rows, or `lanes`
/// is too short.
// analyze: hot
pub fn unembed_into(
    embedding: &[f32],
    h: usize,
    xs: &[f32],
    lanes: &mut [f32],
    mut emit: impl FnMut(usize, &[f32]),
) {
    assert!(h > 0 && embedding.len().is_multiple_of(h), "table shape");
    assert!(xs.len().is_multiple_of(h), "hidden panel shape");
    let rows = xs.len() / h;
    assert!((1..=UNEMBED_MAX_ROWS).contains(&rows), "hidden row count");
    if rows == 1 {
        for (token, e) in embedding.chunks_exact(h).enumerate() {
            emit(token, &[dot(xs, e)]);
        }
        return;
    }
    // Block `k` covers hidden rows `8k .. 8k + 8`: its float `i * 8 + l` is
    // element `i` of row `8k + l`. Lanes past the last row stay zero and
    // are never emitted.
    let lanes = &mut lanes[..rows.div_ceil(LANES) * LANES * h];
    lanes.fill(0.0);
    for (r, x) in xs.chunks_exact(h).enumerate() {
        let block = &mut lanes[r / LANES * LANES * h..];
        for (i, &xi) in x.iter().enumerate() {
            block[i * LANES + r % LANES] = xi;
        }
    }
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 presence checked on the line above.
        unsafe { unembed_lanes_avx2(embedding, h, lanes, rows, &mut emit) };
        return;
    }
    unembed_lanes(embedding, h, lanes, rows, &mut emit);
}

/// [`unembed_lanes`] compiled with 8-wide vectors. No `fma` feature and no
/// `mul_add`: the multiply and the add stay separate roundings.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn unembed_lanes_avx2(
    embedding: &[f32],
    h: usize,
    lanes: &[f32],
    rows: usize,
    emit: &mut impl FnMut(usize, &[f32]),
) {
    unembed_lanes(embedding, h, lanes, rows, emit);
}

/// The table pass over lane-transposed hiddens (layout in
/// [`unembed_into`]): per table row and lane block, eight independent
/// `dot` chains.
#[inline(always)]
fn unembed_lanes(
    embedding: &[f32],
    h: usize,
    lanes: &[f32],
    rows: usize,
    emit: &mut impl FnMut(usize, &[f32]),
) {
    // Whatever value `dot`'s `sum()` starts from.
    let seed: f32 = std::iter::empty::<f32>().sum();
    let mut out = [0.0f32; UNEMBED_MAX_ROWS];
    for (token, e) in embedding.chunks_exact(h).enumerate() {
        for (block, out) in lanes
            .chunks_exact(LANES * h)
            .zip(out.chunks_exact_mut(LANES))
        {
            let mut acc = [seed; LANES];
            for (x, &ei) in block.chunks_exact(LANES).zip(e) {
                for (a, &xl) in acc.iter_mut().zip(x) {
                    *a += xl * ei;
                }
            }
            out.copy_from_slice(&acc);
        }
        emit(token, &out[..rows]);
    }
}

/// Scale in place.
pub fn scale(a: &mut [f32], k: f32) {
    for x in a.iter_mut() {
        *x *= k;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_mat_identity() {
        // 3x3 identity.
        let w = [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0];
        assert_eq!(vec_mat(&[2.0, 3.0, 4.0], &w, 3), vec![2.0, 3.0, 4.0]);
    }

    #[test]
    fn vec_mat_block_partials_sum_to_full() {
        let x = [1.0f32, 2.0, 3.0, 4.0];
        let w: Vec<f32> = (0..4 * 6).map(|i| i as f32 * 0.5).collect();
        let full = vec_mat(&x, &w, 6);
        let mut sum = vec![0.0; 3];
        // Split rows in two halves, columns 0..3.
        for rows in [0..2usize, 2..4] {
            let part = vec_mat_block(&x, &w, 6, rows, 0..3);
            add_assign(&mut sum, &part);
        }
        assert_eq!(sum, full[0..3].to_vec());
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn vec_mat_validates() {
        vec_mat(&[1.0], &[1.0, 2.0, 3.0], 2);
    }

    #[test]
    fn dot_and_scale() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        let mut a = [2.0f32, 4.0];
        scale(&mut a, 0.5);
        assert_eq!(a, [1.0, 2.0]);
    }

    #[test]
    fn vec_mat_into_matches_vec_mat() {
        let x = [0.5f32, 0.0, -2.0];
        let w: Vec<f32> = (0..3 * 4).map(|i| (i as f32).cos()).collect();
        let mut y = [9.0f32; 4];
        vec_mat_into(&x, &w, 4, &mut y);
        assert_eq!(y.to_vec(), vec_mat(&x, &w, 4));
    }

    #[test]
    fn zero_skip_is_exact() {
        let x = [0.0f32, 1.0];
        let w = [5.0f32, 6.0, 7.0, 8.0];
        assert_eq!(vec_mat(&x, &w, 2), vec![7.0, 8.0]);
    }

    proptest::proptest! {
        /// The unembedding contract: whatever the row count, every logit is
        /// bit-for-bit `dot(hidden row, table row)` — including signed
        /// zeros, which expose a wrong seed value or a fused multiply-add.
        #[test]
        fn unembed_is_bitwise_dot_for_every_row_count(
            rows in 1usize..=UNEMBED_MAX_ROWS,
            h in 1usize..40,
            vocab in 1usize..12,
            seed in 0u64..1000,
        ) {
            let value = |i: usize| match (i as u64).wrapping_mul(seed + 3) % 7 {
                0 => 0.0,
                1 => -0.0,
                k => ((i as u64 * 2654435761 + seed) % 2000) as f32 * 1e-3 * k as f32 - 3.0,
            };
            let embedding: Vec<f32> = (0..vocab * h).map(|i| value(i * 3 + 1)).collect();
            let xs: Vec<f32> = (0..rows * h).map(value).collect();
            let mut lanes = vec![f32::NAN; rows.div_ceil(8) * 8 * h];
            let mut seen = 0;
            unembed_into(&embedding, h, &xs, &mut lanes, |token, logits| {
                assert_eq!(token, seen, "tokens arrive in table order");
                seen += 1;
                assert_eq!(logits.len(), rows);
                for (r, got) in logits.iter().enumerate() {
                    let want = dot(&xs[r * h..(r + 1) * h], &embedding[token * h..(token + 1) * h]);
                    assert_eq!(got.to_bits(), want.to_bits(), "row {r} token {token}");
                }
            });
            proptest::prop_assert_eq!(seen, vocab);
        }
    }
}
