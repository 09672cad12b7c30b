//! Nibble-packed FP4 weight matrices — the resident format of every
//! hardwired tensor.
//!
//! The paper's machine never stores dequantized weights: each neuron's FP4
//! codes are fixed in metal, and arithmetic happens by routing inputs into
//! one POPCNT accumulator region per code (Figure 4, §4.2). The software
//! analogue keeps every attention/router/expert matrix as raw 4-bit codes,
//! two per byte — 8× smaller than the `f32` tensors the engines used to
//! materialize — and the region-accumulation kernels in `hnlpu-llm` compute
//! directly on this representation.
//!
//! Layout is row-major with the two codes of columns `2k` and `2k + 1` of a
//! row sharing byte `k` (low nibble = even column). A row therefore occupies
//! `cols.div_ceil(2)` contiguous bytes, which is what lets the kernels walk
//! a row with wide loads.

use crate::fp4::{Fp4, NUM_CODES};

/// A row-major, nibble-packed FP4 matrix with its dequantization norm.
///
/// `value(r, c) = get(r, c).to_f32() * norm()` — the norm is the
/// `1/sqrt(rows)` (over the 1.8 generator stretch) scale of a trained
/// weight, carried by the matrix itself so nothing is dequantized up front.
///
/// # Example
///
/// ```
/// use hnlpu_model::{Fp4, PackedFp4Matrix};
/// let codes: Vec<Fp4> = (0..6).map(|i| Fp4::from_code(i as u8)).collect();
/// let m = PackedFp4Matrix::from_codes(&codes, 2, 3, 0.5);
/// assert_eq!(m.get(1, 2).code(), 5);
/// assert_eq!(m.to_f32()[5], Fp4::from_code(5).to_f32() * 0.5);
/// assert_eq!(m.bytes(), 2 * 2); // two rows of ceil(3/2) bytes
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PackedFp4Matrix {
    rows: usize,
    cols: usize,
    /// Bytes per row: `cols.div_ceil(2)`.
    stride: usize,
    /// Dequantization scale applied to every element.
    norm: f32,
    /// `rows * stride` bytes of packed codes.
    data: Vec<u8>,
}

impl PackedFp4Matrix {
    /// Pack a row-major code slice (`rows * cols` entries, as produced by
    /// [`crate::WeightGenerator::matrix`]) with dequantization scale `norm`.
    ///
    /// # Panics
    ///
    /// Panics if `codes.len() != rows * cols`.
    pub fn from_codes(codes: &[Fp4], rows: usize, cols: usize, norm: f32) -> Self {
        assert_eq!(codes.len(), rows * cols, "shape mismatch");
        let mut m = Self::zeroed(rows, cols, norm);
        m.pack(codes.iter().copied());
        m
    }

    /// An all-zero-code matrix of the given shape and norm.
    pub(crate) fn zeroed(rows: usize, cols: usize, norm: f32) -> Self {
        let stride = cols.div_ceil(2);
        PackedFp4Matrix {
            rows,
            cols,
            stride,
            norm,
            data: vec![0u8; rows * stride],
        }
    }

    /// Write a row-major code stream into the matrix, two codes per byte,
    /// low nibble first, each byte once; the pad nibble of an odd-width row
    /// is zero and codes past `rows * cols` are not drawn.
    pub(crate) fn pack(&mut self, mut codes: impl Iterator<Item = Fp4>) {
        let cols = self.cols;
        for row in self.data.chunks_exact_mut(self.stride.max(1)) {
            let mut row_codes = (&mut codes).take(cols).map(Fp4::code);
            for byte in row {
                let low = row_codes.next().unwrap_or(0);
                let high = row_codes.next().unwrap_or(0);
                *byte = low | high << 4;
            }
        }
    }

    /// The packed code bytes, for a writer that fills whole rows at once.
    pub(crate) fn data_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// Number of rows (the input dimension of `x · W`).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (the output dimension of `x · W`).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Bytes per packed row (`cols.div_ceil(2)`).
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// The dequantization scale applied to every element.
    pub fn norm(&self) -> f32 {
        self.norm
    }

    /// The packed code bytes, row-major, `stride()` bytes per row.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// The FP4 code at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn get(&self, row: usize, col: usize) -> Fp4 {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        let byte = self.data[row * self.stride + col / 2];
        Fp4::from_code((byte >> ((col % 2) * 4)) & 0x0F)
    }

    /// Resident bytes of the packed representation.
    pub fn bytes(&self) -> usize {
        self.data.len()
    }

    /// Dequantize the whole matrix to dense row-major `f32` (including the
    /// norm). Only tests pay this cost (the dense naive oracle among them).
    pub fn to_f32(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.rows * self.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.push(self.get(r, c).to_f32() * self.norm);
            }
        }
        out
    }

    /// Histogram of the 16 codes actually packed — the region occupancy a
    /// Hardwired Neuron array would wire for this matrix. Agrees with
    /// [`crate::WeightGenerator::code_histogram`] for the generating matrix.
    pub fn code_histogram(&self) -> [u64; NUM_CODES] {
        let mut hist = [0u64; NUM_CODES];
        for r in 0..self.rows {
            for c in 0..self.cols {
                hist[self.get(r, c).code() as usize] += 1;
            }
        }
        hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(rows: usize, cols: usize) -> Vec<Fp4> {
        (0..rows * cols)
            .map(|i| Fp4::from_code((i % 16) as u8))
            .collect()
    }

    #[test]
    fn roundtrip_all_sixteen_codes() {
        // Every code survives packing, at even and odd columns alike.
        for cols in [16usize, 15, 17] {
            let codes = ramp(4, cols);
            let m = PackedFp4Matrix::from_codes(&codes, 4, cols, 1.0);
            for r in 0..4 {
                for c in 0..cols {
                    assert_eq!(m.get(r, c), codes[r * cols + c], "({r},{c}) cols={cols}");
                }
            }
        }
    }

    #[test]
    fn odd_width_rows_are_padded_not_overlapped() {
        let codes = ramp(3, 5);
        let m = PackedFp4Matrix::from_codes(&codes, 3, 5, 1.0);
        assert_eq!(m.stride(), 3);
        assert_eq!(m.bytes(), 9);
        // The pad nibble of each row stays zero.
        for r in 0..3 {
            assert_eq!(m.data()[r * 3 + 2] >> 4, 0);
        }
    }

    #[test]
    fn dequantization_applies_norm() {
        let codes = ramp(2, 8);
        let m = PackedFp4Matrix::from_codes(&codes, 2, 8, 0.25);
        let dense = m.to_f32();
        for (i, c) in codes.iter().enumerate() {
            assert_eq!(dense[i], c.to_f32() * 0.25);
        }
    }

    #[test]
    fn histogram_counts_every_element() {
        let codes = ramp(8, 7);
        let m = PackedFp4Matrix::from_codes(&codes, 8, 7, 1.0);
        let h = m.code_histogram();
        assert_eq!(h.iter().sum::<u64>(), 8 * 7);
        // The ramp hits every code at least thrice over 56 entries.
        assert!(h.iter().all(|&c| c >= 3), "{h:?}");
    }

    #[test]
    fn packed_is_eight_times_smaller_than_f32() {
        let codes = ramp(64, 64);
        let m = PackedFp4Matrix::from_codes(&codes, 64, 64, 1.0);
        assert_eq!(m.bytes() * 8, 64 * 64 * 4);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn wrong_shape_rejected() {
        PackedFp4Matrix::from_codes(&ramp(2, 2), 3, 3, 1.0);
    }
}
