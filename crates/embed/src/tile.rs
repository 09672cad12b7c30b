//! The §6.3 embedding-methodology benchmark tile.
//!
//! One matrix-vector multiplication — a `1×1024` input against a `1024×128`
//! FP4 weight matrix (a typical LLM attention-block dimension) — evaluated
//! under the three methodologies:
//!
//! * `MA` — a 64 KB SRAM holding the weights plus a 1 024-lane MAC array,
//! * `CE` — Cell-Embedding (one constant multiplier per weight),
//! * `ME` — Metal-Embedding Hardwired-Neurons.
//!
//! [`TileComparison::paper_benchmark`] regenerates Figure 12 (area,
//! normalized to the MA's SRAM) and Figure 13 (execution cycles and energy).
//! All three designs are bit-exact against the reference dot product.

use crate::array::{me_neuron_budget, me_neuron_cycles, MeNeuronParams};
use hnlpu_arith::neuron::{CellEmbeddingNeuron, HardwiredNeuron, MacArray};
use hnlpu_arith::GateBudget;
use hnlpu_circuit::power::dynamic_energy_j;
use hnlpu_circuit::{logic_area_mm2, sram_macro, TechNode};
use hnlpu_model::Fp4;

/// Which embedding methodology a tile uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TileMethod {
    /// SRAM + time-multiplexed MAC array.
    MacArray,
    /// Cell-Embedding.
    CellEmbedding,
    /// Metal-Embedding.
    MetalEmbedding,
}

/// A planned benchmark tile: `rows` inputs × `cols` output neurons.
#[derive(Debug, Clone, PartialEq)]
pub struct TileDesign {
    /// Methodology.
    pub method: TileMethod,
    /// Fan-in (input vector length).
    pub rows: usize,
    /// Output neuron count.
    pub cols: usize,
    /// Activation bit-width (the paper feeds int8 activations).
    pub activation_bits: u32,
    /// MAC lanes (MA only).
    pub lanes: usize,
    /// ME neuron parameters (ME only).
    pub me_params: MeNeuronParams,
}

impl TileDesign {
    /// The paper's benchmark geometry for `method`: 1×1024 · 1024×128,
    /// int8 activations, 1 024 MAC lanes.
    pub fn paper(method: TileMethod) -> Self {
        TileDesign {
            method,
            rows: 1024,
            cols: 128,
            activation_bits: 8,
            lanes: 1024,
            me_params: MeNeuronParams::tile_default(),
        }
    }

    /// Weight storage of the tile in bytes (FP4).
    pub(crate) fn weight_bytes(&self) -> u64 {
        (self.rows * self.cols) as u64 / 2
    }

    /// Aggregate gate budget of the compute fabric (excludes the MA's SRAM,
    /// which is modeled as a macro).
    pub(crate) fn budget(&self) -> GateBudget {
        match self.method {
            TileMethod::MacArray => MacArray::new(self.lanes, self.activation_bits).budget(),
            TileMethod::CellEmbedding => {
                // All multipliers have identical structure cost regardless of
                // the constant's value distribution only via CSD stages; use
                // a representative mix over the 16 codes.
                let mix: Vec<Fp4> = (0..self.rows)
                    .map(|i| Fp4::from_code((i % 16) as u8))
                    .collect();
                CellEmbeddingNeuron::build(&mix, self.activation_bits).budget() * self.cols as u64
            }
            TileMethod::MetalEmbedding => {
                let mut p = self.me_params;
                p.activation_bits = self.activation_bits;
                me_neuron_budget(self.rows, &p) * self.cols as u64
            }
        }
    }

    /// Tile area in mm². Per the paper's comparison, the MA tile is its
    /// 64 KB weight SRAM (the compute array is excluded as arbitrary-sized);
    /// CE and ME are their full compute fabrics.
    pub(crate) fn area_mm2(&self, tech: &TechNode) -> f64 {
        match self.method {
            TileMethod::MacArray => sram_macro(self.weight_bytes()).area_mm2(tech),
            _ => logic_area_mm2(&self.budget(), tech, true),
        }
    }

    /// Execution cycles for one full GEMV.
    pub(crate) fn cycles(&self) -> u64 {
        match self.method {
            TileMethod::MacArray => (self.rows * self.cols) as u64 / self.lanes as u64 + 22,
            TileMethod::CellEmbedding => {
                // Parallel multipliers, one pass through the adder tree.
                let mix: Vec<Fp4> = (0..self.rows)
                    .map(|i| Fp4::from_code((i % 16) as u8))
                    .collect();
                CellEmbeddingNeuron::build(&mix, self.activation_bits)
                    .eval(&vec![0; self.rows])
                    .cycles
            }
            TileMethod::MetalEmbedding => {
                let mut p = self.me_params;
                p.activation_bits = self.activation_bits;
                me_neuron_cycles(&p, self.rows)
            }
        }
    }

    /// Energy of one full GEMV in joules.
    pub(crate) fn energy_j(&self, tech: &TechNode) -> f64 {
        match self.method {
            TileMethod::MacArray => {
                // Fetch every weight byte from SRAM once, plus MAC dynamic
                // energy over the execution.
                let sram = sram_macro(self.weight_bytes());
                let fetch = sram.read_energy_j(self.weight_bytes(), tech);
                let mac = dynamic_energy_j(&self.budget(), tech, 0.35) * self.cycles() as f64;
                fetch + mac
            }
            TileMethod::CellEmbedding => {
                // One combinational evaluation: every multiplier and tree
                // node toggles once — plus the dominant cost of broadcasting
                // every activation bit across the huge fabric (each bit
                // drives `cols` multiplier loads over long wires).
                let compute = dynamic_energy_j(&self.budget(), tech, 0.35);
                let broadcast =
                    (self.rows * self.activation_bits as usize * self.cols) as f64 * 2.0e-15;
                compute + broadcast
            }
            TileMethod::MetalEmbedding => {
                // The compact fabric toggles once per bit-plane subcycle;
                // inputs arrive one bit at a time over short scan taps.
                let per_cycle = dynamic_energy_j(&self.budget(), tech, 0.35);
                let active_cycles = (self.activation_bits * self.me_params.scan_factor) as f64;
                let scan_in =
                    (self.rows * self.activation_bits as usize * self.cols) as f64 * 0.1e-15;
                per_cycle * active_cycles + scan_in
            }
        }
    }

    /// Execute the GEMV exactly: `weights` is row-major `rows × cols`.
    ///
    /// # Panics
    ///
    /// Panics if the input shapes disagree with the tile geometry.
    pub fn execute(&self, weights: &[Fp4], x: &[i32]) -> Vec<i64> {
        assert_eq!(weights.len(), self.rows * self.cols, "weight shape");
        assert_eq!(x.len(), self.rows, "input shape");
        let column =
            |c: usize| -> Vec<Fp4> { (0..self.rows).map(|r| weights[r * self.cols + c]).collect() };
        match self.method {
            TileMethod::MacArray => {
                let ma = MacArray::new(self.lanes, self.activation_bits.max(12));
                (0..self.cols)
                    .map(|c| ma.eval(&column(c), x).value_half_units)
                    .collect()
            }
            TileMethod::CellEmbedding => (0..self.cols)
                .map(|c| {
                    CellEmbeddingNeuron::build(&column(c), 12)
                        .eval(x)
                        .value_half_units
                })
                .collect(),
            TileMethod::MetalEmbedding => (0..self.cols)
                .map(|c| {
                    HardwiredNeuron::build_with_bits(&column(c), self.me_params.slack, 12)
                        .eval(x)
                        .value_half_units
                })
                .collect(),
        }
    }
}

/// One row of the Figure 12/13 comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct TileRow {
    /// Methodology.
    pub method: TileMethod,
    /// Absolute area, mm².
    pub area_mm2: f64,
    /// Area normalized to the MA SRAM (Figure 12's unit).
    pub area_rel: f64,
    /// Execution cycles (Figure 13, left).
    pub cycles: u64,
    /// Energy per GEMV, joules (Figure 13, right).
    pub energy_j: f64,
}

/// The full §6.3 comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct TileComparison {
    /// MA, CE, ME rows in paper order (CE, MA-SRAM, ME for Figure 12).
    pub rows: Vec<TileRow>,
}

impl TileComparison {
    /// Run the paper benchmark at `tech`.
    pub fn paper_benchmark(tech: &TechNode) -> Self {
        let sram_area = TileDesign::paper(TileMethod::MacArray).area_mm2(tech);
        let rows = [
            TileMethod::MacArray,
            TileMethod::CellEmbedding,
            TileMethod::MetalEmbedding,
        ]
        .into_iter()
        .map(|m| {
            let d = TileDesign::paper(m);
            let area = d.area_mm2(tech);
            TileRow {
                method: m,
                area_mm2: area,
                area_rel: area / sram_area,
                cycles: d.cycles(),
                energy_j: d.energy_j(tech),
            }
        })
        .collect();
        TileComparison { rows }
    }

    /// Row for `method`.
    ///
    /// # Panics
    ///
    /// Panics if the comparison does not contain the method (it always does
    /// for [`paper_benchmark`](Self::paper_benchmark)).
    #[expect(
        clippy::expect_used,
        reason = "row count is fixed at construction and validated by the constructor; the expect encodes a programmer-error contract documented under # Panics"
    )]
    pub fn row(&self, method: TileMethod) -> &TileRow {
        self.rows
            .iter()
            .find(|r| r.method == method)
            .expect("method present")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use hnlpu_arith::neuron::reference_dot;

    fn random_problem(seed: u64, rows: usize, cols: usize) -> (Vec<Fp4>, Vec<i32>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let w = (0..rows * cols)
            .map(|_| Fp4::from_code(rng.gen_range(0..16)))
            .collect();
        let x = (0..rows).map(|_| rng.gen_range(-128..128)).collect();
        (w, x)
    }

    #[test]
    fn all_methods_compute_identical_gemv() {
        let (w, x) = random_problem(1, 64, 8);
        let mut tiles = Vec::new();
        for m in [
            TileMethod::MacArray,
            TileMethod::CellEmbedding,
            TileMethod::MetalEmbedding,
        ] {
            let mut d = TileDesign::paper(m);
            d.rows = 64;
            d.cols = 8;
            tiles.push(d.execute(&w, &x));
        }
        assert_eq!(tiles[0], tiles[1]);
        assert_eq!(tiles[1], tiles[2]);
        // And against the naive reference.
        for c in 0..8 {
            let col: Vec<Fp4> = (0..64).map(|r| w[r * 8 + c]).collect();
            assert_eq!(tiles[0][c], reference_dot(&col, &x));
        }
    }

    #[test]
    fn figure12_area_ratios() {
        // Paper: CE 14.3×, SRAM 1×, ME 0.95×.
        let cmp = TileComparison::paper_benchmark(&TechNode::n5());
        let ce = cmp.row(TileMethod::CellEmbedding).area_rel;
        let me = cmp.row(TileMethod::MetalEmbedding).area_rel;
        assert!((ce - 14.3).abs() / 14.3 < 0.15, "CE rel area = {ce:.2}");
        assert!((me - 0.95).abs() / 0.95 < 0.15, "ME rel area = {me:.2}");
        assert_eq!(cmp.row(TileMethod::MacArray).area_rel, 1.0);
    }

    #[test]
    fn figure13_cycle_shape() {
        // Paper: MA ~150 cycles; CE and ME dramatically fewer.
        let cmp = TileComparison::paper_benchmark(&TechNode::n5());
        let ma = cmp.row(TileMethod::MacArray).cycles;
        let ce = cmp.row(TileMethod::CellEmbedding).cycles;
        let me = cmp.row(TileMethod::MetalEmbedding).cycles;
        assert!((140..=160).contains(&ma), "MA cycles = {ma}");
        assert!(ce < ma / 4, "CE cycles = {ce}");
        assert!(me < ma / 3, "ME cycles = {me}");
    }

    #[test]
    fn figure13_energy_ordering() {
        // Paper: MA consumes the most (SRAM traffic); CE pays leakage/input
        // distribution over its huge area; ME consumes the least.
        let cmp = TileComparison::paper_benchmark(&TechNode::n5());
        let ma = cmp.row(TileMethod::MacArray).energy_j;
        let ce = cmp.row(TileMethod::CellEmbedding).energy_j;
        let me = cmp.row(TileMethod::MetalEmbedding).energy_j;
        assert!(ma > ce, "MA {ma:.3e} should exceed CE {ce:.3e}");
        assert!(ce > me, "CE {ce:.3e} should exceed ME {me:.3e}");
        // MA lands in the ~10 nJ decade of Figure 13.
        assert!(ma > 2e-9 && ma < 4e-8, "MA energy = {ma:.3e}");
    }

    #[test]
    fn weight_bytes_is_64kb() {
        assert_eq!(
            TileDesign::paper(TileMethod::MacArray).weight_bytes(),
            64 * 1024
        );
    }

    #[test]
    #[should_panic(expected = "weight shape")]
    fn execute_validates_shapes() {
        TileDesign::paper(TileMethod::MacArray).execute(&[], &[]);
    }
}
