//! A gate-level (RTL-equivalent) Hardwired-Neuron.
//!
//! Builds the Figure-4 ❷ unit out of [`crate::gatelevel`] primitives —
//! metal-routing inputs into 16 POPCNT regions, bit-serial region
//! accumulators, hardwired CSD constant multipliers, and the 16-operand
//! product tree — then proves it cycle-accurately bit-identical to the
//! behavioral [`crate::neuron::HardwiredNeuron`].
//!
//! Serialization is MSB-first here (Horner form `acc ← 2·acc + cᵦ`), which
//! needs only a fixed shift in hardware; the paper's LSB-first description
//! computes the same sum with a different accumulator arrangement, and the
//! equivalence tests pin the value either way.

use crate::constmul::csd_digits;
use crate::gatelevel::{build_popcount, GateCircuit, Sig};
use hnlpu_model::fp4::{Fp4, NUM_CODES};

/// A gate-level Hardwired-Neuron instance.
#[derive(Debug, Clone)]
pub struct GateHn {
    circuit: GateCircuit,
    fan_in: usize,
    activation_bits: u32,
    out_width: usize,
}

impl GateHn {
    /// Build the neuron for `weights` with `activation_bits`-wide signed
    /// activations.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or `activation_bits` is not in 2..=16.
    pub fn build(weights: &[Fp4], activation_bits: u32) -> Self {
        assert!(!weights.is_empty(), "a neuron needs at least one weight");
        assert!(
            (2..=16).contains(&activation_bits),
            "activation bits out of range"
        );
        let n = weights.len();
        let b = activation_bits as usize;
        let mut c = GateCircuit::new();

        // Cycle inputs: one serialized bit per input signal (MSB first),
        // plus the `first` control (high on the sign plane, which is also
        // the accumulator-clear cycle).
        let plane = c.inputs(n);
        let first = c.input();

        // Metal embedding: route each input bit to its weight's region.
        let mut regions: Vec<Vec<Sig>> = vec![Vec::new(); NUM_CODES];
        for (i, w) in weights.iter().enumerate() {
            regions[w.code() as usize].push(plane[i]);
        }

        // Region accumulators: acc ← first ? ±count : 2·acc ± count,
        // subtracting exactly on the sign plane (two's complement).
        let count_bits = (usize::BITS - n.leading_zeros()) as usize + 1;
        let acc_w = b + count_bits + 1;
        let zero = c.constant(false);
        let mut region_accs: Vec<Vec<Sig>> = Vec::with_capacity(NUM_CODES);
        for region in &regions {
            if region.is_empty() {
                region_accs.push(vec![zero; acc_w]);
                continue;
            }
            let count = build_popcount(&mut c, region);
            // Zero-extend the (non-negative) count to acc width.
            let mut count_w: Vec<Sig> = count.into_iter().take(acc_w).collect();
            while count_w.len() < acc_w {
                count_w.push(zero);
            }
            // Conditional negate on the sign plane: xor with `first`,
            // carry-in `first` (two's complement).
            let addend: Vec<Sig> = count_w.iter().map(|&s| c.xor(s, first)).collect();
            let acc = feedback_accumulator(&mut c, &addend, first, acc_w);
            region_accs.push(acc);
        }

        // Constant multipliers + product tree (combinational on the
        // accumulator D-inputs so the result is visible on the final
        // serial cycle).
        let prod_w = acc_w + 5;
        let tree_w = prod_w + 5;
        let mut total: Vec<Sig> = vec![zero; tree_w];
        for (code, acc) in region_accs.iter().enumerate() {
            let hu = Fp4::from_code(code as u8).as_half_units();
            if hu == 0 {
                continue;
            }
            let prod = const_multiply(&mut c, acc, hu, prod_w);
            let prod_ext = sign_extend(&mut c, &prod, tree_w);
            total = {
                let cin = c.constant(false);
                c.adder(&total, &prod_ext, cin)
            };
        }
        c.set_outputs(total.clone());
        GateHn {
            circuit: c,
            fan_in: n,
            activation_bits,
            out_width: tree_w,
        }
    }

    /// Fan-in.
    pub fn fan_in(&self) -> usize {
        self.fan_in
    }

    /// The underlying circuit (for gate counts, depth, Verilog).
    pub fn circuit(&self) -> &GateCircuit {
        &self.circuit
    }

    /// Emit a self-checking Verilog testbench driving the serial schedule
    /// with `cases` activation vectors and asserting the expected
    /// half-unit results (computed by this functional model).
    ///
    /// # Panics
    ///
    /// Panics if any case has the wrong fan-in or overflows the bit width.
    pub fn to_verilog_testbench(&self, module: &str, cases: &[Vec<i32>]) -> String {
        use std::fmt::Write as _;
        let b = self.activation_bits;
        let mut v = self.circuit().to_verilog(module);
        let _ = writeln!(v);
        let _ = writeln!(v, "module {module}_tb;");
        let _ = writeln!(v, "  reg clk = 0;");
        let _ = writeln!(v, "  reg [{}:0] in;", self.fan_in); // +1 for `first`
        let _ = writeln!(v, "  wire [{}:0] out;", self.out_width - 1);
        let _ = writeln!(v, "  {module} dut (.clk(clk), .in(in), .out(out));");
        let _ = writeln!(v, "  always #5 clk = ~clk;");
        let _ = writeln!(v, "  initial begin");
        for (case_idx, acts) in cases.iter().enumerate() {
            let expected = self.eval(acts);
            for cycle in 0..b {
                let bit_index = b - 1 - cycle;
                let mut word = String::new();
                // `first` is the MSB of the input bus (declared last).
                word.push(if cycle == 0 { '1' } else { '0' });
                for &a in acts.iter().rev() {
                    word.push(if (a >> bit_index) & 1 == 1 { '1' } else { '0' });
                }
                let _ = writeln!(v, "    @(negedge clk) in = {}'b{word};", self.fan_in + 1);
            }
            let _ = writeln!(
                v,
                "    #1 if ($signed(out) !== {expected}) begin $display(\"case {case_idx} FAILED: %0d\", $signed(out)); $fatal; end"
            );
        }
        let _ = writeln!(v, "    $display(\"all {} cases passed\");", cases.len());
        let _ = writeln!(v, "    $finish;");
        let _ = writeln!(v, "  end");
        let _ = writeln!(v, "endmodule");
        v
    }

    /// Evaluate the dot product by running the serial schedule, returning
    /// half-units exactly like the behavioral model.
    ///
    /// # Panics
    ///
    /// Panics if `activations.len() != fan_in` or a value overflows the
    /// configured bit width.
    pub fn eval(&self, activations: &[i32]) -> i64 {
        assert_eq!(activations.len(), self.fan_in, "fan-in mismatch");
        let b = self.activation_bits;
        let lo = -(1i64 << (b - 1));
        let hi = (1i64 << (b - 1)) - 1;
        for &a in activations {
            assert!((lo..=hi).contains(&(a as i64)), "activation {a} overflows");
        }
        let mut state = self.circuit.new_state();
        let mut out = Vec::new();
        // MSB-first planes; the sign plane is the `first` cycle.
        for cycle in 0..b {
            let bit_index = b - 1 - cycle;
            let mut inputs: Vec<bool> = activations
                .iter()
                .map(|&a| (a >> bit_index) & 1 == 1)
                .collect();
            inputs.push(cycle == 0); // `first`
            out = self.circuit.step(&mut state, &inputs);
        }
        // Interpret the two's-complement output.
        let mut val: i64 = 0;
        for (i, &bit) in out.iter().enumerate() {
            if bit {
                val |= 1i64 << i;
            }
        }
        // Sign extend from out_width.
        if out[self.out_width - 1] {
            val -= 1i64 << self.out_width;
        }
        val
    }
}

/// Build a `width`-bit accumulator with the recurrence
/// `acc ← (first ? 0 : acc << 1) + addend`, returning the D-side (next)
/// value so the final result is visible on the last serial cycle.
fn feedback_accumulator(c: &mut GateCircuit, addend: &[Sig], first: Sig, width: usize) -> Vec<Sig> {
    // The IR is feed-forward, but DFFs read *stored* state, so feedback is
    // expressible as long as each bit's D logic only references register
    // outputs created earlier. Both the left-shift (bit i reads stored bit
    // i-1) and the ripple carry (bit i reads bit i-1's carry) satisfy
    // that, so the bank is built bit by bit, interleaving adder and DFF.
    let zero = c.constant(false);
    let not_first = c.not(first);
    let mut q_bits: Vec<Sig> = Vec::with_capacity(width);
    let mut d_bits: Vec<Sig> = Vec::with_capacity(width);
    let mut carry = first; // conditional-negate carry-in on the sign plane
    for i in 0..width {
        // Shifted feedback: bit i of (acc << 1) is q[i-1], gated by !first.
        let shifted = if i == 0 {
            zero
        } else {
            c.and(q_bits[i - 1], not_first)
        };
        let (sum, cy) = c.full_adder(shifted, addend[i], carry);
        carry = cy;
        let q = c.dff(sum);
        q_bits.push(q);
        d_bits.push(sum);
    }
    d_bits
}

/// Sign-extend a two's-complement word to `width`.
fn sign_extend(_c: &mut GateCircuit, word: &[Sig], width: usize) -> Vec<Sig> {
    let mut out = word.to_vec();
    #[expect(
        clippy::expect_used,
        reason = "table lookup is over a closed enum domain populated exhaustively at build time; a miss is a programmer error in the RTL table generator, not a runtime input"
    )]
    let msb = *word.last().expect("nonempty word");
    while out.len() < width {
        out.push(msb);
    }
    out.truncate(width);
    out
}

/// Combinational multiply of a two's-complement `acc` by the small constant
/// `hu` via CSD shift-adds, producing a `width`-bit product.
fn const_multiply(c: &mut GateCircuit, acc: &[Sig], hu: i32, width: usize) -> Vec<Sig> {
    debug_assert!(hu != 0);
    let zero = c.constant(false);
    let mut total = vec![zero; width];
    for (shift, &digit) in csd_digits(hu.unsigned_abs() as u64).iter().enumerate() {
        if digit == 0 {
            continue;
        }
        // term = acc << shift, sign-extended to width.
        let mut term: Vec<Sig> = vec![zero; shift.min(width)];
        for &s in acc {
            if term.len() >= width {
                break;
            }
            term.push(s);
        }
        let term = sign_extend(c, &term, width);
        let negative = (digit < 0) ^ (hu < 0);
        if negative {
            let inverted: Vec<Sig> = term.iter().map(|&s| c.not(s)).collect();
            let one = c.constant(true);
            total = c.adder(&total, &inverted, one);
        } else {
            let cin = c.constant(false);
            total = c.adder(&total, &term, cin);
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::neuron::{reference_dot, HardwiredNeuron};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_case(seed: u64, n: usize, bits: u32) -> (Vec<Fp4>, Vec<i32>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let hi = 1i32 << (bits - 1);
        let weights = (0..n)
            .map(|_| Fp4::from_code(rng.gen_range(0..16)))
            .collect();
        let acts = (0..n).map(|_| rng.gen_range(-hi..hi)).collect();
        (weights, acts)
    }

    #[test]
    fn gate_level_matches_reference_dot() {
        for seed in 0..6 {
            let (w, x) = random_case(seed, 48, 6);
            let hn = GateHn::build(&w, 6);
            assert_eq!(hn.eval(&x), reference_dot(&w, &x), "seed {seed}");
        }
    }

    #[test]
    fn gate_level_matches_behavioral_neuron() {
        let (w, x) = random_case(42, 64, 8);
        let gate = GateHn::build(&w, 8);
        let behavioral = HardwiredNeuron::build_with_bits(&w, 1.25, 8);
        assert_eq!(gate.eval(&x), behavioral.eval(&x).value_half_units);
    }

    #[test]
    fn single_weight_neuron() {
        let w = vec![Fp4::from_f32(-1.5)];
        let hn = GateHn::build(&w, 5);
        assert_eq!(hn.eval(&[7]), -3 * 7);
        assert_eq!(hn.eval(&[-8]), -3 * -8);
        assert_eq!(hn.eval(&[0]), 0);
    }

    #[test]
    fn extreme_activations() {
        let (w, _) = random_case(3, 16, 8);
        let hn = GateHn::build(&w, 8);
        let max = vec![127i32; 16];
        let min = vec![-128i32; 16];
        assert_eq!(hn.eval(&max), reference_dot(&w, &max));
        assert_eq!(hn.eval(&min), reference_dot(&w, &min));
    }

    #[test]
    fn gate_counts_are_reported() {
        let (w, _) = random_case(1, 32, 6);
        let hn = GateHn::build(&w, 6);
        let (and, or, xor, _not, dff) = hn.circuit().gate_counts();
        assert!(and > 0 && or > 0 && xor > 0);
        // One accumulator bank per populated region.
        assert!(dff > 0);
        assert!(hn.circuit().depth() > 4);
    }

    #[test]
    fn verilog_for_neuron_is_structural() {
        let (w, _) = random_case(2, 12, 4);
        let hn = GateHn::build(&w, 4);
        let v = hn.circuit().to_verilog("hardwired_neuron");
        assert!(v.contains("module hardwired_neuron"));
        assert!(v.matches("always @(posedge clk)").count() > 8);
    }

    #[test]
    fn testbench_contains_vectors_and_expectations() {
        let (w, _) = random_case(4, 8, 4);
        let hn = GateHn::build(&w, 4);
        let cases = vec![vec![1i32, -2, 3, -4, 5, -6, 7, -8], vec![0; 8]];
        let tb = hn.to_verilog_testbench("hn8", &cases);
        assert!(tb.contains("module hn8_tb;"));
        assert!(tb.contains("$fatal"));
        assert!(tb.contains("all 2 cases passed"));
        // One stimulus line per serial cycle per case.
        assert_eq!(tb.matches("@(negedge clk)").count(), 2 * 4);
        // The expected values embedded in the TB match the model.
        let e0 = hn.eval(&cases[0]);
        assert!(tb.contains(&format!("!== {e0}")));
    }

    #[test]
    fn reusable_across_evaluations() {
        // The `first`-cycle clear makes back-to-back evaluations on the
        // same instance independent.
        let (w, x1) = random_case(7, 24, 6);
        let (_, x2) = random_case(8, 24, 6);
        let hn = GateHn::build(&w, 6);
        assert_eq!(hn.eval(&x1), reference_dot(&w, &x1));
        assert_eq!(hn.eval(&x2), reference_dot(&w, &x2));
        assert_eq!(hn.eval(&x1), reference_dot(&w, &x1));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn rtl_exactness(
            codes in prop::collection::vec(0u8..16, 1..40),
            seed in 0u64..1000,
        ) {
            let weights: Vec<Fp4> = codes.iter().map(|&c| Fp4::from_code(c)).collect();
            let mut rng = StdRng::seed_from_u64(seed);
            let acts: Vec<i32> = (0..weights.len()).map(|_| rng.gen_range(-32..32)).collect();
            let hn = GateHn::build(&weights, 7);
            prop_assert_eq!(hn.eval(&acts), reference_dot(&weights, &acts));
        }
    }
}
