//! A gate-level circuit IR and cycle-accurate simulator.
//!
//! The paper implements HNLPU's core in Verilog and verifies it "using
//! extensive test cases" (§6.1). This module is that layer's reproduction:
//! circuits are built gate by gate (AND/OR/XOR/NOT, constants, D flip-
//! flops), simulated cycle-accurately in topological order, and emitted as
//! structural Verilog. [`crate::hn_rtl`] builds the Hardwired-Neuron out of
//! these gates and proves it bit-identical to the behavioral model.

use std::fmt::Write as _;

/// A signal in the circuit (index into the node table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sig(u32);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Node {
    Input(u32),
    Const(bool),
    And(Sig, Sig),
    Or(Sig, Sig),
    Xor(Sig, Sig),
    Not(Sig),
    /// D flip-flop: samples `d` on the clock edge; output is the stored
    /// state during the cycle.
    Dff(Sig),
}

/// A gate-level circuit under construction / simulation.
#[derive(Debug, Clone, Default)]
pub struct GateCircuit {
    nodes: Vec<Node>,
    num_inputs: u32,
    outputs: Vec<Sig>,
}

impl GateCircuit {
    /// An empty circuit.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, n: Node) -> Sig {
        self.nodes.push(n);
        Sig(self.nodes.len() as u32 - 1)
    }

    /// Declare the next primary input.
    pub(crate) fn input(&mut self) -> Sig {
        let idx = self.num_inputs;
        self.num_inputs += 1;
        self.push(Node::Input(idx))
    }

    /// Declare `n` primary inputs.
    pub(crate) fn inputs(&mut self, n: usize) -> Vec<Sig> {
        (0..n).map(|_| self.input()).collect()
    }

    /// A constant signal.
    pub(crate) fn constant(&mut self, v: bool) -> Sig {
        self.push(Node::Const(v))
    }

    /// AND gate.
    pub(crate) fn and(&mut self, a: Sig, b: Sig) -> Sig {
        self.push(Node::And(a, b))
    }

    /// OR gate.
    pub(crate) fn or(&mut self, a: Sig, b: Sig) -> Sig {
        self.push(Node::Or(a, b))
    }

    /// XOR gate.
    pub(crate) fn xor(&mut self, a: Sig, b: Sig) -> Sig {
        self.push(Node::Xor(a, b))
    }

    /// Inverter.
    pub(crate) fn not(&mut self, a: Sig) -> Sig {
        self.push(Node::Not(a))
    }

    /// D flip-flop (resets to 0).
    pub(crate) fn dff(&mut self, d: Sig) -> Sig {
        self.push(Node::Dff(d))
    }

    /// Full adder: returns `(sum, carry)`.
    pub(crate) fn full_adder(&mut self, a: Sig, b: Sig, cin: Sig) -> (Sig, Sig) {
        let axb = self.xor(a, b);
        let sum = self.xor(axb, cin);
        let ab = self.and(a, b);
        let ac = self.and(axb, cin);
        let carry = self.or(ab, ac);
        (sum, carry)
    }

    /// Ripple-carry adder over little-endian words of equal width; returns
    /// the sum word (carry-out discarded: size words accordingly).
    ///
    /// # Panics
    ///
    /// Panics if widths differ or are zero.
    pub fn adder(&mut self, a: &[Sig], b: &[Sig], cin: Sig) -> Vec<Sig> {
        assert_eq!(a.len(), b.len(), "adder width mismatch");
        assert!(!a.is_empty(), "zero-width adder");
        let mut carry = cin;
        let mut out = Vec::with_capacity(a.len());
        for (&x, &y) in a.iter().zip(b.iter()) {
            let (s, c) = self.full_adder(x, y, carry);
            out.push(s);
            carry = c;
        }
        out
    }

    /// Mark `sigs` as the circuit outputs (in order).
    pub(crate) fn set_outputs(&mut self, sigs: Vec<Sig>) {
        self.outputs = sigs;
    }

    /// Gate count by kind: `(and, or, xor, not, dff)`.
    pub fn gate_counts(&self) -> (usize, usize, usize, usize, usize) {
        let mut c = (0, 0, 0, 0, 0);
        for n in &self.nodes {
            match n {
                Node::And(..) => c.0 += 1,
                Node::Or(..) => c.1 += 1,
                Node::Xor(..) => c.2 += 1,
                Node::Not(..) => c.3 += 1,
                Node::Dff(..) => c.4 += 1,
                _ => {}
            }
        }
        c
    }

    /// Combinational logic depth (gates on the longest input→output or
    /// register→register path).
    pub fn depth(&self) -> u32 {
        let mut d = vec![0u32; self.nodes.len()];
        for (i, n) in self.nodes.iter().enumerate() {
            d[i] = match *n {
                Node::Input(_) | Node::Const(_) | Node::Dff(_) => 0,
                Node::And(a, b) | Node::Or(a, b) | Node::Xor(a, b) => {
                    1 + d[a.0 as usize].max(d[b.0 as usize])
                }
                Node::Not(a) => 1 + d[a.0 as usize],
            };
        }
        d.into_iter().max().unwrap_or(0)
    }

    /// Create a fresh simulation state (all registers zero).
    pub(crate) fn new_state(&self) -> SimState {
        SimState {
            values: vec![false; self.nodes.len()],
            regs: vec![false; self.nodes.len()],
        }
    }

    /// Simulate one clock cycle: evaluate combinationally with `inputs`,
    /// return the outputs, then clock every DFF.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the declared input count.
    pub(crate) fn step(&self, state: &mut SimState, inputs: &[bool]) -> Vec<bool> {
        assert_eq!(inputs.len() as u32, self.num_inputs, "input count mismatch");
        // Nodes are created in topological order (builders only reference
        // existing signals), so a single forward pass settles combinational
        // logic; DFFs read their stored state.
        for (i, n) in self.nodes.iter().enumerate() {
            state.values[i] = match *n {
                Node::Input(k) => inputs[k as usize],
                Node::Const(v) => v,
                Node::And(a, b) => state.values[a.0 as usize] && state.values[b.0 as usize],
                Node::Or(a, b) => state.values[a.0 as usize] || state.values[b.0 as usize],
                Node::Xor(a, b) => state.values[a.0 as usize] ^ state.values[b.0 as usize],
                Node::Not(a) => !state.values[a.0 as usize],
                Node::Dff(_) => state.regs[i],
            };
        }
        let out = self
            .outputs
            .iter()
            .map(|s| state.values[s.0 as usize])
            .collect();
        // Clock edge.
        for (i, n) in self.nodes.iter().enumerate() {
            if let Node::Dff(d) = n {
                state.regs[i] = state.values[d.0 as usize];
            }
        }
        out
    }

    /// Emit structural Verilog for the circuit.
    pub fn to_verilog(&self, module_name: &str) -> String {
        let mut v = String::new();
        let _ = writeln!(v, "module {module_name} (");
        let _ = writeln!(v, "  input  wire clk,");
        let _ = writeln!(v, "  input  wire [{}:0] in,", self.num_inputs.max(1) - 1);
        let _ = writeln!(v, "  output wire [{}:0] out", self.outputs.len().max(1) - 1);
        let _ = writeln!(v, ");");
        for (i, n) in self.nodes.iter().enumerate() {
            match *n {
                Node::Dff(_) => {
                    let _ = writeln!(v, "  reg n{i};");
                }
                _ => {
                    let _ = writeln!(v, "  wire n{i};");
                }
            }
        }
        for (i, n) in self.nodes.iter().enumerate() {
            match *n {
                Node::Input(k) => {
                    let _ = writeln!(v, "  assign n{i} = in[{k}];");
                }
                Node::Const(c) => {
                    let _ = writeln!(v, "  assign n{i} = 1'b{};", c as u8);
                }
                Node::And(a, b) => {
                    let _ = writeln!(v, "  assign n{i} = n{} & n{};", a.0, b.0);
                }
                Node::Or(a, b) => {
                    let _ = writeln!(v, "  assign n{i} = n{} | n{};", a.0, b.0);
                }
                Node::Xor(a, b) => {
                    let _ = writeln!(v, "  assign n{i} = n{} ^ n{};", a.0, b.0);
                }
                Node::Not(a) => {
                    let _ = writeln!(v, "  assign n{i} = ~n{};", a.0);
                }
                Node::Dff(d) => {
                    let _ = writeln!(v, "  always @(posedge clk) n{i} <= n{};", d.0);
                }
            }
        }
        for (k, s) in self.outputs.iter().enumerate() {
            let _ = writeln!(v, "  assign out[{k}] = n{};", s.0);
        }
        let _ = writeln!(v, "endmodule");
        v
    }
}

/// Mutable simulation state for a [`GateCircuit`].
#[derive(Debug, Clone)]
pub struct SimState {
    values: Vec<bool>,
    regs: Vec<bool>,
}

/// Build a combinational population counter over `bits`, returning the
/// count in little-endian binary.
pub(crate) fn build_popcount(c: &mut GateCircuit, bits: &[Sig]) -> Vec<Sig> {
    if bits.is_empty() {
        return vec![c.constant(false)];
    }
    // Counter tree: combine bits three at a time per binary weight.
    let mut levels: Vec<Vec<Sig>> = vec![bits.to_vec()];
    loop {
        if levels.iter().all(|l| l.len() <= 1) {
            break;
        }
        let mut next: Vec<Vec<Sig>> = vec![Vec::new(); levels.len() + 1];
        for (w, level) in levels.iter().enumerate() {
            let mut chunks = level.chunks_exact(3);
            for ch in &mut chunks {
                let (s, cy) = c.full_adder(ch[0], ch[1], ch[2]);
                next[w].push(s);
                next[w + 1].push(cy);
            }
            match chunks.remainder() {
                [a, b] => {
                    let zero = c.constant(false);
                    let (s, cy) = c.full_adder(*a, *b, zero);
                    next[w].push(s);
                    next[w + 1].push(cy);
                }
                [a] => next[w].push(*a),
                _ => {}
            }
        }
        while next.last().is_some_and(|l| l.is_empty()) {
            next.pop();
        }
        levels = next;
    }
    let mut out = Vec::with_capacity(levels.len());
    for mut level in levels {
        match level.pop() {
            Some(s) => out.push(s),
            // A weight can settle to zero live bits (e.g. carries skipped
            // it); that binary digit is constant 0.
            None => {
                let zero = c.constant(false);
                out.push(zero);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn gates_behave() {
        let mut c = GateCircuit::new();
        let a = c.input();
        let b = c.input();
        let and = c.and(a, b);
        let or = c.or(a, b);
        let xor = c.xor(a, b);
        let not = c.not(a);
        c.set_outputs(vec![and, or, xor, not]);
        let mut st = c.new_state();
        assert_eq!(
            c.step(&mut st, &[true, false]),
            vec![false, true, true, false]
        );
        assert_eq!(
            c.step(&mut st, &[true, true]),
            vec![true, true, false, false]
        );
    }

    #[test]
    fn dff_delays_one_cycle() {
        let mut c = GateCircuit::new();
        let d = c.input();
        let q = c.dff(d);
        c.set_outputs(vec![q]);
        let mut st = c.new_state();
        assert_eq!(c.step(&mut st, &[true]), vec![false]); // not yet
        assert_eq!(c.step(&mut st, &[false]), vec![true]); // sampled 1
        assert_eq!(c.step(&mut st, &[false]), vec![false]);
    }

    #[test]
    fn adder_adds() {
        let mut c = GateCircuit::new();
        let a = c.inputs(4);
        let b = c.inputs(4);
        let cin = c.constant(false);
        let sum = c.adder(&a, &b, cin);
        c.set_outputs(sum);
        let mut st = c.new_state();
        // 5 + 9 = 14 (little-endian bits).
        let bits = |v: u32| (0..4).map(|i| (v >> i) & 1 == 1).collect::<Vec<_>>();
        let mut input = bits(5);
        input.extend(bits(9));
        let out = c.step(&mut st, &input);
        let val: u32 = out.iter().enumerate().map(|(i, &b)| (b as u32) << i).sum();
        assert_eq!(val, 14);
    }

    #[test]
    fn verilog_emits_module() {
        let mut c = GateCircuit::new();
        let a = c.input();
        let b = c.input();
        let x = c.xor(a, b);
        let q = c.dff(x);
        c.set_outputs(vec![q]);
        let v = c.to_verilog("t");
        assert!(v.contains("module t"));
        assert!(v.contains("always @(posedge clk)"));
        assert!(v.contains("endmodule"));
        assert!(v.contains('^'));
    }

    #[test]
    fn popcount_depth_is_logarithmic() {
        let mut c = GateCircuit::new();
        let bits = c.inputs(64);
        let count = build_popcount(&mut c, &bits);
        c.set_outputs(count);
        assert!(c.depth() <= 40, "depth = {}", c.depth());
        assert!(c.gate_counts().4 == 0, "popcount is combinational");
    }

    proptest! {
        #[test]
        fn popcount_matches_naive(bits in prop::collection::vec(any::<bool>(), 1..96)) {
            let mut c = GateCircuit::new();
            let ins = c.inputs(bits.len());
            let count = build_popcount(&mut c, &ins);
            c.set_outputs(count);
            let mut st = c.new_state();
            let out = c.step(&mut st, &bits);
            let val: u32 = out.iter().enumerate().map(|(i, &b)| (b as u32) << i).sum();
            prop_assert_eq!(val as usize, bits.iter().filter(|&&b| b).count());
        }
    }
}
