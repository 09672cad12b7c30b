//! The Metal-Embedding compiler (§3.2's custom flow).
//!
//! Input: a weight matrix. Output: the M8–M11 wire netlist that programs the
//! prefabricated Sea-of-Neurons array with those weights, plus everything
//! sign-off needs — per-layer routing utilization, slice allocations, and a
//! TCL-like ECO script of the kind the paper feeds back into the P&R tool.
//!
//! One net per weight: from the weight's input-signal tap to a port of the
//! POPCNT region matching the weight's FP4 code. Taps are short (~1–3 µm):
//! the input spine passes directly over its candidate ports, and the
//! embedding wire only selects which region lane the signal drops into.

use crate::array::{me_neuron_budget, MeNeuronParams};
use crate::region::{RegionAllocError, RegionAllocation, SlicePool};
use hnlpu_circuit::netlist::Netlist;
use hnlpu_circuit::{logic_area_mm2, MetalStack, RouteReport, Router, TechNode};
use hnlpu_model::fp4::NUM_CODES;
use hnlpu_model::{Fp4, WeightGenerator, WeightMatrix};
use std::error::Error;
use std::fmt;

/// Compiler failure modes.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// A neuron's weight histogram did not fit its prefab slice pool.
    SliceOverflow {
        /// Output neuron (column) index.
        neuron: usize,
        /// Underlying allocation failure.
        source: RegionAllocError,
    },
    /// Routing density exceeded the congestion limit.
    Congestion {
        /// The offending report.
        report: RouteReport,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::SliceOverflow { neuron, source } => {
                write!(f, "neuron {neuron}: {source}")
            }
            CompileError::Congestion { report } => write!(
                f,
                "metal-embedding layers congested (peak {:.1}%)",
                report.peak_utilization * 100.0
            ),
        }
    }
}

impl Error for CompileError {}

/// A compiled weight matrix.
#[derive(Debug, Clone)]
pub struct CompiledMatrix {
    /// The matrix that was compiled.
    pub matrix: WeightMatrix,
    /// Total embedding wires placed (= weight count).
    pub wires: u64,
    /// Grounded (unused) accumulator ports across all neurons.
    pub grounded_ports: u64,
    /// Per-neuron slice allocations (one per output column).
    pub allocations: Vec<RegionAllocation>,
    /// Routing verification over the matrix's array footprint.
    pub route: RouteReport,
    /// Array footprint, mm².
    pub footprint_mm2: f64,
    /// Average embedding-net length, µm.
    pub avg_net_length_um: f64,
}

impl CompiledMatrix {
    /// Emit the TCL-like ECO script the §3.2 flow integrates into P&R.
    /// Only the first `max_nets` nets are materialized (scripts for billions
    /// of wires are written streaming in practice).
    pub fn tcl_script(&self, weights: &[Fp4], max_nets: usize) -> String {
        let mut s = String::with_capacity(max_nets * 64 + 128);
        s.push_str("# Metal-Embedding ECO script (generated)\n");
        s.push_str(&format!(
            "# matrix {}x{} -> {} embedding nets on M8-M11\n",
            self.matrix.rows, self.matrix.cols, self.wires
        ));
        for (i, w) in weights.iter().take(max_nets).enumerate() {
            let row = i / self.matrix.cols;
            let col = i % self.matrix.cols;
            s.push_str(&format!(
                "create_net -name me_n{col}_i{row} ; route_eco -from [get_pins u_spine/row{row}/tap{col}] -to [get_pins u_hn{col}/region{code}/port*] -layers {{M8 M9 M10 M11}}\n",
                code = w.code(),
            ));
        }
        s
    }
}

/// The Metal-Embedding compiler.
#[derive(Debug, Clone)]
pub struct MeCompiler {
    /// Neuron physical parameters (slack, slices, scan factor).
    pub params: MeNeuronParams,
    /// Technology node.
    pub tech: TechNode,
    /// Metal stack (layer indices and routing supply).
    pub stack: MetalStack,
}

impl MeCompiler {
    /// A compiler at the default 5 nm operating point.
    pub fn new(params: MeNeuronParams) -> Self {
        MeCompiler {
            params,
            tech: TechNode::n5(),
            stack: MetalStack::n5(),
        }
    }

    /// Compile `matrix` with weights drawn from `gen` at `layer`.
    ///
    /// # Errors
    ///
    /// Returns `CompileError::SliceOverflow` if any neuron's histogram
    /// exceeds its prefab pool, or `CompileError::Congestion` if the wire
    /// demand overflows the M8–M11 supply.
    pub fn compile(
        &self,
        gen: &WeightGenerator,
        layer: usize,
        matrix: &WeightMatrix,
    ) -> Result<CompiledMatrix, CompileError> {
        let weights = gen.matrix(layer, matrix);
        self.compile_weights(matrix, &weights)
    }

    /// Compile an explicit weight vector (row-major `rows × cols`).
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != matrix.len()`.
    pub fn compile_weights(
        &self,
        matrix: &WeightMatrix,
        weights: &[Fp4],
    ) -> Result<CompiledMatrix, CompileError> {
        assert_eq!(weights.len(), matrix.len(), "weight count mismatch");
        let pool = SlicePool::provision(matrix.rows, self.params.slack, self.params.slice_inputs);

        // Per-neuron histograms and slice allocation.
        let mut allocations = Vec::with_capacity(matrix.cols);
        let mut grounded = 0u64;
        for col in 0..matrix.cols {
            let mut hist = [0u64; NUM_CODES];
            for row in 0..matrix.rows {
                hist[weights[row * matrix.cols + col].code() as usize] += 1;
            }
            let alloc = RegionAllocation::allocate(&hist, pool).map_err(|source| {
                CompileError::SliceOverflow {
                    neuron: col,
                    source,
                }
            })?;
            grounded += alloc.grounded_ports as u64;
            allocations.push(alloc);
        }

        // Array footprint for this matrix.
        let budget = me_neuron_budget(matrix.rows, &self.params) * matrix.cols as u64;
        let footprint_mm2 = logic_area_mm2(&budget, &self.tech, true);
        let side = footprint_mm2.sqrt().max(1e-3);

        // Wire demand: one tap per weight on the ME wire layers.
        let me_wire_layers: Vec<usize> = self
            .stack
            .layers()
            .iter()
            .enumerate()
            .filter(|(_, l)| l.metal_embedding && l.name.starts_with('M'))
            .map(|(i, _)| i)
            .collect();
        let wires = matrix.len() as u64;
        let mut total_len = 0.0f64;
        for i in 0..wires {
            // Deterministic tap-length jitter in [0.4, 2.0) µm.
            let h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
            total_len += 0.4 + (h % 1000) as f64 / 1000.0 * 1.6;
        }
        // A real global router balances utilization: spread aggregate demand
        // across the ME wire layers proportionally to their track capacity.
        let capacities: Vec<f64> = me_wire_layers
            .iter()
            .map(|&l| self.stack.layers()[l].tracks_per_mm())
            .collect();
        let cap_total: f64 = capacities.iter().sum();
        let mut demand = Netlist::new();
        for (&layer, &cap) in me_wire_layers.iter().zip(capacities.iter()) {
            demand.add_net(layer, total_len * cap / cap_total);
        }

        let router = Router::new(side, side);
        let route = router.route(&demand, &self.stack);
        if !route.congestion_free {
            return Err(CompileError::Congestion { report: route });
        }
        Ok(CompiledMatrix {
            matrix: *matrix,
            wires,
            grounded_ports: grounded,
            allocations,
            route,
            footprint_mm2,
            avg_net_length_um: total_len / wires.max(1) as f64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hnlpu_model::WeightKind;

    fn compiler() -> MeCompiler {
        MeCompiler::new(MeNeuronParams::array_default())
    }

    #[test]
    fn compiles_gpt_oss_key_matrix() {
        let m = WeightMatrix::new(WeightKind::Key, 2880, 128);
        let c = compiler()
            .compile(&WeightGenerator::new(7), 0, &m)
            .expect("compiles");
        assert_eq!(c.wires, 2880 * 128);
        assert_eq!(c.allocations.len(), 128);
        assert!(c.route.congestion_free);
        assert!(
            c.route.peak_utilization < 0.7,
            "peak = {}",
            c.route.peak_utilization
        );
    }

    #[test]
    fn routing_density_below_70_percent_like_paper() {
        // §7.1: ME-layer routing density stays below 70%.
        let m = WeightMatrix::new(WeightKind::Query, 2880, 256);
        let c = compiler().compile(&WeightGenerator::new(3), 1, &m).unwrap();
        assert!(c.route.peak_utilization < 0.70);
        // ...but not trivially empty either.
        assert!(c.route.peak_utilization > 0.05);
    }

    #[test]
    fn grounded_ports_are_slack() {
        let m = WeightMatrix::new(WeightKind::Key, 512, 16);
        let mut p = MeNeuronParams::array_default();
        p.slice_inputs = 16; // small fan-in wants finer slices
        let c = MeCompiler::new(p)
            .compile(&WeightGenerator::new(1), 0, &m)
            .unwrap();
        // Grounded ports exist (slack) but are bounded by pool capacity.
        let pool = &c.allocations[0].pool;
        let pool_cap = (pool.slice_inputs * pool.slices) as u64 * 16;
        assert!(c.grounded_ports > 0);
        assert!(c.grounded_ports < pool_cap);
    }

    #[test]
    fn pathological_weights_fail_slice_allocation() {
        // Every weight identical: one region demands 16x its uniform share,
        // beyond the adjacency-limited borrow cap.
        let m = WeightMatrix::new(WeightKind::Key, 2880, 1);
        let weights = vec![Fp4::from_f32(6.0); 2880];
        let err = compiler().compile_weights(&m, &weights).unwrap_err();
        match err {
            CompileError::SliceOverflow { neuron, source } => {
                assert_eq!(neuron, 0);
                assert!(matches!(
                    source,
                    crate::region::RegionAllocError::RegionOverflow { demanded, available, .. }
                        if demanded > available
                ));
            }
            other => panic!("expected SliceOverflow, got {other}"),
        }
    }

    #[test]
    fn tcl_script_mentions_layers_and_regions() {
        let m = WeightMatrix::new(WeightKind::Key, 64, 4);
        let g = WeightGenerator::new(2);
        let weights = g.matrix(0, &m);
        let c = compiler().compile_weights(&m, &weights).unwrap();
        let tcl = c.tcl_script(&weights, 10);
        assert!(tcl.contains("M8 M9 M10 M11"));
        assert!(tcl.contains("route_eco"));
        assert!(tcl.lines().count() >= 10);
    }

    #[test]
    fn average_net_length_is_local() {
        let m = WeightMatrix::new(WeightKind::Key, 512, 32);
        let mut p = MeNeuronParams::array_default();
        p.slice_inputs = 16;
        let c = MeCompiler::new(p)
            .compile(&WeightGenerator::new(5), 0, &m)
            .unwrap();
        assert!(
            c.avg_net_length_um > 0.4 && c.avg_net_length_um < 2.0,
            "avg = {}",
            c.avg_net_length_um
        );
    }

    #[test]
    fn deterministic_compilation() {
        let m = WeightMatrix::new(WeightKind::Key, 256, 8);
        let g = WeightGenerator::new(11);
        let a = compiler().compile(&g, 0, &m).unwrap();
        let b = compiler().compile(&g, 0, &m).unwrap();
        assert_eq!(a.wires, b.wires);
        assert_eq!(a.grounded_ports, b.grounded_ports);
        assert_eq!(a.avg_net_length_um, b.avg_net_length_um);
    }
}
