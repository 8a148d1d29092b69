//! Fragment extraction: turning a circuit plus a validated [`CutSpec`]
//! into an upstream and a downstream fragment with explicit port maps.
//!
//! Conventions (paper §II-B): the upstream fragment `f1` ends each cut wire
//! in a *cut port* that tomography measures in a Pauli basis; its remaining
//! qubits are *outputs* measured in Z. The downstream fragment `f2` begins
//! each cut wire in a *cut port* that is re-initialised into preparation
//! states; **all** of its qubits are outputs. Every qubit of the original
//! circuit is measured exactly once across the two fragments.
//!
//! The input needs no structural check: every [`Circuit`] is well formed
//! by construction ([`Circuit::from_instructions`]), so extraction only
//! decides whether the cut bipartitions it.

use qcut_circuit::circuit::Circuit;
use qcut_circuit::cut::{CutError, CutSpec};
use std::fmt;

/// Which side of the bipartition a fragment is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FragmentRole {
    /// Before the cuts; its cut ports are measured in tomography bases.
    Upstream,
    /// After the cuts; its cut ports are re-initialised into prep states.
    Downstream,
}

/// One circuit fragment with its qubit maps.
#[derive(Debug, Clone)]
pub struct Fragment {
    /// The fragment circuit over local qubit indices `0..width`.
    pub circuit: Circuit,
    /// `global_of_local[l]` = original-circuit qubit of local qubit `l`.
    pub global_of_local: Vec<usize>,
    /// Local qubit carrying cut `k` (`cut_ports[k]`), in cut-index order.
    pub cut_ports: Vec<usize>,
    /// Local qubits measured as circuit outputs, ascending.
    pub output_locals: Vec<usize>,
    /// Global positions of those outputs (aligned with `output_locals`).
    pub output_globals: Vec<usize>,
    /// Role of this fragment.
    pub role: FragmentRole,
}

impl Fragment {
    /// Fragment width in qubits.
    pub fn width(&self) -> usize {
        self.circuit.num_qubits()
    }

    /// Number of output bits this fragment contributes to the final
    /// distribution.
    pub fn num_outputs(&self) -> usize {
        self.output_locals.len()
    }
}

/// The result of bipartitioning a circuit.
#[derive(Debug, Clone)]
pub struct Fragments {
    /// Upstream fragment `f1`.
    pub upstream: Fragment,
    /// Downstream fragment `f2`.
    pub downstream: Fragment,
    /// Number of cuts `K`.
    pub num_cuts: usize,
    /// Width of the original circuit.
    pub total_qubits: usize,
}

/// Errors from fragment extraction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FragmentError {
    /// The cut specification failed validation.
    Cut(CutError),
    /// A qubit has no instructions; its fragment membership is undefined.
    IdleQubit(usize),
}

impl fmt::Display for FragmentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FragmentError::Cut(e) => write!(f, "invalid cut: {e}"),
            FragmentError::IdleQubit(q) => write!(
                f,
                "qubit {q} has no instructions; remove it or add gates so it \
                 belongs to one side of the cut"
            ),
        }
    }
}

impl std::error::Error for FragmentError {}

impl From<CutError> for FragmentError {
    fn from(e: CutError) -> Self {
        FragmentError::Cut(e)
    }
}

/// Splits circuits along validated cut specifications.
pub struct Fragmenter;

impl Fragmenter {
    /// Bipartitions `circuit` along `spec`.
    pub fn fragment(circuit: &Circuit, spec: &CutSpec) -> Result<Fragments, FragmentError> {
        let (_edges, upstream_mask) = spec.validate(circuit)?;
        let n = circuit.num_qubits();

        // Idle qubits have no home; reject with a pointer at the culprit.
        if let Some(&q) = circuit.idle_qubits().first() {
            return Err(FragmentError::IdleQubit(q));
        }

        let cut_qubits: Vec<usize> = spec.cuts().iter().map(|c| c.qubit).collect();

        // Qubit sets per side: a qubit belongs to a side if any of its
        // instructions does. Cut qubits appear on both sides.
        let mut in_up = vec![false; n];
        let mut in_down = vec![false; n];
        for (i, inst) in circuit.instructions().iter().enumerate() {
            let side = if upstream_mask[i] {
                &mut in_up
            } else {
                &mut in_down
            };
            for &q in &inst.qubits {
                side[q] = true;
            }
        }
        // Consistency: exactly the cut wires cross.
        for q in 0..n {
            let crosses = in_up[q] && in_down[q];
            let is_cut = cut_qubits.contains(&q);
            debug_assert_eq!(
                crosses, is_cut,
                "wire {q} crossing state inconsistent with cut spec"
            );
        }

        let up_globals: Vec<usize> = (0..n).filter(|&q| in_up[q]).collect();
        let down_globals: Vec<usize> = (0..n).filter(|&q| in_down[q]).collect();

        let upstream = Self::build_fragment(
            circuit,
            &upstream_mask,
            true,
            &up_globals,
            &cut_qubits,
            FragmentRole::Upstream,
        );
        let downstream = Self::build_fragment(
            circuit,
            &upstream_mask,
            false,
            &down_globals,
            &cut_qubits,
            FragmentRole::Downstream,
        );

        Ok(Fragments {
            upstream,
            downstream,
            num_cuts: spec.num_cuts(),
            total_qubits: n,
        })
    }

    fn build_fragment(
        circuit: &Circuit,
        upstream_mask: &[bool],
        want_upstream: bool,
        globals: &[usize],
        cut_qubits: &[usize],
        role: FragmentRole,
    ) -> Fragment {
        let mut local_of_global = vec![usize::MAX; circuit.num_qubits()];
        for (l, &g) in globals.iter().enumerate() {
            local_of_global[g] = l;
        }

        let mut frag = Circuit::new(globals.len());
        for (i, inst) in circuit.instructions().iter().enumerate() {
            if upstream_mask[i] == want_upstream {
                let qubits: Vec<usize> = inst.qubits.iter().map(|&q| local_of_global[q]).collect();
                frag.push(inst.gate.clone(), &qubits);
            }
        }

        let cut_ports: Vec<usize> = cut_qubits.iter().map(|&q| local_of_global[q]).collect();
        let (output_locals, output_globals): (Vec<usize>, Vec<usize>) = match role {
            FragmentRole::Upstream => globals
                .iter()
                .enumerate()
                .filter(|(_, g)| !cut_qubits.contains(g))
                .map(|(l, &g)| (l, g))
                .unzip(),
            // Downstream: every qubit (including the continued cut wires)
            // is an output.
            FragmentRole::Downstream => globals.iter().enumerate().map(|(l, &g)| (l, g)).unzip(),
        };

        Fragment {
            circuit: frag,
            global_of_local: globals.to_vec(),
            cut_ports,
            output_locals,
            output_globals,
            role,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcut_circuit::ansatz::{GoldenAnsatz, MultiCutAnsatz};
    use qcut_circuit::cut::CutSpec;

    fn chain3() -> (Circuit, CutSpec) {
        let mut c = Circuit::new(3);
        c.cx(0, 1).cx(1, 2);
        (c, CutSpec::single(1, 0))
    }

    #[test]
    fn three_qubit_chain_fragments() {
        let (c, spec) = chain3();
        let frags = Fragmenter::fragment(&c, &spec).unwrap();
        assert_eq!(frags.num_cuts, 1);
        assert_eq!(frags.total_qubits, 3);

        let up = &frags.upstream;
        assert_eq!(up.width(), 2);
        assert_eq!(up.global_of_local, vec![0, 1]);
        assert_eq!(up.cut_ports, vec![1]); // local index of qubit 1
        assert_eq!(up.output_globals, vec![0]);
        assert_eq!(up.circuit.len(), 1);

        let down = &frags.downstream;
        assert_eq!(down.width(), 2);
        assert_eq!(down.global_of_local, vec![1, 2]);
        assert_eq!(down.cut_ports, vec![0]);
        assert_eq!(down.output_globals, vec![1, 2]);
        assert_eq!(down.circuit.len(), 1);
    }

    #[test]
    fn every_qubit_measured_exactly_once() {
        let (c, spec) = GoldenAnsatz::new(5, 3).build();
        let frags = Fragmenter::fragment(&c, &spec).unwrap();
        let mut all: Vec<usize> = frags
            .upstream
            .output_globals
            .iter()
            .chain(&frags.downstream.output_globals)
            .copied()
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..5).collect::<Vec<_>>());
    }

    #[test]
    fn paper_fragment_sizes() {
        // 5-qubit circuit -> two 3-qubit fragments; 7 -> two 4-qubit.
        for (width, frag_width) in [(5usize, 3usize), (7, 4)] {
            let (c, spec) = GoldenAnsatz::new(width, 0).build();
            let frags = Fragmenter::fragment(&c, &spec).unwrap();
            assert_eq!(frags.upstream.width(), frag_width, "width {width}");
            assert_eq!(frags.downstream.width(), frag_width, "width {width}");
            // Output bit split: floor(n/2) upstream, ceil(n/2) downstream
            // (paper Eq. 16).
            assert_eq!(frags.upstream.num_outputs(), width / 2);
            assert_eq!(frags.downstream.num_outputs(), width / 2 + 1);
        }
    }

    #[test]
    fn fragment_instruction_counts_add_up() {
        let (c, spec) = GoldenAnsatz::new(7, 11).build();
        let frags = Fragmenter::fragment(&c, &spec).unwrap();
        assert_eq!(
            frags.upstream.circuit.len() + frags.downstream.circuit.len(),
            c.len()
        );
    }

    #[test]
    fn multi_cut_fragments() {
        for k in 1..=3usize {
            let (c, spec) = MultiCutAnsatz::new(k, 5).build();
            let frags = Fragmenter::fragment(&c, &spec).unwrap();
            assert_eq!(frags.num_cuts, k);
            assert_eq!(frags.upstream.cut_ports.len(), k);
            assert_eq!(frags.downstream.cut_ports.len(), k);
            // All qubits measured exactly once.
            let mut all: Vec<usize> = frags
                .upstream
                .output_globals
                .iter()
                .chain(&frags.downstream.output_globals)
                .copied()
                .collect();
            all.sort_unstable();
            all.dedup();
            assert_eq!(all.len(), c.num_qubits(), "K={k}");
        }
    }

    #[test]
    fn idle_qubit_rejected() {
        let mut c = Circuit::new(4); // qubit 3 idle
        c.cx(0, 1).cx(1, 2);
        let err = Fragmenter::fragment(&c, &CutSpec::single(1, 0)).unwrap_err();
        assert_eq!(err, FragmentError::IdleQubit(3));
    }

    #[test]
    fn invalid_cut_propagates() {
        let (c, _) = chain3();
        let err = Fragmenter::fragment(&c, &CutSpec::single(0, 9)).unwrap_err();
        assert!(matches!(err, FragmentError::Cut(CutError::NoSuchEdge(_))));
    }

    #[test]
    fn upstream_gates_preserve_order() {
        let (c, spec) = GoldenAnsatz::new(5, 2).build();
        let frags = Fragmenter::fragment(&c, &spec).unwrap();
        // Rebuild the upstream gate list from the original circuit and
        // check the fragment preserves relative order.
        let (_, mask) = spec.validate(&c).unwrap();
        let expected: Vec<String> = c
            .instructions()
            .iter()
            .enumerate()
            .filter(|(i, _)| mask[*i])
            .map(|(_, inst)| inst.gate.name())
            .collect();
        let got: Vec<String> = frags
            .upstream
            .circuit
            .instructions()
            .iter()
            .map(|inst| inst.gate.name())
            .collect();
        assert_eq!(expected, got);
    }

    #[test]
    fn downstream_cut_port_is_an_output_but_upstream_is_not() {
        let (c, spec) = chain3();
        let frags = Fragmenter::fragment(&c, &spec).unwrap();
        let up = &frags.upstream;
        assert!(!up.output_locals.contains(&up.cut_ports[0]));
        let down = &frags.downstream;
        assert!(down.output_locals.contains(&down.cut_ports[0]));
    }
}
