//! Tomography subcircuits: the concrete circuits that realise one setting
//! of a [`crate::basis::BasisPlan`] on a pair of fragments.
//!
//! * Upstream variant for setting `(b_1 … b_K)`: the fragment circuit with
//!   a basis rotation appended on each cut port, measured entirely in Z.
//! * Downstream variant for preparation `(t_1 … t_K)`: the prep circuit on
//!   each cut port prepended to the fragment circuit.
//!
//! The number of variants is the paper's headline cost:
//! `3^{K_r} 2^{K_g} + 6^{K_r} 4^{K_g}` (9 vs 6 for a single cut).
//! [`crate::planner::gather_graph`] builds one job per setting from these.

use crate::basis::MeasBasis;
use crate::fragment::{Fragment, FragmentRole};
use qcut_circuit::circuit::Circuit;
use qcut_math::PrepState;
use qcut_sim::basis_change::{append_basis_rotation, prep_circuit};

/// The upstream fragment with basis rotations appended on its cut ports.
pub fn build_upstream_circuit(fragment: &Fragment, setting: &[MeasBasis]) -> Circuit {
    assert_eq!(fragment.role, FragmentRole::Upstream, "wrong fragment role");
    assert_eq!(setting.len(), fragment.cut_ports.len(), "setting arity");
    let mut c = fragment.circuit.clone();
    for (k, &basis) in setting.iter().enumerate() {
        append_basis_rotation(&mut c, basis.pauli(), fragment.cut_ports[k]);
    }
    c
}

/// The downstream fragment with preparation circuits prepended on its cut
/// ports.
pub fn build_downstream_circuit(fragment: &Fragment, preparation: &[PrepState]) -> Circuit {
    let preps: Vec<Circuit> = preparation.iter().map(|&s| prep_circuit(s, 1, 0)).collect();
    prepend_preparations(fragment, preps.iter())
}

/// The downstream fragment with one-qubit preparation circuits prepended
/// on its cut ports, in cut order.
pub(crate) fn prepend_preparations<'a>(
    fragment: &Fragment,
    preparations: impl ExactSizeIterator<Item = &'a Circuit>,
) -> Circuit {
    assert_eq!(
        fragment.role,
        FragmentRole::Downstream,
        "wrong fragment role"
    );
    assert_eq!(
        preparations.len(),
        fragment.cut_ports.len(),
        "preparation arity"
    );
    let mut c = Circuit::new(fragment.circuit.num_qubits());
    for (prep, &port) in preparations.zip(&fragment.cut_ports) {
        c.extend_mapped(prep, &[port]);
    }
    c.extend(&fragment.circuit);
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::{schedule_for_plan, ShotAllocation};
    use crate::basis::BasisPlan;
    use crate::fragment::{Fragmenter, Fragments};
    use crate::pipeline::ReconstructionMethod;
    use crate::planner::gather_graph;
    use qcut_circuit::ansatz::{GoldenAnsatz, MultiCutAnsatz};
    use qcut_math::Pauli;
    use qcut_sim::statevector::StateVector;

    fn fragments_for(width: usize, seed: u64) -> Fragments {
        let (c, spec) = GoldenAnsatz::new(width, seed).build();
        Fragmenter::fragment(&c, &spec).unwrap()
    }

    /// Every upstream subcircuit of `plan`, paired with its setting.
    fn upstream_variants(frags: &Fragments, plan: &BasisPlan) -> Vec<(Vec<MeasBasis>, Circuit)> {
        plan.all_meas_settings()
            .into_iter()
            .map(|s| (s.clone(), build_upstream_circuit(&frags.upstream, &s)))
            .collect()
    }

    /// Every downstream subcircuit of `plan`, paired with its preparation.
    fn downstream_variants(frags: &Fragments, plan: &BasisPlan) -> Vec<(Vec<PrepState>, Circuit)> {
        plan.all_prep_settings()
            .into_iter()
            .map(|p| (p.clone(), build_downstream_circuit(&frags.downstream, &p)))
            .collect()
    }

    fn total_shots(plan: &BasisPlan, shots_per_setting: u64) -> u64 {
        schedule_for_plan(plan, ShotAllocation::Uniform { shots_per_setting })
            .unwrap()
            .total()
    }

    #[test]
    fn standard_plan_has_nine_subcircuits() {
        let frags = fragments_for(5, 0);
        let plan = BasisPlan::standard(1);
        assert_eq!(upstream_variants(&frags, &plan).len(), 3);
        assert_eq!(downstream_variants(&frags, &plan).len(), 6);
        assert_eq!(total_shots(&plan, 1000), 9000);
    }

    #[test]
    fn golden_plan_has_six_subcircuits() {
        let frags = fragments_for(5, 0);
        let basis = BasisPlan::with_neglected(vec![Some(Pauli::Y)]);
        let subcircuits =
            upstream_variants(&frags, &basis).len() + downstream_variants(&frags, &basis).len();
        assert_eq!(subcircuits, 6);
        // 4.5e5 -> 3.0e5 shots at 1000 shots/setting × 50 trials (paper
        // Fig. 5 accounting): per trial it is 9000 vs 6000.
        assert_eq!(total_shots(&basis, 1000), 6000);
    }

    #[test]
    fn multi_cut_variant_counts() {
        let (c, spec) = MultiCutAnsatz::new(2, 1).build();
        let frags = Fragmenter::fragment(&c, &spec).unwrap();
        let standard = BasisPlan::standard(2);
        assert_eq!(upstream_variants(&frags, &standard).len(), 9);
        assert_eq!(downstream_variants(&frags, &standard).len(), 36);
        let golden = BasisPlan::with_neglected(vec![Some(Pauli::Y), Some(Pauli::Y)]);
        assert_eq!(upstream_variants(&frags, &golden).len(), 4);
        assert_eq!(downstream_variants(&frags, &golden).len(), 16);
    }

    #[test]
    fn upstream_variants_differ_only_in_rotations() {
        let frags = fragments_for(5, 1);
        let base_len = frags.upstream.circuit.len();
        for (setting, circuit) in upstream_variants(&frags, &BasisPlan::standard(1)) {
            let extra = circuit.len() - base_len;
            match setting[0] {
                MeasBasis::Z => assert_eq!(extra, 0),
                MeasBasis::X => assert_eq!(extra, 1), // H
                MeasBasis::Y => assert_eq!(extra, 2), // Sdg, H
            }
            // The prefix is the fragment itself.
            assert_eq!(
                &circuit.instructions()[..base_len],
                frags.upstream.circuit.instructions()
            );
        }
    }

    #[test]
    fn downstream_variants_prepare_the_right_state() {
        // For each variant, simulating just the prep prefix must put the
        // cut port into the declared state.
        let frags = fragments_for(5, 2);
        let port = frags.downstream.cut_ports[0];
        for (preparation, circuit) in downstream_variants(&frags, &BasisPlan::standard(1)) {
            let prep_len = circuit.len() - frags.downstream.circuit.len();
            let mut prefix = Circuit::new(circuit.num_qubits());
            for inst in &circuit.instructions()[..prep_len] {
                prefix.push(inst.gate.clone(), &inst.qubits);
            }
            let sv = StateVector::from_circuit(&prefix);
            let rho = sv.reduced_density_matrix(&[port]);
            let want = preparation[0].density();
            assert!(
                rho.approx_eq(&want, 1e-10),
                "prep {preparation:?} produced the wrong state"
            );
        }
    }

    #[test]
    fn variants_keep_fragment_width() {
        let frags = fragments_for(7, 3);
        let plan = BasisPlan::standard(1);
        for (_, circuit) in upstream_variants(&frags, &plan) {
            assert_eq!(circuit.num_qubits(), frags.upstream.width());
        }
        for (_, circuit) in downstream_variants(&frags, &plan) {
            assert_eq!(circuit.num_qubits(), frags.downstream.width());
        }
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn plan_arity_mismatch_panics() {
        let frags = fragments_for(5, 0);
        let plan = BasisPlan::standard(2);
        let schedule = schedule_for_plan(
            &plan,
            ShotAllocation::Uniform {
                shots_per_setting: 1,
            },
        )
        .unwrap();
        gather_graph(
            &frags,
            &plan,
            ReconstructionMethod::Eigenstate,
            &schedule,
            true,
        );
    }
}
