//! SIC-basis downstream preparation (paper §II-B).
//!
//! The eigenstate preparation scheme is *overcomplete*: 6 states per cut
//! where 4 informationally-complete ones suffice. The paper notes that the
//! symmetric informationally-complete (SIC) basis achieves `O(4^K)` circuit
//! evaluations "without invoking golden circuit cutting formalism …
//! However, employing the SICC basis would require more involved
//! implementation, namely, solving linear systems".
//!
//! This module implements exactly that: downstream fragments are prepared
//! in the `4^K` tetrahedral SIC states, and each reconstruction Pauli `M`
//! is expanded over SIC projectors by solving the 4×4 frame system
//! `Σ_j α_j^{(P)} |ψ_j><ψ_j| = P` once per Pauli.

use crate::basis::{encode_paulis, BasisPlan};
use crate::fragment::{Fragment, FragmentRole, Fragments};
use crate::reconstruction::{contract, extract_bits, CoefficientTensor};
use qcut_circuit::circuit::Circuit;
use qcut_math::{solve_real, Pauli, SicState};
use qcut_sim::basis_change::sic_prep_circuit;
use qcut_sim::counts::Counts;
use qcut_sim::statevector::StateVector;
use std::collections::HashMap;

/// The expansion coefficients `α_j` with `P = Σ_j α_j |ψ_j><ψ_j|` for each
/// Pauli `P` over the four SIC states.
#[derive(Debug, Clone)]
pub struct SicFrame {
    /// `alpha[pauli_index][sic_index]`, Pauli order `I, X, Y, Z`.
    alpha: [[f64; 4]; 4],
}

impl SicFrame {
    /// Solves the frame system once.
    pub fn new() -> Self {
        // Build the 4×4 system: columns are SIC states, rows are the Pauli
        // coordinates (tr-normalised): ρ_j = ½(I + n_j·σ) has coordinates
        // (½, ½n_x, ½n_y, ½n_z) in the (I, X, Y, Z)/1 basis.
        let mut b = [0.0f64; 16];
        for (j, s) in SicState::ALL.iter().enumerate() {
            let [x, y, z] = s.bloch();
            b[j] = 0.5; // I row
            b[4 + j] = 0.5 * x;
            b[8 + j] = 0.5 * y;
            b[12 + j] = 0.5 * z;
        }
        let mut alpha = [[0.0f64; 4]; 4];
        for (pi, target) in [
            [1.0, 0.0, 0.0, 0.0], // I
            [0.0, 1.0, 0.0, 0.0], // X
            [0.0, 0.0, 1.0, 0.0], // Y
            [0.0, 0.0, 0.0, 1.0], // Z
        ]
        .iter()
        .enumerate()
        {
            let x = solve_real(&b, 4, target).expect("SIC frame is invertible");
            alpha[pi] = [x[0], x[1], x[2], x[3]];
        }
        SicFrame { alpha }
    }

    /// Coefficients for one Pauli.
    pub fn coefficients(&self, p: Pauli) -> [f64; 4] {
        self.alpha[match p {
            Pauli::I => 0,
            Pauli::X => 1,
            Pauli::Y => 2,
            Pauli::Z => 3,
        }]
    }
}

impl Default for SicFrame {
    fn default() -> Self {
        Self::new()
    }
}

/// Base-4 encoding of a SIC combination.
pub fn encode_sic(states: &[SicState]) -> u64 {
    let mut key = 0u64;
    for &s in states.iter().rev() {
        key = key * 4
            + match s {
                SicState::S0 => 0,
                SicState::S1 => 1,
                SicState::S2 => 2,
                SicState::S3 => 3,
            };
    }
    key
}

/// All `4^K` SIC combinations.
pub fn all_sic_settings(num_cuts: usize) -> Vec<Vec<SicState>> {
    let mut out = vec![Vec::new()];
    for _ in 0..num_cuts {
        let mut next = Vec::with_capacity(out.len() * 4);
        for prefix in &out {
            for s in SicState::ALL {
                let mut v = prefix.clone();
                v.push(s);
                next.push(v);
            }
        }
        out = next;
    }
    out
}

/// The downstream fragment with SIC preparations prepended.
pub fn build_sic_circuit(fragment: &Fragment, states: &[SicState]) -> Circuit {
    assert_eq!(fragment.role, FragmentRole::Downstream);
    assert_eq!(states.len(), fragment.cut_ports.len());
    let mut c = Circuit::new(fragment.circuit.num_qubits());
    for (k, &s) in states.iter().enumerate() {
        c.extend(&sic_prep_circuit(s, c.num_qubits(), fragment.cut_ports[k]));
    }
    c.extend(&fragment.circuit);
    c
}

/// Downstream coefficient tensor from SIC data: for each reconstruction
/// string `M`, `D[M][b2] = Σ_t (Π_k α^{M_k}_{t_k}) P(b2 | prep t)`.
/// `counts` holds one histogram per `SicState^K` combination, keyed by
/// [`encode_sic`]: the [`crate::jobgraph::Channel::SicPrep`] delivery of a
/// SIC [`crate::planner::gather_graph`].
pub fn sic_downstream_tensor(
    fragment: &Fragment,
    plan: &BasisPlan,
    counts: &HashMap<u64, Counts>,
) -> CoefficientTensor {
    let dists: HashMap<u64, Vec<f64>> = counts
        .iter()
        .map(|(&key, counts)| {
            let d = counts.marginal(&fragment.output_locals).to_distribution();
            (key, d.values().to_vec())
        })
        .collect();
    assemble_sic(fragment, plan, &dists)
}

/// Exact SIC downstream tensor via state-vector simulation.
pub fn exact_sic_downstream_tensor(fragment: &Fragment, plan: &BasisPlan) -> CoefficientTensor {
    let dists: HashMap<u64, Vec<f64>> = all_sic_settings(plan.num_cuts())
        .iter()
        .map(|states| {
            let circuit = build_sic_circuit(fragment, states);
            let probs = StateVector::from_circuit(&circuit).probabilities();
            let dim = 1usize << fragment.num_outputs();
            let mut out = vec![0.0f64; dim];
            for (idx, &p) in probs.iter().enumerate() {
                out[extract_bits(idx as u64, &fragment.output_locals) as usize] += p;
            }
            (encode_sic(states), out)
        })
        .collect();
    assemble_sic(fragment, plan, &dists)
}

fn assemble_sic(
    fragment: &Fragment,
    plan: &BasisPlan,
    dists: &HashMap<u64, Vec<f64>>,
) -> CoefficientTensor {
    let frame = SicFrame::new();
    let n2 = fragment.num_outputs();
    let dim = 1usize << n2;
    let num_cuts = plan.num_cuts();
    let settings = all_sic_settings(num_cuts);
    let mut entries = HashMap::new();
    for m in plan.all_recon_strings() {
        let coeffs: Vec<[f64; 4]> = m.iter().map(|&p| frame.coefficients(p)).collect();
        let mut vec = vec![0.0f64; dim];
        for states in &settings {
            let mut weight = 1.0f64;
            for (k, &s) in states.iter().enumerate() {
                let j = match s {
                    SicState::S0 => 0,
                    SicState::S1 => 1,
                    SicState::S2 => 2,
                    SicState::S3 => 3,
                };
                weight *= coeffs[k][j];
            }
            if weight == 0.0 {
                continue;
            }
            let q = &dists[&encode_sic(states)];
            for (slot, &p) in vec.iter_mut().zip(q) {
                *slot += weight * p;
            }
        }
        entries.insert(encode_paulis(&m), vec);
    }
    CoefficientTensor::from_entries(entries, n2)
}

/// SIC-variant exact reconstruction (upstream tensor is the standard
/// Pauli-measurement one).
pub fn exact_sic_reconstruct(
    fragments: &Fragments,
    plan: &BasisPlan,
) -> qcut_stats::distribution::Distribution {
    let up = crate::reconstruction::exact_upstream_tensor(&fragments.upstream, plan);
    let down = exact_sic_downstream_tensor(&fragments.downstream, plan);
    contract(fragments, plan, &up, &down)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::Fragmenter;
    use qcut_circuit::ansatz::{GoldenAnsatz, MultiCutAnsatz};
    use qcut_math::Matrix;
    use qcut_stats::distance::total_variation_distance;
    use qcut_stats::distribution::Distribution;

    #[test]
    fn frame_expands_every_pauli() {
        let frame = SicFrame::new();
        for p in Pauli::ALL {
            let alpha = frame.coefficients(p);
            let mut sum = Matrix::zeros(2, 2);
            for (j, s) in SicState::ALL.iter().enumerate() {
                sum = &sum + &s.density().scale(qcut_math::c64(alpha[j], 0.0));
            }
            assert!(
                sum.approx_eq(&p.matrix(), 1e-9),
                "frame expansion failed for {p}"
            );
        }
    }

    #[test]
    fn identity_coefficients_are_half() {
        // Σ_j ½ ρ_j = I by the SIC resolution of identity.
        let frame = SicFrame::new();
        for a in frame.coefficients(Pauli::I) {
            assert!((a - 0.5).abs() < 1e-9, "identity coefficient {a}");
        }
    }

    #[test]
    fn sic_settings_count_is_four_to_k() {
        assert_eq!(all_sic_settings(1).len(), 4);
        assert_eq!(all_sic_settings(2).len(), 16);
        assert_eq!(all_sic_settings(3).len(), 64);
    }

    #[test]
    fn encode_sic_is_injective() {
        let keys: std::collections::HashSet<u64> =
            all_sic_settings(3).iter().map(|s| encode_sic(s)).collect();
        assert_eq!(keys.len(), 64);
    }

    #[test]
    fn exact_sic_reconstruction_equals_uncut() {
        for seed in 0..4 {
            let (circuit, spec) = GoldenAnsatz::new(5, seed).build();
            let frags = Fragmenter::fragment(&circuit, &spec).unwrap();
            let recon = exact_sic_reconstruct(&frags, &BasisPlan::standard(1));
            let sv = StateVector::from_circuit(&circuit);
            let t = Distribution::from_values(5, sv.probabilities());
            let d = total_variation_distance(&recon, &t);
            assert!(d < 1e-9, "seed {seed}: SIC reconstruction off by {d}");
        }
    }

    #[test]
    fn sic_with_golden_plan_still_reconstructs() {
        // Golden plan shrinks the contraction (3 Paulis) while SIC keeps
        // 4 preparations; result must still be exact on the golden ansatz.
        let (circuit, spec) = GoldenAnsatz::new(5, 3).build();
        let frags = Fragmenter::fragment(&circuit, &spec).unwrap();
        let plan = BasisPlan::with_neglected(vec![Some(Pauli::Y)]);
        let recon = exact_sic_reconstruct(&frags, &plan);
        let sv = StateVector::from_circuit(&circuit);
        let t = Distribution::from_values(5, sv.probabilities());
        assert!(total_variation_distance(&recon, &t) < 1e-9);
    }

    #[test]
    fn multi_cut_sic_reconstruction() {
        let (circuit, spec) = MultiCutAnsatz::new(2, 5).build();
        let frags = Fragmenter::fragment(&circuit, &spec).unwrap();
        let recon = exact_sic_reconstruct(&frags, &BasisPlan::standard(2));
        let sv = StateVector::from_circuit(&circuit);
        let t = Distribution::from_values(circuit.num_qubits(), sv.probabilities());
        assert!(total_variation_distance(&recon, &t) < 1e-9);
    }

    #[test]
    fn empirical_sic_reconstruction_converges() {
        use crate::allocation::{schedule_sic, ShotAllocation};
        use crate::jobgraph::Channel;
        use crate::pipeline::ReconstructionMethod;
        use crate::planner::gather_graph;
        use qcut_device::ideal::IdealBackend;
        let (circuit, spec) = GoldenAnsatz::new(5, 7).build();
        let frags = Fragmenter::fragment(&circuit, &spec).unwrap();
        let plan = BasisPlan::standard(1);
        let schedule = schedule_sic(
            &plan,
            ShotAllocation::Uniform {
                shots_per_setting: 60_000,
            },
        )
        .unwrap();
        let graph = gather_graph(&frags, &plan, ReconstructionMethod::Sic, &schedule, true);
        let mut run = graph.execute(&IdealBackend::new(11), true).unwrap();
        let counts = run.take_channel(Channel::SicPrep);
        assert_eq!(counts.len(), 4);
        let up = crate::reconstruction::exact_upstream_tensor(&frags.upstream, &plan);
        let down = sic_downstream_tensor(&frags.downstream, &plan, &counts);
        let recon = contract(&frags, &plan, &up, &down);
        let sv = StateVector::from_circuit(&circuit);
        let t = Distribution::from_values(5, sv.probabilities());
        let d = total_variation_distance(&recon.clip_renormalize(), &t);
        assert!(d < 0.05, "empirical SIC reconstruction off by {d}");
    }

    #[test]
    fn sic_uses_fewer_preparations_than_eigenstates() {
        // The headline trade-off: 4^K vs 6^K.
        for k in 1..=3 {
            let sic = all_sic_settings(k).len();
            let eigen = BasisPlan::standard(k).all_prep_settings().len();
            assert!(sic < eigen, "K={k}: {sic} !< {eigen}");
            assert_eq!(sic, 4usize.pow(k as u32));
            assert_eq!(eigen, 6usize.pow(k as u32));
        }
    }
}
