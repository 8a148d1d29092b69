//! The preparation frame: which states the downstream fragment is
//! prepared in, and how each reconstruction Pauli expands over them.
//!
//! The downstream half of a cut reads every reconstruction Pauli as
//! `P = Σ_s c_s · |ψ_s><ψ_s|` over the prepared states (paper §II-B). The
//! paper's scheme prepares the six Pauli eigenstates, and `P` is the
//! signed pair of its own eigenstates ([`BasisPlan::prep_pair`]), so
//! neglecting a basis at a golden cut drops two preparations. The
//! alternative prepares the four tetrahedral SIC states
//! `ρ_j = ½(I + n_j·σ)`. Since `Σ_j n_j = 0` and `Σ_j n_j n_jᵀ = (4/3)·I`,
//! the expansion is closed-form: `I = Σ_j ½·ρ_j` and
//! `σ_a = Σ_j (3/2)·n_{j,a}·ρ_j`. Every SIC state feeds the identity term,
//! so no neglect drops one.
//!
//! [`PrepFrame`] holds that data for every cut of one basis plan. The job
//! builder, the schedule, the tensor assembly, degraded salvage and the
//! analysis gate all read it, so both schemes run the same downstream
//! path. A setting picks one state per cut; its key lists the states'
//! indices in the scheme's alphabet, cut 0 least significant
//! ([`crate::basis::encode_prep`] for eigenstates).

use crate::basis::{cartesian, BasisPlan};
use crate::fragment::Fragment;
use crate::pipeline::ReconstructionMethod;
use crate::tomography::prepend_preparations;
use qcut_circuit::circuit::Circuit;
use qcut_math::{Pauli, PrepState, SicState};
use qcut_sim::basis_change::{prep_circuit, sic_prep_circuit};

/// One state a frame can prepare on a cut qubit.
#[derive(Debug, Clone)]
struct Prep {
    /// The state's preparation from `|0>` on a one-qubit register.
    circuit: Circuit,
    /// The basis whose neglect drops the state: an eigenstate's own
    /// Pauli, `None` for a SIC state.
    basis: Option<Pauli>,
}

/// Non-zero `(state, coefficient)` terms of one Pauli at one cut.
type Terms = Vec<(usize, f64)>;

/// One preparation scheme over the cuts of one basis plan.
#[derive(Debug, Clone)]
pub(crate) struct PrepFrame {
    /// Every state the scheme prepares; a state's index is its digit in a
    /// setting key.
    alphabet: Vec<Prep>,
    /// Per cut, the indices of the states the plan prepares, in emission
    /// order.
    states: Vec<Vec<usize>>,
    /// Per cut and reconstruction Pauli (indexed `I, X, Y, Z`), the
    /// expansion terms; a neglected Pauli has none.
    terms: Vec<[Terms; 4]>,
    /// Whether the downstream half of a weighted schedule follows each
    /// preparation's usage (eigenstates) or is uniform (SIC: the frame is
    /// informationally complete, so every preparation counts alike).
    pub(crate) usage_weighted: bool,
}

impl PrepFrame {
    /// The frame of `method` over the cuts of `plan`.
    pub(crate) fn new(method: ReconstructionMethod, plan: &BasisPlan) -> Self {
        let cuts = 0..plan.num_cuts();
        match method {
            // `PrepState::ALL` lists the variants in declaration order, so
            // `state as usize` is the state's `encode_prep` digit.
            ReconstructionMethod::Eigenstate => PrepFrame {
                alphabet: PrepState::ALL
                    .iter()
                    .map(|&s| Prep {
                        circuit: prep_circuit(s, 1, 0),
                        basis: Some(s.pauli()),
                    })
                    .collect(),
                states: cuts
                    .clone()
                    .map(|k| plan.prep_states(k).iter().map(|&s| s as usize).collect())
                    .collect(),
                terms: cuts
                    .map(|k| {
                        per_pauli(plan, k, |p| {
                            let pair = plan.prep_pair(k, p);
                            pair.iter().map(|&(s, c)| (s as usize, c)).collect()
                        })
                    })
                    .collect(),
                usage_weighted: true,
            },
            ReconstructionMethod::Sic => PrepFrame {
                alphabet: SicState::ALL
                    .iter()
                    .map(|&s| Prep {
                        circuit: sic_prep_circuit(s, 1, 0),
                        basis: None,
                    })
                    .collect(),
                states: cuts
                    .clone()
                    .map(|_| (0..SicState::ALL.len()).collect())
                    .collect(),
                terms: cuts.map(|k| per_pauli(plan, k, sic_terms)).collect(),
                usage_weighted: false,
            },
        }
    }

    /// The expansion terms of `pauli` at `cut`, as `(state, coefficient)`
    /// with `state` an index into the scheme's states.
    pub(crate) fn terms(&self, cut: usize, pauli: Pauli) -> &[(usize, f64)] {
        &self.terms[cut][pauli as usize]
    }

    /// Every preparation setting, one state per cut, in cartesian order
    /// (cut 0 varies slowest).
    pub(crate) fn settings(&self) -> Vec<Vec<usize>> {
        cartesian(self.states.iter().cloned())
    }

    /// The number of settings, without enumerating them.
    pub(crate) fn estimated_settings(&self) -> f64 {
        self.states.iter().map(|s| s.len() as f64).product()
    }

    /// The key of a setting: its state indices, cut 0 least significant.
    pub(crate) fn key(&self, setting: &[usize]) -> u64 {
        let radix = self.alphabet.len() as u64;
        setting
            .iter()
            .rev()
            .fold(0, |key, &s| key * radix + s as u64)
    }

    /// The downstream fragment with `setting`'s preparations prepended.
    pub(crate) fn circuit(&self, fragment: &Fragment, setting: &[usize]) -> Circuit {
        prepend_preparations(fragment, setting.iter().map(|&s| &self.alphabet[s].circuit))
    }

    /// Per cut, the basis whose neglect drops the state of setting `key`.
    pub(crate) fn bases_of(&self, mut key: u64, num_cuts: usize) -> Vec<Option<Pauli>> {
        let radix = self.alphabet.len() as u64;
        (0..num_cuts)
            .map(|_| {
                let digit = (key % radix) as usize;
                key /= radix;
                self.alphabet[digit].basis
            })
            .collect()
    }

    /// Whether the plan prepares a state that no neglect drops.
    pub(crate) fn has_undroppable_state(&self) -> bool {
        self.states
            .iter()
            .flatten()
            .any(|&s| self.alphabet[s].basis.is_none())
    }

    /// Calls `f(key, weight)` for each term of the string `m`: one term
    /// per combination of its cuts' terms, cut 0 varying fastest, with
    /// `weight` the product of the coefficients in cut order.
    pub(crate) fn for_each_term(&self, m: &[Pauli], mut f: impl FnMut(u64, f64)) {
        let terms: Vec<&[(usize, f64)]> = m
            .iter()
            .enumerate()
            .map(|(k, &p)| self.terms(k, p))
            .collect();
        if terms.iter().any(|t| t.is_empty()) {
            return;
        }
        let mut at = vec![0usize; terms.len()];
        let mut setting = vec![0usize; terms.len()];
        loop {
            let mut weight = 1.0f64;
            for (k, t) in terms.iter().enumerate() {
                let (state, c) = t[at[k]];
                setting[k] = state;
                weight *= c;
            }
            f(self.key(&setting), weight);
            let Some(k) = (0..terms.len()).find(|&k| at[k] + 1 < terms[k].len()) else {
                return;
            };
            at[k] += 1;
            at[..k].fill(0);
        }
    }
}

/// The terms of each of `plan`'s reconstruction Paulis at cut `k`.
fn per_pauli(plan: &BasisPlan, k: usize, terms: impl Fn(Pauli) -> Terms) -> [Terms; 4] {
    let mut out: [Terms; 4] = Default::default();
    for p in plan.recon_paulis(k) {
        out[p as usize] = terms(p);
    }
    out
}

/// The closed-form SIC expansion of `p`: `½` on every state for `I`,
/// `(3/2)·n_{j,a}` on state `j` for `σ_a`; zero coefficients are dropped.
fn sic_terms(p: Pauli) -> Terms {
    SicState::ALL
        .iter()
        .enumerate()
        .filter_map(|(j, s)| {
            let c = match p {
                Pauli::I => 0.5,
                _ => 1.5 * s.bloch()[p as usize - 1],
            };
            (c != 0.0).then_some((j, c))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::{Fragmenter, Fragments};
    use crate::reconstruction::{contract, exact_downstream_tensor_for, exact_upstream_tensor};
    use qcut_circuit::ansatz::{GoldenAnsatz, MultiCutAnsatz};
    use qcut_math::{c64, Matrix};
    use qcut_sim::statevector::StateVector;
    use qcut_stats::distance::total_variation_distance;
    use qcut_stats::distribution::Distribution;
    use std::collections::HashMap;

    const METHODS: [ReconstructionMethod; 2] =
        [ReconstructionMethod::Eigenstate, ReconstructionMethod::Sic];

    fn truth(circuit: &Circuit) -> Distribution {
        let sv = StateVector::from_circuit(circuit);
        Distribution::from_values(circuit.num_qubits(), sv.probabilities())
    }

    /// Exact reconstruction with the preparations of `method`.
    fn exact_reconstruct_in(
        frags: &Fragments,
        plan: &BasisPlan,
        method: ReconstructionMethod,
    ) -> Distribution {
        let up = exact_upstream_tensor(&frags.upstream, plan);
        let down = exact_downstream_tensor_for(&frags.downstream, plan, method);
        contract(frags, plan, &up, &down)
    }

    /// For every cut and every neglect pattern of none, one or two bases,
    /// each frame's terms sum to the Pauli: `Σ c · ρ_state = P`, with
    /// `ρ_state` what the state's preparation circuit prepares.
    #[test]
    fn frame_terms_sum_to_every_pauli() {
        let patterns: Vec<Vec<Pauli>> = vec![
            vec![],
            vec![Pauli::X],
            vec![Pauli::Y],
            vec![Pauli::Z],
            vec![Pauli::X, Pauli::Y],
            vec![Pauli::X, Pauli::Z],
            vec![Pauli::Y, Pauli::Z],
        ];
        for first in &patterns {
            for second in &patterns {
                let mut plan = BasisPlan::standard(2);
                for (cut, pattern) in [first, second].into_iter().enumerate() {
                    for &p in pattern {
                        plan.neglect(cut, p);
                    }
                }
                for method in METHODS {
                    let frame = PrepFrame::new(method, &plan);
                    for cut in 0..2 {
                        for p in plan.recon_paulis(cut) {
                            let mut sum = Matrix::zeros(2, 2);
                            for &(s, c) in frame.terms(cut, p) {
                                assert!(frame.states[cut].contains(&s), "unprepared state");
                                let sv = StateVector::from_circuit(&frame.alphabet[s].circuit);
                                let rho = sv.reduced_density_matrix(&[0]);
                                sum = &sum + &rho.scale(c64(c, 0.0));
                            }
                            assert!(
                                sum.approx_eq(&p.matrix(), 1e-12),
                                "{method:?} terms of {p} at cut {cut} (plan {:?})",
                                plan.neglected()
                            );
                        }
                    }
                }
            }
        }
    }

    /// The exact oracle: for both frames, K = 1–3 and the standard and
    /// all-Y-golden plans, exact reconstruction is the statevector truth.
    #[test]
    fn exact_reconstruction_matches_truth_in_every_frame() {
        let mut cases: Vec<(String, Circuit, qcut_circuit::cut::CutSpec)> = Vec::new();
        for seed in 0..4 {
            let (circuit, spec) = GoldenAnsatz::new(5, seed).build();
            cases.push((format!("golden ansatz seed {seed}"), circuit, spec));
        }
        for k in 1..=3 {
            let (circuit, spec) = MultiCutAnsatz::new(k, 5).build();
            cases.push((format!("multi-cut K={k}"), circuit, spec));
        }
        for (name, circuit, spec) in cases {
            let frags = Fragmenter::fragment(&circuit, &spec).unwrap();
            let k = frags.num_cuts;
            let want = truth(&circuit);
            for plan in [
                BasisPlan::standard(k),
                BasisPlan::with_neglected(vec![Some(Pauli::Y); k]),
            ] {
                for method in METHODS {
                    let got = exact_reconstruct_in(&frags, &plan, method);
                    let d = total_variation_distance(&got, &want);
                    assert!(
                        d < 1e-9,
                        "{name}, {method:?}, {:?}: off by {d}",
                        plan.neglected()
                    );
                }
            }
        }
    }

    /// The frame prepares what the reference builders prepare, under the
    /// keys the engine has always delivered them on.
    #[test]
    fn frame_circuits_and_keys_match_the_reference_builders() {
        use crate::basis::encode_prep;
        use crate::tomography::build_downstream_circuit;
        use qcut_sim::basis_change::sic_prep_circuit;
        let (circuit, spec) = MultiCutAnsatz::new(2, 3).build();
        let frags = Fragmenter::fragment(&circuit, &spec).unwrap();
        let down = &frags.downstream;
        let plan = BasisPlan::with_neglected(vec![None, Some(Pauli::Y)]);
        let eigen = PrepFrame::new(ReconstructionMethod::Eigenstate, &plan);
        let settings = eigen.settings();
        assert_eq!(settings.len(), plan.all_prep_settings().len());
        for (setting, prep) in settings.iter().zip(plan.all_prep_settings()) {
            assert_eq!(eigen.key(setting), encode_prep(&prep));
            assert_eq!(
                eigen.circuit(down, setting),
                build_downstream_circuit(down, &prep)
            );
        }
        let sic = PrepFrame::new(ReconstructionMethod::Sic, &plan);
        for setting in sic.settings() {
            let n = down.circuit.num_qubits();
            let mut want = Circuit::new(n);
            for (&s, &port) in setting.iter().zip(&down.cut_ports) {
                want.extend(&sic_prep_circuit(SicState::ALL[s], n, port));
            }
            want.extend(&down.circuit);
            assert_eq!(sic.circuit(down, &setting), want);
            assert_eq!(sic.key(&setting), (setting[0] + 4 * setting[1]) as u64);
        }
    }

    #[test]
    fn identity_coefficients_are_half() {
        // Σ_j ½ ρ_j = I by the SIC resolution of identity.
        let frame = PrepFrame::new(ReconstructionMethod::Sic, &BasisPlan::standard(1));
        let terms = frame.terms(0, Pauli::I);
        assert_eq!(terms.len(), 4);
        for &(_, a) in terms {
            assert!((a - 0.5).abs() < 1e-9, "identity coefficient {a}");
        }
    }

    #[test]
    fn sic_settings_count_is_four_to_k() {
        let count = |k| {
            PrepFrame::new(ReconstructionMethod::Sic, &BasisPlan::standard(k))
                .settings()
                .len()
        };
        assert_eq!(count(1), 4);
        assert_eq!(count(2), 16);
        assert_eq!(count(3), 64);
    }

    #[test]
    fn sic_setting_keys_are_injective() {
        let frame = PrepFrame::new(ReconstructionMethod::Sic, &BasisPlan::standard(3));
        let keys: std::collections::HashSet<u64> =
            frame.settings().iter().map(|s| frame.key(s)).collect();
        assert_eq!(keys.len(), 64);
    }

    #[test]
    fn empirical_sic_reconstruction_converges() {
        use crate::allocation::ShotAllocation;
        use crate::execution::FragmentData;
        use crate::jobgraph::Channel;
        use crate::planner::{gather_graph, schedule};
        use crate::reconstruction::downstream_tensor_for;
        use qcut_device::ideal::IdealBackend;
        let (circuit, spec) = GoldenAnsatz::new(5, 7).build();
        let frags = Fragmenter::fragment(&circuit, &spec).unwrap();
        let plan = BasisPlan::standard(1);
        let sic = ReconstructionMethod::Sic;
        let uniform = ShotAllocation::Uniform {
            shots_per_setting: 60_000,
        };
        let schedule = schedule(&plan, sic, uniform).unwrap();
        let graph = gather_graph(&frags, &plan, sic, &schedule, true);
        let mut run = graph.execute(&IdealBackend::new(11), true).unwrap();
        let counts = run.take_channel(Channel::DownstreamPrep);
        assert_eq!(counts.len(), 4);
        let data = FragmentData::from_counts(
            HashMap::new(),
            counts,
            Default::default(),
            Default::default(),
        );
        let up = exact_upstream_tensor(&frags.upstream, &plan);
        let down = downstream_tensor_for(&frags.downstream, &plan, sic, &data);
        let recon = contract(&frags, &plan, &up, &down);
        let d = total_variation_distance(&recon.clip_renormalize(), &truth(&circuit));
        assert!(d < 0.05, "empirical SIC reconstruction off by {d}");
    }

    #[test]
    fn sic_uses_fewer_preparations_than_eigenstates() {
        // The headline trade-off: 4^K vs 6^K.
        for k in 1..=3 {
            let plan = BasisPlan::standard(k);
            let count = |method| PrepFrame::new(method, &plan).settings().len();
            let sic = count(ReconstructionMethod::Sic);
            let eigen = count(ReconstructionMethod::Eigenstate);
            assert!(sic < eigen, "K={k}: {sic} !< {eigen}");
            assert_eq!(sic, 4usize.pow(k as u32));
            assert_eq!(eigen, 6usize.pow(k as u32));
        }
    }
}
