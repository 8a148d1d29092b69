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
//! builder, the schedule, degraded salvage and the analysis gate read it,
//! so both schemes run the same downstream path. A setting picks one
//! state per cut; its key lists the states' indices in the scheme's
//! alphabet, cut 0 least significant ([`crate::basis::encode_prep`] for
//! eigenstates).
//!
//! [`TermTable`] is the reconstruction's term list over a frame, which
//! tensor assembly, shot weights and error bars read by schedule slot.

use crate::basis::{cartesian, encode_meas, BasisPlan};
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
    /// Per cut, the indices of the states the plan prepares, ascending
    /// (their emission order).
    states: Vec<Vec<usize>>,
    /// Per cut and reconstruction Pauli (indexed `I, X, Y, Z`), the
    /// expansion terms; a neglected Pauli has none.
    terms: Vec<[Terms; 4]>,
    /// Whether the downstream half of a weighted schedule follows each
    /// preparation's usage (eigenstates) or is uniform (SIC: the frame is
    /// informationally complete, so every preparation counts alike).
    usage_weighted: bool,
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

    /// `weights` for the downstream half of a weighted schedule, or the
    /// uniform split when the frame's preparations do not follow usage.
    pub(crate) fn downstream_weights(&self, weights: Vec<f64>) -> Vec<f64> {
        if self.usage_weighted {
            weights
        } else {
            vec![1.0; weights.len()]
        }
    }
}

/// The reconstruction's term list (paper Eq. 13/14) of one frame over one
/// plan. An upstream slot indexes [`BasisPlan::all_meas_settings`] and a
/// downstream slot [`PrepFrame::settings`], the orders of
/// [`crate::allocation::ShotSchedule`]. Each slot's engine key is the one
/// bridge to the histograms the engine delivers.
#[derive(Debug, Clone)]
pub(crate) struct TermTable {
    /// Per string in [`BasisPlan::all_recon_strings`] order: its upstream
    /// slot and its downstream `(slot, coefficient)` terms, one per
    /// combination of the cuts' terms with cut 0 varying fastest, the
    /// coefficient their product in cut order; none when a cut has none.
    pub(crate) rows: Vec<(usize, Vec<(usize, f64)>)>,
    /// The engine key of each upstream slot.
    pub(crate) upstream_keys: Vec<u64>,
    /// The engine key of each downstream slot.
    pub(crate) downstream_keys: Vec<u64>,
}

impl TermTable {
    /// The term table of `frame` over `plan`.
    pub(crate) fn new(frame: &PrepFrame, plan: &BasisPlan) -> Self {
        let rows = upstream_slots(plan)
            .into_iter()
            .map(|(slot, m)| {
                // Each cut's terms join as the outer loop, so cut 0 varies
                // fastest, and a downstream slot counts in the cuts' state
                // positions with cut 0 most significant.
                let mut terms = vec![(0usize, 1.0f64)];
                for (k, &p) in m.iter().enumerate() {
                    let states = &frame.states[k];
                    // `states` is ascending: a position counts the states below.
                    let at = |s: usize| states.partition_point(|&x| x < s);
                    let join = |&(s, c): &(usize, f64)| {
                        let at = at(s);
                        terms
                            .iter()
                            .map(move |&(o, w)| (o * states.len() + at, w * c))
                    };
                    terms = frame.terms(k, p).iter().flat_map(join).collect();
                }
                (slot, terms)
            })
            .collect();
        let upstream_keys = plan
            .all_meas_settings()
            .into_iter()
            .map(|s| encode_meas(&s));
        TermTable {
            rows,
            upstream_keys: upstream_keys.collect(),
            downstream_keys: frame.settings().iter().map(|s| frame.key(s)).collect(),
        }
    }
}

/// Each reconstruction string of `plan`, in
/// [`BasisPlan::all_recon_strings`] order, after its upstream slot: the
/// index of [`BasisPlan::setting_for`] in [`BasisPlan::all_meas_settings`].
pub(crate) fn upstream_slots(plan: &BasisPlan) -> Vec<(usize, Vec<Pauli>)> {
    let bases: Vec<_> = (0..plan.num_cuts()).map(|k| plan.meas_bases(k)).collect();
    let slot = |m: &[Pauli]| {
        // Cut 0 most significant; `meas_bases` is ascending.
        let setting = plan.setting_for(m).into_iter().zip(&bases);
        setting.fold(0, |slot, (b, avail)| {
            slot * avail.len() + avail.partition_point(|&a| a < b)
        })
    };
    let strings = plan.all_recon_strings().into_iter();
    strings.map(|m| (slot(&m), m)).collect()
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

    /// Every row of the term table names the data it reads: its upstream
    /// slot is the string's measurement setting, and its downstream terms
    /// are exactly the combinations of the cuts' frame terms, cut 0
    /// fastest, each slot the setting of those states. Both frames, two
    /// cuts, every neglect pattern of none, one or two bases per cut.
    #[test]
    fn term_table_slots_name_the_settings_they_read() {
        use crate::basis::encode_meas;
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
                let meas = plan.all_meas_settings();
                for method in METHODS {
                    let frame = PrepFrame::new(method, &plan);
                    let settings = frame.settings();
                    let table = TermTable::new(&frame, &plan);
                    let keys: Vec<u64> = settings.iter().map(|s| frame.key(s)).collect();
                    assert_eq!(table.downstream_keys, keys);
                    let strings = plan.all_recon_strings();
                    assert_eq!(table.rows.len(), strings.len());
                    for (m, (up, terms)) in strings.iter().zip(&table.rows) {
                        assert_eq!(meas[*up], plan.setting_for(m), "{method:?} {m:?}");
                        assert_eq!(table.upstream_keys[*up], encode_meas(&meas[*up]));
                        let (t0, t1) = (frame.terms(0, m[0]), frame.terms(1, m[1]));
                        let want: Vec<(Vec<usize>, f64)> = t1
                            .iter()
                            .flat_map(|&(s1, c1)| {
                                t0.iter()
                                    .map(move |&(s0, c0)| (vec![s0, s1], 1.0 * c0 * c1))
                            })
                            .collect();
                        let got: Vec<(Vec<usize>, f64)> = terms
                            .iter()
                            .map(|&(slot, c)| (settings[slot].clone(), c))
                            .collect();
                        assert_eq!(got, want, "{method:?} {m:?} (plan {:?})", plan.neglected());
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
