//! Dataflow analysis over the circuit DAG: stabilizer-domain golden
//! proofs and the light-cone cut adviser.
//!
//! Two abstract domains from `qcut-circuit` feed this module:
//!
//! * the **stabilizer tableau domain**
//!   ([`qcut_circuit::tableau::StabilizerTableau`]) — Clifford
//!   instructions transform generators exactly, non-Clifford instructions
//!   widen their support to ⊤;
//! * the **light-cone domain** ([`qcut_circuit::cone::LightCones`]) —
//!   forward/backward instruction reachability over wire edges.
//!
//! On the first domain, [`prove_golden_bases`] turns the surviving
//! generators at the end of an upstream fragment into *symbolic proofs*
//! that Pauli coefficients vanish: every upstream coefficient the
//! reconstruction consumes is an expectation `tr((|b1><b1| ⊗ M) ρ)`, the
//! projector expands over Z-strings, and any Pauli string that
//! anticommutes with a surviving stabilizer has expectation exactly zero.
//! Whether *all* strings carrying a candidate basis at one cut anticommute
//! somewhere reduces to the insolubility of a GF(2) linear system — no
//! simulation, no shots. [`crate::golden::GoldenPolicy::ProveStatic`]
//! feeds the resulting plan into the neglect pipeline with
//! `detection_shots == 0`.
//!
//! On both domains, [`cut_report`] scores every wire edge of a circuit as
//! a cut candidate — entangling-gate crossings, settings after
//! statically-proven neglect, sampling overhead, and (for fragments small
//! enough to simulate) a planning-time [`variance_from_schedule`]
//! surrogate — the static cost model behind the `QA6xx` advisory lints
//! and the ROADMAP's automatic cut-point discovery.

use crate::allocation::ShotAllocation;
use crate::analysis::AnalysisConfig;
use crate::basis::BasisPlan;
use crate::fragment::Fragment;
use crate::golden::{ExactDetector, GoldenPolicy};
use crate::pipeline::ReconstructionMethod;
use crate::planner::{schedule, RunPlan};
use crate::reconstruction::{exact_downstream_tensor, exact_upstream_tensor};
use crate::variance::variance_from_schedule;
use qcut_circuit::circuit::Circuit;
use qcut_circuit::cone::LightCones;
use qcut_circuit::cut::CutSpec;
use qcut_circuit::dag::CircuitDag;
use qcut_circuit::tableau::{StabilizerTableau, MAX_TABLEAU_QUBITS};
use qcut_math::Pauli;

/// Fragments wider than this are not statevector-simulated by the cut
/// adviser (the static facts are still computed for them).
const SIM_WIDTH_LIMIT: usize = 10;

/// Total shot budget of the adviser's planning-time variance surrogate.
/// Candidates are compared at *equal total budget*, so a cut whose proven
/// plan needs fewer settings gets more shots per setting — the same
/// economy the golden pipeline banks at execution time.
const ADVISER_BUDGET: u64 = 9_000;

/// Proves negligible bases for each cut of an upstream fragment, by
/// stabilizer dataflow alone. Returns the proven bases per cut, in the
/// detector's `[Y, X, Z]` preference order.
///
/// Soundness: a proof here implies the exact upstream coefficients vanish
/// (what [`ExactDetector`] measures against its tolerance), regardless of
/// widening — widening only *loses* proofs, never fabricates them. On a
/// fully Clifford fragment the tableau stays full-rank and the proof is
/// also complete: every basis the exact detector would find is proven.
///
/// Fragments wider than [`MAX_TABLEAU_QUBITS`] get no proofs (empty sets).
pub fn prove_golden_bases(upstream: &Fragment, num_cuts: usize) -> Vec<Vec<Pauli>> {
    assert_eq!(
        upstream.cut_ports.len(),
        num_cuts,
        "fragment has {} cut ports, caller claims {num_cuts}",
        upstream.cut_ports.len()
    );
    if upstream.width() > MAX_TABLEAU_QUBITS {
        return vec![Vec::new(); num_cuts];
    }
    let tableau = StabilizerTableau::from_circuit(&upstream.circuit);
    proofs_from_tableau(upstream, num_cuts, &tableau)
}

/// [`prove_golden_bases`] given the tableau of the fragment's circuit.
fn proofs_from_tableau(
    upstream: &Fragment,
    num_cuts: usize,
    tableau: &StabilizerTableau,
) -> Vec<Vec<Pauli>> {
    let real = RealComponents::new(upstream);
    (0..num_cuts)
        .map(|cut| {
            [Pauli::Y, Pauli::X, Pauli::Z]
                .into_iter()
                .filter(|&p| {
                    stabilizer_proves_zero(
                        tableau,
                        &upstream.output_locals,
                        &upstream.cut_ports,
                        cut,
                        p,
                    ) || (p == Pauli::Y && real.proves_y(cut))
                })
                .collect()
        })
        .collect()
}

/// The [`BasisPlan`] built from [`prove_golden_bases`]: proven bases are
/// neglected in the detector's `[Y, X, Z]` order, capped at two per cut
/// (one basis must survive to carry the identity marginal) — exactly the
/// shape [`ExactDetector::detect`] produces, so on fully Clifford
/// fragments the two plans are identical.
pub fn proven_plan(upstream: &Fragment, num_cuts: usize) -> BasisPlan {
    plan_from_proofs(&prove_golden_bases(upstream, num_cuts))
}

/// The [`proven_plan`] of already computed per-cut `proofs`, so a caller
/// that keeps the proofs runs the prover once.
pub fn plan_from_proofs(proofs: &[Vec<Pauli>]) -> BasisPlan {
    let mut plan = BasisPlan::standard(proofs.len());
    for (cut, proven) in proofs.iter().enumerate() {
        for &p in proven {
            // `try_neglect` enforces the two-per-cut cap; a refused third
            // proof is simply not banked.
            let _ = plan.try_neglect(cut, p);
        }
    }
    plan
}

/// Whether the stabilizer certificate proves every upstream coefficient
/// carrying `candidate` at cut `cut` to be exactly zero.
///
/// Every consumed coefficient is `tr((|b1><b1|_outputs ⊗ M_ports) ρ)`;
/// expanding the projector over Z-strings, the full family of relevant
/// observables is `Q = Z_S ⊗ M' ⊗ candidate` with `S` ranging over output
/// subsets and `M'` over Pauli strings on the *other* ports. If every `Q`
/// in the family anticommutes with some surviving generator, every
/// coefficient is zero. The complement — some `Q` commutes with all
/// generators — is a GF(2) linear system in the free bits of `Q` (one
/// symplectic-product equation per generator); the basis is proven golden
/// exactly when Gaussian elimination shows that system insoluble.
fn stabilizer_proves_zero(
    tableau: &StabilizerTableau,
    outputs: &[usize],
    ports: &[usize],
    cut: usize,
    candidate: Pauli,
) -> bool {
    let qk = ports[cut];
    let (px, pz) = pauli_bits(candidate);
    let others: Vec<usize> = (0..ports.len())
        .filter(|&i| i != cut)
        .map(|i| ports[i])
        .collect();
    let o = outputs.len();
    let num_vars = o + 2 * others.len();
    assert!(
        num_vars < 128,
        "GF(2) system exceeds the u128 row representation"
    );
    let const_bit = 1u128 << num_vars;
    let var_mask = const_bit - 1;

    // One equation per generator g: <Q, g> = 0, i.e.
    //   Σ_j s_j·gx(out_j)  +  Σ_i ( x_i·gz(port_i) + z_i·gx(port_i) )
    //     = candidate_x·gz(q_k) + candidate_z·gx(q_k)   (mod 2)
    // with variables s_j (Q's Z-bit on output j — Q is Z-type there) and
    // (x_i, z_i) (Q's bits on the other ports).
    let mut pivot_of: Vec<Option<u128>> = vec![None; num_vars];
    for g in tableau.generators() {
        let mut row: u128 = 0;
        for (j, &q) in outputs.iter().enumerate() {
            if (g.x >> q) & 1 == 1 {
                row |= 1 << j;
            }
        }
        for (t, &q) in others.iter().enumerate() {
            if (g.z >> q) & 1 == 1 {
                row |= 1 << (o + 2 * t);
            }
            if (g.x >> q) & 1 == 1 {
                row |= 1 << (o + 2 * t + 1);
            }
        }
        let rhs = (px && (g.z >> qk) & 1 == 1) ^ (pz && (g.x >> qk) & 1 == 1);
        if rhs {
            row |= const_bit;
        }
        // Reduce against the pivots collected so far; the pivot of each
        // stored row is its lowest set variable bit, so the lowest set bit
        // strictly increases and the loop terminates.
        loop {
            let vars = row & var_mask;
            if vars == 0 {
                if row != 0 {
                    // 0 = 1: no commuting Q exists — proven.
                    return true;
                }
                break;
            }
            let v = vars.trailing_zeros() as usize;
            match pivot_of[v] {
                Some(p) => row ^= p,
                None => {
                    pivot_of[v] = Some(row);
                    break;
                }
            }
        }
    }
    false
}

fn pauli_bits(p: Pauli) -> (bool, bool) {
    match p {
        Pauli::I => (false, false),
        Pauli::X => (true, false),
        Pauli::Y => (true, true),
        Pauli::Z => (false, true),
    }
}

/// The real-amplitude component argument (the paper's designed golden
/// point, which arbitrary-angle `Ry` ansätze realise *outside* the
/// Clifford fragment the tableau can track): qubits are grouped into
/// connected components by shared multi-qubit instructions; a component
/// whose gates are all real produces a real-amplitude factor state. A
/// single `Y` inside a real factor is a purely imaginary Hermitian
/// observable, so its expectation vanishes identically.
struct RealComponents {
    // Per-qubit component root; only test introspection reads it back
    // out (`component_of`), the lint path goes through `proves_y`.
    #[cfg_attr(not(test), allow(dead_code))]
    root: Vec<usize>,
    component_real: Vec<bool>,
    port_roots: Vec<usize>,
}

impl RealComponents {
    fn new(upstream: &Fragment) -> Self {
        let n = upstream.width();
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], mut q: usize) -> usize {
            while parent[q] != q {
                parent[q] = parent[parent[q]];
                q = parent[q];
            }
            q
        }
        for inst in upstream.circuit.instructions() {
            for w in inst.qubits.windows(2) {
                let (a, b) = (find(&mut parent, w[0]), find(&mut parent, w[1]));
                if a != b {
                    parent[a] = b;
                }
            }
        }
        let root: Vec<usize> = (0..n).map(|q| find(&mut parent, q)).collect();
        let mut component_real = vec![true; n];
        for inst in upstream.circuit.instructions() {
            if !inst.gate.is_real() {
                component_real[root[inst.qubits[0]]] = false;
            }
        }
        let port_roots = upstream.cut_ports.iter().map(|&q| root[q]).collect();
        RealComponents {
            root,
            component_real,
            port_roots,
        }
    }

    /// Whether the real-component argument proves `Y` golden at `cut`:
    /// the port's component is all-real *and* contains no other cut port
    /// (two ports in one factor would only prove the joint `Y⊗Y`-type
    /// strings zero, not each single-`Y` string — e.g. a Bell-pair factor
    /// has `<Y⊗Y> = -1`).
    fn proves_y(&self, cut: usize) -> bool {
        let r = self.port_roots[cut];
        self.component_real[r]
            && self
                .port_roots
                .iter()
                .enumerate()
                .all(|(i, &pr)| i == cut || pr != r)
    }

    #[cfg(test)]
    fn component_of(&self, q: usize) -> usize {
        self.root[q]
    }
}

/// One wire edge scored as a cut candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct CutCandidate {
    /// Qubit whose wire the edge lies on.
    pub qubit: usize,
    /// Wire position (instruction count on the wire before the cut) —
    /// feed straight into [`CutSpec::single`].
    pub position: usize,
    /// Instruction index upstream of the edge.
    pub from: usize,
    /// Instruction index downstream of the edge.
    pub to: usize,
    /// Whether cutting here yields a valid bipartition.
    pub feasible: bool,
    /// Two-qubit instructions inside the forward cone of `to` — work the
    /// downstream fragment still has to entangle after the cut.
    pub entangling_crossings: usize,
    /// Bases proven negligible by the stabilizer/real-component prover.
    pub proven_golden: Vec<Pauli>,
    /// Bases the exact (simulating) detector finds beyond the proofs.
    /// Empty when simulation was skipped (fragment too wide or analysis
    /// disabled).
    pub likely_golden: Vec<Pauli>,
    /// Total subcircuit settings after proven neglect (9 standard, 6
    /// golden, 3 doubly-golden for a single cut).
    pub settings: usize,
    /// Sampling-overhead factor of this cut under the proven plan (the
    /// `9^K` family; `K = 1` here).
    pub sampling_overhead: f64,
    /// Planning-time RMS shot-noise surrogate from
    /// [`variance_from_schedule`] at an equal total budget; `None` when
    /// simulation was skipped.
    pub predicted_rms: Option<f64>,
    /// Composite score, lower is better; infinite for infeasible edges.
    pub score: f64,
}

/// The cut adviser's output: every wire edge scored, best-first index.
#[derive(Debug, Clone, PartialEq)]
pub struct CutReport {
    /// All candidates, in wire-edge (DAG) order.
    pub candidates: Vec<CutCandidate>,
    /// Index into `candidates` of the lowest-scoring feasible edge.
    pub best: Option<usize>,
}

impl CutReport {
    /// The winning candidate, if any edge is feasible.
    pub fn best_candidate(&self) -> Option<&CutCandidate> {
        self.best.map(|i| &self.candidates[i])
    }
}

/// Scores every wire edge of `circuit` as a single-cut candidate.
///
/// The static facts (feasibility, crossings, proofs, settings, overhead)
/// are always computed. The simulation-backed enrichment (`likely_golden`,
/// `predicted_rms`) runs only when `options.enabled` and both fragments
/// fit under the adviser's width limit; candidates whose sampling
/// overhead exceeds `options.max_sampling_overhead` are marked
/// infeasible. Re-exported as `analysis::cut_report`.
pub fn cut_report(circuit: &Circuit, options: &AnalysisConfig) -> CutReport {
    let dag = CircuitDag::new(circuit);
    let cones = LightCones::new(&dag);
    let insts = circuit.instructions();
    let mut candidates = Vec::with_capacity(dag.wire_edges().len());
    for edge in dag.wire_edges() {
        let spec = CutSpec::single(edge.qubit, edge.position);
        let planned = RunPlan::resolve(circuit, &spec, &GoldenPolicy::ProveStatic).ok();
        let entangling_crossings = insts
            .iter()
            .enumerate()
            .skip(edge.to)
            .filter(|&(j, inst)| cones.reaches(edge.to, j) && inst.qubits.len() == 2)
            .count();
        let mut candidate = CutCandidate {
            qubit: edge.qubit,
            position: edge.position,
            from: edge.from,
            to: edge.to,
            feasible: false,
            entangling_crossings,
            proven_golden: Vec::new(),
            likely_golden: Vec::new(),
            settings: BasisPlan::standard(1).total_settings(),
            sampling_overhead: 9.0,
            predicted_rms: None,
            score: f64::INFINITY,
        };
        if let Some(RunPlan {
            fragments: frags,
            basis: plan,
            proofs,
            ..
        }) = planned
        {
            candidate.feasible = true;
            candidate.proven_golden = proofs
                .and_then(|p| p.into_iter().next())
                .unwrap_or_default();
            candidate.settings = plan.total_settings();
            candidate.sampling_overhead = plan.total_settings() as f64;
            let simulate = options.enabled
                && frags.upstream.width() <= SIM_WIDTH_LIMIT
                && frags.downstream.width() <= SIM_WIDTH_LIMIT;
            if simulate {
                let detected = ExactDetector::default().detect(&frags.upstream, 1);
                candidate.likely_golden = detected.neglected()[0]
                    .iter()
                    .copied()
                    .filter(|p| !candidate.proven_golden.contains(p))
                    .collect();
                let up = exact_upstream_tensor(&frags.upstream, &plan);
                let down = exact_downstream_tensor(&frags.downstream, &plan);
                let eigen = ReconstructionMethod::Eigenstate;
                let budget = ShotAllocation::TotalBudget {
                    total: ADVISER_BUDGET,
                };
                if let Ok(schedule) = schedule(&plan, eigen, budget) {
                    let error = variance_from_schedule(&frags, &plan, eigen, &up, &down, &schedule);
                    candidate.predicted_rms = Some(error.rms_error());
                }
            }
            if candidate.sampling_overhead > options.max_sampling_overhead {
                candidate.feasible = false;
            }
        }
        if candidate.feasible {
            // The variance surrogate is the primary score; the static
            // fallback (settings × crossing pressure, normalised so both
            // stay O(1)) ranks edges the simulator cannot reach.
            candidate.score = candidate.predicted_rms.unwrap_or_else(|| {
                (candidate.settings as f64 / 9.0) * (1.0 + candidate.entangling_crossings as f64)
            });
        }
        candidates.push(candidate);
    }
    let best = candidates
        .iter()
        .enumerate()
        .filter(|(_, c)| c.feasible)
        .min_by(|(_, a), (_, b)| a.score.total_cmp(&b.score))
        .map(|(i, _)| i);
    CutReport { candidates, best }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::Fragmenter;
    use crate::golden::resolve_static_policy;
    use qcut_circuit::ansatz::{GoldenAnsatz, MultiCutAnsatz};
    use qcut_circuit::circuit::Instruction;
    use qcut_circuit::gate::Gate;
    use qcut_circuit::random::{random_circuit, random_real_circuit, RandomCircuitConfig};

    /// A Clifford-upstream golden workload: H/S/CX/CZ block on qubits
    /// 0..=2 leaving the cut qubit 2 in a real separable state, then a
    /// downstream block.
    fn clifford_golden_circuit() -> (Circuit, CutSpec) {
        let mut c = Circuit::new(4);
        c.h(0);
        c.cx(0, 1);
        c.s(0);
        c.h(2);
        c.cz(1, 2);
        let pos = c.instructions().iter().filter(|i| i.acts_on(2)).count() - 1;
        c.cx(2, 3);
        c.ry(0.7, 3);
        (c, CutSpec::single(2, pos))
    }

    fn upstream_of(c: &Circuit, spec: &CutSpec) -> Fragment {
        Fragmenter::fragment(c, spec).unwrap().upstream
    }

    #[test]
    fn proves_y_on_the_clifford_golden_workload() {
        let (c, spec) = clifford_golden_circuit();
        let up = upstream_of(&c, &spec);
        let proofs = prove_golden_bases(&up, 1);
        assert!(proofs[0].contains(&Pauli::Y), "{proofs:?}");
        // And agrees with the exact detector.
        let detected = ExactDetector::default().detect(&up, 1);
        assert_eq!(proven_plan(&up, 1), detected, "plans must agree");
    }

    #[test]
    fn prover_agrees_with_detector_on_a_trivial_zero_port() {
        // Upstream leaves the cut qubit in |0>: X and Y provably golden,
        // Z must survive.
        let mut c = Circuit::new(2);
        c.h(1);
        c.h(1);
        c.cx(1, 0);
        let spec = CutSpec::single(1, 1);
        let up = upstream_of(&c, &spec);
        let proofs = prove_golden_bases(&up, 1);
        assert!(proofs[0].contains(&Pauli::X));
        assert!(proofs[0].contains(&Pauli::Y));
        assert!(!proofs[0].contains(&Pauli::Z));
        assert_eq!(proven_plan(&up, 1), ExactDetector::default().detect(&up, 1));
    }

    #[test]
    fn widening_keeps_the_prover_sound_but_incomplete() {
        // The golden ansatz upstream is real but not Clifford: the tableau
        // widens away, yet the real-component argument still proves Y.
        let (c, spec) = GoldenAnsatz::new(5, 3).build();
        let up = upstream_of(&c, &spec);
        let proofs = prove_golden_bases(&up, 1);
        assert!(proofs[0].contains(&Pauli::Y), "{proofs:?}");
        // Soundness: everything proven is also detected.
        let detected = ExactDetector::default().detect(&up, 1);
        for p in &proofs[0] {
            assert!(
                detected.neglected()[0].contains(p),
                "proved {p} but the detector disagrees"
            );
        }
    }

    #[test]
    fn multi_cut_proofs_respect_port_entanglement() {
        // Multi-cut golden ansatz: Y provable at each cut by the
        // real-component argument only if the ports sit in distinct
        // components; the soundness check below is the real assertion.
        let (c, spec) = MultiCutAnsatz::new(2, 7).build();
        let frags = Fragmenter::fragment(&c, &spec).unwrap();
        let proofs = prove_golden_bases(&frags.upstream, 2);
        let detected = ExactDetector::default().detect(&frags.upstream, 2);
        for (cut, proven) in proofs.iter().enumerate() {
            for p in proven {
                assert!(
                    detected.neglected()[cut].contains(p),
                    "cut {cut}: proved {p} unsoundly"
                );
            }
        }
    }

    #[test]
    fn entangled_real_ports_do_not_prove_single_y() {
        // Two cut ports inside one real component (joined by a CX): the
        // single-Y argument must refuse, even though each gate is real.
        let mut c = Circuit::new(4);
        c.ry(0.9, 0);
        c.ry(0.4, 1);
        c.cx(0, 1);
        let p0 = c.instructions().iter().filter(|i| i.acts_on(0)).count() - 1;
        let p1 = c.instructions().iter().filter(|i| i.acts_on(1)).count() - 1;
        c.cx(0, 2);
        c.cx(1, 3);
        let spec = CutSpec::new(vec![
            qcut_circuit::cut::CutLocation {
                qubit: 0,
                after_op: p0,
            },
            qcut_circuit::cut::CutLocation {
                qubit: 1,
                after_op: p1,
            },
        ]);
        let frags = Fragmenter::fragment(&c, &spec).unwrap();
        let up = frags.upstream;
        let real = RealComponents::new(&up);
        assert_eq!(
            real.component_of(up.cut_ports[0]),
            real.component_of(up.cut_ports[1])
        );
        assert!(!real.proves_y(0));
        assert!(!real.proves_y(1));
        // The GF(2) path may still prove bases; whatever it proves must be
        // sound.
        let proofs = prove_golden_bases(&up, 2);
        let detected = ExactDetector::default().detect(&up, 2);
        for (cut, proven) in proofs.iter().enumerate() {
            for p in proven {
                assert!(detected.neglected()[cut].contains(p));
            }
        }
    }

    /// The tableau of `circuit` folded one instruction at a time, with
    /// every gate's Clifford action recomputed from its matrix: a
    /// `Unitary*` gate never reads the per-process table of fixed gates.
    fn numeric_tableau(circuit: &Circuit) -> StabilizerTableau {
        let mut tableau = StabilizerTableau::new(circuit.num_qubits());
        for inst in circuit.instructions() {
            let m = inst.gate.matrix();
            let gate = match inst.gate.arity() {
                1 => Gate::Unitary1(m),
                _ => Gate::Unitary2(m),
            };
            tableau.apply(&Instruction {
                gate,
                qubits: inst.qubits.clone(),
            });
        }
        tableau
    }

    /// Every cuttable single-wire upstream fragment of `circuit`.
    fn single_cut_upstreams(circuit: &Circuit) -> Vec<Fragment> {
        let dag = CircuitDag::new(circuit);
        dag.wire_edges()
            .iter()
            .filter_map(|e| {
                Fragmenter::fragment(circuit, &CutSpec::single(e.qubit, e.position)).ok()
            })
            .map(|f| f.upstream)
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// The tabulated Clifford actions prove exactly what the
        /// per-instruction numeric fold proves, on random circuits of
        /// both gate alphabets cut at every feasible wire edge and on
        /// golden and non-golden multi-cut ansätze.
        #[test]
        fn tabulated_actions_prove_what_the_numeric_fold_proves(
            width in 2usize..6,
            depth in 1usize..5,
            cuts in 1usize..4,
            seed in 0u64..1_000_000,
        ) {
            let config = RandomCircuitConfig { depth, two_qubit_prob: 0.5 };
            let mut cases: Vec<(Fragment, usize)> = Vec::new();
            for circuit in [
                random_circuit(width, config, seed),
                random_real_circuit(width, config, seed),
            ] {
                cases.extend(single_cut_upstreams(&circuit).into_iter().map(|f| (f, 1)));
            }
            for golden in [true, false] {
                let ansatz = MultiCutAnsatz { golden, ..MultiCutAnsatz::new(cuts, seed) };
                let (circuit, spec) = ansatz.build();
                let frags = Fragmenter::fragment(&circuit, &spec).expect("ansatz cuts");
                cases.push((frags.upstream, cuts));
            }
            for (upstream, num_cuts) in &cases {
                let reference = numeric_tableau(&upstream.circuit);
                proptest::prop_assert_eq!(
                    &StabilizerTableau::from_circuit(&upstream.circuit),
                    &reference
                );
                proptest::prop_assert_eq!(
                    prove_golden_bases(upstream, *num_cuts),
                    proofs_from_tableau(upstream, *num_cuts, &reference)
                );
            }
        }
    }

    #[test]
    fn prove_static_policy_resolves_to_the_proven_plan() {
        let (c, spec) = clifford_golden_circuit();
        let up = upstream_of(&c, &spec);
        let plan = resolve_static_policy(&GoldenPolicy::ProveStatic, &up, 1)
            .expect("static policy resolves without a backend");
        assert_eq!(plan, proven_plan(&up, 1));
        assert!(plan.num_golden() >= 1);
    }

    #[test]
    fn cut_report_scores_every_wire_edge() {
        let (c, _) = GoldenAnsatz::new(5, 11).build();
        let report = cut_report(&c, &AnalysisConfig::default());
        assert_eq!(
            report.candidates.len(),
            CircuitDag::new(&c).wire_edges().len()
        );
        let best = report.best_candidate().expect("ansatz has feasible cuts");
        assert!(best.feasible);
        assert!(best.score.is_finite());
        // Feasible candidates got the simulation enrichment at this width.
        assert!(best.predicted_rms.is_some());
    }

    #[test]
    fn cut_report_prefers_the_designed_golden_cut() {
        // On the golden ansatz, the designed cut is provably (by
        // simulation) golden: 6 settings vs 9 — the adviser must rank a
        // candidate with the designed cut's (qubit, position) best.
        let (c, spec) = GoldenAnsatz::new(5, 4).build();
        let report = cut_report(&c, &AnalysisConfig::default());
        let best = report.best_candidate().expect("feasible cut exists");
        let designed = spec.cuts()[0];
        assert_eq!(
            (best.qubit, best.position),
            (designed.qubit, designed.after_op),
            "adviser picked {best:?}"
        );
    }

    #[test]
    fn disabled_config_skips_simulation_but_keeps_static_facts() {
        let (c, _) = GoldenAnsatz::new(5, 2).build();
        let report = cut_report(&c, &AnalysisConfig::disabled());
        assert!(report.best.is_some());
        for cand in &report.candidates {
            assert!(cand.predicted_rms.is_none());
            assert!(cand.likely_golden.is_empty());
        }
    }

    #[test]
    fn infeasible_edges_score_infinite() {
        let (c, _) = GoldenAnsatz::new(5, 6).build();
        let report = cut_report(&c, &AnalysisConfig::default());
        assert!(report
            .candidates
            .iter()
            .all(|cand| cand.feasible || cand.score.is_infinite()));
        // The ansatz has edges interior to one side — not every edge is a
        // valid bipartition.
        assert!(report.candidates.iter().any(|cand| !cand.feasible));
    }
}
