//! Tensor reconstruction: combining fragment data into the uncut circuit's
//! bitstring distribution (paper Eq. 13/14).
//!
//! For every reconstruction Pauli string `M ∈ B^K` (with neglected bases
//! removed) two coefficient vectors are assembled:
//!
//! * upstream `A[M][b1] = Σ_r (Π_k r_k) · P(b1, r | setting(M))` — the
//!   eigenvalue-weighted joint statistics of the fragment outputs `b1` and
//!   the cut-qubit outcomes `r`;
//! * downstream `D[M][b2] = Σ_s (Π_k c_k) · P(b2 | prep(M, s))` — the
//!   sum over each cut's expansion of `M_k` in the prepared states: the
//!   signed eigenstate pair, or the four SIC states with their
//!   closed-form coefficients.
//!
//! The distribution is then the contraction
//! `p(b1 ⊕ b2) = 2^{-K} Σ_M A[M][b1] · D[M][b2]`. It is dense and
//! output-chunked: the final `2^n` buffer is split into one contiguous
//! chunk per thread and written in place. One fragment's first outputs
//! usually sit at the lowest global bits, in order. Over a sub-run of
//! `2^R` consecutive outputs, that fragment's index then counts up from a
//! base while the other's stays fixed. So each term adds a contiguous row
//! of one vector, times a single scalar of the other, to the sub-run: a
//! plain slice loop. Each sub-run's base and scalar index come from
//! half-width lookup tables. No per-`b1` rows and no scatter are
//! allocated.
//!
//! **Determinism.** Every sum runs in a fixed order: the joint statistics
//! are dense arrays folded over `r` in ascending order, and each output
//! entry sums its terms in plan string order. Reconstruction from the same
//! data is bit-identical across calls, processes and thread counts.
//!
//! Exact (infinite-shot) tensors computed from the state-vector simulator
//! are provided both for unit-testing the identity and for the exact
//! golden-point detector.

use crate::basis::{encode_meas, BasisPlan, MeasBasis};
use crate::execution::FragmentData;
use crate::fragment::{Fragment, FragmentRole, Fragments};
use crate::frame::{upstream_slots, PrepFrame, TermTable};
use crate::pipeline::ReconstructionMethod;
use crate::tomography::build_upstream_circuit;
use qcut_math::Pauli;
use qcut_sim::statevector::StateVector;
use qcut_stats::distribution::Distribution;
use rayon::prelude::*;

/// Coefficient vectors per reconstruction Pauli string.
#[derive(Debug, Clone)]
pub struct CoefficientTensor {
    /// Per cut, the reconstruction Paulis of the plan it was built for.
    paulis: Vec<Vec<Pauli>>,
    /// One vector over output bitstrings per string, in
    /// [`BasisPlan::all_recon_strings`] order.
    vectors: Vec<Vec<f64>>,
    num_outputs: usize,
}

/// Per cut, `plan`'s reconstruction Paulis.
fn recon_paulis(plan: &BasisPlan) -> Vec<Vec<Pauli>> {
    (0..plan.num_cuts()).map(|k| plan.recon_paulis(k)).collect()
}

impl CoefficientTensor {
    /// The coefficient vector for a Pauli string.
    pub fn get(&self, m: &[Pauli]) -> Option<&[f64]> {
        // The string's index in cartesian order, cut 0 most significant.
        (m.len() == self.paulis.len()).then_some(())?;
        let index = m
            .iter()
            .zip(&self.paulis)
            .try_fold(0, |index, (p, paulis)| {
                Some(index * paulis.len() + paulis.iter().position(|q| q == p)?)
            })?;
        Some(&self.vectors[index])
    }

    /// Number of output bits (`b` index width).
    pub fn num_outputs(&self) -> usize {
        self.num_outputs
    }

    /// Number of stored Pauli strings.
    pub fn num_strings(&self) -> usize {
        self.vectors.len()
    }

    /// Largest absolute coefficient for a given string (used by golden
    /// detection: a negligible basis has all-zero vectors).
    pub fn max_abs(&self, m: &[Pauli]) -> f64 {
        self.get(m)
            .map(|v| v.iter().fold(0.0f64, |a, &x| a.max(x.abs())))
            .unwrap_or(0.0)
    }
}

/// The `(upstream, downstream)` vectors of each of `plan`'s strings, in
/// [`BasisPlan::all_recon_strings`] order.
///
/// # Panics
/// Panics when either tensor was built for another plan.
pub(crate) fn string_vectors<'t>(
    plan: &BasisPlan,
    upstream: &'t CoefficientTensor,
    downstream: &'t CoefficientTensor,
) -> impl Iterator<Item = (&'t [f64], &'t [f64])> {
    let paulis = recon_paulis(plan);
    assert!(
        upstream.paulis == paulis && downstream.paulis == paulis,
        "coefficient tensors built for another plan than {:?}",
        plan.neglected()
    );
    let up = upstream.vectors.iter().map(Vec::as_slice);
    up.zip(downstream.vectors.iter().map(Vec::as_slice))
}

/// Dense joint outcome table of one upstream setting: entry
/// `(b1 << K) | r` is the probability of fragment outputs `b1` together
/// with cut-qubit outcomes `r`.
type Joint = Vec<f64>;

/// Index of a raw upstream outcome in its [`Joint`] table.
fn joint_index(fragment: &Fragment, bits: u64) -> usize {
    let b1 = extract_bits(bits, &fragment.output_locals);
    let r = extract_bits(bits, &fragment.cut_ports);
    ((b1 << fragment.cut_ports.len()) | r) as usize
}

/// Length of a [`Joint`] table: `2^(n1 + K)`.
fn joint_len(fragment: &Fragment) -> usize {
    1 << (fragment.num_outputs() + fragment.cut_ports.len())
}

/// Builds the upstream tensor from measured counts.
pub fn upstream_tensor(
    fragment: &Fragment,
    plan: &BasisPlan,
    data: &FragmentData,
) -> CoefficientTensor {
    assemble_upstream(fragment, plan, |setting| {
        let counts = data
            .upstream
            .get(&encode_meas(setting))
            .unwrap_or_else(|| panic!("missing upstream counts for setting {setting:?}"));
        let total = counts.total().max(1) as f64;
        // Tally integer counts first, so outcomes that differ only in
        // unread qubits merge exactly before the division.
        let mut tally = vec![0u64; joint_len(fragment)];
        for (bits, n) in counts.iter() {
            tally[joint_index(fragment, bits)] += n;
        }
        tally.into_iter().map(|n| n as f64 / total).collect()
    })
}

/// Builds the upstream tensor exactly via state-vector simulation.
pub fn exact_upstream_tensor(fragment: &Fragment, plan: &BasisPlan) -> CoefficientTensor {
    assemble_upstream(fragment, plan, |setting| {
        let circuit = build_upstream_circuit(fragment, setting);
        let probs = StateVector::from_circuit(&circuit).probabilities();
        let mut joint = vec![0.0f64; joint_len(fragment)];
        for (idx, &p) in probs.iter().enumerate() {
            if p <= 0.0 {
                continue;
            }
            joint[joint_index(fragment, idx as u64)] += p;
        }
        joint
    })
}

/// `A[M][b1] = Σ_r (Π_k r_k) · joint(b1, r)` over the joint table of each
/// string's upstream slot, `joint_of` giving each setting's table.
fn assemble_upstream(
    fragment: &Fragment,
    plan: &BasisPlan,
    joint_of: impl Fn(&[MeasBasis]) -> Joint,
) -> CoefficientTensor {
    assert_eq!(fragment.role, FragmentRole::Upstream);
    let joints: Vec<Joint> = plan
        .all_meas_settings()
        .iter()
        .map(|s| joint_of(s))
        .collect();
    let row_len = 1usize << fragment.cut_ports.len();
    let vectors = upstream_slots(plan)
        .into_iter()
        .map(|(slot, m)| {
            // Cut outcome bits whose eigenvalue enters the sign: `M_k ≠ I`.
            let signed = m
                .iter()
                .enumerate()
                .filter(|&(_, &pauli)| pauli != Pauli::I)
                .fold(0usize, |mask, (k, _)| mask | (1 << k));
            joints[slot]
                .chunks_exact(row_len)
                .map(|row| {
                    row.iter().enumerate().fold(0.0f64, |acc, (r, &p)| {
                        if (r & signed).count_ones() % 2 == 1 {
                            acc - p
                        } else {
                            acc + p
                        }
                    })
                })
                .collect()
        })
        .collect();
    CoefficientTensor {
        paulis: recon_paulis(plan),
        vectors,
        num_outputs: fragment.num_outputs(),
    }
}

/// Builds the downstream tensor from measured eigenstate-preparation
/// counts.
pub fn downstream_tensor(
    fragment: &Fragment,
    plan: &BasisPlan,
    data: &FragmentData,
) -> CoefficientTensor {
    downstream_tensor_for(fragment, plan, ReconstructionMethod::Eigenstate, data)
}

/// Builds the downstream tensor from counts measured under the
/// preparations of `method`, keyed as the planner delivers them on
/// [`crate::jobgraph::Channel::DownstreamPrep`].
pub fn downstream_tensor_for(
    fragment: &Fragment,
    plan: &BasisPlan,
    method: ReconstructionMethod,
    data: &FragmentData,
) -> CoefficientTensor {
    assemble_downstream(fragment, plan, method, |frame, setting| {
        let key = frame.key(setting);
        let counts = data.downstream.get(&key).unwrap_or_else(|| {
            panic!("missing downstream counts for preparation {setting:?} (key {key})")
        });
        let d = counts.marginal(&fragment.output_locals).to_distribution();
        d.values().to_vec()
    })
}

/// Builds the eigenstate downstream tensor exactly via state-vector
/// simulation.
pub fn exact_downstream_tensor(fragment: &Fragment, plan: &BasisPlan) -> CoefficientTensor {
    exact_downstream_tensor_for(fragment, plan, ReconstructionMethod::Eigenstate)
}

/// Builds the downstream tensor of `method`'s preparations exactly via
/// state-vector simulation.
pub fn exact_downstream_tensor_for(
    fragment: &Fragment,
    plan: &BasisPlan,
    method: ReconstructionMethod,
) -> CoefficientTensor {
    assemble_downstream(fragment, plan, method, |frame, setting| {
        let circuit = frame.circuit(fragment, setting);
        let probs = StateVector::from_circuit(&circuit).probabilities();
        // Reorder full-width probabilities into output order.
        let mut out = vec![0.0f64; 1 << fragment.num_outputs()];
        for (idx, &p) in probs.iter().enumerate() {
            out[extract_bits(idx as u64, &fragment.output_locals) as usize] += p;
        }
        out
    })
}

/// `D[M][b2] = Σ (Π_k c_k) · P(b2 | setting)` over the frame's terms of
/// each string `M`, summed with cut 0 varying fastest; `dist_of` gives
/// each preparation setting's output distribution.
fn assemble_downstream(
    fragment: &Fragment,
    plan: &BasisPlan,
    method: ReconstructionMethod,
    dist_of: impl Fn(&PrepFrame, &[usize]) -> Vec<f64>,
) -> CoefficientTensor {
    assert_eq!(fragment.role, FragmentRole::Downstream);
    let frame = PrepFrame::new(method, plan);
    let dists: Vec<Vec<f64>> = frame
        .settings()
        .iter()
        .map(|s| dist_of(&frame, s))
        .collect();
    let vectors = TermTable::new(&frame, plan)
        .rows
        .iter()
        .map(|(_, terms)| {
            let mut vec = vec![0.0f64; 1 << fragment.num_outputs()];
            for &(slot, weight) in terms {
                for (out, &p) in vec.iter_mut().zip(&dists[slot]) {
                    *out += weight * p;
                }
            }
            vec
        })
        .collect();
    CoefficientTensor {
        paulis: recon_paulis(plan),
        vectors,
        num_outputs: fragment.num_outputs(),
    }
}

/// Below this many outputs per thread, spawning the thread costs more than
/// the contraction it would take over.
const MIN_OUTPUTS_PER_THREAD: usize = 1 << 16;

/// Contracts the two tensors into the reconstructed distribution over the
/// full circuit's qubits: `p(b) = 2^{-K} Σ_M A[M][b1] D[M][b2]` with `b1`
/// and `b2` read from `b`'s bits at the fragments' global output positions.
///
/// The *run fragment* is the one whose first `R` outputs are the global
/// bits `0..R`, in order, with `R` as long as possible and at most `n/2`.
/// Across a sub-run of `2^R` consecutive outputs its local index counts up
/// from a base, and the other fragment's index stays put. So one term's
/// share of a sub-run is a contiguous row of the run fragment's vector
/// times one scalar of the other's: `out[..] += row[base..base + 2^R] · s`.
/// The output buffer is split into one chunk per thread, and each chunk
/// into blocks of `2^{⌊n/2⌋}` outputs. Within a block the terms are added
/// in plan string order, each to every sub-run, with `2^{-K}` applied in
/// the last term's pass. A term whose scalar is zero is skipped.
///
/// Each entry is thus `(0 + t_1 + … + t_T) · 2^{-K}` in plan order, the
/// sum of the one-output-at-a-time definition. A skipped zero scalar, or a
/// zero row entry, adds ±0 to a sum that is never −0 (the tensors are
/// finite), so the result is bit-identical on every output layout.
pub fn contract(
    fragments: &Fragments,
    plan: &BasisPlan,
    upstream: &CoefficientTensor,
    downstream: &CoefficientTensor,
) -> Distribution {
    let n = fragments.total_qubits;
    let n1 = fragments.upstream.num_outputs();
    let n2 = fragments.downstream.num_outputs();
    assert_eq!(upstream.num_outputs(), n1);
    assert_eq!(downstream.num_outputs(), n2);
    assert_eq!(n1 + n2, n, "fragment outputs must cover the circuit");

    let low_bits = n / 2;
    let block = 1usize << low_bits;
    let up_globals = &fragments.upstream.output_globals;
    let down_globals = &fragments.downstream.output_globals;
    let upstream_runs = leading_run(up_globals) >= leading_run(down_globals);
    let (run_globals, other_globals) = if upstream_runs {
        (up_globals, down_globals)
    } else {
        (down_globals, up_globals)
    };
    let run = 1usize << leading_run(run_globals).min(low_bits);

    let scale = 0.5f64.powi(plan.num_cuts() as i32);
    // The tensor vectors in string order, as (rows, scalars): rows from the
    // run fragment, scalars from the other one.
    let terms: Vec<(&[f64], &[f64])> = string_vectors(plan, upstream, downstream)
        .map(|(a, d)| if upstream_runs { (a, d) } else { (d, a) })
        .collect();

    // `extract_bits` is an OR over bits, so `b(x) = b(x_lo) | b(x_hi)`:
    // one table per half of `x` gives a sub-run's base, or the other
    // fragment's index, in two loads.
    let (lo_run, hi_run) = half_tables(run_globals, low_bits, n, run);
    let (lo_other, hi_other) = half_tables(other_globals, low_bits, n, run);

    // One chunk per thread, each a whole number of low-half blocks.
    let blocks = 1usize << (n - low_bits);
    let threads = rayon::current_num_threads()
        .min((1usize << n) / MIN_OUTPUTS_PER_THREAD)
        .max(1);
    let blocks_per_chunk = blocks.div_ceil(threads);

    let mut values = vec![0.0f64; 1 << n];
    values
        .par_chunks_mut(blocks_per_chunk * block)
        .enumerate()
        .for_each(|(chunk_index, chunk)| {
            for (j, out) in chunk.chunks_mut(block).enumerate() {
                let hi = chunk_index * blocks_per_chunk + j;
                let (h_run, h_other) = (hi_run[hi], hi_other[hi]);
                for (t, &(rows, scalars)) in terms.iter().enumerate() {
                    let last = t + 1 == terms.len();
                    let sub_runs = out.chunks_exact_mut(run).zip(&lo_run).zip(&lo_other);
                    for ((out, &l_run), &l_other) in sub_runs {
                        let s = scalars[h_other | l_other];
                        if s == 0.0 {
                            if last {
                                out.iter_mut().for_each(|o| *o *= scale);
                            }
                            continue;
                        }
                        let base = h_run | l_run;
                        let row = &rows[base..base + run];
                        if last {
                            for (o, &r) in out.iter_mut().zip(row) {
                                *o = (*o + r * s) * scale;
                            }
                        } else {
                            for (o, &r) in out.iter_mut().zip(row) {
                                *o += r * s;
                            }
                        }
                    }
                }
            }
        });
    Distribution::from_values(n, values)
}

/// How many of a fragment's first outputs sit at global bits `0, 1, 2, …`
/// in order.
fn leading_run(globals: &[usize]) -> usize {
    globals
        .iter()
        .enumerate()
        .take_while(|&(i, &g)| i == g)
        .count()
}

/// Full pipeline step: tensors from data, then contraction.
pub fn reconstruct(fragments: &Fragments, plan: &BasisPlan, data: &FragmentData) -> Distribution {
    let up = upstream_tensor(&fragments.upstream, plan, data);
    let down = downstream_tensor(&fragments.downstream, plan, data);
    contract(fragments, plan, &up, &down)
}

/// Infinite-shot reconstruction via exact fragment simulation. Must equal
/// the uncut circuit's distribution to numerical precision — the
/// correctness theorem of wire cutting (tested below).
pub fn exact_reconstruct(fragments: &Fragments, plan: &BasisPlan) -> Distribution {
    let up = exact_upstream_tensor(&fragments.upstream, plan);
    let down = exact_downstream_tensor(&fragments.downstream, plan);
    contract(fragments, plan, &up, &down)
}

/// Extracts the bits of `value` at `positions` (output bit `i` = input bit
/// `positions[i]`).
#[inline]
pub fn extract_bits(value: u64, positions: &[usize]) -> u64 {
    let mut out = 0u64;
    for (i, &p) in positions.iter().enumerate() {
        out |= ((value >> p) & 1) << i;
    }
    out
}

/// Local-index lookup tables for the low `low_bits` bits of an `n`-bit
/// global index, at every multiple of `step`, and for its high bits:
/// `extract_bits(x, globals)` equals `lo[(x & mask) / step] | hi[x >> low_bits]`
/// when `step` divides `x & mask`.
fn half_tables(
    globals: &[usize],
    low_bits: usize,
    n: usize,
    step: usize,
) -> (Vec<usize>, Vec<usize>) {
    let lo = (0..1u64 << low_bits)
        .step_by(step)
        .map(|x| extract_bits(x, globals) as usize)
        .collect();
    let hi = (0..1u64 << (n - low_bits))
        .map(|x| extract_bits(x << low_bits, globals) as usize)
        .collect();
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::Fragmenter;
    use qcut_circuit::ansatz::{GoldenAnsatz, MultiCutAnsatz};
    use qcut_circuit::circuit::Circuit;
    use qcut_circuit::cut::CutSpec;
    use qcut_stats::distance::total_variation_distance;

    fn truth(circuit: &Circuit) -> Distribution {
        let sv = StateVector::from_circuit(circuit);
        Distribution::from_values(circuit.num_qubits(), sv.probabilities())
    }

    #[test]
    fn extract_bits_reorders() {
        assert_eq!(extract_bits(0b1010, &[1, 3]), 0b11);
        assert_eq!(extract_bits(0b1010, &[0, 2]), 0b00);
        assert_eq!(extract_bits(0b1010, &[3, 1]), 0b11);
        assert_eq!(extract_bits(0b0010, &[3, 1]), 0b10);
    }

    /// The wire-cutting identity: exact reconstruction equals the uncut
    /// distribution. This is the correctness theorem (paper Eq. 13).
    #[test]
    fn exact_reconstruction_equals_uncut_distribution() {
        for seed in 0..6 {
            let (circuit, spec) = GoldenAnsatz::new(5, seed).build();
            let frags = Fragmenter::fragment(&circuit, &spec).unwrap();
            let recon = exact_reconstruct(&frags, &BasisPlan::standard(1));
            let t = truth(&circuit);
            let d = total_variation_distance(&recon, &t);
            assert!(d < 1e-9, "seed {seed}: exact reconstruction off by {d}");
        }
    }

    /// With the golden ansatz, *neglecting Y* must not change the exact
    /// reconstruction — the designed golden cutting point (paper Def. 1).
    #[test]
    fn golden_reconstruction_matches_on_golden_ansatz() {
        for seed in 0..6 {
            let (circuit, spec) = GoldenAnsatz::new(5, seed).build();
            let frags = Fragmenter::fragment(&circuit, &spec).unwrap();
            let golden = BasisPlan::with_neglected(vec![Some(Pauli::Y)]);
            let recon = exact_reconstruct(&frags, &golden);
            let t = truth(&circuit);
            let d = total_variation_distance(&recon, &t);
            assert!(d < 1e-9, "seed {seed}: golden reconstruction off by {d}");
        }
    }

    /// Conversely, neglecting Y on a NON-golden circuit must produce a
    /// wrong answer — the reduction is not free in general.
    #[test]
    fn neglecting_y_on_non_golden_circuit_is_wrong() {
        // Upstream: RX rotations + RZ give the cut qubit correlated X *and*
        // Y components. Downstream: the RX(0.5) rotates Y into Z so the Y
        // coefficient reaches the diagonal observable. (Both ingredients
        // are needed — without them Y silently drops out downstream and
        // neglecting it is accidentally harmless.)
        let mut c = Circuit::new(3);
        c.rx(1.1, 0).rx(0.9, 1).cx(0, 1).rz(0.8, 1);
        c.rx(0.5, 1).cx(1, 2).h(2);
        let spec = CutSpec::single(1, 2);
        let frags = Fragmenter::fragment(&c, &spec).unwrap();
        let standard = exact_reconstruct(&frags, &BasisPlan::standard(1));
        let t = truth(&c);
        assert!(total_variation_distance(&standard, &t) < 1e-9);
        let golden = exact_reconstruct(&frags, &BasisPlan::with_neglected(vec![Some(Pauli::Y)]));
        let d = total_variation_distance(&golden, &t);
        assert!(d > 1e-3, "Y was not actually informative here (d = {d})");
    }

    #[test]
    fn seven_qubit_exact_reconstruction() {
        let (circuit, spec) = GoldenAnsatz::new(7, 2).build();
        let frags = Fragmenter::fragment(&circuit, &spec).unwrap();
        let recon = exact_reconstruct(&frags, &BasisPlan::with_neglected(vec![Some(Pauli::Y)]));
        let d = total_variation_distance(&recon, &truth(&circuit));
        assert!(d < 1e-9, "7-qubit golden reconstruction off by {d}");
    }

    #[test]
    fn multi_cut_exact_reconstruction() {
        for k in 1..=2usize {
            let (circuit, spec) = MultiCutAnsatz::new(k, 7).build();
            let frags = Fragmenter::fragment(&circuit, &spec).unwrap();
            let recon = exact_reconstruct(&frags, &BasisPlan::standard(k));
            let d = total_variation_distance(&recon, &truth(&circuit));
            assert!(d < 1e-9, "K={k}: exact reconstruction off by {d}");
        }
    }

    #[test]
    fn multi_cut_all_golden_reconstruction() {
        // The product-structured ansatz makes every cut independently
        // golden for Y.
        let (circuit, spec) = MultiCutAnsatz::new(2, 3).build();
        let frags = Fragmenter::fragment(&circuit, &spec).unwrap();
        let plan = BasisPlan::with_neglected(vec![Some(Pauli::Y), Some(Pauli::Y)]);
        let recon = exact_reconstruct(&frags, &plan);
        let d = total_variation_distance(&recon, &truth(&circuit));
        assert!(d < 1e-9, "all-golden 2-cut reconstruction off by {d}");
    }

    #[test]
    fn reconstructed_distribution_is_normalised() {
        let (circuit, spec) = GoldenAnsatz::new(5, 4).build();
        let frags = Fragmenter::fragment(&circuit, &spec).unwrap();
        let recon = exact_reconstruct(&frags, &BasisPlan::standard(1));
        assert!((recon.total_mass() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn upstream_tensor_identity_string_is_marginal() {
        // A[I][b1] must be the plain output marginal (all signs +1).
        let (circuit, spec) = GoldenAnsatz::new(5, 5).build();
        let frags = Fragmenter::fragment(&circuit, &spec).unwrap();
        let plan = BasisPlan::standard(1);
        let up = exact_upstream_tensor(&frags.upstream, &plan);
        let a_i = up.get(&[Pauli::I]).unwrap();
        let total: f64 = a_i.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "identity coefficients sum to 1");
        assert!(a_i.iter().all(|&v| v >= -1e-12), "marginal is nonnegative");
    }

    #[test]
    fn golden_ansatz_y_coefficients_vanish_exactly() {
        // Direct verification of Definition 1 on the designed ansatz.
        let (circuit, spec) = GoldenAnsatz::new(5, 6).build();
        let frags = Fragmenter::fragment(&circuit, &spec).unwrap();
        let up = exact_upstream_tensor(&frags.upstream, &BasisPlan::standard(1));
        assert!(
            up.max_abs(&[Pauli::Y]) < 1e-10,
            "Y coefficient = {}",
            up.max_abs(&[Pauli::Y])
        );
        // X and Z generally carry information.
        assert!(up.max_abs(&[Pauli::Z]) > 1e-4 || up.max_abs(&[Pauli::X]) > 1e-4);
    }

    #[test]
    fn empirical_reconstruction_converges_to_truth() {
        use crate::allocation::{schedule_for_plan, ShotAllocation};
        use crate::execution::gather;
        use qcut_device::ideal::IdealBackend;

        let (circuit, spec) = GoldenAnsatz::new(5, 8).build();
        let frags = Fragmenter::fragment(&circuit, &spec).unwrap();
        let plan = BasisPlan::standard(1);
        let uniform = ShotAllocation::Uniform {
            shots_per_setting: 40_000,
        };
        let schedule = schedule_for_plan(&plan, uniform).unwrap();
        let backend = IdealBackend::new(42);
        let data = gather(&backend, &frags, &plan, &schedule).unwrap();
        let recon = reconstruct(&frags, &plan, &data);
        let d = total_variation_distance(&recon.clip_renormalize(), &truth(&circuit));
        assert!(d < 0.03, "empirical reconstruction off by {d}");
    }

    #[test]
    fn z_neglect_round_trip() {
        // A circuit whose cut qubit is |+> before the cut: Z carries no
        // information (tr((Π⊗Z)ρ) = 0 when the cut qubit is X-polarised
        // and uncorrelated).
        let mut c = Circuit::new(2);
        c.h(0); // uncorrelated |+> on the cut wire
        c.h(1);
        c.cx(0, 1);
        let spec = CutSpec::single(0, 0);
        let frags = Fragmenter::fragment(&c, &spec).unwrap();
        let up = exact_upstream_tensor(&frags.upstream, &BasisPlan::standard(1));
        assert!(up.max_abs(&[Pauli::Z]) < 1e-10, "Z should be negligible");
        assert!(
            up.max_abs(&[Pauli::Y]) < 1e-10,
            "Y should be negligible too"
        );
        // Neglect both: reconstruction still exact.
        let mut plan = BasisPlan::standard(1);
        plan.neglect(0, Pauli::Z);
        plan.neglect(0, Pauli::Y);
        let recon = exact_reconstruct(&frags, &plan);
        let d = total_variation_distance(&recon, &truth(&c));
        assert!(d < 1e-9, "double-neglect reconstruction off by {d}");
    }

    fn to_bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Upstream assembly must not depend on hash-map iteration order: at
    /// K = 3 each `b1` sums eight signed joint probabilities, and two
    /// builds from the same counts agree bit for bit.
    #[test]
    fn upstream_tensor_is_bit_reproducible_at_three_cuts() {
        use crate::allocation::{schedule_for_plan, ShotAllocation};
        use crate::execution::gather;
        use qcut_device::ideal::IdealBackend;

        let (circuit, spec) = MultiCutAnsatz::new(3, 4).build();
        let frags = Fragmenter::fragment(&circuit, &spec).unwrap();
        let plan = BasisPlan::standard(3);
        let uniform = ShotAllocation::Uniform {
            shots_per_setting: 2000,
        };
        let schedule = schedule_for_plan(&plan, uniform).unwrap();
        let data = gather(&IdealBackend::new(9), &frags, &plan, &schedule).unwrap();
        let first = upstream_tensor(&frags.upstream, &plan, &data);
        for _ in 0..8 {
            let again = upstream_tensor(&frags.upstream, &plan, &data);
            for m in plan.all_recon_strings() {
                assert_eq!(
                    to_bits(first.get(&m).unwrap()),
                    to_bits(again.get(&m).unwrap()),
                    "string {m:?}"
                );
            }
        }
    }

    /// The contraction formula evaluated one output at a time, in string
    /// order: the definition `contract` must reproduce bit for bit.
    fn naive_contract(
        frags: &Fragments,
        plan: &BasisPlan,
        up: &CoefficientTensor,
        down: &CoefficientTensor,
    ) -> Vec<f64> {
        let scale = 0.5f64.powi(plan.num_cuts() as i32);
        let strings = plan.all_recon_strings();
        let a: Vec<&[f64]> = strings.iter().map(|m| up.get(m).unwrap()).collect();
        let d: Vec<&[f64]> = strings.iter().map(|m| down.get(m).unwrap()).collect();
        (0..1u64 << frags.total_qubits)
            .map(|x| {
                let b1 = extract_bits(x, &frags.upstream.output_globals) as usize;
                let b2 = extract_bits(x, &frags.downstream.output_globals) as usize;
                let mut acc = 0.0;
                for t in 0..strings.len() {
                    let coeff = a[t][b1];
                    if coeff == 0.0 {
                        continue;
                    }
                    acc += coeff * d[t][b2];
                }
                acc * scale
            })
            .collect()
    }

    /// Pins `contract` to [`naive_contract`] bit for bit on sampled
    /// upstream data (exact zeros exercise the skip), eigenstate and SIC
    /// downstream tensors, standard and all-Y-golden plans, contiguous
    /// (`GoldenAnsatz`) and interleaved (`MultiCutAnsatz`) output globals.
    /// The in-place post-processing maps must equal the copying ones.
    #[test]
    fn contract_matches_naive_reference_bit_for_bit() {
        use crate::allocation::{schedule_for_plan, ShotAllocation};
        use crate::execution::gather;
        use qcut_device::ideal::IdealBackend;

        let mut cases: Vec<(String, Circuit, CutSpec)> = Vec::new();
        for width in [5usize, 11, 19] {
            let (circuit, spec) = GoldenAnsatz::new(width, 3).build();
            cases.push((format!("golden ansatz {width}q"), circuit, spec));
        }
        for k in 1..=3usize {
            let (circuit, spec) = MultiCutAnsatz::new(k, 5).build();
            cases.push((format!("multi-cut K={k}"), circuit, spec));
        }
        for (name, circuit, spec) in cases {
            let frags = Fragmenter::fragment(&circuit, &spec).unwrap();
            let k = frags.num_cuts;
            for plan in [
                BasisPlan::standard(k),
                BasisPlan::with_neglected(vec![Some(Pauli::Y); k]),
            ] {
                let uniform = ShotAllocation::Uniform {
                    shots_per_setting: 500,
                };
                let schedule = schedule_for_plan(&plan, uniform).unwrap();
                let data = gather(&IdealBackend::new(11), &frags, &plan, &schedule).unwrap();
                let up = upstream_tensor(&frags.upstream, &plan, &data);
                let downs = [
                    (
                        "eigenstate",
                        downstream_tensor(&frags.downstream, &plan, &data),
                    ),
                    (
                        "sic",
                        exact_downstream_tensor_for(
                            &frags.downstream,
                            &plan,
                            ReconstructionMethod::Sic,
                        ),
                    ),
                ];
                for (method, down) in downs {
                    let ctx = format!("{name}, {:?}, {method}", plan.neglected());
                    let got = contract(&frags, &plan, &up, &down);
                    let want = naive_contract(&frags, &plan, &up, &down);
                    assert_eq!(to_bits(got.values()), to_bits(&want), "{ctx}");

                    let mut clipped = got.clone();
                    clipped.clip_renormalize_in_place();
                    let want = got.clip_renormalize();
                    assert_eq!(
                        to_bits(clipped.values()),
                        to_bits(want.values()),
                        "{ctx}: clip"
                    );
                    let mut projected = got.clone();
                    projected.project_to_simplex_in_place();
                    let want = got.project_to_simplex();
                    assert_eq!(
                        to_bits(projected.values()),
                        to_bits(want.values()),
                        "{ctx}: simplex"
                    );
                }
            }
        }
    }

    /// `circuit` and `spec` with qubit `q` renamed `perm[q]`. Each wire
    /// keeps its instruction timeline, so every cut stays after the same op.
    fn relabel(circuit: &Circuit, spec: &CutSpec, perm: &[usize]) -> (Circuit, CutSpec) {
        use qcut_circuit::cut::CutLocation;
        let mut out = Circuit::new(circuit.num_qubits());
        out.extend_mapped(circuit, perm);
        let cuts = spec
            .cuts()
            .iter()
            .map(|cut| CutLocation::new(perm[cut.qubit], cut.after_op))
            .collect();
        (out, CutSpec::new(cuts))
    }

    /// Asserts `contract ≡ naive_contract` bit for bit on sampled upstream
    /// data (exact zeros exercise the skip), eigenstate and SIC downstream
    /// tensors, under the standard and all-Y-golden plans.
    fn assert_contract_is_naive(name: &str, circuit: &Circuit, spec: &CutSpec, seed: u64) {
        use crate::allocation::{schedule_for_plan, ShotAllocation};
        use crate::execution::gather;
        use qcut_device::ideal::IdealBackend;

        let frags = Fragmenter::fragment(circuit, spec).unwrap();
        let k = frags.num_cuts;
        for plan in [
            BasisPlan::standard(k),
            BasisPlan::with_neglected(vec![Some(Pauli::Y); k]),
        ] {
            let uniform = ShotAllocation::Uniform {
                shots_per_setting: 300,
            };
            let schedule = schedule_for_plan(&plan, uniform).unwrap();
            let data = gather(&IdealBackend::new(seed), &frags, &plan, &schedule).unwrap();
            let up = upstream_tensor(&frags.upstream, &plan, &data);
            let downs = [
                (
                    "eigenstate",
                    downstream_tensor(&frags.downstream, &plan, &data),
                ),
                (
                    "sic",
                    exact_downstream_tensor_for(
                        &frags.downstream,
                        &plan,
                        ReconstructionMethod::Sic,
                    ),
                ),
            ];
            for (method, down) in downs {
                let got = contract(&frags, &plan, &up, &down);
                let want = naive_contract(&frags, &plan, &up, &down);
                assert_eq!(
                    to_bits(got.values()),
                    to_bits(&want),
                    "{name}, {:?}, {method}",
                    plan.neglected()
                );
            }
        }
    }

    /// The 19-qubit `GoldenAnsatz` relabelled so its downstream outputs
    /// come first (`q → (q + 10) mod 19`), and interleaved with the
    /// upstream qubits on the even bits. At `2^19` outputs the buffer is
    /// split across threads, so chunk boundaries are covered too.
    #[test]
    fn contract_matches_naive_on_every_19_qubit_layout() {
        let (circuit, spec) = GoldenAnsatz::new(19, 3).build();
        let downstream_first: Vec<usize> = (0..19).map(|q| (q + 10) % 19).collect();
        // Upstream qubits 0..=9 (the cut wire 9 included) on the even bits,
        // downstream-only qubits 10..19 on the odd ones.
        let interleaved: Vec<usize> = (0..19)
            .map(|q| if q <= 9 { 2 * q } else { 2 * (q - 10) + 1 })
            .collect();
        for (name, perm) in [
            ("downstream-first", downstream_first),
            ("interleaved", interleaved),
        ] {
            let (circuit, spec) = relabel(&circuit, &spec, &perm);
            assert_contract_is_naive(name, &circuit, &spec, 11);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(40))]

        /// `contract ≡ naive_contract` under a random relabelling of the
        /// qubits of `GoldenAnsatz` (widths 5–13) and `MultiCutAnsatz`
        /// (K = 1–3), whatever order the fragments' outputs land in.
        #[test]
        fn contract_matches_naive_under_random_relabellings(
            family in 0usize..8,
            seed in 0u64..1_000,
            shuffle_seed in 0u64..u64::MAX,
        ) {
            use rand::{rngs::StdRng, Rng, SeedableRng};
            let (circuit, spec) = if family < 5 {
                GoldenAnsatz::new(5 + 2 * family, seed).build()
            } else {
                MultiCutAnsatz::new(family - 4, seed).build()
            };
            // Fisher–Yates over the qubit labels.
            let mut perm: Vec<usize> = (0..circuit.num_qubits()).collect();
            let mut rng = StdRng::seed_from_u64(shuffle_seed);
            for i in (1..perm.len()).rev() {
                perm.swap(i, rng.gen_range(0..i + 1));
            }
            let (circuit, spec) = relabel(&circuit, &spec, &perm);
            assert_contract_is_naive(&format!("family {family}, {perm:?}"), &circuit, &spec, seed);
        }
    }
}
