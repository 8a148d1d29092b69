//! State-vector simulator.
//!
//! This is the workspace's stand-in for the Qiskit Aer simulator the paper
//! uses \[27\]. Gates are applied with bit-twiddling kernels over the
//! amplitude array; at 14 qubits and above the kernels split the array
//! into one chunk per core (parallelise only when the data is big enough
//! to amortise a thread spawn). A kernel called from inside another
//! parallel operation — a `PrefixForest` subtree that got its own thread —
//! runs sequentially, because the rayon stub does not nest.

use crate::counts::{sample_counts, Counts};
use qcut_circuit::circuit::{Circuit, Instruction};
use qcut_math::{Complex, Matrix, Pauli, PauliString};
use rand::Rng;
use rayon::prelude::*;

/// Amplitudes below this qubit count are processed sequentially; the
/// parallel kernels only pay off once the state no longer fits in L1/L2.
const PAR_THRESHOLD_QUBITS: usize = 14;

/// A pure `n`-qubit state as `2^n` complex amplitudes (little-endian:
/// qubit 0 = least significant bit of the index).
#[derive(Debug, Clone, PartialEq)]
pub struct StateVector {
    num_qubits: usize,
    amps: Vec<Complex>,
}

impl StateVector {
    /// `|0…0>` on `n` qubits.
    pub fn zero_state(num_qubits: usize) -> Self {
        let mut amps = vec![Complex::ZERO; 1 << num_qubits];
        amps[0] = Complex::ONE;
        StateVector { num_qubits, amps }
    }

    /// Builds from raw amplitudes (must have length `2^n` and unit norm).
    pub fn from_amplitudes(num_qubits: usize, amps: Vec<Complex>) -> Self {
        assert_eq!(amps.len(), 1 << num_qubits, "amplitude count mismatch");
        let norm: f64 = amps.iter().map(|a| a.norm_sqr()).sum();
        assert!(
            (norm - 1.0).abs() < 1e-6,
            "state not normalised (norm² = {norm})"
        );
        StateVector { num_qubits, amps }
    }

    /// Runs a circuit from `|0…0>`.
    pub fn from_circuit(circuit: &Circuit) -> Self {
        let mut sv = Self::zero_state(circuit.num_qubits());
        sv.apply_circuit(circuit);
        sv
    }

    /// Number of qubits.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Raw amplitudes.
    #[inline]
    pub fn amplitudes(&self) -> &[Complex] {
        &self.amps
    }

    /// Applies every instruction of `circuit` in order.
    ///
    /// # Panics
    /// If `circuit` is not as wide as the state.
    pub fn apply_circuit(&mut self, circuit: &Circuit) {
        assert_eq!(
            circuit.num_qubits(),
            self.num_qubits,
            "circuit width mismatch"
        );
        for inst in circuit.instructions() {
            self.apply_instruction(inst);
        }
    }

    /// Applies a single instruction.
    pub fn apply_instruction(&mut self, inst: &Instruction) {
        let m = inst.gate.matrix();
        match inst.qubits.len() {
            1 => self.apply_one_qubit(&m, inst.qubits[0]),
            2 => self.apply_two_qubit(&m, inst.qubits[0], inst.qubits[1]),
            _ => unreachable!("gates are 1- or 2-qubit"),
        }
    }

    /// Applies a 2×2 unitary to `target`.
    pub fn apply_one_qubit(&mut self, m: &Matrix, target: usize) {
        assert!(target < self.num_qubits, "target out of range");
        assert_eq!((m.rows(), m.cols()), (2, 2), "need a 2x2 matrix");
        let (a, b, c, d) = (m[(0, 0)], m[(0, 1)], m[(1, 0)], m[(1, 1)]);
        let bit = 1usize << target;
        let block = bit << 1;

        let kernel = |chunk: &mut [Complex]| {
            // chunk covers a contiguous range aligned to `block`.
            for base in (0..chunk.len()).step_by(block) {
                for off in 0..bit {
                    let i0 = base + off;
                    let i1 = i0 + bit;
                    let x0 = chunk[i0];
                    let x1 = chunk[i1];
                    chunk[i0] = a * x0 + b * x1;
                    chunk[i1] = c * x0 + d * x1;
                }
            }
        };

        if self.num_qubits >= PAR_THRESHOLD_QUBITS {
            // Chunks must be multiples of `block` to keep pairs together.
            let chunk = (self.amps.len() / rayon::current_num_threads().max(1))
                .next_power_of_two()
                .max(block);
            self.amps.par_chunks_mut(chunk).for_each(kernel);
        } else {
            kernel(&mut self.amps);
        }
    }

    /// Applies a 4×4 unitary to `(q0, q1)` where `q0` indexes bit 0 of the
    /// gate matrix and `q1` bit 1.
    pub fn apply_two_qubit(&mut self, m: &Matrix, q0: usize, q1: usize) {
        assert!(q0 < self.num_qubits && q1 < self.num_qubits && q0 != q1);
        assert_eq!((m.rows(), m.cols()), (4, 4), "need a 4x4 matrix");
        let b0 = 1usize << q0;
        let b1 = 1usize << q1;
        let dim = self.amps.len();

        // Copy out the 16 gate entries once.
        let mut g = [[Complex::ZERO; 4]; 4];
        for r in 0..4 {
            for c in 0..4 {
                g[r][c] = m[(r, c)];
            }
        }

        let lo = b0.min(b1);
        let hi = b0.max(b1);

        // Enumerate the 2^n/4 quadruple representatives (both operand bits
        // clear) directly: deposit a zero bit at each operand position with
        // two bit-deposit splits, instead of scanning all 2^n indices and
        // branching away the 3/4 that are not representatives. `k` runs
        // over compacted indices; re-expansion is monotone, so quadruples
        // are visited in the same ascending order as the old skip loop.
        let lo_below = lo - 1; // bits strictly below the lower operand bit
        let hi_below = hi - 1; // bits strictly below the higher operand bit
        let body = move |amps: &mut [Complex]| {
            for k in 0..amps.len() >> 2 {
                let t = ((k & !lo_below) << 1) | (k & lo_below);
                let i00 = ((t & !hi_below) << 1) | (t & hi_below);
                let i01 = i00 + b0; // bit q0 set
                let i10 = i00 + b1; // bit q1 set
                let i11 = i00 + b0 + b1;
                let x = [amps[i00], amps[i01], amps[i10], amps[i11]];
                for (slot, row) in [(i00, 0usize), (i01, 1), (i10, 2), (i11, 3)] {
                    let gr = &g[row];
                    amps[slot] = gr[0] * x[0] + gr[1] * x[1] + gr[2] * x[2] + gr[3] * x[3];
                }
            }
        };

        if self.num_qubits >= PAR_THRESHOLD_QUBITS {
            // Parallelise over chunks aligned to 2*hi so all four partners
            // of a quadruple land in the same chunk; chunk starts then have
            // both operand bits clear, so the chunk-local deposit enumerates
            // exactly the chunk's representatives.
            let align = hi << 1;
            let chunk =
                ((dim / rayon::current_num_threads().max(1)).next_power_of_two()).max(align);
            self.amps.par_chunks_mut(chunk).for_each(body);
        } else {
            body(&mut self.amps);
        }
    }

    /// Probability of each basis outcome.
    pub fn probabilities(&self) -> Vec<f64> {
        self.amps.iter().map(|a| a.norm_sqr()).collect()
    }

    /// Probability of one bitstring.
    pub fn probability(&self, bits: u64) -> f64 {
        self.amps[bits as usize].norm_sqr()
    }

    /// `<self|other>`.
    pub fn inner_product(&self, other: &StateVector) -> Complex {
        assert_eq!(self.num_qubits, other.num_qubits);
        self.amps
            .iter()
            .zip(&other.amps)
            .fold(Complex::ZERO, |acc, (a, b)| acc.mul_add(a.conj(), *b))
    }

    /// Fidelity `|<self|other>|²`.
    pub fn fidelity(&self, other: &StateVector) -> f64 {
        self.inner_product(other).norm_sqr()
    }

    /// Norm² (≈ 1 for valid states; useful as an invariant check).
    pub fn norm_sqr(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sqr()).sum()
    }

    /// Expectation value of a Pauli string, `<ψ|P|ψ>` (real for Hermitian P).
    ///
    /// Computed as one streaming pass over the amplitudes, in place and
    /// allocation-free: a Pauli string maps a basis state to a single basis
    /// state with a phase, `P|i> = i^{#Y} (−1)^{|i ∧ phase|} |i ⊕ flip>`
    /// (`flip` collects X/Y positions, `phase` collects Y/Z positions), so
    /// `<ψ|P|ψ> = i^{#Y} Σ_i (−1)^{|i ∧ phase|} ψ*_{i⊕flip} ψ_i` — a
    /// pairwise accumulation over `(i, i ⊕ flip)` partners, with no state
    /// copy and no per-qubit gate applications.
    pub fn expectation_pauli(&self, p: &PauliString) -> f64 {
        assert_eq!(p.len(), self.num_qubits, "pauli string width mismatch");
        let mut flip = 0usize;
        let mut phase = 0usize;
        let mut num_y = 0u32;
        for (q, pauli) in p.paulis().iter().enumerate() {
            match pauli {
                Pauli::I => {}
                Pauli::X => flip |= 1 << q,
                Pauli::Y => {
                    flip |= 1 << q;
                    phase |= 1 << q;
                    num_y += 1;
                }
                Pauli::Z => phase |= 1 << q,
            }
        }
        let mut acc = Complex::ZERO;
        for (i, &amp) in self.amps.iter().enumerate() {
            let v = self.amps[i ^ flip].conj() * amp;
            acc = if (i & phase).count_ones() & 1 == 1 {
                acc - v
            } else {
                acc + v
            };
        }
        // i^{#Y}: rotate the accumulated sum by the global Y phase.
        match num_y % 4 {
            0 => acc.re,
            1 => acc.mul_i().re,
            2 => -acc.re,
            _ => acc.mul_neg_i().re,
        }
    }

    /// Samples measurement outcomes in the computational basis.
    pub fn sample<R: Rng + ?Sized>(&self, shots: u64, rng: &mut R) -> Counts {
        sample_counts(self.num_qubits, &self.probabilities(), shots, rng)
    }

    /// Reduced density matrix over `keep` qubits (partial trace of the
    /// rest). Output indices are little-endian in the order of `keep`.
    pub fn reduced_density_matrix(&self, keep: &[usize]) -> Matrix {
        for &q in keep {
            assert!(q < self.num_qubits, "qubit {q} out of range");
        }
        let k = keep.len();
        let others: Vec<usize> = (0..self.num_qubits).filter(|q| !keep.contains(q)).collect();
        let dim_keep = 1usize << k;
        let dim_others = 1usize << others.len();
        let mut rho = Matrix::zeros(dim_keep, dim_keep);

        // For each assignment of the traced-out qubits, accumulate the
        // outer product of the corresponding sub-vector.
        let mut sub = vec![Complex::ZERO; dim_keep];
        for o in 0..dim_others {
            let mut base = 0usize;
            for (i, &q) in others.iter().enumerate() {
                if o & (1 << i) != 0 {
                    base |= 1 << q;
                }
            }
            for (ki, slot) in sub.iter_mut().enumerate() {
                let mut idx = base;
                for (i, &q) in keep.iter().enumerate() {
                    if ki & (1 << i) != 0 {
                        idx |= 1 << q;
                    }
                }
                *slot = self.amps[idx];
            }
            for r in 0..dim_keep {
                for c in 0..dim_keep {
                    rho[(r, c)] += sub[r] * sub[c].conj();
                }
            }
        }
        rho
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcut_circuit::gate::Gate;
    use qcut_math::{c64, pure_density};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const TOL: f64 = 1e-10;

    #[test]
    fn zero_state_is_point_mass() {
        let sv = StateVector::zero_state(3);
        assert_eq!(sv.probability(0), 1.0);
        assert!((sv.norm_sqr() - 1.0).abs() < TOL);
    }

    #[test]
    fn x_flips_bit() {
        let mut sv = StateVector::zero_state(2);
        sv.apply_one_qubit(&Gate::X.matrix(), 1);
        assert!((sv.probability(0b10) - 1.0).abs() < TOL);
    }

    #[test]
    fn hadamard_gives_uniform_superposition() {
        let mut c = Circuit::new(3);
        c.h(0).h(1).h(2);
        let sv = StateVector::from_circuit(&c);
        for i in 0..8 {
            assert!((sv.probability(i) - 0.125).abs() < TOL);
        }
    }

    #[test]
    fn bell_state_probabilities_and_correlations() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let sv = StateVector::from_circuit(&c);
        assert!((sv.probability(0b00) - 0.5).abs() < TOL);
        assert!((sv.probability(0b11) - 0.5).abs() < TOL);
        assert!(sv.probability(0b01) < TOL);
        // <ZZ> = 1, <XX> = 1, <YY> = -1 for |Φ+>.
        assert!((sv.expectation_pauli(&PauliString::parse("ZZ").unwrap()) - 1.0).abs() < TOL);
        assert!((sv.expectation_pauli(&PauliString::parse("XX").unwrap()) - 1.0).abs() < TOL);
        assert!((sv.expectation_pauli(&PauliString::parse("YY").unwrap()) + 1.0).abs() < TOL);
    }

    #[test]
    fn matches_dense_unitary_on_random_circuits() {
        use qcut_circuit::random::{random_circuit, RandomCircuitConfig};
        for seed in 0..5 {
            let c = random_circuit(4, RandomCircuitConfig::default(), seed);
            let sv = StateVector::from_circuit(&c);
            // Dense reference: U |0>.
            let u = c.unitary();
            for (i, &amp) in sv.amplitudes().iter().enumerate() {
                assert!(
                    amp.approx_eq(u[(i, 0)], 1e-8),
                    "seed {seed}, amp {i}: {amp} vs {}",
                    u[(i, 0)]
                );
            }
        }
    }

    #[test]
    fn two_qubit_gate_respects_operand_order() {
        // CX with control=1, target=0: |q1=1, q0=0> -> |q1=1, q0=1>.
        let mut sv = StateVector::zero_state(2);
        sv.apply_one_qubit(&Gate::X.matrix(), 1); // |10>
        sv.apply_two_qubit(&Gate::Cx.matrix(), 1, 0); // control q1
        assert!((sv.probability(0b11) - 1.0).abs() < TOL);
    }

    #[test]
    fn circuit_preserves_norm() {
        use qcut_circuit::random::{random_circuit, RandomCircuitConfig};
        let c = random_circuit(
            6,
            RandomCircuitConfig {
                depth: 8,
                two_qubit_prob: 0.6,
            },
            3,
        );
        let sv = StateVector::from_circuit(&c);
        assert!((sv.norm_sqr() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fidelity_of_identical_states_is_one() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).t(2);
        let a = StateVector::from_circuit(&c);
        let b = StateVector::from_circuit(&c);
        assert!((a.fidelity(&b) - 1.0).abs() < TOL);
    }

    #[test]
    fn fidelity_of_orthogonal_states_is_zero() {
        let a = StateVector::zero_state(1);
        let mut b = StateVector::zero_state(1);
        b.apply_one_qubit(&Gate::X.matrix(), 0);
        assert!(a.fidelity(&b) < TOL);
    }

    #[test]
    fn sampling_matches_probabilities() {
        let mut c = Circuit::new(2);
        c.h(0);
        let sv = StateVector::from_circuit(&c);
        let mut rng = StdRng::seed_from_u64(7);
        let counts = sv.sample(40_000, &mut rng);
        assert!((counts.probability(0b00) - 0.5).abs() < 0.02);
        assert!((counts.probability(0b01) - 0.5).abs() < 0.02);
        assert_eq!(counts.get(0b10), 0);
    }

    #[test]
    fn reduced_density_matrix_of_product_state() {
        // |+> ⊗ |0>: tracing out qubit 0 leaves |0><0|; tracing qubit 1
        // leaves |+><+|.
        let mut c = Circuit::new(2);
        c.h(0);
        let sv = StateVector::from_circuit(&c);
        let rho1 = sv.reduced_density_matrix(&[1]);
        assert!(rho1.approx_eq(&pure_density(&[Complex::ONE, Complex::ZERO]), TOL));
        let rho0 = sv.reduced_density_matrix(&[0]);
        let s = std::f64::consts::FRAC_1_SQRT_2;
        assert!(rho0.approx_eq(&pure_density(&[c64(s, 0.0), c64(s, 0.0)]), TOL));
    }

    #[test]
    fn reduced_density_matrix_of_bell_state_is_maximally_mixed() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let sv = StateVector::from_circuit(&c);
        let rho = sv.reduced_density_matrix(&[0]);
        let half = Matrix::identity(2).scale(c64(0.5, 0.0));
        assert!(rho.approx_eq(&half, TOL));
        // Trace is preserved.
        assert!((rho.trace().re - 1.0).abs() < TOL);
    }

    #[test]
    fn reduced_density_matrix_multi_qubit_keep() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2);
        let sv = StateVector::from_circuit(&c);
        let rho = sv.reduced_density_matrix(&[0, 1]);
        assert_eq!(rho.rows(), 4);
        assert!((rho.trace().re - 1.0).abs() < TOL);
        // GHZ reduced to two qubits: ½(|00><00| + |11><11|).
        assert!((rho[(0, 0)].re - 0.5).abs() < TOL);
        assert!((rho[(3, 3)].re - 0.5).abs() < TOL);
        assert!(rho[(0, 3)].abs() < TOL, "coherence must vanish");
    }

    #[test]
    fn expectation_of_identity_string_is_one() {
        let sv = StateVector::from_circuit(Circuit::new(2).h(0).cx(0, 1));
        assert!((sv.expectation_pauli(&PauliString::identity(2)) - 1.0).abs() < TOL);
    }

    #[test]
    fn real_circuit_has_zero_y_expectation() {
        // The golden-point mechanism: real circuits => <Π ⊗ Y> = 0.
        use qcut_circuit::random::{random_real_circuit, RandomCircuitConfig};
        for seed in 0..5 {
            let c = random_real_circuit(3, RandomCircuitConfig::default(), seed);
            let sv = StateVector::from_circuit(&c);
            let mut ps = PauliString::identity(3);
            ps.set(2, Pauli::Y);
            assert!(
                sv.expectation_pauli(&ps).abs() < 1e-9,
                "seed {seed}: Y expectation nonzero on a real circuit"
            );
        }
    }

    #[test]
    #[should_panic(expected = "not normalised")]
    fn from_amplitudes_rejects_unnormalised() {
        StateVector::from_amplitudes(1, vec![Complex::ONE, Complex::ONE]);
    }
}
