//! Density-matrix simulator.
//!
//! The noisy "hardware" backends (our substitute for the paper's IBM
//! devices) evolve a density matrix so that Kraus noise channels can be
//! applied exactly. Everything that acts on ρ — a unitary gate, a Kraus
//! channel, or a noisy gate fused with its noise — is one [`Superoperator`]
//! applied by [`DensityMatrix::apply_superop`]: one block walker per arity
//! maps each 2×2 or 4×4 block of ρ the operand qubits index. That is
//! `O(4^n)` per instruction instead of the naive `O(8^n)` of building and
//! conjugating full operators, and one pass per instruction however many
//! Kraus operators were folded into the map.

use crate::counts::{sample_counts, Counts};
use crate::noise::{KrausChannel, Superoperator};
use qcut_circuit::circuit::{Circuit, Instruction};
use qcut_math::{c64, Complex, Matrix};
use rand::Rng;

/// `index` with a zero bit inserted at position `bit`: the `index`-th
/// integer whose bit `bit` is clear.
#[inline(always)]
fn insert_zero_bit(index: usize, bit: usize) -> usize {
    let low = index & ((1 << bit) - 1);
    ((index >> bit) << (bit + 1)) | low
}

/// A channel applied to a number of qubits other than its arity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArityMismatch {
    /// Qubits the channel acts on.
    pub arity: usize,
    /// Operand qubits given.
    pub operands: usize,
}

impl std::fmt::Display for ArityMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "channel arity {} does not match {} operand qubits",
            self.arity, self.operands
        )
    }
}

impl std::error::Error for ArityMismatch {}

/// A mixed `n`-qubit state ρ as a dense `2^n × 2^n` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct DensityMatrix {
    num_qubits: usize,
    rho: Matrix,
}

impl DensityMatrix {
    /// `|0…0><0…0|`.
    pub fn zero_state(num_qubits: usize) -> Self {
        let dim = 1usize << num_qubits;
        let mut rho = Matrix::zeros(dim, dim);
        rho[(0, 0)] = Complex::ONE;
        DensityMatrix { num_qubits, rho }
    }

    /// Wraps an existing density matrix (must be square of dim `2^n`).
    pub fn from_matrix(num_qubits: usize, rho: Matrix) -> Self {
        assert_eq!(rho.rows(), 1 << num_qubits, "dimension mismatch");
        assert!(rho.is_square(), "density matrix must be square");
        DensityMatrix { num_qubits, rho }
    }

    /// From a pure state vector.
    pub fn from_statevector(sv: &crate::statevector::StateVector) -> Self {
        let amps = sv.amplitudes();
        let dim = amps.len();
        let mut rho = Matrix::zeros(dim, dim);
        for i in 0..dim {
            for j in 0..dim {
                rho[(i, j)] = amps[i] * amps[j].conj();
            }
        }
        DensityMatrix {
            num_qubits: sv.num_qubits(),
            rho,
        }
    }

    /// Number of qubits.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The underlying matrix.
    #[inline]
    pub fn matrix(&self) -> &Matrix {
        &self.rho
    }

    /// `tr(ρ)` — 1 for normalised states (trace is preserved by unitaries
    /// and CPTP channels; an invariant worth asserting in tests).
    pub fn trace(&self) -> f64 {
        self.rho.trace().re
    }

    /// Purity `tr(ρ²)` — 1 for pure states, `1/2^n` for maximally mixed.
    pub fn purity(&self) -> f64 {
        self.rho.trace_product(&self.rho).re
    }

    /// Applies a unitary circuit (no noise).
    pub fn apply_circuit(&mut self, circuit: &Circuit) {
        assert_eq!(circuit.num_qubits(), self.num_qubits, "width mismatch");
        for inst in circuit.instructions() {
            self.apply_instruction(inst);
        }
    }

    /// Applies one unitary instruction.
    pub fn apply_instruction(&mut self, inst: &Instruction) {
        let u = inst.gate.matrix();
        self.apply_superop(
            &Superoperator::from_kraus(std::slice::from_ref(&u)),
            &inst.qubits,
        );
    }

    /// ρ ← U ρ U† for a 2×2 unitary on `target`.
    pub fn apply_one_qubit(&mut self, u: &Matrix, target: usize) {
        self.apply_kraus_one(std::slice::from_ref(u), target);
    }

    /// ρ ← U ρ U† for a 4×4 unitary on `(q0, q1)`.
    pub fn apply_two_qubit(&mut self, u: &Matrix, q0: usize, q1: usize) {
        self.apply_kraus_two(std::slice::from_ref(u), q0, q1);
    }

    /// Applies a single-qubit Kraus map `ρ ← Σ_m K_m ρ K_m†` (2×2
    /// operators) on `target`.
    pub fn apply_kraus_one(&mut self, kraus: &[Matrix], target: usize) {
        self.apply_superop(&Superoperator::from_kraus(kraus), &[target]);
    }

    /// Applies a two-qubit Kraus map (4×4 operators) on `(q0, q1)`
    /// (gate-index convention: bit 0 ↔ `q0`).
    pub fn apply_kraus_two(&mut self, kraus: &[Matrix], q0: usize, q1: usize) {
        self.apply_superop(&Superoperator::from_kraus(kraus), &[q0, q1]);
    }

    /// Applies a [`KrausChannel`] to the given qubits, or reports that the
    /// number of qubits does not match the channel's arity.
    pub fn apply_channel(
        &mut self,
        channel: &KrausChannel,
        qubits: &[usize],
    ) -> Result<(), ArityMismatch> {
        if channel.arity() != qubits.len() {
            return Err(ArityMismatch {
                arity: channel.arity(),
                operands: qubits.len(),
            });
        }
        self.apply_superop(&channel.superoperator(), qubits);
        Ok(())
    }

    /// ρ ← S(ρ) for a [`Superoperator`] on `qubits` (bit 0 of the map's
    /// block index ↔ `qubits[0]`), in one pass over the 2×2 or 4×4 blocks
    /// of ρ that the operand qubits index.
    ///
    /// # Panics
    /// If the number of qubits differs from the map's arity, or a qubit is
    /// out of range or repeated.
    pub fn apply_superop(&mut self, op: &Superoperator, qubits: &[usize]) {
        assert_eq!(
            qubits.len(),
            op.arity(),
            "map arity does not match the operand count"
        );
        for (i, &q) in qubits.iter().enumerate() {
            assert!(q < self.num_qubits, "qubit {q} out of range");
            assert!(!qubits[..i].contains(&q), "qubit {q} repeated");
        }
        if let [target] = *qubits {
            self.map_blocks::<2, 4>(op, [0, 1 << target], |i| insert_zero_bit(i, target));
        } else {
            let (q0, q1) = (qubits[0], qubits[1]);
            let (lo, hi) = (q0.min(q1), q0.max(q1));
            self.map_blocks::<4, 16>(op, [0, 1 << q0, 1 << q1, (1 << q0) | (1 << q1)], |i| {
                insert_zero_bit(insert_zero_bit(i, lo), hi)
            });
        }
    }

    /// The block walker, monomorphised per arity: every `D × D` block of ρ
    /// with rows `base(i) + offsets[r]` and columns `base(j) + offsets[c]`
    /// is replaced by `S · vec(block)` (`N = D²` entries).
    fn map_blocks<const D: usize, const N: usize>(
        &mut self,
        op: &Superoperator,
        offsets: [usize; D],
        base: impl Fn(usize) -> usize,
    ) {
        let s = op.matrix().as_slice();
        let dim = 1usize << self.num_qubits;
        let rho = self.rho.as_mut_slice();
        for i in 0..dim / D {
            let row = base(i);
            for j in 0..dim / D {
                let col = base(j);
                let idx: [usize; N] =
                    std::array::from_fn(|k| (row + offsets[k / D]) * dim + col + offsets[k % D]);
                let block = idx.map(|k| rho[k]);
                let mut out = [Complex::ZERO; N];
                for (o, s_row) in out.iter_mut().zip(s.chunks_exact(N)) {
                    *o = s_row
                        .iter()
                        .zip(&block)
                        .fold(Complex::ZERO, |acc, (&m, &x)| acc.mul_add(m, x));
                }
                for (k, v) in idx.into_iter().zip(out) {
                    rho[k] = v;
                }
            }
        }
    }

    /// Diagonal of ρ — the computational-basis outcome probabilities.
    pub fn probabilities(&self) -> Vec<f64> {
        let dim = 1usize << self.num_qubits;
        (0..dim).map(|i| self.rho[(i, i)].re.max(0.0)).collect()
    }

    /// [`DensityMatrix::probabilities`] of the state after
    /// [`DensityMatrix::renormalize`], without changing or copying ρ.
    pub fn normalized_probabilities(&self) -> Vec<f64> {
        let t = self.trace();
        let scale = if t > 0.0 && (t - 1.0).abs() > 1e-14 {
            1.0 / t
        } else {
            1.0
        };
        let dim = 1usize << self.num_qubits;
        (0..dim)
            .map(|i| (self.rho[(i, i)].re * scale).max(0.0))
            .collect()
    }

    /// Expectation `tr(Oρ)` of a Hermitian operator.
    pub fn expectation(&self, op: &Matrix) -> f64 {
        op.trace_product(&self.rho).re
    }

    /// Partial trace keeping `keep` (output indices little-endian in the
    /// order of `keep`).
    pub fn partial_trace(&self, keep: &[usize]) -> Matrix {
        for &q in keep {
            assert!(q < self.num_qubits, "qubit {q} out of range");
        }
        let others: Vec<usize> = (0..self.num_qubits).filter(|q| !keep.contains(q)).collect();
        let dim_keep = 1usize << keep.len();
        let dim_others = 1usize << others.len();
        let mut out = Matrix::zeros(dim_keep, dim_keep);
        let build_idx = |ks: usize, os: usize| -> usize {
            let mut idx = 0usize;
            for (i, &q) in keep.iter().enumerate() {
                if ks & (1 << i) != 0 {
                    idx |= 1 << q;
                }
            }
            for (i, &q) in others.iter().enumerate() {
                if os & (1 << i) != 0 {
                    idx |= 1 << q;
                }
            }
            idx
        };
        for r in 0..dim_keep {
            for c in 0..dim_keep {
                let mut acc = Complex::ZERO;
                for o in 0..dim_others {
                    acc += self.rho[(build_idx(r, o), build_idx(c, o))];
                }
                out[(r, c)] = acc;
            }
        }
        out
    }

    /// Samples measurement outcomes in the computational basis.
    pub fn sample<R: Rng + ?Sized>(&self, shots: u64, rng: &mut R) -> Counts {
        sample_counts(self.num_qubits, &self.probabilities(), shots, rng)
    }

    /// Renormalises the trace to 1 (guards against drift after long noisy
    /// evolutions).
    pub fn renormalize(&mut self) {
        let t = self.trace();
        if t > 0.0 && (t - 1.0).abs() > 1e-14 {
            self.rho = self.rho.scale(c64(1.0 / t, 0.0));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::KrausChannel;
    use crate::statevector::StateVector;
    use qcut_circuit::circuit::Circuit;
    use qcut_circuit::random::{random_circuit, RandomCircuitConfig};

    const TOL: f64 = 1e-9;

    #[test]
    fn zero_state_is_pure_point_mass() {
        let dm = DensityMatrix::zero_state(2);
        assert!((dm.trace() - 1.0).abs() < TOL);
        assert!((dm.purity() - 1.0).abs() < TOL);
        assert_eq!(dm.probabilities()[0], 1.0);
    }

    #[test]
    fn unitary_evolution_matches_statevector() {
        for seed in 0..4 {
            let c = random_circuit(3, RandomCircuitConfig::default(), seed);
            let sv = StateVector::from_circuit(&c);
            let mut dm = DensityMatrix::zero_state(3);
            dm.apply_circuit(&c);
            let want = DensityMatrix::from_statevector(&sv);
            assert!(
                dm.matrix().approx_eq(want.matrix(), 1e-8),
                "seed {seed}: density evolution diverged from statevector"
            );
        }
    }

    #[test]
    fn trace_and_purity_preserved_by_unitaries() {
        let c = random_circuit(
            3,
            RandomCircuitConfig {
                depth: 5,
                two_qubit_prob: 0.5,
            },
            9,
        );
        let mut dm = DensityMatrix::zero_state(3);
        dm.apply_circuit(&c);
        assert!((dm.trace() - 1.0).abs() < TOL);
        assert!((dm.purity() - 1.0).abs() < TOL);
    }

    #[test]
    fn depolarizing_reduces_purity_but_preserves_trace() {
        let mut dm = DensityMatrix::zero_state(2);
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        dm.apply_circuit(&c);
        let ch = KrausChannel::depolarizing(0.2);
        dm.apply_channel(&ch, &[0]).unwrap();
        assert!(
            (dm.trace() - 1.0).abs() < TOL,
            "trace drifted: {}",
            dm.trace()
        );
        assert!(dm.purity() < 1.0 - 1e-6, "purity should drop");
    }

    #[test]
    fn depolarizing_at_three_quarters_is_maximally_mixing() {
        // ρ → (1−p)ρ + (p/3)ΣPρP equals the fully-depolarizing channel at
        // p = 3/4 (not p = 1, where the output is (ρ + 2·mixed)/3-ish).
        let mut dm = DensityMatrix::zero_state(1);
        let ch = KrausChannel::depolarizing(0.75);
        dm.apply_channel(&ch, &[0]).unwrap();
        assert!((dm.matrix()[(0, 0)].re - 0.5).abs() < TOL);
        assert!((dm.matrix()[(1, 1)].re - 0.5).abs() < TOL);
        assert!(dm.matrix()[(0, 1)].abs() < TOL);
    }

    #[test]
    fn depolarizing_at_one_is_pauli_twirl() {
        // At p = 1 the channel is the uniform Pauli twirl: |0><0| maps to
        // diag(1/3, 2/3).
        let mut dm = DensityMatrix::zero_state(1);
        dm.apply_channel(&KrausChannel::depolarizing(1.0), &[0])
            .unwrap();
        assert!((dm.matrix()[(0, 0)].re - 1.0 / 3.0).abs() < TOL);
        assert!((dm.matrix()[(1, 1)].re - 2.0 / 3.0).abs() < TOL);
    }

    #[test]
    fn amplitude_damping_decays_excited_state() {
        let mut dm = DensityMatrix::zero_state(1);
        dm.apply_one_qubit(&qcut_circuit::gate::Gate::X.matrix(), 0); // |1>
        let ch = KrausChannel::amplitude_damping(0.3);
        dm.apply_channel(&ch, &[0]).unwrap();
        // P(|1>) = 1 - gamma.
        assert!((dm.probabilities()[1] - 0.7).abs() < TOL);
        assert!((dm.trace() - 1.0).abs() < TOL);
    }

    #[test]
    fn two_qubit_kraus_matches_one_qubit_composition() {
        // (depolarize q0) ⊗ I implemented as a 2-qubit channel must equal
        // the 1-qubit channel on q0.
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).t(1);
        let mut a = DensityMatrix::zero_state(2);
        a.apply_circuit(&c);
        let mut b = a.clone();

        let one = KrausChannel::depolarizing(0.13);
        a.apply_kraus_one(one.operators(), 0);

        let id = Matrix::identity(2);
        let lifted: Vec<Matrix> = one.operators().iter().map(|k| id.kron(k)).collect();
        b.apply_kraus_two(&lifted, 0, 1);

        assert!(a.matrix().approx_eq(b.matrix(), 1e-9));
    }

    #[test]
    fn channel_arity_mismatch_is_a_typed_error() {
        let mut dm = DensityMatrix::zero_state(2);
        let before = dm.clone();
        let err = dm
            .apply_channel(&KrausChannel::depolarizing(0.1), &[0, 1])
            .unwrap_err();
        assert_eq!(
            err,
            ArityMismatch {
                arity: 1,
                operands: 2
            }
        );
        assert_eq!(
            dm.apply_channel(&KrausChannel::depolarizing_two(0.1), &[1]),
            Err(ArityMismatch {
                arity: 2,
                operands: 1
            })
        );
        assert_eq!(dm, before, "a rejected channel leaves ρ untouched");
    }

    #[test]
    fn partial_trace_matches_statevector_reduction() {
        let c = random_circuit(4, RandomCircuitConfig::default(), 5);
        let sv = StateVector::from_circuit(&c);
        let dm = DensityMatrix::from_statevector(&sv);
        for keep in [vec![0], vec![2], vec![0, 3], vec![1, 2]] {
            let a = dm.partial_trace(&keep);
            let b = sv.reduced_density_matrix(&keep);
            assert!(a.approx_eq(&b, 1e-8), "keep {keep:?} mismatch");
        }
    }

    #[test]
    fn probabilities_sum_to_one_after_noise() {
        let mut dm = DensityMatrix::zero_state(2);
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        dm.apply_circuit(&c);
        dm.apply_channel(&KrausChannel::amplitude_damping(0.1), &[0])
            .unwrap();
        dm.apply_channel(&KrausChannel::phase_damping(0.2), &[1])
            .unwrap();
        let total: f64 = dm.probabilities().iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sample_respects_diagonal() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut dm = DensityMatrix::zero_state(1);
        dm.apply_one_qubit(&qcut_circuit::gate::Gate::H.matrix(), 0);
        let mut rng = StdRng::seed_from_u64(11);
        let counts = dm.sample(20_000, &mut rng);
        assert!((counts.probability(0) - 0.5).abs() < 0.02);
    }

    #[test]
    fn renormalize_fixes_drift() {
        let mut dm = DensityMatrix::zero_state(1);
        dm.rho = dm.rho.scale(c64(0.98, 0.0));
        dm.renormalize();
        assert!((dm.trace() - 1.0).abs() < 1e-12);
    }
}
