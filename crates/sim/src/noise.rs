//! Kraus noise channels, their superoperators, and device noise models.
//!
//! This module provides the noise substrate that turns the ideal simulator
//! into a stand-in for the paper's IBM devices (see DESIGN.md §4):
//! depolarizing errors after each gate, thermal relaxation (amplitude +
//! phase damping derived from T1/T2 and gate duration), and classical
//! readout bit-flips.
//!
//! A channel given by Kraus operators can be folded into one
//! [`Superoperator`]: the channels that follow a gate, and the gate itself,
//! then compose by matrix products into a single map that the density
//! simulator applies in one pass over ρ.

use qcut_math::{c64, Complex, Matrix, Pauli};

/// A CPTP channel given by Kraus operators (all 2×2 or all 4×4).
#[derive(Debug, Clone, PartialEq)]
pub struct KrausChannel {
    ops: Vec<Matrix>,
    arity: usize,
}

impl KrausChannel {
    /// Wraps explicit Kraus operators, validating the completeness relation
    /// `Σ K†K = I` to `1e-9`.
    pub fn new(ops: Vec<Matrix>) -> Self {
        assert!(!ops.is_empty(), "need at least one Kraus operator");
        let dim = ops[0].rows();
        assert!(dim == 2 || dim == 4, "only 1- and 2-qubit channels");
        let mut sum = Matrix::zeros(dim, dim);
        for k in &ops {
            assert_eq!(
                (k.rows(), k.cols()),
                (dim, dim),
                "inconsistent Kraus shapes"
            );
            sum = &sum + &k.adjoint().matmul(k);
        }
        assert!(
            sum.approx_eq(&Matrix::identity(dim), 1e-9),
            "Kraus operators violate completeness: Σ K†K != I"
        );
        let arity = if dim == 2 { 1 } else { 2 };
        KrausChannel { ops, arity }
    }

    /// The identity channel (1 qubit).
    pub fn identity() -> Self {
        KrausChannel {
            ops: vec![Matrix::identity(2)],
            arity: 1,
        }
    }

    /// Single-qubit depolarizing channel:
    /// `ρ → (1−p) ρ + (p/3)(XρX + YρY + ZρZ)`.
    pub fn depolarizing(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        let w0 = (1.0 - p).sqrt();
        let w = (p / 3.0).sqrt();
        Self::new(vec![
            Matrix::identity(2).scale(c64(w0, 0.0)),
            Pauli::X.matrix().scale(c64(w, 0.0)),
            Pauli::Y.matrix().scale(c64(w, 0.0)),
            Pauli::Z.matrix().scale(c64(w, 0.0)),
        ])
    }

    /// Two-qubit depolarizing channel:
    /// `ρ → (1−p) ρ + (p/15) Σ_{P≠I⊗I} P ρ P`.
    pub fn depolarizing_two(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        let mut ops = Vec::with_capacity(16);
        let w0 = (1.0 - p).sqrt();
        let w = (p / 15.0).sqrt();
        for (i, a) in Pauli::ALL.iter().enumerate() {
            for (j, b) in Pauli::ALL.iter().enumerate() {
                let weight = if i == 0 && j == 0 { w0 } else { w };
                if weight == 0.0 {
                    continue;
                }
                ops.push(b.matrix().kron(&a.matrix()).scale(c64(weight, 0.0)));
            }
        }
        Self::new(ops)
    }

    /// Amplitude damping with decay probability `gamma` (energy relaxation
    /// toward `|0>`).
    pub fn amplitude_damping(gamma: f64) -> Self {
        assert!((0.0..=1.0).contains(&gamma), "gamma out of range");
        Self::new(vec![
            Matrix::two_by_two(
                Complex::ONE,
                Complex::ZERO,
                Complex::ZERO,
                c64((1.0 - gamma).sqrt(), 0.0),
            ),
            Matrix::two_by_two(
                Complex::ZERO,
                c64(gamma.sqrt(), 0.0),
                Complex::ZERO,
                Complex::ZERO,
            ),
        ])
    }

    /// Phase damping with dephasing probability `lambda`.
    pub fn phase_damping(lambda: f64) -> Self {
        assert!((0.0..=1.0).contains(&lambda), "lambda out of range");
        Self::new(vec![
            Matrix::two_by_two(
                Complex::ONE,
                Complex::ZERO,
                Complex::ZERO,
                c64((1.0 - lambda).sqrt(), 0.0),
            ),
            Matrix::two_by_two(
                Complex::ZERO,
                Complex::ZERO,
                Complex::ZERO,
                c64(lambda.sqrt(), 0.0),
            ),
        ])
    }

    /// Thermal relaxation over a duration `time` for a qubit with
    /// relaxation time `t1` and dephasing time `t2` (all in the same unit,
    /// `t2 ≤ 2·t1`): amplitude damping with `γ = 1 − e^{−t/T1}` composed
    /// with pure dephasing `λ = 1 − e^{−t(1/T2 − 1/(2 T1))}`.
    pub fn thermal_relaxation(t1: f64, t2: f64, time: f64) -> Self {
        assert!(t1 > 0.0 && t2 > 0.0, "T1/T2 must be positive");
        assert!(t2 <= 2.0 * t1 + 1e-12, "T2 must be <= 2*T1");
        let gamma = 1.0 - (-time / t1).exp();
        let pure_dephasing_rate = (1.0 / t2 - 1.0 / (2.0 * t1)).max(0.0);
        let lambda = 1.0 - (-time * pure_dephasing_rate).exp();
        // Compose the two channels: K = {A_i B_j}.
        let ad = Self::amplitude_damping(gamma);
        let pd = Self::phase_damping(lambda);
        let mut ops = Vec::new();
        for a in &ad.ops {
            for b in &pd.ops {
                let prod = a.matmul(b);
                if prod.frobenius_norm() > 1e-12 {
                    ops.push(prod);
                }
            }
        }
        Self::new(ops)
    }

    /// The two-qubit channel applying `self` to the first operand (bit 0 of
    /// the gate index) and `high` to the second, independently. Both must be
    /// one-qubit channels.
    pub fn tensor(&self, high: &KrausChannel) -> KrausChannel {
        assert!(
            self.arity == 1 && high.arity == 1,
            "only one-qubit channels tensor into a two-qubit channel"
        );
        let ops = high
            .ops
            .iter()
            .flat_map(|h| self.ops.iter().map(move |l| h.kron(l)))
            .collect();
        Self::new(ops)
    }

    /// The channel as one [`Superoperator`].
    pub fn superoperator(&self) -> Superoperator {
        Superoperator::from_kraus(&self.ops)
    }

    /// The Kraus operators.
    pub fn operators(&self) -> &[Matrix] {
        &self.ops
    }

    /// Number of qubits the channel acts on.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// True when the channel is (numerically) the identity.
    pub fn is_identity(&self) -> bool {
        self.ops.len() == 1 && {
            let dim = self.ops[0].rows();
            self.ops[0].approx_eq(&Matrix::identity(dim), 1e-12)
        }
    }
}

/// A one- or two-qubit linear map on density matrices in Liouville form:
/// the `d² × d²` matrix `S` (`d = 2` or `4`) with `vec(E(ρ)) = S · vec(ρ)`,
/// where `vec` stacks a `d × d` block row by row (entry `ρ[r][c]` sits at
/// `r·d + c`; bit 0 of `r` and `c` belongs to the first operand qubit).
///
/// The Kraus channel `{K_m}` is `S = Σ_m K_m ⊗ conj(K_m)`, channels compose
/// by matrix products ([`Superoperator::then`]), and
/// [`crate::density::DensityMatrix::apply_superop`] applies the result in
/// one pass over ρ's blocks: 16 multiply-adds per 2×2 block, 256 per 4×4
/// block, however many channels were folded in.
#[derive(Debug, Clone, PartialEq)]
pub struct Superoperator {
    arity: usize,
    matrix: Matrix,
}

impl Superoperator {
    /// The identity map on `arity` (1 or 2) qubits.
    pub fn identity(arity: usize) -> Self {
        assert!(arity == 1 || arity == 2, "only 1- and 2-qubit maps");
        Superoperator {
            arity,
            matrix: Matrix::identity(1 << (2 * arity)),
        }
    }

    /// `ρ ↦ Σ_m K_m ρ K_m†` for operators that are all 2×2 or all 4×4. No
    /// completeness check: a single unitary, or any Kraus set, is accepted.
    pub fn from_kraus(ops: &[Matrix]) -> Self {
        assert!(!ops.is_empty(), "need at least one Kraus operator");
        let dim = ops[0].rows();
        assert!(dim == 2 || dim == 4, "only 1- and 2-qubit maps");
        let mut matrix = Matrix::zeros(dim * dim, dim * dim);
        for k in ops {
            assert_eq!(
                (k.rows(), k.cols()),
                (dim, dim),
                "inconsistent Kraus shapes"
            );
            matrix = &matrix + &k.kron(&k.conj());
        }
        Superoperator {
            arity: if dim == 2 { 1 } else { 2 },
            matrix,
        }
    }

    /// Number of qubits the map acts on.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The `d² × d²` Liouville matrix.
    pub fn matrix(&self) -> &Matrix {
        &self.matrix
    }

    /// `next ∘ self`: apply `self`, then `next` (same arity).
    pub fn then(&self, next: &Superoperator) -> Superoperator {
        assert_eq!(self.arity, next.arity, "composed maps must share an arity");
        Superoperator {
            arity: self.arity,
            matrix: next.matrix.matmul(&self.matrix),
        }
    }

    /// `self ∘ (ρ ↦ U ρ U†)` for a `d × d` unitary `u`: the gate followed by
    /// this map. Computed in two stages, `S·(U ⊗ I)` and then `·(I ⊗ Ū)`,
    /// with at most `d⁵` multiply-adds each (1,024 for a two-qubit gate)
    /// instead of the `d⁶` of a product with the full `U ⊗ Ū`. Zero entries
    /// of `u` are skipped, so a permutation or diagonal gate costs a quarter
    /// of that.
    pub fn after_unitary(&self, u: &Matrix) -> Superoperator {
        let d = 1usize << self.arity;
        let n = d * d;
        assert_eq!(
            (u.rows(), u.cols()),
            (d, d),
            "gate does not match the map's arity"
        );
        // (row, column, value) of every nonzero entry of U.
        let entries: Vec<(usize, usize, Complex)> = u
            .as_slice()
            .iter()
            .enumerate()
            .filter(|&(_, &z)| z != Complex::ZERO)
            .map(|(i, &z)| (i / d, i % d, z))
            .collect();
        // Stage 1: T[a][(x, c)] = Σ_r S[a][(r, c)] · U[r][x].
        let mut t = vec![Complex::ZERO; n * n];
        for (s_row, t_row) in self
            .matrix
            .as_slice()
            .chunks_exact(n)
            .zip(t.chunks_exact_mut(n))
        {
            for &(r, x, z) in &entries {
                for c in 0..d {
                    t_row[x * d + c] = t_row[x * d + c].mul_add(s_row[r * d + c], z);
                }
            }
        }
        // Stage 2: R[a][(x, y)] = Σ_c T[a][(x, c)] · conj(U[c][y]).
        let mut matrix = Matrix::zeros(n, n);
        for (t_row, r_row) in t
            .chunks_exact(n)
            .zip(matrix.as_mut_slice().chunks_exact_mut(n))
        {
            for &(c, y, z) in &entries {
                let z = z.conj();
                for x in 0..d {
                    r_row[x * d + y] = r_row[x * d + y].mul_add(t_row[x * d + c], z);
                }
            }
        }
        Superoperator {
            arity: self.arity,
            matrix,
        }
    }
}

/// Classical readout error: independent per-qubit bit flips at measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadoutError {
    /// P(read 1 | true 0).
    pub p01: f64,
    /// P(read 0 | true 1).
    pub p10: f64,
}

impl ReadoutError {
    /// Symmetric readout error.
    pub fn symmetric(p: f64) -> Self {
        ReadoutError { p01: p, p10: p }
    }

    /// No error.
    pub fn none() -> Self {
        ReadoutError { p01: 0.0, p10: 0.0 }
    }

    /// Applies the error exactly to a probability vector over `num_bits`
    /// bits (tensor of per-bit 2×2 confusion matrices).
    pub fn apply_to_probs(&self, probs: &[f64], num_bits: usize) -> Vec<f64> {
        assert_eq!(probs.len(), 1 << num_bits);
        let mut cur = probs.to_vec();
        if self.p01 == 0.0 && self.p10 == 0.0 {
            return cur;
        }
        // Confusion matrix rows: measured, cols: true.
        let m = [[1.0 - self.p01, self.p10], [self.p01, 1.0 - self.p10]];
        for bit in 0..num_bits {
            let b = 1usize << bit;
            let mut next = cur.clone();
            for i0 in 0..cur.len() {
                if i0 & b != 0 {
                    continue;
                }
                let i1 = i0 | b;
                let p0 = cur[i0];
                let p1 = cur[i1];
                next[i0] = m[0][0] * p0 + m[0][1] * p1;
                next[i1] = m[1][0] * p0 + m[1][1] * p1;
            }
            cur = next;
        }
        cur
    }
}

/// A device noise model: gate-attached channels plus readout error.
#[derive(Debug, Clone)]
pub struct NoiseModel {
    /// Channel applied to the operand qubit after every 1-qubit gate.
    pub one_qubit: Option<KrausChannel>,
    /// Channel applied to the operand pair after every 2-qubit gate.
    pub two_qubit: Option<KrausChannel>,
    /// Extra thermal relaxation per gate: `(t1, t2, gate_time_1q, gate_time_2q)`.
    pub thermal: Option<ThermalSpec>,
    /// Readout error applied at measurement.
    pub readout: ReadoutError,
}

/// T1/T2 relaxation parameters with per-gate durations (all μs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalSpec {
    /// Relaxation time T1.
    pub t1: f64,
    /// Dephasing time T2 (≤ 2·T1).
    pub t2: f64,
    /// Duration of a 1-qubit gate.
    pub time_1q: f64,
    /// Duration of a 2-qubit gate.
    pub time_2q: f64,
}

impl NoiseModel {
    /// The trivial (noiseless) model.
    pub fn noiseless() -> Self {
        NoiseModel {
            one_qubit: None,
            two_qubit: None,
            thermal: None,
            readout: ReadoutError::none(),
        }
    }

    /// Depolarizing-only model with the given 1q/2q error rates and
    /// readout error.
    pub fn depolarizing(p1: f64, p2: f64, readout: f64) -> Self {
        NoiseModel {
            one_qubit: (p1 > 0.0).then(|| KrausChannel::depolarizing(p1)),
            two_qubit: (p2 > 0.0).then(|| KrausChannel::depolarizing_two(p2)),
            thermal: None,
            readout: ReadoutError::symmetric(readout),
        }
    }

    /// True when no error source is active.
    pub fn is_noiseless(&self) -> bool {
        self.one_qubit.is_none()
            && self.two_qubit.is_none()
            && self.thermal.is_none()
            && self.readout == ReadoutError::none()
    }

    /// Stable fingerprint of the model's *noise character* — every value
    /// that shapes the output distribution: Kraus operators (element bit
    /// patterns), thermal parameters, and readout error rates.
    ///
    /// The warm-start cache folds this into every histogram key (via
    /// `Backend::cache_fingerprint`), so measurements taken under one noise
    /// model are never pooled with measurements taken under another — in
    /// particular, ideal-backend histograms can never be served to a noisy
    /// run. Models that compare equal fingerprint equal; distinct noise
    /// strengths fingerprint apart (up to 64-bit hashing).
    pub fn fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut mix = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        let mix_channel = |slot: &Option<KrausChannel>, mix: &mut dyn FnMut(u64)| match slot {
            None => mix(0),
            Some(ch) => {
                mix(1 + ch.arity() as u64);
                mix(ch.operators().len() as u64);
                for op in ch.operators() {
                    for z in op.as_slice() {
                        mix(z.re.to_bits());
                        mix(z.im.to_bits());
                    }
                }
            }
        };
        mix_channel(&self.one_qubit, &mut mix);
        mix_channel(&self.two_qubit, &mut mix);
        match &self.thermal {
            None => mix(0),
            Some(t) => {
                mix(1);
                mix(t.t1.to_bits());
                mix(t.t2.to_bits());
                mix(t.time_1q.to_bits());
                mix(t.time_2q.to_bits());
            }
        }
        mix(self.readout.p01.to_bits());
        mix(self.readout.p10.to_bits());
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprints_separate_noise_characters() {
        let ideal = NoiseModel::noiseless();
        let weak = NoiseModel::depolarizing(0.01, 0.02, 0.01);
        let strong = NoiseModel::depolarizing(0.05, 0.02, 0.01);
        let readout_only = NoiseModel::depolarizing(0.0, 0.0, 0.01);
        let fingerprints = [
            ideal.fingerprint(),
            weak.fingerprint(),
            strong.fingerprint(),
            readout_only.fingerprint(),
        ];
        for (i, a) in fingerprints.iter().enumerate() {
            for (j, b) in fingerprints.iter().enumerate() {
                if i != j {
                    assert_ne!(a, b, "models {i} and {j} must fingerprint apart");
                }
            }
        }
        // Deterministic and equal for equal models.
        assert_eq!(
            NoiseModel::depolarizing(0.01, 0.02, 0.01).fingerprint(),
            weak.fingerprint()
        );
    }

    #[test]
    fn constructors_satisfy_completeness() {
        // `new` validates ΣK†K = I; these must not panic.
        let _ = KrausChannel::depolarizing(0.1);
        let _ = KrausChannel::depolarizing_two(0.05);
        let _ = KrausChannel::amplitude_damping(0.3);
        let _ = KrausChannel::phase_damping(0.2);
        let _ = KrausChannel::thermal_relaxation(100.0, 80.0, 0.5);
        let _ = KrausChannel::identity();
    }

    #[test]
    #[should_panic(expected = "completeness")]
    fn invalid_kraus_set_rejected() {
        KrausChannel::new(vec![Matrix::identity(2).scale(c64(0.5, 0.0))]);
    }

    #[test]
    fn zero_strength_channels_are_identity_like() {
        assert!(KrausChannel::identity().is_identity());
        let d = KrausChannel::depolarizing(0.0);
        // Other Kraus ops have zero weight but exist; effective action is
        // identity — check on a test matrix via completeness of op 0.
        assert!(d.operators()[0].approx_eq(&Matrix::identity(2), 1e-12));
    }

    #[test]
    fn thermal_relaxation_zero_time_is_identity() {
        let ch = KrausChannel::thermal_relaxation(100.0, 100.0, 0.0);
        // γ = λ = 0: only one surviving operator, the identity.
        assert_eq!(ch.operators().len(), 1);
        assert!(ch.operators()[0].approx_eq(&Matrix::identity(2), 1e-12));
    }

    #[test]
    #[should_panic(expected = "T2 must be <= 2*T1")]
    fn thermal_relaxation_rejects_unphysical_t2() {
        KrausChannel::thermal_relaxation(50.0, 150.0, 1.0);
    }

    #[test]
    fn readout_error_mixes_probabilities() {
        let r = ReadoutError::symmetric(0.1);
        let out = r.apply_to_probs(&[1.0, 0.0], 1);
        assert!((out[0] - 0.9).abs() < 1e-12);
        assert!((out[1] - 0.1).abs() < 1e-12);
    }

    #[test]
    fn readout_error_is_stochastic() {
        let r = ReadoutError {
            p01: 0.03,
            p10: 0.08,
        };
        let probs = [0.1, 0.2, 0.3, 0.4];
        let out = r.apply_to_probs(&probs, 2);
        let total: f64 = out.iter().sum();
        assert!((total - 1.0).abs() < 1e-12, "readout must preserve mass");
        assert!(out.iter().all(|&p| p >= 0.0));
    }

    #[test]
    fn readout_none_is_identity() {
        let probs = [0.25, 0.75];
        let out = ReadoutError::none().apply_to_probs(&probs, 1);
        assert_eq!(out, probs.to_vec());
    }

    #[test]
    fn asymmetric_readout_biases_toward_zero() {
        // p10 > p01 (relaxation-dominated readout): measuring |1> leaks to 0.
        let r = ReadoutError {
            p01: 0.01,
            p10: 0.1,
        };
        let out = r.apply_to_probs(&[0.0, 1.0], 1);
        assert!((out[0] - 0.1).abs() < 1e-12);
    }

    #[test]
    fn noise_model_flags() {
        assert!(NoiseModel::noiseless().is_noiseless());
        assert!(!NoiseModel::depolarizing(0.001, 0.01, 0.02).is_noiseless());
    }

    #[test]
    fn after_unitary_is_the_product_with_the_gates_superoperator() {
        use qcut_circuit::gate::Gate;
        let one = KrausChannel::depolarizing(0.2)
            .superoperator()
            .then(&KrausChannel::thermal_relaxation(50.0, 40.0, 3.0).superoperator());
        let two = KrausChannel::depolarizing_two(0.1).superoperator();
        for (map, gate) in [
            (&one, Gate::U3(0.3, 1.1, -0.7)),
            (&one, Gate::H),
            (&two, Gate::Crx(0.9)),
            (&two, Gate::Cx),
        ] {
            let u = gate.matrix();
            let want = Superoperator::from_kraus(std::slice::from_ref(&u)).then(map);
            let got = map.after_unitary(&u);
            assert!(
                got.matrix().approx_eq(want.matrix(), 1e-14),
                "{gate}: two-stage composition diverged"
            );
        }
    }

    #[test]
    fn depolarizing_two_has_sixteen_ops_when_p_positive() {
        let ch = KrausChannel::depolarizing_two(0.5);
        assert_eq!(ch.operators().len(), 16);
        assert_eq!(ch.arity(), 2);
    }
}
