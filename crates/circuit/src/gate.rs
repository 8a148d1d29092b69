//! Gate definitions.
//!
//! The gate alphabet covers what Qiskit's `random_circuit()` draws from
//! (1-qubit Cliffords, rotations, U3, and the common 2-qubit entanglers)
//! plus arbitrary `Unitary1`/`Unitary2` matrices so fragments can carry
//! Haar-random blocks.
//!
//! Qubit-ordering convention (used across the whole workspace): **qubit 0 is
//! the least-significant bit** of a computational basis index. A 2-qubit
//! gate applied to `(a, b)` uses `a` as bit 0 and `b` as bit 1 of its 4×4
//! matrix index.

use qcut_math::{c64, Complex, Matrix, Pauli, PauliString};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::fmt;
use std::sync::OnceLock;

/// Number of parameterless gate variants (see `Gate::fixed_slot`).
const FIXED_GATES: usize = 15;

/// A quantum gate. Rotation angles are in radians.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub enum Gate {
    /// Identity (useful as an explicit no-op / barrier marker in tests).
    I,
    /// Hadamard.
    H,
    /// Pauli-X.
    X,
    /// Pauli-Y.
    Y,
    /// Pauli-Z.
    Z,
    /// Phase gate `S = diag(1, i)`.
    S,
    /// Inverse phase gate `S† = diag(1, -i)`.
    Sdg,
    /// T gate `diag(1, e^{iπ/4})`.
    T,
    /// T† gate.
    Tdg,
    /// Square root of X.
    Sx,
    /// Rotation about X: `e^{-iθX/2}`.
    Rx(f64),
    /// Rotation about Y: `e^{-iθY/2}` (real matrix).
    Ry(f64),
    /// Rotation about Z: `e^{-iθZ/2}`.
    Rz(f64),
    /// Phase rotation `diag(1, e^{iθ})`.
    Phase(f64),
    /// General single-qubit gate `U3(θ, φ, λ)` (Qiskit convention).
    U3(f64, f64, f64),
    /// Arbitrary single-qubit unitary.
    Unitary1(#[serde(skip, default = "identity2")] Matrix),
    /// Controlled-X (CNOT). Control = first qubit of the instruction.
    Cx,
    /// Controlled-Y.
    Cy,
    /// Controlled-Z (symmetric).
    Cz,
    /// Controlled-H.
    Ch,
    /// SWAP.
    Swap,
    /// Controlled RX.
    Crx(f64),
    /// Controlled RY.
    Cry(f64),
    /// Controlled RZ.
    Crz(f64),
    /// Controlled phase.
    CPhase(f64),
    /// Arbitrary two-qubit unitary.
    Unitary2(#[serde(skip, default = "identity4")] Matrix),
}

// Referenced by the `#[serde(default = ...)]` attributes above; the
// vendored serde stub ignores helper attributes, so these are unused until
// real serde is restored.
#[allow(dead_code)]
fn identity2() -> Matrix {
    Matrix::identity(2)
}

#[allow(dead_code)]
fn identity4() -> Matrix {
    Matrix::identity(4)
}

impl Gate {
    /// Number of qubits this gate acts on (1 or 2).
    pub fn arity(&self) -> usize {
        match self {
            Gate::I
            | Gate::H
            | Gate::X
            | Gate::Y
            | Gate::Z
            | Gate::S
            | Gate::Sdg
            | Gate::T
            | Gate::Tdg
            | Gate::Sx
            | Gate::Rx(_)
            | Gate::Ry(_)
            | Gate::Rz(_)
            | Gate::Phase(_)
            | Gate::U3(..)
            | Gate::Unitary1(_) => 1,
            _ => 2,
        }
    }

    /// The gate's unitary matrix (2×2 or 4×4 depending on arity).
    ///
    /// For controlled gates, the control is bit 0 and the target bit 1,
    /// matching the `(control, target)` argument order of the circuit
    /// builder methods.
    pub fn matrix(&self) -> Matrix {
        let s = std::f64::consts::FRAC_1_SQRT_2;
        match self {
            Gate::I => Matrix::identity(2),
            Gate::H => Matrix::from_real(2, 2, &[s, s, s, -s]),
            Gate::X => Matrix::from_real(2, 2, &[0.0, 1.0, 1.0, 0.0]),
            Gate::Y => {
                Matrix::two_by_two(Complex::ZERO, c64(0.0, -1.0), c64(0.0, 1.0), Complex::ZERO)
            }
            Gate::Z => Matrix::from_real(2, 2, &[1.0, 0.0, 0.0, -1.0]),
            Gate::S => Matrix::two_by_two(Complex::ONE, Complex::ZERO, Complex::ZERO, Complex::I),
            Gate::Sdg => {
                Matrix::two_by_two(Complex::ONE, Complex::ZERO, Complex::ZERO, c64(0.0, -1.0))
            }
            Gate::T => Matrix::two_by_two(
                Complex::ONE,
                Complex::ZERO,
                Complex::ZERO,
                Complex::from_polar(1.0, std::f64::consts::FRAC_PI_4),
            ),
            Gate::Tdg => Matrix::two_by_two(
                Complex::ONE,
                Complex::ZERO,
                Complex::ZERO,
                Complex::from_polar(1.0, -std::f64::consts::FRAC_PI_4),
            ),
            Gate::Sx => Matrix::from_rows(
                2,
                2,
                vec![c64(0.5, 0.5), c64(0.5, -0.5), c64(0.5, -0.5), c64(0.5, 0.5)],
            ),
            Gate::Rx(t) => {
                let (c, sn) = ((t / 2.0).cos(), (t / 2.0).sin());
                Matrix::two_by_two(c64(c, 0.0), c64(0.0, -sn), c64(0.0, -sn), c64(c, 0.0))
            }
            Gate::Ry(t) => {
                let (c, sn) = ((t / 2.0).cos(), (t / 2.0).sin());
                Matrix::from_real(2, 2, &[c, -sn, sn, c])
            }
            Gate::Rz(t) => Matrix::two_by_two(
                Complex::from_polar(1.0, -t / 2.0),
                Complex::ZERO,
                Complex::ZERO,
                Complex::from_polar(1.0, t / 2.0),
            ),
            Gate::Phase(t) => Matrix::two_by_two(
                Complex::ONE,
                Complex::ZERO,
                Complex::ZERO,
                Complex::from_polar(1.0, *t),
            ),
            Gate::U3(theta, phi, lam) => {
                let (ct, st) = ((theta / 2.0).cos(), (theta / 2.0).sin());
                Matrix::from_rows(
                    2,
                    2,
                    vec![
                        c64(ct, 0.0),
                        -Complex::from_polar(st, *lam),
                        Complex::from_polar(st, *phi),
                        Complex::from_polar(ct, phi + lam),
                    ],
                )
            }
            Gate::Unitary1(m) => m.clone(),
            Gate::Cx => controlled(&Gate::X.matrix()),
            Gate::Cy => controlled(&Gate::Y.matrix()),
            Gate::Cz => controlled(&Gate::Z.matrix()),
            Gate::Ch => controlled(&Gate::H.matrix()),
            Gate::Swap => Matrix::from_real(
                4,
                4,
                &[
                    1.0, 0.0, 0.0, 0.0, //
                    0.0, 0.0, 1.0, 0.0, //
                    0.0, 1.0, 0.0, 0.0, //
                    0.0, 0.0, 0.0, 1.0,
                ],
            ),
            Gate::Crx(t) => controlled(&Gate::Rx(*t).matrix()),
            Gate::Cry(t) => controlled(&Gate::Ry(*t).matrix()),
            Gate::Crz(t) => controlled(&Gate::Rz(*t).matrix()),
            Gate::CPhase(t) => controlled(&Gate::Phase(*t).matrix()),
            Gate::Unitary2(m) => m.clone(),
        }
    }

    /// The inverse gate (adjoint).
    pub fn adjoint(&self) -> Gate {
        match self {
            Gate::S => Gate::Sdg,
            Gate::Sdg => Gate::S,
            Gate::T => Gate::Tdg,
            Gate::Tdg => Gate::T,
            Gate::Sx => Gate::Unitary1(Gate::Sx.matrix().adjoint()),
            Gate::Rx(t) => Gate::Rx(-t),
            Gate::Ry(t) => Gate::Ry(-t),
            Gate::Rz(t) => Gate::Rz(-t),
            Gate::Phase(t) => Gate::Phase(-t),
            Gate::U3(theta, phi, lam) => Gate::U3(-theta, -lam, -phi),
            Gate::Unitary1(m) => Gate::Unitary1(m.adjoint()),
            Gate::Crx(t) => Gate::Crx(-t),
            Gate::Cry(t) => Gate::Cry(-t),
            Gate::Crz(t) => Gate::Crz(-t),
            Gate::CPhase(t) => Gate::CPhase(-t),
            Gate::Unitary2(m) => Gate::Unitary2(m.adjoint()),
            // Self-inverse gates.
            g => g.clone(),
        }
    }

    /// Whether the gate's matrix has purely real entries. Circuits made
    /// entirely of real gates produce real-amplitude states, which is the
    /// mechanism behind the paper's designed golden cutting point (the Y
    /// expectation of any real state vanishes identically).
    pub fn is_real(&self) -> bool {
        match self {
            Gate::I
            | Gate::H
            | Gate::X
            | Gate::Z
            | Gate::Ry(_)
            | Gate::Cx
            | Gate::Cz
            | Gate::Ch
            | Gate::Swap
            | Gate::Cry(_) => true,
            Gate::Unitary1(m) | Gate::Unitary2(m) => m.is_real(1e-12),
            _ => false,
        }
    }

    /// Whether applying the gate leaves every input state unchanged up to
    /// global phase — dead weight a transpiler could drop, flagged by the
    /// analyzer's identity-gate lint. Exact for the parameterless gates;
    /// parameterised families check their identity criterion to `1e-9`:
    ///
    /// * `Rx/Ry/Rz(θ)` and `Phase(θ)`: `sin(θ/2) = 0` (at `θ = 2π` the
    ///   rotation is `−I` — a global phase, unobservable when uncontrolled);
    /// * `CPhase(θ)`: `θ ≡ 0 (mod 2π)` (same criterion — `CPhase(2π)` is
    ///   exactly the identity);
    /// * `Crx/Cry/Crz(θ)`: `θ ≡ 0 (mod 4π)` — at `θ = 2π` the controlled
    ///   block applies `−I`, a *relative* phase (`Z` on the control) that
    ///   is observable, so the weaker criterion would be wrong here;
    /// * `U3`/`Unitary1`/`Unitary2`: matrix distance from the exact
    ///   identity (identity-up-to-phase unitaries are deliberately not
    ///   flagged — conservative for a lint).
    pub fn is_effective_identity(&self) -> bool {
        const EPS: f64 = 1e-9;
        match self {
            Gate::I => true,
            Gate::Rx(t) | Gate::Ry(t) | Gate::Rz(t) | Gate::Phase(t) | Gate::CPhase(t) => {
                (t / 2.0).sin().abs() < EPS
            }
            Gate::Crx(t) | Gate::Cry(t) | Gate::Crz(t) => {
                (t / 2.0).sin().abs() < EPS && (t / 2.0).cos() > 0.0
            }
            Gate::U3(_, _, _) | Gate::Unitary1(_) => {
                self.matrix().max_abs_diff(&Matrix::identity(2)) < EPS
            }
            Gate::Unitary2(m) => m.max_abs_diff(&Matrix::identity(4)) < EPS,
            _ => false,
        }
    }

    /// Whether the gate's matrix is diagonal in the computational basis.
    /// Diagonal gates commute with each other and with computational-basis
    /// measurement, and act on `|0…0>` only by a global phase — the facts
    /// behind the dataflow pass's dead-gate detection. Structural for the
    /// parameterless/rotation families; a numeric off-diagonal check
    /// (tolerance `1e-9`) for `U3`/`Unitary1`/`Unitary2`.
    pub fn is_diagonal(&self) -> bool {
        match self {
            Gate::I
            | Gate::Z
            | Gate::S
            | Gate::Sdg
            | Gate::T
            | Gate::Tdg
            | Gate::Rz(_)
            | Gate::Phase(_)
            | Gate::Cz
            | Gate::Crz(_)
            | Gate::CPhase(_) => true,
            Gate::U3(..) | Gate::Unitary1(_) | Gate::Unitary2(_) => {
                matrix_is_diagonal(&self.matrix(), 1e-9)
            }
            _ => false,
        }
    }

    /// The gate's action on Hermitian Pauli strings by conjugation, if it
    /// is a Clifford gate: `Some(action)` with `U P U† = ±P'` tabulated for
    /// every string `P` over the operands, `None` otherwise.
    ///
    /// Decided numerically (tolerance `1e-9`): each conjugated string is
    /// decomposed over the Pauli basis via `tr(Q·UPU†)/2^n`, and the gate
    /// qualifies only when every image has exactly one `±1` coefficient.
    /// The parameterless gates (`I` … `Sx`, `Cx` … `Swap`) have constant
    /// actions, tabulated once per process on first use and borrowed after
    /// that. Parameterised and `Unitary*` gates are checked on every call,
    /// which keeps them honest — `Rz(π/2)` is recognised as Clifford just
    /// like `S`, while `Rz(0.3)` is not. The stabilizer tableau widens over
    /// gates that return `None`.
    pub fn clifford_action(&self) -> Option<Cow<'static, CliffordAction>> {
        static FIXED: [OnceLock<Option<CliffordAction>>; FIXED_GATES] =
            [const { OnceLock::new() }; FIXED_GATES];
        match self.fixed_slot() {
            Some(slot) => FIXED[slot]
                .get_or_init(|| self.numeric_clifford_action())
                .as_ref()
                .map(Cow::Borrowed),
            None => self.numeric_clifford_action().map(Cow::Owned),
        }
    }

    /// The slot of a parameterless gate in [`Gate::clifford_action`]'s
    /// table; `None` for gates that carry an angle or a matrix.
    fn fixed_slot(&self) -> Option<usize> {
        Some(match self {
            Gate::I => 0,
            Gate::H => 1,
            Gate::X => 2,
            Gate::Y => 3,
            Gate::Z => 4,
            Gate::S => 5,
            Gate::Sdg => 6,
            Gate::T => 7,
            Gate::Tdg => 8,
            Gate::Sx => 9,
            Gate::Cx => 10,
            Gate::Cy => 11,
            Gate::Cz => 12,
            Gate::Ch => 13,
            Gate::Swap => 14,
            _ => return None,
        })
    }

    /// [`Gate::clifford_action`] computed from the gate's matrix.
    fn numeric_clifford_action(&self) -> Option<CliffordAction> {
        const TOL: f64 = 1e-9;
        let n = self.arity();
        let u = self.matrix();
        let udag = u.adjoint();
        let dim = f64::from(1 << n);
        let strings: Vec<PauliString> = PauliString::enumerate(n).collect();
        let mut images = Vec::with_capacity(strings.len());
        for p in &strings {
            let m = u.matmul(&p.matrix()).matmul(&udag);
            // Hermitian image ⟹ real coefficients; a Clifford image has
            // exactly one of magnitude 1 and the rest 0.
            let mut hit: Option<(bool, Vec<Pauli>)> = None;
            for q in &strings {
                let c = q.matrix().trace_product(&m);
                let (re, im) = (c.re / dim, c.im / dim);
                if im.abs() > TOL {
                    return None;
                }
                if (re.abs() - 1.0).abs() < TOL {
                    if hit.is_some() {
                        return None;
                    }
                    hit = Some((re < 0.0, q.paulis().to_vec()));
                } else if re.abs() > TOL {
                    return None;
                }
            }
            images.push(hit?);
        }
        Some(CliffordAction { arity: n, images })
    }

    /// Short mnemonic for diagrams and reports.
    pub fn name(&self) -> String {
        match self {
            Gate::I => "i".into(),
            Gate::H => "h".into(),
            Gate::X => "x".into(),
            Gate::Y => "y".into(),
            Gate::Z => "z".into(),
            Gate::S => "s".into(),
            Gate::Sdg => "sdg".into(),
            Gate::T => "t".into(),
            Gate::Tdg => "tdg".into(),
            Gate::Sx => "sx".into(),
            Gate::Rx(t) => format!("rx({t:.3})"),
            Gate::Ry(t) => format!("ry({t:.3})"),
            Gate::Rz(t) => format!("rz({t:.3})"),
            Gate::Phase(t) => format!("p({t:.3})"),
            Gate::U3(a, b, c) => format!("u3({a:.3},{b:.3},{c:.3})"),
            Gate::Unitary1(_) => "u1q".into(),
            Gate::Cx => "cx".into(),
            Gate::Cy => "cy".into(),
            Gate::Cz => "cz".into(),
            Gate::Ch => "ch".into(),
            Gate::Swap => "swap".into(),
            Gate::Crx(t) => format!("crx({t:.3})"),
            Gate::Cry(t) => format!("cry({t:.3})"),
            Gate::Crz(t) => format!("crz({t:.3})"),
            Gate::CPhase(t) => format!("cp({t:.3})"),
            Gate::Unitary2(_) => "u2q".into(),
        }
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// The conjugation action of a Clifford gate on Hermitian Pauli strings,
/// tabulated over all `4^arity` inputs. Since the inputs and outputs are
/// signed Hermitian strings (`±⊗_j W_j` with `W_j ∈ {I,X,Y,Z}`), there is
/// no residual `i^k` phase to track: [`CliffordAction::image`] returns a
/// sign bit and the image string, nothing more. Built by
/// [`Gate::clifford_action`].
#[derive(Clone, Debug, PartialEq)]
pub struct CliffordAction {
    arity: usize,
    /// `images[idx]` is `(negative, paulis)` for the input string with
    /// index `idx = Σ_j 4^j · code(p_j)` (`code`: I=0, X=1, Y=2, Z=3 —
    /// the [`PauliString::enumerate`] order).
    images: Vec<(bool, Vec<Pauli>)>,
}

impl CliffordAction {
    /// Number of operand qubits (1 or 2).
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Image of the Hermitian string `⊗_j paulis[j]` under conjugation:
    /// `U (⊗ paulis) U† = sign · (⊗ image)` with `sign = -1` iff the
    /// returned flag is true. `paulis[j]` is the factor on operand `j`.
    pub fn image(&self, paulis: &[Pauli]) -> (bool, Vec<Pauli>) {
        assert_eq!(paulis.len(), self.arity, "operand count mismatch");
        let idx = paulis
            .iter()
            .enumerate()
            .fold(0usize, |acc, (j, p)| acc + (pauli_code(*p) << (2 * j)));
        self.images[idx].clone()
    }
}

fn pauli_code(p: Pauli) -> usize {
    match p {
        Pauli::I => 0,
        Pauli::X => 1,
        Pauli::Y => 2,
        Pauli::Z => 3,
    }
}

/// Whether every off-diagonal entry of `m` is below `tol` in magnitude.
fn matrix_is_diagonal(m: &Matrix, tol: f64) -> bool {
    for i in 0..m.rows() {
        for j in 0..m.cols() {
            if i != j && m[(i, j)].abs() > tol {
                return false;
            }
        }
    }
    true
}

/// Builds `|0><0| ⊗ I + |1><1| ⊗ U` with control = bit 0, target = bit 1.
fn controlled(u: &Matrix) -> Matrix {
    let mut m = Matrix::identity(4);
    // Basis index = (target_bit << 1) | control_bit. Control active on
    // indices 1 (t=0,c=1) and 3 (t=1,c=1).
    m[(1, 1)] = u[(0, 0)];
    m[(1, 3)] = u[(0, 1)];
    m[(3, 1)] = u[(1, 0)];
    m[(3, 3)] = u[(1, 1)];
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcut_math::TOL_STRICT;

    fn all_fixed_gates() -> Vec<Gate> {
        vec![
            Gate::I,
            Gate::H,
            Gate::X,
            Gate::Y,
            Gate::Z,
            Gate::S,
            Gate::Sdg,
            Gate::T,
            Gate::Tdg,
            Gate::Sx,
            Gate::Rx(0.7),
            Gate::Ry(-1.2),
            Gate::Rz(2.5),
            Gate::Phase(0.4),
            Gate::U3(0.3, 1.1, -0.8),
            Gate::Cx,
            Gate::Cy,
            Gate::Cz,
            Gate::Ch,
            Gate::Swap,
            Gate::Crx(0.9),
            Gate::Cry(1.4),
            Gate::Crz(-0.6),
            Gate::CPhase(2.2),
        ]
    }

    #[test]
    fn every_gate_is_unitary() {
        for g in all_fixed_gates() {
            assert!(g.matrix().is_unitary(TOL_STRICT), "{g} not unitary");
        }
    }

    #[test]
    fn arity_matches_matrix_dimension() {
        for g in all_fixed_gates() {
            let m = g.matrix();
            assert_eq!(m.rows(), 1 << g.arity(), "{g}");
        }
    }

    #[test]
    fn adjoint_inverts() {
        for g in all_fixed_gates() {
            let prod = g.matrix().matmul(&g.adjoint().matrix());
            let id = Matrix::identity(prod.rows());
            assert!(prod.approx_eq(&id, TOL_STRICT), "{g}");
        }
    }

    #[test]
    fn hadamard_conjugates_z_to_x() {
        let h = Gate::H.matrix();
        let hzh = h.matmul(&Gate::Z.matrix()).matmul(&h);
        assert!(hzh.approx_eq(&Gate::X.matrix(), TOL_STRICT));
    }

    #[test]
    fn s_squared_is_z_and_t_squared_is_s() {
        let s2 = Gate::S.matrix().pow(2);
        assert!(s2.approx_eq(&Gate::Z.matrix(), TOL_STRICT));
        let t2 = Gate::T.matrix().pow(2);
        assert!(t2.approx_eq(&Gate::S.matrix(), TOL_STRICT));
    }

    #[test]
    fn sx_squared_is_x() {
        let sx2 = Gate::Sx.matrix().pow(2);
        assert!(sx2.approx_eq(&Gate::X.matrix(), TOL_STRICT));
    }

    #[test]
    fn rotations_at_pi_match_paulis_up_to_phase() {
        // R_a(π) = -i σ_a
        for (rot, pauli) in [
            (Gate::Rx(std::f64::consts::PI), Gate::X),
            (Gate::Ry(std::f64::consts::PI), Gate::Y),
            (Gate::Rz(std::f64::consts::PI), Gate::Z),
        ] {
            let want = pauli.matrix().scale(c64(0.0, -1.0));
            assert!(rot.matrix().approx_eq(&want, TOL_STRICT), "{rot}");
        }
    }

    #[test]
    fn u3_special_cases() {
        // U3(θ, -π/2, π/2) = RX(θ); U3(θ, 0, 0) = RY(θ).
        let th = 0.83;
        let rx = Gate::U3(
            th,
            -std::f64::consts::FRAC_PI_2,
            std::f64::consts::FRAC_PI_2,
        );
        assert!(rx.matrix().approx_eq(&Gate::Rx(th).matrix(), TOL_STRICT));
        let ry = Gate::U3(th, 0.0, 0.0);
        assert!(ry.matrix().approx_eq(&Gate::Ry(th).matrix(), TOL_STRICT));
    }

    #[test]
    fn cx_truth_table() {
        let cx = Gate::Cx.matrix();
        // index = target<<1 | control
        // control=0 states unchanged:
        assert_eq!(cx[(0, 0)], Complex::ONE); // |00> -> |00>
        assert_eq!(cx[(2, 2)], Complex::ONE); // t=1,c=0 unchanged
                                              // control=1 flips target:
        assert_eq!(cx[(3, 1)], Complex::ONE); // c=1,t=0 -> c=1,t=1
        assert_eq!(cx[(1, 3)], Complex::ONE);
    }

    #[test]
    fn swap_exchanges_bits() {
        let sw = Gate::Swap.matrix();
        // |01> (idx 1) <-> |10> (idx 2)
        assert_eq!(sw[(2, 1)], Complex::ONE);
        assert_eq!(sw[(1, 2)], Complex::ONE);
        assert_eq!(sw[(0, 0)], Complex::ONE);
        assert_eq!(sw[(3, 3)], Complex::ONE);
    }

    #[test]
    fn real_gate_classification() {
        assert!(Gate::H.is_real());
        assert!(Gate::Ry(0.3).is_real());
        assert!(Gate::Cx.is_real());
        assert!(!Gate::Rx(0.3).is_real());
        assert!(!Gate::S.is_real());
        assert!(!Gate::Y.is_real());
        assert!(Gate::Unitary1(Matrix::identity(2)).is_real());
    }

    #[test]
    fn real_gates_have_real_matrices() {
        for g in all_fixed_gates() {
            if g.is_real() {
                assert!(g.matrix().is_real(1e-12), "{g} claims real but is not");
            }
        }
    }

    #[test]
    fn clifford_action_exists_exactly_for_clifford_gates() {
        let cliffords = [
            Gate::I,
            Gate::H,
            Gate::X,
            Gate::Y,
            Gate::Z,
            Gate::S,
            Gate::Sdg,
            Gate::Sx,
            Gate::Cx,
            Gate::Cy,
            Gate::Cz,
            Gate::Swap,
            Gate::Rz(std::f64::consts::FRAC_PI_2), // S up to phase
        ];
        for g in cliffords {
            assert!(g.clifford_action().is_some(), "{g} should be Clifford");
        }
        let non_cliffords = [
            Gate::T,
            Gate::Tdg,
            Gate::Rx(0.3),
            Gate::Ry(0.3),
            Gate::Rz(0.3),
            Gate::Ch,
            Gate::Crz(0.7),
            Gate::CPhase(1.1),
        ];
        for g in non_cliffords {
            assert!(g.clifford_action().is_none(), "{g} should not be Clifford");
        }
    }

    #[test]
    fn clifford_action_matches_textbook_conjugations() {
        let h = Gate::H.clifford_action().expect("H is Clifford");
        assert_eq!(h.image(&[Pauli::Z]), (false, vec![Pauli::X]));
        assert_eq!(h.image(&[Pauli::X]), (false, vec![Pauli::Z]));
        assert_eq!(h.image(&[Pauli::Y]), (true, vec![Pauli::Y]));

        let s = Gate::S.clifford_action().expect("S is Clifford");
        assert_eq!(s.image(&[Pauli::X]), (false, vec![Pauli::Y]));
        assert_eq!(s.image(&[Pauli::Y]), (true, vec![Pauli::X]));
        assert_eq!(s.image(&[Pauli::Z]), (false, vec![Pauli::Z]));

        let x = Gate::X.clifford_action().expect("X is Clifford");
        assert_eq!(x.image(&[Pauli::Z]), (true, vec![Pauli::Z]));
        assert_eq!(x.image(&[Pauli::X]), (false, vec![Pauli::X]));

        // CX with control = operand 0, target = operand 1:
        // Z⊗I ↦ Z⊗I, X⊗I ↦ X⊗X, I⊗X ↦ I⊗X, I⊗Z ↦ Z⊗Z.
        let cx = Gate::Cx.clifford_action().expect("CX is Clifford");
        assert_eq!(
            cx.image(&[Pauli::Z, Pauli::I]),
            (false, vec![Pauli::Z, Pauli::I])
        );
        assert_eq!(
            cx.image(&[Pauli::X, Pauli::I]),
            (false, vec![Pauli::X, Pauli::X])
        );
        assert_eq!(
            cx.image(&[Pauli::I, Pauli::X]),
            (false, vec![Pauli::I, Pauli::X])
        );
        assert_eq!(
            cx.image(&[Pauli::I, Pauli::Z]),
            (false, vec![Pauli::Z, Pauli::Z])
        );
    }

    /// The parameterless gates, in [`Gate::fixed_slot`] order.
    fn parameterless_gates() -> [Gate; FIXED_GATES] {
        [
            Gate::I,
            Gate::H,
            Gate::X,
            Gate::Y,
            Gate::Z,
            Gate::S,
            Gate::Sdg,
            Gate::T,
            Gate::Tdg,
            Gate::Sx,
            Gate::Cx,
            Gate::Cy,
            Gate::Cz,
            Gate::Ch,
            Gate::Swap,
        ]
    }

    #[test]
    fn every_parameterless_gate_has_its_own_slot() {
        for (slot, g) in parameterless_gates().iter().enumerate() {
            assert_eq!(g.fixed_slot(), Some(slot), "{g}");
        }
        for g in all_fixed_gates() {
            if !parameterless_gates().contains(&g) {
                assert_eq!(g.fixed_slot(), None, "{g}");
            }
        }
        assert_eq!(Gate::Unitary1(Matrix::identity(2)).fixed_slot(), None);
        assert_eq!(Gate::Unitary2(Matrix::identity(4)).fixed_slot(), None);
    }

    #[test]
    fn tabulated_clifford_actions_match_the_numeric_routine() {
        for g in parameterless_gates() {
            let first = g.clifford_action();
            assert_eq!(
                first.as_deref(),
                g.numeric_clifford_action().as_ref(),
                "{g}"
            );
            // A second call borrows the very same table.
            let second = g.clifford_action();
            assert_eq!(first, second, "{g}");
            match (first, second) {
                (Some(Cow::Borrowed(a)), Some(Cow::Borrowed(b))) => {
                    assert!(std::ptr::eq(a, b), "{g}: two tables")
                }
                (None, None) => {}
                other => panic!("{g}: not a borrowed table: {other:?}"),
            }
        }
    }

    #[test]
    fn parameterised_clifford_actions_follow_the_angle() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x0c1f);
        let random: [f64; 2] = [rng.gen_range(-7.0..7.0), rng.gen_range(-7.0..7.0)];
        let quarter_turns = (0..=8).map(|k| f64::from(k) * std::f64::consts::FRAC_PI_4);
        let families: [fn(f64) -> Gate; 8] = [
            Gate::Rx,
            Gate::Ry,
            Gate::Rz,
            Gate::Phase,
            Gate::Crx,
            Gate::Cry,
            Gate::Crz,
            Gate::CPhase,
        ];
        let mut cliffords = 0;
        for theta in quarter_turns.chain(random) {
            for family in families {
                let g = family(theta);
                let action = g.clifford_action();
                assert_eq!(
                    action.as_deref(),
                    g.numeric_clifford_action().as_ref(),
                    "{g}"
                );
                assert_eq!(action, g.clifford_action(), "{g}: second call");
                cliffords += usize::from(action.is_some());
            }
        }
        // Both answers occur, so the angle, not the variant, decides.
        assert!(cliffords > 0 && cliffords < 11 * families.len());
        assert!(Gate::Rz(std::f64::consts::FRAC_PI_2)
            .clifford_action()
            .is_some());
        assert!(Gate::Rz(random[0]).clifford_action().is_none());
    }

    #[test]
    fn clifford_action_identity_string_is_fixed() {
        for g in all_fixed_gates() {
            if let Some(a) = g.clifford_action() {
                let id = vec![Pauli::I; a.arity()];
                assert_eq!(a.image(&id), (false, id.clone()), "{g}");
            }
        }
    }

    #[test]
    fn diagonal_gate_classification() {
        assert!(Gate::Z.is_diagonal());
        assert!(Gate::S.is_diagonal());
        assert!(Gate::T.is_diagonal());
        assert!(Gate::Rz(0.3).is_diagonal());
        assert!(Gate::Cz.is_diagonal());
        assert!(Gate::Crz(0.8).is_diagonal());
        assert!(Gate::CPhase(1.2).is_diagonal());
        assert!(!Gate::H.is_diagonal());
        assert!(!Gate::X.is_diagonal());
        assert!(!Gate::Cx.is_diagonal());
        assert!(!Gate::Swap.is_diagonal());
        // Numeric fallback: U3(0, φ, λ) is diagonal, generic U3 is not.
        assert!(Gate::U3(0.0, 0.4, 1.3).is_diagonal());
        assert!(!Gate::U3(0.5, 0.4, 1.3).is_diagonal());
        assert!(Gate::Unitary2(Gate::Cz.matrix()).is_diagonal());
    }

    #[test]
    fn diagonal_gates_have_diagonal_matrices() {
        for g in all_fixed_gates() {
            let m = g.matrix();
            let structurally_diagonal =
                (0..m.rows()).all(|i| (0..m.cols()).all(|j| i == j || m[(i, j)].abs() < 1e-12));
            assert_eq!(g.is_diagonal(), structurally_diagonal, "{g}");
        }
    }

    #[test]
    fn cz_is_symmetric_in_its_qubits() {
        let cz = Gate::Cz.matrix();
        // CZ = diag(1,1,1,-1) regardless of which qubit is "control".
        let want = Matrix::from_real(
            4,
            4,
            &[
                1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, -1.0,
            ],
        );
        assert!(cz.approx_eq(&want, TOL_STRICT));
    }
}
