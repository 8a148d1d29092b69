//! The circuit IR: an ordered list of gate applications on `n` qubits.
//!
//! Deliberately simple — cutting operates on the instruction list and on
//! per-wire timelines (see [`crate::dag`]), and the simulators consume the
//! instruction stream directly.
//!
//! Every [`Circuit`] is well formed by construction: each instruction has
//! its gate's arity of operands, all inside the register, and a two-qubit
//! gate acts on two different qubits. [`Circuit::push`] (with its
//! builder conveniences) panics on a malformed instruction, and
//! [`Circuit::from_instructions`], the seam for IR built elsewhere,
//! returns a [`MalformedInstruction`]. Downstream stages (fragmenting,
//! analysis, the backends and simulators) rely on this and never check
//! it again.

use crate::gate::Gate;
use qcut_math::Matrix;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One gate application: a gate plus the qubits it acts on.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct Instruction {
    /// The gate.
    pub gate: Gate,
    /// Qubit operands; `qubits.len() == gate.arity()`. For controlled gates
    /// the first entry is the control.
    pub qubits: Vec<usize>,
}

impl Instruction {
    /// Creates an instruction.
    ///
    /// # Panics
    /// Panics on a wrong operand count or a two-qubit gate on one qubit
    /// twice: the register-independent half of the rule
    /// [`Circuit::from_instructions`] checks.
    pub fn new(gate: Gate, qubits: Vec<usize>) -> Self {
        let inst = Instruction { gate, qubits };
        // No register yet: every operand index a register could hold is in range.
        let problem = inst.malformation(usize::MAX);
        assert!(problem.is_none(), "{}", problem.unwrap_or_default());
        inst
    }

    /// The well-formedness rule, written once: why this instruction cannot
    /// act on a `num_qubits`-qubit register (a wrong operand count, an
    /// operand outside the register, or a two-qubit gate on one qubit
    /// twice, checked in that order), or `None` when it can.
    fn malformation(&self, num_qubits: usize) -> Option<String> {
        let arity = self.gate.arity();
        if self.qubits.len() != arity {
            Some(format!(
                "gate {} expects {arity} qubits, got {}",
                self.gate,
                self.qubits.len()
            ))
        } else if let Some(&q) = self.qubits.iter().find(|&&q| q >= num_qubits) {
            Some(format!(
                "qubit {q} out of range for {num_qubits}-qubit circuit"
            ))
        } else if arity == 2 && self.qubits[0] == self.qubits[1] {
            Some(format!("two-qubit gate {} on identical qubits", self.gate))
        } else {
            None
        }
    }

    /// True if this instruction touches `qubit`.
    pub fn acts_on(&self, qubit: usize) -> bool {
        self.qubits.contains(&qubit)
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ", self.gate)?;
        let qs: Vec<String> = self.qubits.iter().map(|q| format!("q{q}")).collect();
        write!(f, "{}", qs.join(", "))
    }
}

/// A quantum circuit: `num_qubits` wires and an ordered instruction list.
/// All qubits start in `|0>`; measurement is implicit (the simulators and
/// backends measure every qubit in the computational basis at the end).
#[derive(Clone, PartialEq, Debug, Default, Serialize, Deserialize)]
pub struct Circuit {
    num_qubits: usize,
    instructions: Vec<Instruction>,
}

impl Circuit {
    /// An empty circuit on `n` qubits.
    pub fn new(num_qubits: usize) -> Self {
        Circuit {
            num_qubits,
            instructions: Vec::new(),
        }
    }

    /// Number of qubits.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The instruction list in program order.
    #[inline]
    pub fn instructions(&self) -> &[Instruction] {
        &self.instructions
    }

    /// Number of instructions.
    #[inline]
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// True when the circuit has no instructions.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    /// Appends a gate application.
    ///
    /// # Panics
    /// Panics on an instruction [`Circuit::from_instructions`] would
    /// reject.
    pub fn push(&mut self, gate: Gate, qubits: &[usize]) -> &mut Self {
        let inst = Instruction {
            gate,
            qubits: qubits.to_vec(),
        };
        let problem = inst.malformation(self.num_qubits);
        assert!(problem.is_none(), "{}", problem.unwrap_or_default());
        self.instructions.push(inst);
        self
    }

    /// Builds a circuit from raw instructions: the import seam for IR
    /// produced elsewhere (the warm-cache file decoder, QASM bridges,
    /// fuzzers). Every instruction must name exactly its gate's arity of
    /// operands, all inside the `num_qubits`-qubit register, and a
    /// two-qubit gate two different qubits. [`Circuit::push`] enforces
    /// the same rule, so every `Circuit` value is well formed and no later
    /// stage checks it again.
    ///
    /// # Errors
    /// [`MalformedInstruction`] naming the first instruction that breaks
    /// the rule.
    pub fn from_instructions(
        num_qubits: usize,
        instructions: Vec<Instruction>,
    ) -> Result<Self, MalformedInstruction> {
        for (index, inst) in instructions.iter().enumerate() {
            if let Some(reason) = inst.malformation(num_qubits) {
                return Err(MalformedInstruction { index, reason });
            }
        }
        Ok(Circuit {
            num_qubits,
            instructions,
        })
    }

    // ------------------------------------------------------------------
    // Builder conveniences (chainable).
    // ------------------------------------------------------------------

    /// Hadamard on `q`.
    pub fn h(&mut self, q: usize) -> &mut Self {
        self.push(Gate::H, &[q])
    }
    /// Pauli-X on `q`.
    pub fn x(&mut self, q: usize) -> &mut Self {
        self.push(Gate::X, &[q])
    }
    /// Pauli-Y on `q`.
    pub fn y(&mut self, q: usize) -> &mut Self {
        self.push(Gate::Y, &[q])
    }
    /// Pauli-Z on `q`.
    pub fn z(&mut self, q: usize) -> &mut Self {
        self.push(Gate::Z, &[q])
    }
    /// S gate on `q`.
    pub fn s(&mut self, q: usize) -> &mut Self {
        self.push(Gate::S, &[q])
    }
    /// S† gate on `q`.
    pub fn sdg(&mut self, q: usize) -> &mut Self {
        self.push(Gate::Sdg, &[q])
    }
    /// T gate on `q`.
    pub fn t(&mut self, q: usize) -> &mut Self {
        self.push(Gate::T, &[q])
    }
    /// RX rotation on `q`.
    pub fn rx(&mut self, theta: f64, q: usize) -> &mut Self {
        self.push(Gate::Rx(theta), &[q])
    }
    /// RY rotation on `q`.
    pub fn ry(&mut self, theta: f64, q: usize) -> &mut Self {
        self.push(Gate::Ry(theta), &[q])
    }
    /// RZ rotation on `q`.
    pub fn rz(&mut self, theta: f64, q: usize) -> &mut Self {
        self.push(Gate::Rz(theta), &[q])
    }
    /// CNOT with `control`, `target`.
    pub fn cx(&mut self, control: usize, target: usize) -> &mut Self {
        self.push(Gate::Cx, &[control, target])
    }
    /// CZ on `(a, b)`.
    pub fn cz(&mut self, a: usize, b: usize) -> &mut Self {
        self.push(Gate::Cz, &[a, b])
    }
    /// SWAP on `(a, b)`.
    pub fn swap(&mut self, a: usize, b: usize) -> &mut Self {
        self.push(Gate::Swap, &[a, b])
    }
    /// Arbitrary 1-qubit unitary on `q`.
    pub fn unitary1(&mut self, m: Matrix, q: usize) -> &mut Self {
        assert!(m.is_unitary(1e-8), "unitary1 matrix is not unitary");
        self.push(Gate::Unitary1(m), &[q])
    }
    /// Arbitrary 2-qubit unitary on `(a, b)` (a = bit 0 of the matrix index).
    pub fn unitary2(&mut self, m: Matrix, a: usize, b: usize) -> &mut Self {
        assert!(m.is_unitary(1e-8), "unitary2 matrix is not unitary");
        self.push(Gate::Unitary2(m), &[a, b])
    }

    // ------------------------------------------------------------------
    // Composition and transformation.
    // ------------------------------------------------------------------

    /// Appends all instructions of `other` (same qubit indices).
    ///
    /// # Panics
    /// Panics if `other` uses more qubits than `self`.
    pub fn extend(&mut self, other: &Circuit) -> &mut Self {
        assert!(
            other.num_qubits <= self.num_qubits,
            "cannot extend a {}-qubit circuit with a {}-qubit circuit",
            self.num_qubits,
            other.num_qubits
        );
        self.instructions.extend(other.instructions.iter().cloned());
        self
    }

    /// Appends `other` with all its qubit indices shifted by `offset`.
    pub fn extend_shifted(&mut self, other: &Circuit, offset: usize) -> &mut Self {
        assert!(
            other.num_qubits + offset <= self.num_qubits,
            "shifted circuit does not fit"
        );
        for inst in &other.instructions {
            let qubits: Vec<usize> = inst.qubits.iter().map(|q| q + offset).collect();
            self.push(inst.gate.clone(), &qubits);
        }
        self
    }

    /// Appends `other` with qubits remapped through `map` (`map[i]` = new
    /// index of `other`'s qubit `i`).
    pub fn extend_mapped(&mut self, other: &Circuit, map: &[usize]) -> &mut Self {
        assert_eq!(map.len(), other.num_qubits, "qubit map length mismatch");
        for inst in &other.instructions {
            let qubits: Vec<usize> = inst.qubits.iter().map(|q| map[*q]).collect();
            self.push(inst.gate.clone(), &qubits);
        }
        self
    }

    /// The adjoint circuit (reversed instruction order, each gate inverted).
    pub fn adjoint(&self) -> Circuit {
        let mut out = Circuit::new(self.num_qubits);
        for inst in self.instructions.iter().rev() {
            out.instructions
                .push(Instruction::new(inst.gate.adjoint(), inst.qubits.clone()));
        }
        out
    }

    /// Full unitary matrix of the circuit (`2^n × 2^n`). Intended for tests
    /// and small fragments only — O(4^n) memory.
    pub fn unitary(&self) -> Matrix {
        let dim = 1usize << self.num_qubits;
        let mut u = Matrix::identity(dim);
        for inst in &self.instructions {
            let g = inst.gate.matrix();
            let full = match inst.qubits.len() {
                1 => Matrix::embed_one_qubit(&g, self.num_qubits, inst.qubits[0]),
                2 => Matrix::embed_two_qubit(&g, self.num_qubits, inst.qubits[0], inst.qubits[1]),
                _ => unreachable!("gates are 1- or 2-qubit"),
            };
            u = full.matmul(&u);
        }
        u
    }

    /// A structural fingerprint of the circuit: two circuits hash equal iff
    /// they have the same width and the same instruction list (gate kinds,
    /// exact parameter bits, operand order). Used by the execution engine to
    /// deduplicate identical subcircuit jobs before they reach a backend;
    /// callers must still confirm with `==` on a hash match (FNV-1a over the
    /// instruction stream — collisions are unlikely but possible).
    pub fn structural_hash(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_u64(self.num_qubits as u64);
        for inst in &self.instructions {
            hash_instruction(inst, &mut h);
        }
        h.finish()
    }

    /// Structural hashes of every instruction prefix: `chain[p]`
    /// fingerprints the circuit width plus the first `p` instructions, so
    /// `chain[len()]` equals [`Circuit::structural_hash`] and two circuits
    /// of equal width share `chain[p]` iff their first `p` instructions are
    /// structurally identical (up to FNV collisions — confirm with `==` on
    /// the instructions, as the prefix-sharing trie does). Built in one
    /// pass over the same FNV-1a stream as the full hash.
    pub fn prefix_hash_chain(&self) -> Vec<u64> {
        let mut h = Fnv1a::new();
        h.write_u64(self.num_qubits as u64);
        let mut chain = Vec::with_capacity(self.instructions.len() + 1);
        chain.push(h.finish());
        for inst in &self.instructions {
            hash_instruction(inst, &mut h);
            chain.push(h.finish());
        }
        chain
    }

    /// Length of the longest common instruction prefix with `other`
    /// (0 when the widths differ — prefixes of different-width circuits
    /// are never interchangeable).
    pub fn shared_prefix_len(&self, other: &Circuit) -> usize {
        if self.num_qubits != other.num_qubits {
            return 0;
        }
        self.instructions
            .iter()
            .zip(&other.instructions)
            .take_while(|(a, b)| a == b)
            .count()
    }

    /// Circuit depth: the longest chain of instructions sharing wires.
    pub fn depth(&self) -> usize {
        let mut level = vec![0usize; self.num_qubits];
        let mut depth = 0;
        for inst in &self.instructions {
            let l = inst.qubits.iter().map(|&q| level[q]).max().unwrap_or(0) + 1;
            for &q in &inst.qubits {
                level[q] = l;
            }
            depth = depth.max(l);
        }
        depth
    }

    /// Number of two-qubit instructions.
    pub fn two_qubit_gate_count(&self) -> usize {
        self.instructions
            .iter()
            .filter(|i| i.qubits.len() == 2)
            .count()
    }

    /// Per-wire instruction indices: `timeline[q]` lists the indices of
    /// instructions acting on qubit `q`, in program order.
    pub fn wire_timelines(&self) -> Vec<Vec<usize>> {
        let mut tl = vec![Vec::new(); self.num_qubits];
        for (i, inst) in self.instructions.iter().enumerate() {
            for &q in &inst.qubits {
                tl[q].push(i);
            }
        }
        tl
    }

    /// True when every gate in the circuit has a real matrix (the circuit
    /// then maps real states to real states — the golden-Y mechanism).
    pub fn is_real(&self) -> bool {
        self.instructions.iter().all(|i| i.gate.is_real())
    }

    /// Qubits with at least one instruction.
    pub fn active_qubits(&self) -> Vec<usize> {
        let mut active = vec![false; self.num_qubits];
        for inst in &self.instructions {
            for &q in &inst.qubits {
                active[q] = true;
            }
        }
        (0..self.num_qubits).filter(|&q| active[q]).collect()
    }

    /// Qubits without any instruction (the complement of
    /// [`Circuit::active_qubits`]) — the wires the idle-qubit lint and
    /// [`crate::cut::CutSpec::validate`]'s bipartition check care about.
    pub fn idle_qubits(&self) -> Vec<usize> {
        let active = self.active_qubits();
        (0..self.num_qubits)
            .filter(|q| !active.contains(q))
            .collect()
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "circuit({} qubits, {} gates):",
            self.num_qubits,
            self.len()
        )?;
        for inst in &self.instructions {
            writeln!(f, "  {inst}")?;
        }
        Ok(())
    }
}

/// Why [`Circuit::from_instructions`] rejected an instruction list: the
/// first instruction that cannot act on the register, and why.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MalformedInstruction {
    /// Position of the instruction in the list.
    pub index: usize,
    /// The broken rule: wrong arity, operand out of range, or a two-qubit
    /// gate on identical qubits.
    pub reason: String,
}

impl fmt::Display for MalformedInstruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed instruction #{}: {}", self.index, self.reason)
    }
}

impl std::error::Error for MalformedInstruction {}

/// 64-bit FNV-1a accumulator for [`Circuit::structural_hash`]. A tiny local
/// hasher (rather than `std::hash`) because `Gate` carries `f64` parameters
/// and `Matrix` payloads, neither of which implement `Hash`.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf29ce484222325)
    }

    fn write_u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Feeds one instruction (gate + operands) into the hash stream.
fn hash_instruction(inst: &Instruction, h: &mut Fnv1a) {
    hash_gate(&inst.gate, h);
    for &q in &inst.qubits {
        h.write_u64(q as u64);
    }
}

/// Feeds a gate's variant tag plus its exact parameter bits into the hash.
fn hash_gate(gate: &Gate, h: &mut Fnv1a) {
    let mut matrix = None;
    let (tag, params): (u64, &[f64]) = match gate {
        Gate::I => (0, &[]),
        Gate::H => (1, &[]),
        Gate::X => (2, &[]),
        Gate::Y => (3, &[]),
        Gate::Z => (4, &[]),
        Gate::S => (5, &[]),
        Gate::Sdg => (6, &[]),
        Gate::T => (7, &[]),
        Gate::Tdg => (8, &[]),
        Gate::Sx => (9, &[]),
        Gate::Rx(t) => (10, std::slice::from_ref(t)),
        Gate::Ry(t) => (11, std::slice::from_ref(t)),
        Gate::Rz(t) => (12, std::slice::from_ref(t)),
        Gate::Phase(t) => (13, std::slice::from_ref(t)),
        Gate::U3(_, _, _) => (14, &[]),
        Gate::Unitary1(m) => {
            matrix = Some(m);
            (15, &[])
        }
        Gate::Cx => (16, &[]),
        Gate::Cy => (17, &[]),
        Gate::Cz => (18, &[]),
        Gate::Ch => (19, &[]),
        Gate::Swap => (20, &[]),
        Gate::Crx(t) => (21, std::slice::from_ref(t)),
        Gate::Cry(t) => (22, std::slice::from_ref(t)),
        Gate::Crz(t) => (23, std::slice::from_ref(t)),
        Gate::CPhase(t) => (24, std::slice::from_ref(t)),
        Gate::Unitary2(m) => {
            matrix = Some(m);
            (25, &[])
        }
    };
    h.write_u64(tag);
    if let Gate::U3(theta, phi, lambda) = gate {
        h.write_f64(*theta);
        h.write_f64(*phi);
        h.write_f64(*lambda);
    }
    for &p in params {
        h.write_f64(p);
    }
    if let Some(m) = matrix {
        for c in m.as_slice() {
            h.write_f64(c.re);
            h.write_f64(c.im);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcut_math::{c64, TOL_STRICT};

    #[test]
    fn builder_chains_and_counts() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2).rz(0.5, 2);
        assert_eq!(c.len(), 4);
        assert_eq!(c.num_qubits(), 3);
        assert_eq!(c.two_qubit_gate_count(), 2);
        assert_eq!(c.depth(), 4); // h -> cx01 -> cx12 -> rz (all chained on shared wires)
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn push_rejects_out_of_range_qubit() {
        Circuit::new(2).h(2);
    }

    #[test]
    #[should_panic(expected = "identical qubits")]
    fn push_rejects_duplicate_operands() {
        Circuit::new(2).cx(1, 1);
    }

    #[test]
    fn from_instructions_rejects_each_malformed_shape() {
        let h = |q| Instruction::new(Gate::H, vec![q]);
        let raw = |gate, qubits| Instruction { gate, qubits };
        let shapes = [
            (raw(Gate::Cx, vec![0]), "cx expects 2 qubits, got 1"),
            (raw(Gate::H, vec![0, 1]), "h expects 1 qubits, got 2"),
            (
                raw(Gate::H, vec![5]),
                "qubit 5 out of range for 2-qubit circuit",
            ),
            (raw(Gate::Cx, vec![0, 2]), "qubit 2 out of range"),
            (
                raw(Gate::Cx, vec![1, 1]),
                "two-qubit gate cx on identical qubits",
            ),
        ];
        for (bad, why) in shapes {
            // The first offending instruction is named, whatever follows.
            let insts = vec![h(0), h(1), bad.clone(), raw(Gate::H, vec![9])];
            let err = Circuit::from_instructions(2, insts).unwrap_err();
            assert_eq!(err.index, 2, "{bad}");
            assert!(err.reason.contains(why), "{bad}: {}", err.reason);
            assert!(err.to_string().starts_with("malformed instruction #2: "));
        }
        // An out-of-range operand is reported before a repeated one.
        let err = Circuit::from_instructions(2, vec![raw(Gate::Cx, vec![3, 3])]).unwrap_err();
        assert!(err.reason.contains("out of range"), "{}", err.reason);

        let mut built = Circuit::new(2);
        built.h(0).cx(0, 1);
        let rebuilt =
            Circuit::from_instructions(2, vec![h(0), Instruction::new(Gate::Cx, vec![0, 1])]);
        assert_eq!(rebuilt, Ok(built));
        assert_eq!(
            Circuit::from_instructions(3, Vec::new()),
            Ok(Circuit::new(3))
        );
    }

    #[test]
    #[should_panic(expected = "expects 2 qubits, got 1")]
    fn instruction_new_rejects_a_wrong_arity() {
        Instruction::new(Gate::Cx, vec![0]);
    }

    #[test]
    fn bell_circuit_unitary() {
        use qcut_math::Complex;
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let u = c.unitary();
        // U|00> = (|00> + |11>)/√2
        let v = u.matvec(&[Complex::ONE, Complex::ZERO, Complex::ZERO, Complex::ZERO]);
        let s = std::f64::consts::FRAC_1_SQRT_2;
        assert!(v[0].approx_eq(c64(s, 0.0), TOL_STRICT));
        assert!(v[3].approx_eq(c64(s, 0.0), TOL_STRICT));
        assert!(v[1].abs() < TOL_STRICT && v[2].abs() < TOL_STRICT);
    }

    #[test]
    fn adjoint_composes_to_identity() {
        let mut c = Circuit::new(2);
        c.h(0).t(1).cx(0, 1).rz(0.37, 0).s(1);
        let mut both = c.clone();
        both.extend(&c.adjoint());
        let u = both.unitary();
        assert!(u.approx_eq(&Matrix::identity(4), 1e-9));
    }

    #[test]
    fn extend_shifted_remaps_qubits() {
        let mut inner = Circuit::new(2);
        inner.cx(0, 1);
        let mut outer = Circuit::new(4);
        outer.extend_shifted(&inner, 2);
        assert_eq!(outer.instructions()[0].qubits, vec![2, 3]);
    }

    #[test]
    fn extend_mapped_remaps_arbitrarily() {
        let mut inner = Circuit::new(2);
        inner.cx(0, 1).h(0);
        let mut outer = Circuit::new(3);
        outer.extend_mapped(&inner, &[2, 0]);
        assert_eq!(outer.instructions()[0].qubits, vec![2, 0]);
        assert_eq!(outer.instructions()[1].qubits, vec![2]);
    }

    #[test]
    fn unitary_respects_gate_order() {
        // X then H differs from H then X.
        let mut xh = Circuit::new(1);
        xh.x(0).h(0);
        let mut hx = Circuit::new(1);
        hx.h(0).x(0);
        assert!(xh.unitary().max_abs_diff(&hx.unitary()) > 0.1);
        // And matches the matrix product H * X (applied right-to-left).
        let want = Gate::H.matrix().matmul(&Gate::X.matrix());
        assert!(xh.unitary().approx_eq(&want, TOL_STRICT));
    }

    #[test]
    fn wire_timelines_track_instruction_indices() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2).h(1);
        let tl = c.wire_timelines();
        assert_eq!(tl[0], vec![0, 1]);
        assert_eq!(tl[1], vec![1, 2, 3]);
        assert_eq!(tl[2], vec![2]);
    }

    #[test]
    fn is_real_classification() {
        let mut real = Circuit::new(2);
        real.h(0).ry(0.4, 1).cx(0, 1).cz(0, 1);
        assert!(real.is_real());
        let mut complex = real.clone();
        complex.rx(0.1, 0);
        assert!(!complex.is_real());
    }

    #[test]
    fn active_qubits_skips_idle_wires() {
        let mut c = Circuit::new(4);
        c.h(0).cx(0, 2);
        assert_eq!(c.active_qubits(), vec![0, 2]);
    }

    #[test]
    fn depth_of_parallel_gates_is_one() {
        let mut c = Circuit::new(3);
        c.h(0).h(1).h(2);
        assert_eq!(c.depth(), 1);
    }

    #[test]
    fn display_lists_instructions() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let text = c.to_string();
        assert!(text.contains("h q0"));
        assert!(text.contains("cx q0, q1"));
    }

    #[test]
    fn structural_hash_matches_iff_structurally_equal() {
        let mut a = Circuit::new(3);
        a.h(0).cx(0, 1).rz(0.5, 2);
        let b = a.clone();
        assert_eq!(a.structural_hash(), b.structural_hash());

        // Different parameter, operand order, gate, or width all change it.
        let mut param = Circuit::new(3);
        param.h(0).cx(0, 1).rz(0.5000001, 2);
        assert_ne!(a.structural_hash(), param.structural_hash());
        let mut flipped = Circuit::new(3);
        flipped.h(0).cx(1, 0).rz(0.5, 2);
        assert_ne!(a.structural_hash(), flipped.structural_hash());
        let mut gate = Circuit::new(3);
        gate.h(0).cz(0, 1).rz(0.5, 2);
        assert_ne!(a.structural_hash(), gate.structural_hash());
        let mut wider = Circuit::new(4);
        wider.h(0).cx(0, 1).rz(0.5, 2);
        assert_ne!(a.structural_hash(), wider.structural_hash());
    }

    #[test]
    fn prefix_hash_chain_extends_the_structural_hash() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).rz(0.5, 2).cx(1, 2);
        let chain = c.prefix_hash_chain();
        assert_eq!(chain.len(), c.len() + 1);
        // The last link is the full structural hash.
        assert_eq!(chain[c.len()], c.structural_hash());
        // Every link is the structural hash of the truncated circuit.
        for (p, &link) in chain.iter().enumerate() {
            let mut prefix = Circuit::new(3);
            for inst in &c.instructions()[..p] {
                prefix.push(inst.gate.clone(), &inst.qubits);
            }
            assert_eq!(link, prefix.structural_hash(), "prefix {p}");
        }
    }

    #[test]
    fn prefix_hash_chain_diverges_where_circuits_do() {
        let mut a = Circuit::new(2);
        a.h(0).cx(0, 1).s(1);
        let mut b = Circuit::new(2);
        b.h(0).cx(0, 1).t(1);
        let (ca, cb) = (a.prefix_hash_chain(), b.prefix_hash_chain());
        assert_eq!(&ca[..3], &cb[..3], "shared prefix must share hashes");
        assert_ne!(ca[3], cb[3], "divergent instruction must change the hash");
        assert_eq!(a.shared_prefix_len(&b), 2);
    }

    #[test]
    fn shared_prefix_len_is_zero_across_widths() {
        let mut a = Circuit::new(2);
        a.h(0);
        let mut b = Circuit::new(3);
        b.h(0);
        assert_eq!(a.shared_prefix_len(&b), 0);
        assert_eq!(a.shared_prefix_len(&a.clone()), 1);
    }

    #[test]
    fn structural_hash_distinguishes_parametrised_variants() {
        // Gate-kind tags keep Rx(t) and Ry(t) apart even with equal angles,
        // and unitary payload bits participate in the hash.
        let mut rx = Circuit::new(1);
        rx.rx(0.3, 0);
        let mut ry = Circuit::new(1);
        ry.ry(0.3, 0);
        assert_ne!(rx.structural_hash(), ry.structural_hash());

        let mut u_h = Circuit::new(1);
        u_h.unitary1(Gate::H.matrix(), 0);
        let mut u_x = Circuit::new(1);
        u_x.unitary1(Gate::X.matrix(), 0);
        assert_ne!(u_h.structural_hash(), u_x.structural_hash());
        let mut u_h2 = Circuit::new(1);
        u_h2.unitary1(Gate::H.matrix(), 0);
        assert_eq!(u_h.structural_hash(), u_h2.structural_hash());
    }
}
