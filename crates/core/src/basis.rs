//! Basis bookkeeping for the cutting protocol.
//!
//! For `K` cuts the upstream fragment is measured in one of `3^K` basis
//! settings (`{X, Y, Z}` per cut) and the downstream fragment prepared in
//! one of `6^K` eigenstate combinations. The reconstruction sum runs over
//! Pauli strings `M ∈ {I, X, Y, Z}^K`. A golden cut removes a basis from
//! all three enumerations: `3 → 2` measurement settings, `6 → 4`
//! preparations, `4 → 3` reconstruction values (paper §II-B). The paper
//! notes "there can be … multiple negligible bases in one cut", so the
//! plan stores a *set* of neglected bases per cut.

use qcut_math::{Pauli, PrepState};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A measurement basis on one cut qubit.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord, Serialize, Deserialize)]
pub enum MeasBasis {
    /// Measure in the X basis.
    X,
    /// Measure in the Y basis.
    Y,
    /// Measure in the Z basis (also yields the identity coefficients).
    Z,
}

impl MeasBasis {
    /// All three settings.
    pub const ALL: [MeasBasis; 3] = [MeasBasis::X, MeasBasis::Y, MeasBasis::Z];

    /// The underlying Pauli.
    pub fn pauli(self) -> Pauli {
        match self {
            MeasBasis::X => Pauli::X,
            MeasBasis::Y => Pauli::Y,
            MeasBasis::Z => Pauli::Z,
        }
    }

    /// The setting that measures a given reconstruction Pauli: `I` shares
    /// the `Z` setting (the identity coefficient is the marginal of the
    /// Z-basis data).
    pub fn for_pauli(p: Pauli) -> MeasBasis {
        match p {
            Pauli::I | Pauli::Z => MeasBasis::Z,
            Pauli::X => MeasBasis::X,
            Pauli::Y => MeasBasis::Y,
        }
    }
}

impl fmt::Display for MeasBasis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.pauli())
    }
}

/// Which bases are active per cut once golden cuts are taken into account.
/// `neglected[k]` is the set of bases skipped at cut `k` (usually empty or
/// one element; the identity is never allowed in it).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BasisPlan {
    neglected: Vec<Vec<Pauli>>,
}

impl BasisPlan {
    /// The standard (no neglect) plan for `K` cuts.
    pub fn standard(num_cuts: usize) -> Self {
        BasisPlan {
            neglected: vec![Vec::new(); num_cuts],
        }
    }

    /// A plan with one optional neglected basis per cut (the common case).
    pub fn with_neglected(neglected: Vec<Option<Pauli>>) -> Self {
        let mut plan = Self::standard(neglected.len());
        for (k, n) in neglected.into_iter().enumerate() {
            if let Some(p) = n {
                plan.neglect(k, p);
            }
        }
        plan
    }

    /// Marks `basis` as negligible at `cut`.
    ///
    /// # Panics
    /// Panics on `Pauli::I` (the identity carries the normalisation and can
    /// never be dropped) and when all three bases of a cut would be gone.
    pub fn neglect(&mut self, cut: usize, basis: Pauli) {
        assert!(
            self.try_neglect(cut, basis),
            "cannot neglect {basis} at cut {cut}: the identity basis can never be \
             dropped, nor all three bases of a cut"
        );
    }

    /// Non-panicking [`Self::neglect`]: marks `basis` as negligible at
    /// `cut` when legal, returning whether the plan now neglects it.
    /// Illegal requests — dropping the identity, or emptying a cut's last
    /// surviving pair — leave the plan unchanged and return `false`.
    /// Degraded-reconstruction salvage uses this to probe which settings a
    /// damaged run can still drop without making the frame unsolvable.
    #[must_use]
    pub fn try_neglect(&mut self, cut: usize, basis: Pauli) -> bool {
        if basis == Pauli::I || cut >= self.neglected.len() {
            return false;
        }
        let set = &mut self.neglected[cut];
        if set.contains(&basis) {
            return true;
        }
        if set.len() >= 2 {
            return false;
        }
        set.push(basis);
        set.sort_unstable();
        true
    }

    /// Number of cuts.
    pub fn num_cuts(&self) -> usize {
        self.neglected.len()
    }

    /// The neglected bases per cut.
    pub fn neglected(&self) -> &[Vec<Pauli>] {
        &self.neglected
    }

    /// Number of golden cuts `K_g` (cuts with at least one neglected basis).
    pub fn num_golden(&self) -> usize {
        self.neglected.iter().filter(|n| !n.is_empty()).count()
    }

    /// Measurement bases available at cut `k` (3 regular, 2 golden, 1 if
    /// two bases are negligible).
    pub fn meas_bases(&self, cut: usize) -> Vec<MeasBasis> {
        MeasBasis::ALL
            .into_iter()
            .filter(|b| !self.neglected[cut].contains(&b.pauli()))
            .collect()
    }

    /// Preparation states available at cut `k` (6 regular, 4 golden, …).
    pub fn prep_states(&self, cut: usize) -> Vec<PrepState> {
        PrepState::ALL
            .into_iter()
            .filter(|s| !self.neglected[cut].contains(&s.pauli()))
            .collect()
    }

    /// Reconstruction Paulis at cut `k` (`I` plus the surviving bases).
    pub fn recon_paulis(&self, cut: usize) -> Vec<Pauli> {
        Pauli::ALL
            .into_iter()
            .filter(|p| !self.neglected[cut].contains(p))
            .collect()
    }

    /// All measurement settings: cartesian product over cuts
    /// (`3^{K_r} 2^{K_g}` for single-basis golden cuts).
    pub fn all_meas_settings(&self) -> Vec<Vec<MeasBasis>> {
        cartesian((0..self.num_cuts()).map(|k| self.meas_bases(k)))
    }

    /// All preparation settings (`6^{K_r} 4^{K_g}`).
    pub fn all_prep_settings(&self) -> Vec<Vec<PrepState>> {
        cartesian((0..self.num_cuts()).map(|k| self.prep_states(k)))
    }

    /// All reconstruction Pauli strings (`4^{K_r} 3^{K_g}`).
    pub fn all_recon_strings(&self) -> Vec<Vec<Pauli>> {
        cartesian((0..self.num_cuts()).map(|k| self.recon_paulis(k)))
    }

    /// Total subcircuit settings: upstream + downstream
    /// (`3^{K_r} 2^{K_g} + 6^{K_r} 4^{K_g}`; the paper's single-cut case is
    /// `3 + 6 = 9` standard vs `2 + 4 = 6` golden — the 33 % saving).
    pub fn total_settings(&self) -> usize {
        self.all_meas_settings().len() + self.all_prep_settings().len()
    }

    /// The measurement setting that estimates a given reconstruction string.
    ///
    /// The identity coefficient is the marginal over the cut outcome, so it
    /// can be read off *any* scheduled basis; we use `Z` by convention and
    /// fall back to the first surviving basis when `Z` itself is neglected.
    pub fn setting_for(&self, m: &[Pauli]) -> Vec<MeasBasis> {
        m.iter()
            .enumerate()
            .map(|(k, &p)| match p {
                Pauli::I => {
                    let avail = self.meas_bases(k);
                    if avail.contains(&MeasBasis::Z) {
                        MeasBasis::Z
                    } else {
                        avail[0]
                    }
                }
                _ => MeasBasis::for_pauli(p),
            })
            .collect()
    }

    /// The signed preparation pair realising Pauli `p` at cut `k`:
    /// `p = Σ weight · |state><state|`. Non-trivial Paulis decompose into
    /// their own eigenstates with weights ±1; the identity decomposes into
    /// the eigenstate pair of any *available* basis with weights +1
    /// (`|0><0| + |1><1| = |+><+| + |-><-| = I`).
    pub fn prep_pair(&self, cut: usize, p: Pauli) -> [(PrepState, f64); 2] {
        match p {
            Pauli::I => {
                let avail = self.meas_bases(cut);
                let basis = if avail.contains(&MeasBasis::Z) {
                    Pauli::Z
                } else {
                    avail[0].pauli()
                };
                let (plus, minus) = PrepState::of_pauli(basis);
                [(plus, 1.0), (minus, 1.0)]
            }
            _ => {
                debug_assert!(
                    !self.neglected[cut].contains(&p),
                    "asked for the prep pair of a neglected basis"
                );
                let (plus, minus) = PrepState::of_pauli(p);
                [(plus, 1.0), (minus, -1.0)]
            }
        }
    }
}

/// Dense encoding of a measurement setting for map keys.
pub fn encode_meas(setting: &[MeasBasis]) -> u64 {
    let mut key = 0u64;
    for &b in setting.iter().rev() {
        key = key * 3
            + match b {
                MeasBasis::X => 0,
                MeasBasis::Y => 1,
                MeasBasis::Z => 2,
            };
    }
    key
}

/// Dense encoding of a preparation setting for map keys.
pub fn encode_prep(setting: &[PrepState]) -> u64 {
    let mut key = 0u64;
    for &s in setting.iter().rev() {
        key = key * 6
            + match s {
                PrepState::Zp => 0,
                PrepState::Zm => 1,
                PrepState::Xp => 2,
                PrepState::Xm => 3,
                PrepState::Yp => 4,
                PrepState::Ym => 5,
            };
    }
    key
}

/// Inverse of [`encode_meas`]: the measurement setting behind a dense key.
/// Needed when walking backwards from an engine consumer key — e.g. a
/// failure record — to the basis settings it served.
pub fn decode_meas(mut key: u64, num_cuts: usize) -> Vec<MeasBasis> {
    let mut setting = Vec::with_capacity(num_cuts);
    for _ in 0..num_cuts {
        setting.push(match key % 3 {
            0 => MeasBasis::X,
            1 => MeasBasis::Y,
            _ => MeasBasis::Z,
        });
        key /= 3;
    }
    setting
}

/// Inverse of [`encode_prep`]: the preparation setting behind a dense key.
pub fn decode_prep(mut key: u64, num_cuts: usize) -> Vec<PrepState> {
    let mut setting = Vec::with_capacity(num_cuts);
    for _ in 0..num_cuts {
        setting.push(match key % 6 {
            0 => PrepState::Zp,
            1 => PrepState::Zm,
            2 => PrepState::Xp,
            3 => PrepState::Xm,
            4 => PrepState::Yp,
            _ => PrepState::Ym,
        });
        key /= 6;
    }
    setting
}

/// Cartesian product of per-position option lists.
pub(crate) fn cartesian<T: Clone, I: Iterator<Item = Vec<T>>>(options: I) -> Vec<Vec<T>> {
    let mut out: Vec<Vec<T>> = vec![Vec::new()];
    for opts in options {
        let mut next = Vec::with_capacity(out.len() * opts.len());
        for prefix in &out {
            for o in &opts {
                let mut v = prefix.clone();
                v.push(o.clone());
                next.push(v);
            }
        }
        out = next;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_plan_counts_match_paper() {
        // Single cut: 3 measurement settings + 6 preparations = 9.
        let plan = BasisPlan::standard(1);
        assert_eq!(plan.all_meas_settings().len(), 3);
        assert_eq!(plan.all_prep_settings().len(), 6);
        assert_eq!(plan.total_settings(), 9);
        assert_eq!(plan.all_recon_strings().len(), 4);
    }

    #[test]
    fn golden_plan_counts_match_paper() {
        // Golden single cut: 2 + 4 = 6 settings — the 33 % reduction.
        let mut plan = BasisPlan::standard(1);
        plan.neglect(0, Pauli::Y);
        assert_eq!(plan.all_meas_settings().len(), 2);
        assert_eq!(plan.all_prep_settings().len(), 4);
        assert_eq!(plan.total_settings(), 6);
        assert_eq!(plan.all_recon_strings().len(), 3);
        assert_eq!(plan.num_golden(), 1);
    }

    #[test]
    fn multi_cut_scaling_exponents() {
        // K = 3 with K_g = 2 golden cuts: 4^1 · 3^2 reconstruction strings,
        // 6^1 · 4^2 preparations (paper §II-B complexity claims).
        let plan = BasisPlan::with_neglected(vec![Some(Pauli::Y), None, Some(Pauli::Y)]);
        assert_eq!(plan.all_recon_strings().len(), 3 * 4 * 3);
        assert_eq!(plan.all_prep_settings().len(), 4 * 6 * 4);
        assert_eq!(plan.all_meas_settings().len(), 2 * 3 * 2);
    }

    #[test]
    fn doubly_golden_cut_supported() {
        // Paper: "multiple negligible bases in one cut".
        let mut plan = BasisPlan::standard(1);
        plan.neglect(0, Pauli::X);
        plan.neglect(0, Pauli::Y);
        assert_eq!(plan.meas_bases(0), vec![MeasBasis::Z]);
        assert_eq!(plan.prep_states(0).len(), 2);
        assert_eq!(plan.all_recon_strings().len(), 2); // I, Z
        assert_eq!(plan.total_settings(), 3);
    }

    #[test]
    #[should_panic(expected = "all three bases")]
    fn cannot_neglect_everything() {
        let mut plan = BasisPlan::standard(1);
        plan.neglect(0, Pauli::X);
        plan.neglect(0, Pauli::Y);
        plan.neglect(0, Pauli::Z);
    }

    #[test]
    fn neglect_is_idempotent() {
        let mut plan = BasisPlan::standard(1);
        plan.neglect(0, Pauli::Y);
        plan.neglect(0, Pauli::Y);
        assert_eq!(plan.neglected()[0], vec![Pauli::Y]);
        assert_eq!(plan.total_settings(), 6);
    }

    #[test]
    fn neglected_basis_is_absent_everywhere() {
        let plan = BasisPlan::with_neglected(vec![Some(Pauli::Y)]);
        assert!(!plan.meas_bases(0).contains(&MeasBasis::Y));
        assert!(!plan.prep_states(0).contains(&PrepState::Yp));
        assert!(!plan.prep_states(0).contains(&PrepState::Ym));
        assert!(!plan.recon_paulis(0).contains(&Pauli::Y));
        // I always survives.
        assert!(plan.recon_paulis(0).contains(&Pauli::I));
    }

    #[test]
    fn neglecting_x_works_too() {
        // Definition 1 is basis-generic; X can be the negligible one.
        let plan = BasisPlan::with_neglected(vec![Some(Pauli::X)]);
        assert_eq!(plan.meas_bases(0), vec![MeasBasis::Y, MeasBasis::Z]);
        assert_eq!(plan.all_prep_settings().len(), 4);
    }

    #[test]
    #[should_panic(expected = "identity basis")]
    fn neglecting_identity_is_rejected() {
        BasisPlan::with_neglected(vec![Some(Pauli::I)]);
    }

    #[test]
    fn setting_for_maps_i_to_z() {
        let plan = BasisPlan::standard(2);
        let setting = plan.setting_for(&[Pauli::I, Pauli::X]);
        assert_eq!(setting, vec![MeasBasis::Z, MeasBasis::X]);
    }

    #[test]
    fn encodings_are_injective() {
        let plan = BasisPlan::standard(3);
        let meas: std::collections::HashSet<u64> = plan
            .all_meas_settings()
            .iter()
            .map(|s| encode_meas(s))
            .collect();
        assert_eq!(meas.len(), 27);
        let preps: std::collections::HashSet<u64> = plan
            .all_prep_settings()
            .iter()
            .map(|s| encode_prep(s))
            .collect();
        assert_eq!(preps.len(), 216);
    }

    #[test]
    fn decode_inverts_encode() {
        let plan = BasisPlan::standard(3);
        for s in plan.all_meas_settings() {
            assert_eq!(decode_meas(encode_meas(&s), 3), s);
        }
        for s in plan.all_prep_settings() {
            assert_eq!(decode_prep(encode_prep(&s), 3), s);
        }
    }

    #[test]
    fn try_neglect_refuses_what_neglect_panics_on() {
        let mut plan = BasisPlan::standard(1);
        assert!(!plan.try_neglect(0, Pauli::I));
        assert!(plan.try_neglect(0, Pauli::X));
        assert!(plan.try_neglect(0, Pauli::X), "idempotent re-neglect");
        assert!(plan.try_neglect(0, Pauli::Y));
        // The last surviving basis cannot go.
        assert!(!plan.try_neglect(0, Pauli::Z));
        assert_eq!(plan.meas_bases(0), vec![MeasBasis::Z]);
        // Out-of-range cuts are a refusal, not a panic.
        assert!(!plan.try_neglect(5, Pauli::X));
    }

    #[test]
    fn zero_cut_plan_has_single_empty_setting() {
        // Degenerate but well-defined: the cartesian product over zero cuts
        // is one empty tuple.
        let plan = BasisPlan::standard(0);
        assert_eq!(plan.all_meas_settings(), vec![Vec::<MeasBasis>::new()]);
        assert_eq!(plan.total_settings(), 2);
    }

    #[test]
    fn recon_string_setting_is_always_available() {
        // Every reconstruction string must map to a setting that the plan
        // actually schedules (the reconstruction relies on this) — also
        // when Z itself is the neglected basis.
        for plan in [
            BasisPlan::with_neglected(vec![Some(Pauli::Y), None]),
            BasisPlan::with_neglected(vec![Some(Pauli::Z)]),
            BasisPlan::with_neglected(vec![Some(Pauli::Z), Some(Pauli::X)]),
        ] {
            let settings: std::collections::HashSet<u64> = plan
                .all_meas_settings()
                .iter()
                .map(|s| encode_meas(s))
                .collect();
            for m in plan.all_recon_strings() {
                let s = plan.setting_for(&m);
                assert!(
                    settings.contains(&encode_meas(&s)),
                    "string {m:?} needs unscheduled setting {s:?}"
                );
            }
        }
    }

    #[test]
    fn prep_pair_decomposes_the_pauli() {
        use qcut_math::Matrix;
        // Σ weight · |state><state| must equal the Pauli matrix, for every
        // plan configuration (including Z-neglected identity fallback).
        for plan in [
            BasisPlan::standard(1),
            BasisPlan::with_neglected(vec![Some(Pauli::Y)]),
            BasisPlan::with_neglected(vec![Some(Pauli::Z)]),
        ] {
            for p in plan.recon_paulis(0) {
                let pair = plan.prep_pair(0, p);
                let mut sum = Matrix::zeros(2, 2);
                for (state, w) in pair {
                    sum = &sum + &state.density().scale(qcut_math::c64(w, 0.0));
                }
                assert!(
                    sum.approx_eq(&p.matrix(), 1e-12),
                    "prep pair for {p} does not reconstruct it (plan {:?})",
                    plan.neglected()
                );
            }
        }
    }

    #[test]
    fn prep_pair_avoids_neglected_states() {
        // With Z neglected, the identity pair must not use |0>/|1>.
        let plan = BasisPlan::with_neglected(vec![Some(Pauli::Z)]);
        let pair = plan.prep_pair(0, Pauli::I);
        for (state, _) in pair {
            assert_ne!(state.pauli(), Pauli::Z);
        }
    }
}
