//! Shot allocation across tomography settings.
//!
//! The paper uses a uniform budget (1000 or 10 000 shots per subcircuit).
//! Uniform is not variance-optimal: the upstream `Z` setting feeds *two*
//! reconstruction strings per cut (`I` and `Z`), and downstream
//! preparations are reused by every string whose prep pair contains them,
//! so settings differ in how many contraction terms consume their data.
//! [`ShotAllocation::WeightedByUsage`] splits a total budget
//! proportionally to that usage count; the ablation benches compare it
//! against the paper's uniform scheme.
//!
//! [`ShotAllocation::Adaptive`] goes one step further: usage counts are
//! static, but the *measured* variance of the pilot tensors is not. The
//! pipeline runs a small uniform pilot round, scores each setting's
//! variance contribution from the empirical tensors
//! ([`crate::variance::neyman_scores`]), and spends the remaining budget
//! Neyman-style (`N ∝ √(usage · |coeff|² · σ̂²)`) in a second engine round
//! seeded from the pilot's measurements.
//!
//! Budget totals are exact: non-uniform splits use largest-remainder
//! apportionment, so every policy schedules *exactly* the shots it was
//! asked for (property-tested in `tests/integration_allocation.rs`).
//! Under-sized budgets are a typed [`AllocationError`], surfaced by the
//! pipeline as [`crate::error::PipelineError::Allocation`].
//!
//! # Example
//!
//! Scheduling is deterministic given a plan, so policies can be compared
//! before anything executes:
//!
//! ```
//! use qcut_core::allocation::{schedule_for_plan, ShotAllocation};
//! use qcut_core::basis::BasisPlan;
//!
//! let plan = BasisPlan::standard(1); // 3 measurements + 6 preparations
//! let weighted =
//!     schedule_for_plan(&plan, ShotAllocation::WeightedByUsage { total: 9_000 }).unwrap();
//! // Largest-remainder apportionment spends the budget exactly …
//! assert_eq!(weighted.total(), 9_000);
//! // … and the Z setting (read by the I *and* Z strings) out-earns X/Y.
//! assert_eq!(weighted.max_shots(), *weighted.upstream.iter().max().unwrap());
//!
//! // Adaptive degenerates to the single-round policies at the edges:
//! let all_pilot = ShotAllocation::Adaptive { pilot_fraction: 1.0, total: 9_000 };
//! assert_eq!(
//!     all_pilot.normalized(),
//!     ShotAllocation::TotalBudget { total: 9_000 }
//! );
//! ```

use crate::basis::BasisPlan;
use crate::frame::{PrepFrame, TermTable};
use crate::pipeline::ReconstructionMethod;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// How to distribute shots over the subcircuit settings.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ShotAllocation {
    /// The paper's scheme: the same budget for every setting.
    Uniform {
        /// Shots per subcircuit.
        shots_per_setting: u64,
    },
    /// A fixed total budget divided evenly (rounded down, remainder to the
    /// earliest settings).
    TotalBudget {
        /// Total shots across all subcircuits.
        total: u64,
    },
    /// A fixed total budget divided proportionally to how many
    /// reconstruction terms consume each setting's data.
    WeightedByUsage {
        /// Total shots across all subcircuits.
        total: u64,
    },
    /// Two-round variance-adaptive allocation: a uniform pilot round of
    /// `pilot_fraction · total` shots builds empirical fragment tensors,
    /// then the remaining budget is apportioned Neyman-style
    /// (`N ∝ √(usage · |coeff|² · σ̂²)`, see
    /// [`crate::variance::neyman_scores`]) and executed as a second engine
    /// round seeded from the pilot's measurements.
    ///
    /// Edge fractions degenerate to single-round policies (see
    /// [`ShotAllocation::normalized`]): `pilot_fraction ≤ 0` is
    /// [`ShotAllocation::WeightedByUsage`] (no pilot — fall back to the
    /// static usage weights), `pilot_fraction ≥ 1` is
    /// [`ShotAllocation::TotalBudget`] (the whole budget *is* the uniform
    /// pilot).
    Adaptive {
        /// Fraction of `total` spent on the uniform pilot round.
        pilot_fraction: f64,
        /// Total shots across all subcircuits and both rounds.
        total: u64,
    },
}

impl ShotAllocation {
    /// Resolves the degenerate [`ShotAllocation::Adaptive`] fractions into
    /// the single-round policies they are bit-identical to; every other
    /// policy (and interior fractions) is returned unchanged. The pipeline
    /// normalizes before scheduling, so `Adaptive { pilot_fraction: 0.0 }`
    /// runs *exactly* the `WeightedByUsage` path and
    /// `Adaptive { pilot_fraction: 1.0 }` *exactly* the even
    /// `TotalBudget` split (pinned in `tests/integration_allocation.rs`).
    pub fn normalized(self) -> ShotAllocation {
        match self {
            ShotAllocation::Adaptive {
                pilot_fraction,
                total,
            } if pilot_fraction <= 0.0 => ShotAllocation::WeightedByUsage { total },
            ShotAllocation::Adaptive {
                pilot_fraction,
                total,
            } if pilot_fraction >= 1.0 => ShotAllocation::TotalBudget { total },
            other => other,
        }
    }
}

/// The pilot round's budget: `round(pilot_fraction · total)`, clamped to
/// the total. Callers should [`ShotAllocation::normalized`] first — this
/// helper is only meaningful for interior fractions.
pub fn pilot_total(pilot_fraction: f64, total: u64) -> u64 {
    ((total as f64 * pilot_fraction).round() as u64).min(total)
}

/// A schedule request that cannot be satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocationError {
    /// The total budget cannot give every setting at least one shot.
    BudgetTooSmall {
        /// The requested total.
        total: u64,
        /// Number of settings that must each receive ≥ 1 shot.
        settings: usize,
    },
    /// An adaptive pilot round cannot give every setting at least one
    /// shot, so no empirical tensor could be built from it.
    PilotBudgetTooSmall {
        /// The pilot budget (`round(pilot_fraction · total)`).
        pilot: u64,
        /// Number of settings the pilot must cover with ≥ 1 shot.
        settings: usize,
    },
}

impl fmt::Display for AllocationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocationError::BudgetTooSmall { total, settings } => write!(
                f,
                "shot budget {total} cannot cover {settings} settings with at \
                 least one shot each; raise the total or shrink the plan"
            ),
            AllocationError::PilotBudgetTooSmall { pilot, settings } => write!(
                f,
                "adaptive pilot budget {pilot} cannot cover {settings} settings \
                 with at least one shot each; raise pilot_fraction or the total"
            ),
        }
    }
}

impl std::error::Error for AllocationError {}

/// Concrete per-setting shot counts, aligned with
/// [`BasisPlan::all_meas_settings`] and the preparation settings of the
/// run's scheme ([`BasisPlan::all_prep_settings`] for eigenstates, the
/// `4^K` SIC combinations in the same cartesian order for SIC), which is
/// the order [`crate::planner::gather_graph`] pairs them with its jobs in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShotSchedule {
    /// Shots for each upstream variant.
    pub upstream: Vec<u64>,
    /// Shots for each downstream variant.
    pub downstream: Vec<u64>,
}

impl ShotSchedule {
    /// The uniform schedule over `n_up + n_down` settings.
    pub fn uniform(n_up: usize, n_down: usize, shots_per_setting: u64) -> Self {
        ShotSchedule {
            upstream: vec![shots_per_setting; n_up],
            downstream: vec![shots_per_setting; n_down],
        }
    }

    /// Total shots in the schedule.
    pub fn total(&self) -> u64 {
        self.upstream.iter().sum::<u64>() + self.downstream.iter().sum::<u64>()
    }

    /// Smallest per-setting budget (0 means a starved setting — invalid
    /// for reconstruction).
    pub fn min_shots(&self) -> u64 {
        self.upstream
            .iter()
            .chain(&self.downstream)
            .copied()
            .min()
            .unwrap_or(0)
    }

    /// Largest per-setting budget.
    pub fn max_shots(&self) -> u64 {
        self.upstream
            .iter()
            .chain(&self.downstream)
            .copied()
            .max()
            .unwrap_or(0)
    }

    /// Number of settings the schedule covers.
    pub fn num_settings(&self) -> usize {
        self.upstream.len() + self.downstream.len()
    }

    /// Per-setting `shots`, upstream first, with `n_up` upstream settings.
    fn split(mut shots: Vec<u64>, n_up: usize) -> Self {
        let downstream = shots.split_off(n_up);
        ShotSchedule {
            upstream: shots,
            downstream,
        }
    }
}

/// How many reconstruction strings read each upstream setting and how many
/// signed prep combinations read each downstream eigenstate preparation,
/// keyed by setting key; a setting nothing reads is absent.
pub fn usage_counts(plan: &BasisPlan) -> (HashMap<u64, u64>, HashMap<u64, u64>) {
    let frame = PrepFrame::new(ReconstructionMethod::Eigenstate, plan);
    let table = TermTable::new(&frame, plan);
    let (upstream, downstream) = usage_in(&table);
    let keyed = |keys: &[u64], counts: Vec<u64>| -> HashMap<u64, u64> {
        keys.iter()
            .copied()
            .zip(counts)
            .filter(|&(_, n)| n > 0)
            .collect()
    };
    (
        keyed(&table.upstream_keys, upstream),
        keyed(&table.downstream_keys, downstream),
    )
}

/// Per upstream and per downstream slot of `table`, how many terms read it.
fn usage_in(table: &TermTable) -> (Vec<u64>, Vec<u64>) {
    let mut upstream = vec![0u64; table.upstream_keys.len()];
    let mut downstream = vec![0u64; table.downstream_keys.len()];
    for (slot, terms) in &table.rows {
        upstream[*slot] += 1;
        for &(slot, _) in terms {
            downstream[slot] += 1;
        }
    }
    (upstream, downstream)
}

/// Splits `total` over the weight vector with largest-remainder
/// apportionment: quotas `total·wᵢ/Σw` are floored and the leftover shots
/// go to the largest fractional parts (ties to the earliest setting), so
/// the result always sums to exactly `total`.
fn apportion(total: u64, weights: &[f64]) -> Vec<u64> {
    if weights.is_empty() {
        return Vec::new();
    }
    let weight_sum: f64 = weights.iter().sum();
    if weight_sum <= 0.0 {
        // Degenerate weights: fall back to an even split.
        return apportion(total, &vec![1.0; weights.len()]);
    }
    let mut out: Vec<u64> = Vec::with_capacity(weights.len());
    let mut fractions: Vec<(f64, usize)> = Vec::with_capacity(weights.len());
    let mut assigned = 0u64;
    for (i, &w) in weights.iter().enumerate() {
        let quota = total as f64 * w / weight_sum;
        let floor = quota.floor().min(total as f64) as u64;
        out.push(floor);
        assigned += floor;
        fractions.push((quota - floor as f64, i));
    }
    // Floating-point floors can only undershoot the target by < n; hand the
    // leftovers to the largest remainders, earliest index first on ties.
    let mut leftover = total.saturating_sub(assigned);
    fractions.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut cursor = 0usize;
    while leftover > 0 {
        out[fractions[cursor % fractions.len()].1] += 1;
        cursor += 1;
        leftover -= 1;
    }
    out
}

/// The weighted scheduling core shared by every non-uniform policy: checks
/// the budget, reserves one shot per setting, apportions the spare by
/// weight, and splits the result back into upstream/downstream halves.
fn schedule_weighted(
    total: u64,
    up_w: &[f64],
    down_w: &[f64],
) -> Result<ShotSchedule, AllocationError> {
    let n_total = up_w.len() + down_w.len();
    if total < n_total as u64 {
        return Err(AllocationError::BudgetTooSmall {
            total,
            settings: n_total,
        });
    }
    // Reserve one shot per setting, distribute the rest by weight with an
    // exact largest-remainder split.
    let spare = total - n_total as u64;
    let weights: Vec<f64> = up_w.iter().chain(down_w).copied().collect();
    let split = apportion(spare, &weights).into_iter().map(|s| s + 1);
    Ok(ShotSchedule::split(split.collect(), up_w.len()))
}

/// Builds the uniform pilot schedule of a two-round adaptive run: an even
/// largest-remainder split of `pilot` shots over `n_up + n_down` settings
/// (the same division rule as [`ShotAllocation::TotalBudget`], so every
/// setting delivers enough data to estimate its tensor entries). A pilot
/// that cannot give each setting one shot is a typed
/// [`AllocationError::PilotBudgetTooSmall`].
pub fn pilot_schedule(
    n_up: usize,
    n_down: usize,
    pilot: u64,
) -> Result<ShotSchedule, AllocationError> {
    let n_total = n_up + n_down;
    if pilot < n_total as u64 {
        return Err(AllocationError::PilotBudgetTooSmall {
            pilot,
            settings: n_total,
        });
    }
    let split = apportion(pilot, &vec![1.0; n_total]);
    Ok(ShotSchedule::split(split, n_up))
}

/// Folds the refine round into a pilot schedule: `remaining` shots are
/// apportioned over the per-setting Neyman scores (largest-remainder, so
/// the refine half spends exactly `remaining`) and added to the pilot
/// budgets. The result is the *cumulative* per-setting target the second
/// engine round requests — seeded with the pilot's measurements, the
/// engine then executes exactly the refine increments
/// (`pilot.total() + remaining` in total across both rounds).
///
/// All-zero scores (a pilot that saw no variance anywhere) fall back to an
/// even refine split; a zero-score *setting* simply gets no refine shots —
/// its pilot data already pins a coefficient the contraction barely reads.
pub fn refine_schedule(
    pilot: &ShotSchedule,
    up_scores: &[f64],
    down_scores: &[f64],
    remaining: u64,
) -> ShotSchedule {
    assert_eq!(pilot.upstream.len(), up_scores.len(), "schedule arity");
    assert_eq!(pilot.downstream.len(), down_scores.len(), "schedule arity");
    let scores: Vec<f64> = up_scores.iter().chain(down_scores).copied().collect();
    let split = apportion(remaining, &scores);
    let pilot_shots = pilot.upstream.iter().chain(&pilot.downstream);
    let cumulative = pilot_shots.zip(split).map(|(p, r)| p + r);
    ShotSchedule::split(cumulative.collect(), up_scores.len())
}

/// Builds the eigenstate-gather schedule from a [`BasisPlan`]:
/// `upstream[i]` pairs with the i-th entry of
/// [`BasisPlan::all_meas_settings`], `downstream[i]` with the i-th of
/// [`BasisPlan::all_prep_settings`] — the same order the planner's
/// [`crate::planner::add_upstream_jobs`]/[`crate::planner::add_downstream_jobs`]
/// consume.
pub fn schedule_for_plan(
    basis: &BasisPlan,
    allocation: ShotAllocation,
) -> Result<ShotSchedule, AllocationError> {
    let frame = PrepFrame::new(ReconstructionMethod::Eigenstate, basis);
    schedule_for_frame(basis, &frame, allocation)
}

/// Builds the schedule of `basis` with the downstream preparations of
/// `frame`, in the planner's emission order. Under
/// [`ShotAllocation::WeightedByUsage`] and the adaptive surrogate the
/// downstream half is usage-weighted only when the frame says so.
pub(crate) fn schedule_for_frame(
    basis: &BasisPlan,
    frame: &PrepFrame,
    allocation: ShotAllocation,
) -> Result<ShotSchedule, AllocationError> {
    let table = TermTable::new(frame, basis);
    let n_up = table.upstream_keys.len();
    let n_down = table.downstream_keys.len();
    // The static usage weights shared by WeightedByUsage and the
    // planning-time Adaptive surrogate; a setting no term reads weighs 1.
    let usage_weights = || {
        let (up_usage, down_usage) = usage_in(&table);
        let weights =
            |usage: Vec<u64>| -> Vec<f64> { usage.into_iter().map(|n| n.max(1) as f64).collect() };
        (
            weights(up_usage),
            frame.downstream_weights(weights(down_usage)),
        )
    };
    match allocation.normalized() {
        ShotAllocation::Uniform { shots_per_setting } => {
            Ok(ShotSchedule::uniform(n_up, n_down, shots_per_setting))
        }
        ShotAllocation::TotalBudget { total } => {
            // Even split == equal weights, *without* the reserve-one step so
            // the division stays `base + remainder to the earliest settings`
            // (bit-identical to the historical behaviour).
            let n_total = n_up + n_down;
            if total < n_total as u64 {
                return Err(AllocationError::BudgetTooSmall {
                    total,
                    settings: n_total,
                });
            }
            let split = apportion(total, &vec![1.0; n_total]);
            Ok(ShotSchedule::split(split, n_up))
        }
        ShotAllocation::WeightedByUsage { total } => {
            let (up_w, down_w) = usage_weights();
            schedule_weighted(total, &up_w, &down_w)
        }
        // Interior pilot fractions (the edges were normalized away above).
        // Without pilot data there is no measured variance yet, so the
        // planning-time surrogate refines by the static usage weights —
        // the pipeline replaces this with the empirical Neyman scores
        // after the pilot round executes.
        ShotAllocation::Adaptive {
            pilot_fraction,
            total,
        } => {
            let pilot = pilot_total(pilot_fraction, total);
            let pilot_sched = pilot_schedule(n_up, n_down, pilot)?;
            let (up_w, down_w) = usage_weights();
            Ok(refine_schedule(&pilot_sched, &up_w, &down_w, total - pilot))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basis::{encode_meas, encode_prep};
    use qcut_math::Pauli;

    fn basis_for(golden: bool) -> BasisPlan {
        if golden {
            BasisPlan::with_neglected(vec![Some(Pauli::Y)])
        } else {
            BasisPlan::standard(1)
        }
    }

    #[test]
    fn uniform_schedule_matches_paper() {
        let basis = basis_for(false);
        let s = schedule_for_plan(
            &basis,
            ShotAllocation::Uniform {
                shots_per_setting: 1000,
            },
        )
        .unwrap();
        assert_eq!(s.upstream, vec![1000; 3]);
        assert_eq!(s.downstream, vec![1000; 6]);
        assert_eq!(s.total(), 9000);
    }

    #[test]
    fn total_budget_is_exactly_spent() {
        let basis = basis_for(false);
        let s = schedule_for_plan(&basis, ShotAllocation::TotalBudget { total: 9005 }).unwrap();
        assert_eq!(s.total(), 9005);
        // No setting starves and the split is near-even, remainder to the
        // earliest settings.
        assert!(s.min_shots() >= 1000);
        assert!(s.upstream.iter().chain(&s.downstream).all(|&n| n <= 1001));
        assert_eq!(s.upstream, vec![1001, 1001, 1001]);
        assert_eq!(s.downstream, vec![1001, 1001, 1000, 1000, 1000, 1000]);
    }

    #[test]
    fn usage_counts_single_cut() {
        // Standard single cut: Z setting feeds I and Z strings (2), X and Y
        // feed one each; preps: Zp/Zm serve I and Z strings × 2 combos = 4
        // reads... concretely: each of the 4 strings reads 2 preps.
        let basis = BasisPlan::standard(1);
        let (up, down) = usage_counts(&basis);
        use crate::basis::MeasBasis;
        assert_eq!(up[&encode_meas(&[MeasBasis::Z])], 2);
        assert_eq!(up[&encode_meas(&[MeasBasis::X])], 1);
        assert_eq!(up[&encode_meas(&[MeasBasis::Y])], 1);
        // Total downstream reads = 4 strings × 2 preps = 8.
        let total: u64 = down.values().sum();
        assert_eq!(total, 8);
        // Zp is read by I and Z -> 2; Xp only by X -> 1.
        use qcut_math::PrepState;
        assert_eq!(down[&encode_prep(&[PrepState::Zp])], 2);
        assert_eq!(down[&encode_prep(&[PrepState::Xp])], 1);
    }

    #[test]
    fn weighted_schedule_favours_z_setting_and_spends_exactly() {
        let basis = basis_for(false);
        let s =
            schedule_for_plan(&basis, ShotAllocation::WeightedByUsage { total: 90_000 }).unwrap();
        // Find the Z setting's index.
        use crate::basis::MeasBasis;
        let settings = basis.all_meas_settings();
        let z_idx = settings
            .iter()
            .position(|v| v == &vec![MeasBasis::Z])
            .unwrap();
        let x_idx = settings
            .iter()
            .position(|v| v == &vec![MeasBasis::X])
            .unwrap();
        assert!(
            s.upstream[z_idx] > s.upstream[x_idx],
            "Z setting should get more shots: {:?}",
            s.upstream
        );
        // The historical floor() split silently dropped up to n−1 shots;
        // largest-remainder apportionment spends the budget exactly.
        assert_eq!(s.total(), 90_000);
    }

    #[test]
    fn weighted_schedule_on_golden_plan() {
        let basis = basis_for(true);
        let s =
            schedule_for_plan(&basis, ShotAllocation::WeightedByUsage { total: 60_000 }).unwrap();
        assert_eq!(s.upstream.len(), 2);
        assert_eq!(s.downstream.len(), 4);
        assert!(s.min_shots() > 0);
        assert_eq!(s.total(), 60_000);
    }

    #[test]
    fn schedule_for_plan_matches_experiment_schedule() {
        // The schedule lines up with the experiment it is handed to: a
        // gather delivers `upstream[i]` shots to the i-th measurement
        // setting and `downstream[i]` to the i-th preparation.
        use crate::execution::gather;
        use crate::fragment::Fragmenter;
        use qcut_circuit::ansatz::GoldenAnsatz;
        use qcut_device::ideal::IdealBackend;

        let (c, spec) = GoldenAnsatz::new(5, 1).build();
        let frags = Fragmenter::fragment(&c, &spec).unwrap();
        let basis = basis_for(false);
        for alloc in [
            ShotAllocation::Uniform {
                shots_per_setting: 700,
            },
            ShotAllocation::TotalBudget { total: 9999 },
            ShotAllocation::WeightedByUsage { total: 12_345 },
        ] {
            let s = schedule_for_plan(&basis, alloc).unwrap();
            let data = gather(&IdealBackend::new(3), &frags, &basis, &s).unwrap();
            for (i, setting) in basis.all_meas_settings().iter().enumerate() {
                assert_eq!(data.shots_for_meas(encode_meas(setting)), s.upstream[i]);
            }
            for (i, prep) in basis.all_prep_settings().iter().enumerate() {
                assert_eq!(data.shots_for_prep(encode_prep(prep)), s.downstream[i]);
            }
        }
    }

    #[test]
    fn sic_schedule_shapes_and_totals() {
        let basis = BasisPlan::standard(1);
        let s = crate::planner::schedule(
            &basis,
            ReconstructionMethod::Sic,
            ShotAllocation::WeightedByUsage { total: 7001 },
        )
        .unwrap();
        assert_eq!(s.upstream.len(), 3);
        assert_eq!(s.downstream.len(), 4); // 4^1 SIC preps
        assert_eq!(s.total(), 7001);
        // SIC preparations are weighted uniformly: all equal budgets.
        assert!(s.downstream.windows(2).all(|w| w[0] == w[1]));
        // Upstream Z still wins (usage 2 vs 1).
        use crate::basis::MeasBasis;
        let z = basis
            .all_meas_settings()
            .iter()
            .position(|v| v == &vec![MeasBasis::Z])
            .unwrap();
        assert_eq!(s.upstream[z], *s.upstream.iter().max().unwrap());
    }

    #[test]
    fn starved_budget_is_a_typed_error_per_policy() {
        let basis = basis_for(false);
        // 9 settings: totals below 9 must fail for both total-budget
        // policies, with the exact shortfall reported.
        for alloc in [
            ShotAllocation::TotalBudget { total: 5 },
            ShotAllocation::WeightedByUsage { total: 8 },
        ] {
            let err = schedule_for_plan(&basis, alloc).unwrap_err();
            assert!(matches!(
                err,
                AllocationError::BudgetTooSmall { settings: 9, .. }
            ));
            assert!(err.to_string().contains("9 settings"));
        }
        // Uniform has no total to undershoot: it is infallible.
        assert!(schedule_for_plan(
            &basis,
            ShotAllocation::Uniform {
                shots_per_setting: 1
            }
        )
        .is_ok());
        // The exact boundary succeeds with one shot everywhere.
        let s = schedule_for_plan(&basis, ShotAllocation::WeightedByUsage { total: 9 }).unwrap();
        assert_eq!(s.total(), 9);
        assert_eq!(s.min_shots(), 1);
    }

    #[test]
    fn normalized_resolves_degenerate_adaptive_fractions() {
        let total = 5000;
        assert_eq!(
            ShotAllocation::Adaptive {
                pilot_fraction: 0.0,
                total
            }
            .normalized(),
            ShotAllocation::WeightedByUsage { total }
        );
        assert_eq!(
            ShotAllocation::Adaptive {
                pilot_fraction: 1.0,
                total
            }
            .normalized(),
            ShotAllocation::TotalBudget { total }
        );
        // Interior fractions and single-round policies pass through.
        let interior = ShotAllocation::Adaptive {
            pilot_fraction: 0.25,
            total,
        };
        assert_eq!(interior.normalized(), interior);
        let uniform = ShotAllocation::Uniform {
            shots_per_setting: 7,
        };
        assert_eq!(uniform.normalized(), uniform);
    }

    #[test]
    fn pilot_total_rounds_and_clamps() {
        assert_eq!(pilot_total(0.1, 1000), 100);
        assert_eq!(pilot_total(0.25, 9001), 2250);
        assert_eq!(pilot_total(0.999, 10), 10);
        assert_eq!(pilot_total(0.0, 1000), 0);
    }

    #[test]
    fn pilot_schedule_is_even_and_typed_on_starvation() {
        let s = pilot_schedule(3, 6, 9005).unwrap();
        assert_eq!(s.upstream.len(), 3);
        assert_eq!(s.downstream.len(), 6);
        assert_eq!(s.total(), 9005);
        assert!(s.max_shots() - s.min_shots() <= 1, "pilot must be even");
        let err = pilot_schedule(3, 6, 8).unwrap_err();
        assert!(matches!(
            err,
            AllocationError::PilotBudgetTooSmall {
                pilot: 8,
                settings: 9
            }
        ));
        assert!(err.to_string().contains("pilot_fraction"));
    }

    #[test]
    fn refine_schedule_is_cumulative_and_exact() {
        let pilot = ShotSchedule {
            upstream: vec![10, 10, 10],
            downstream: vec![10, 10],
        };
        // Skewed scores: the zero-score setting draws no refine shots but
        // keeps its pilot budget.
        let s = refine_schedule(&pilot, &[0.0, 3.0, 1.0], &[1.0, 1.0], 600);
        assert_eq!(s.total(), pilot.total() + 600);
        assert_eq!(s.upstream[0], 10);
        assert!(s.upstream[1] > s.upstream[2]);
        // All-zero scores fall back to an even refine split.
        let s = refine_schedule(&pilot, &[0.0; 3], &[0.0; 2], 500);
        assert_eq!(s.total(), pilot.total() + 500);
        assert_eq!(s.upstream, vec![110, 110, 110]);
    }

    #[test]
    fn adaptive_static_surrogate_spends_exactly() {
        // Without pilot data, scheduling an interior-fraction Adaptive
        // policy falls back to pilot-even + usage-weighted refine — and
        // still spends exactly its total.
        let basis = basis_for(false);
        // pilot = ⌈0.2·total⌋ must cover the 9 settings, so total ≥ 45.
        for total in [45u64, 90, 9001, 90_000] {
            let s = schedule_for_plan(
                &basis,
                ShotAllocation::Adaptive {
                    pilot_fraction: 0.2,
                    total,
                },
            )
            .unwrap();
            assert_eq!(s.total(), total);
        }
        // A fraction that rounds the pilot below one-shot-per-setting is
        // the typed pilot error.
        let err = schedule_for_plan(
            &basis,
            ShotAllocation::Adaptive {
                pilot_fraction: 0.0001,
                total: 9000,
            },
        )
        .unwrap_err();
        assert!(matches!(err, AllocationError::PilotBudgetTooSmall { .. }));
    }

    #[test]
    fn apportion_is_exact_and_monotone_in_weight() {
        let got = apportion(100, &[1.0, 2.0, 1.0]);
        assert_eq!(got.iter().sum::<u64>(), 100);
        assert_eq!(got, vec![25, 50, 25]);
        // Awkward fractions still sum exactly.
        let got = apportion(10, &[1.0, 1.0, 1.0]);
        assert_eq!(got, vec![4, 3, 3]); // remainder to the earliest
        let got = apportion(7, &[0.3, 0.3, 0.4]);
        assert_eq!(got.iter().sum::<u64>(), 7);
        // Degenerate all-zero weights fall back to even.
        assert_eq!(apportion(6, &[0.0, 0.0, 0.0]), vec![2, 2, 2]);
        assert_eq!(apportion(5, &[]), Vec::<u64>::new());
    }
}
