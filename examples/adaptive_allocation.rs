//! Two-round variance-adaptive shot allocation through the pipeline.
//!
//! `ShotAllocation::Adaptive` spends `pilot_fraction · total` shots on a
//! uniform pilot round, builds empirical fragment tensors from the pilot's
//! histograms, scores each tomography setting's variance contribution
//! (Neyman: `N ∝ √(usage · |coeff|² · σ̂²)`), and spends the remaining
//! budget where the contraction actually amplifies the noise. The second
//! engine round is *seeded* with the pilot's measurements, so the backend
//! only ever executes the refine increments — the total device cost is
//! exactly `total`, same as the single-round policies.
//!
//! The workload keeps the full standard plan on a golden-structured
//! circuit (its Y coefficients vanish), so the static policies waste
//! budget on settings whose data the contraction multiplies by ≈ 0 —
//! the adaptive pilot notices and reallocates.
//!
//! ```text
//! cargo run --release --example adaptive_allocation
//! ```

use qcut::cutting::allocation::{pilot_schedule, pilot_total, refine_schedule, schedule_for_plan};
use qcut::cutting::basis::BasisPlan;
use qcut::cutting::reconstruction::{exact_downstream_tensor, exact_upstream_tensor};
use qcut::cutting::variance::{neyman_scores, variance_from_schedule};
use qcut::prelude::*;

fn main() {
    let (circuit, cut) = GoldenAnsatz::new(5, 4242).build();
    let frags = Fragmenter::fragment(&circuit, &cut).expect("valid cut");
    let plan = BasisPlan::standard(1);
    let truth = Distribution::from_values(5, StateVector::from_circuit(&circuit).probabilities());
    let total = 9 * 20_000u64;

    println!("two-round adaptive allocation at a fixed {total}-shot total budget");
    println!("circuit: 5-qubit golden ansatz, full standard single-cut plan\n");
    println!(
        "{:<22} {:>7} {:>12} {:>12} {:>12} {:>8}",
        "policy", "rounds", "pilot shots", "fresh shots", "saved", "TVD"
    );

    for (label, policy) in [
        (
            "uniform (even split)",
            ShotAllocation::TotalBudget { total },
        ),
        (
            "weighted by usage",
            ShotAllocation::WeightedByUsage { total },
        ),
        (
            "adaptive (pilot 10%)",
            ShotAllocation::Adaptive {
                pilot_fraction: 0.1,
                total,
            },
        ),
    ] {
        let backend = IdealBackend::new(7);
        let run = CutExecutor::new(&backend)
            .run(
                &circuit,
                &cut,
                GoldenPolicy::Disabled,
                &ExecutionOptions {
                    allocation: Some(policy),
                    ..Default::default()
                },
            )
            .expect("pipeline run");
        let r = &run.report;
        // The exact-accounting invariant every run satisfies:
        assert_eq!(
            r.shots_requested,
            r.detection_shots + r.pilot_shots + r.total_shots + r.shots_saved
        );
        // … and every policy costs the same fresh device shots.
        assert_eq!(r.pilot_shots + r.total_shots, total);
        let tvd = total_variation_distance(&run.distribution, &truth);
        println!(
            "{label:<22} {:>7} {:>12} {:>12} {:>12} {tvd:>8.4}",
            r.rounds, r.pilot_shots, r.total_shots, r.shots_saved,
        );
    }

    // Where did the budget move? Score the static schedules and the
    // adaptive pilot → Neyman-refine schedule (built here from exact
    // tensors — the noiseless-pilot limit) under the same deterministic
    // variance model.
    let up = exact_upstream_tensor(&frags.upstream, &plan);
    let down = exact_downstream_tensor(&frags.downstream, &plan);
    println!("\npredicted RMS error (exact tensors, same total):");
    for (label, policy) in [
        (
            "uniform (even split)",
            ShotAllocation::TotalBudget { total },
        ),
        (
            "weighted by usage",
            ShotAllocation::WeightedByUsage { total },
        ),
    ] {
        let sched = schedule_for_plan(&plan, policy).expect("budget covers the plan");
        let rms = variance_from_schedule(
            &frags,
            &plan,
            ReconstructionMethod::Eigenstate,
            &up,
            &down,
            &sched,
        )
        .rms_error();
        println!("  {label:<22} {rms:.6}");
    }
    let pilot = pilot_total(0.1, total);
    let pilot_sched = pilot_schedule(3, 6, pilot).expect("pilot covers the plan");
    let scores = neyman_scores(&frags, &plan, ReconstructionMethod::Eigenstate, &up, &down);
    let adaptive = refine_schedule(
        &pilot_sched,
        &scores.upstream,
        &scores.downstream,
        total - pilot,
    );
    assert_eq!(adaptive.total(), total);
    let rms = variance_from_schedule(
        &frags,
        &plan,
        ReconstructionMethod::Eigenstate,
        &up,
        &down,
        &adaptive,
    )
    .rms_error();
    println!("  {:<22} {rms:.6}", "adaptive (pilot 10%)");
    println!(
        "\nthe adaptive run reallocates the refine budget away from the Y\n\
         setting and Y-only preparations (their empirical coefficients\n\
         vanish on this ansatz), recovering a golden-style shot economy\n\
         without being told which basis is negligible; see\n\
         BENCH_adaptive_allocation.json for the variance-per-shot numbers."
    );
}
