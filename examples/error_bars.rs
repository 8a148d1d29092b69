//! Shot-noise error bars on reconstructed distributions — the statistical
//! analysis the paper's §IV calls for ("amplification of error through
//! tensor contraction").
//!
//! Predicts the per-outcome standard error of the reconstruction from one
//! run's data, then validates the prediction against the spread of many
//! independent runs, for both the standard and the golden method.
//!
//! ```text
//! cargo run --release --example error_bars
//! ```

use qcut::cutting::allocation::schedule_for_plan;
use qcut::cutting::basis::BasisPlan;
use qcut::cutting::execution::gather;
use qcut::cutting::reconstruction::reconstruct;
use qcut::cutting::variance::{empirical_variance, reconstruction_variance};
use qcut::prelude::*;

fn main() {
    let (circuit, cut) = GoldenAnsatz::new(5, 2024).build();
    let frags = Fragmenter::fragment(&circuit, &cut).expect("valid cut");
    let shots = 2000u64;
    let trials = 30;

    println!("shot-noise error propagation through reconstruction");
    println!("circuit: 5-qubit golden ansatz, {shots} shots/setting, {trials} repeat trials\n");
    println!(
        "{:<28} {:>10} {:>16} {:>16}",
        "plan", "terms", "predicted RMS", "empirical RMS"
    );

    for (label, plan) in [
        ("standard (4 Pauli terms)", BasisPlan::standard(1)),
        (
            "golden (3 Pauli terms)",
            BasisPlan::with_neglected(vec![Some(Pauli::Y)]),
        ),
    ] {
        let uniform = ShotAllocation::Uniform {
            shots_per_setting: shots,
        };
        let schedule = schedule_for_plan(&plan, uniform).expect("uniform never starves");
        let mut dists = Vec::with_capacity(trials);
        let mut predicted = 0.0;
        for t in 0..trials {
            let backend = IdealBackend::new(5000 + t as u64);
            let data = gather(&backend, &frags, &plan, &schedule).expect("gather");
            if t == 0 {
                predicted = reconstruction_variance(&frags, &plan, &data).rms_error();
            }
            dists.push(reconstruct(&frags, &plan, &data));
        }
        let emp = empirical_variance(&dists);
        let empirical = (emp.iter().sum::<f64>() / emp.len() as f64).sqrt();
        println!(
            "{label:<28} {:>10} {predicted:>16.6} {empirical:>16.6}",
            plan.all_recon_strings().len()
        );
    }

    println!("\nthe prediction is a slight upper bound (coherent cross-term accounting);");
    println!("the golden plan accumulates noise from fewer contraction terms, so equal");
    println!("per-setting budgets give it equal-or-lower variance — quantifying the");
    println!("paper's 'no accuracy cost' observation.");
}
