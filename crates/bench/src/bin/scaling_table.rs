//! Ablation A: multi-cut scaling of the golden reduction (§II-B claims).
//!
//! The paper states that with `K = K_r + K_g` cuts the reconstruction
//! contraction has `O(4^{K_r} 3^{K_g})` terms and the protocol needs
//! `O(6^{K_r} 4^{K_g})` downstream circuit evaluations. This table prints
//! measured counts and exact-reconstruction contraction times for
//! `K = 1..=max_cuts`, all-regular vs all-golden, on the multi-cut ansatz
//! (whose product-structured upstream makes every cut independently
//! golden).
//!
//! ```text
//! cargo run -p qcut-bench --release --bin scaling_table
//! cargo run -p qcut-bench --release --bin scaling_table -- --max-cuts 5
//! ```

use qcut_bench::{rule, Args};
use qcut_circuit::ansatz::MultiCutAnsatz;
use qcut_core::basis::BasisPlan;
use qcut_core::fragment::Fragmenter;
use qcut_core::reconstruction::exact_reconstruct;
use qcut_math::Pauli;
use qcut_sim::statevector::StateVector;
use qcut_stats::distance::total_variation_distance;
use qcut_stats::distribution::Distribution;
use std::time::Instant;

fn main() {
    let args = Args::parse(&["max-cuts", "seed"]);
    let max_cuts = args.get_u64("max-cuts", 4) as usize;
    let seed = args.get_u64("seed", 3);

    println!("Ablation A — multi-cut scaling (paper §II-B complexity claims)");
    rule(108);
    println!(
        "{:>2} {:>8} | {:>9} {:>9} {:>7} {:>12} | {:>9} {:>9} {:>7} {:>12} | {:>10}",
        "K",
        "qubits",
        "meas",
        "preps",
        "terms",
        "recon ms",
        "meas*",
        "preps*",
        "terms*",
        "recon ms*",
        "tvd check"
    );
    println!(
        "{:>11} | {:^41} | {:^41} |",
        "", "standard", "all cuts golden (Y)"
    );
    rule(108);

    for k in 1..=max_cuts {
        let (circuit, spec) = MultiCutAnsatz::new(k, seed).build();
        let frags = Fragmenter::fragment(&circuit, &spec).expect("ansatz must fragment");
        let truth = Distribution::from_values(
            circuit.num_qubits(),
            StateVector::from_circuit(&circuit).probabilities(),
        );

        let standard = BasisPlan::standard(k);
        let golden = BasisPlan::with_neglected(vec![Some(Pauli::Y); k]);

        let mut row: Vec<String> = vec![format!("{k:>2} {:>8}", circuit.num_qubits())];
        let mut tvds = Vec::new();
        for plan in [&standard, &golden] {
            let started = Instant::now();
            let recon = exact_reconstruct(&frags, plan);
            let ms = started.elapsed().as_secs_f64() * 1000.0;
            tvds.push(total_variation_distance(&recon, &truth));
            row.push(format!(
                "{:>9} {:>9} {:>7} {:>12.3}",
                plan.all_meas_settings().len(),
                plan.all_prep_settings().len(),
                plan.all_recon_strings().len(),
                ms
            ));
        }
        println!(
            "{} | {} | {} | {:>10.2e}",
            row[0],
            row[1],
            row[2],
            tvds.iter().fold(0.0f64, |a, &b| a.max(b))
        );

        // Verify the paper's exponents exactly.
        assert_eq!(
            BasisPlan::standard(k).all_prep_settings().len(),
            6usize.pow(k as u32)
        );
        assert_eq!(golden.all_prep_settings().len(), 4usize.pow(k as u32));
        assert_eq!(golden.all_recon_strings().len(), 3usize.pow(k as u32));
    }
    rule(108);
    println!("columns marked * use the golden plan; tvd check = max reconstruction error vs truth");
    println!("expected exponents: meas 3^K→2^K, preps 6^K→4^K, terms 4^K→3^K (paper §II-B)");
}
