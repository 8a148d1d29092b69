//! The SIC preparation alternative (paper §II-B): 4 downstream states per
//! cut instead of 6, each reconstruction Pauli expanded over them in
//! closed form. Compares subcircuit counts, accuracy, and where the
//! golden method fits in, and checks each against what the scheme
//! promises.
//!
//! ```text
//! cargo run --release --example sic_basis
//! ```

use qcut::cutting::pipeline::ReconstructionMethod;
use qcut::prelude::*;

/// The largest weighted distance to the exact distribution any scheme may
/// reach at 20 000 shots per setting. Shot noise keeps working schemes
/// near 0.001; a broken preparation frame lands far above.
const MAX_DISTANCE: f64 = 0.01;

fn main() {
    println!("SIC vs eigenstate downstream preparations (paper §II-B)\n");

    // The frame weights: P = Σ_j α_j |ψ_j><ψ_j| for each Pauli.
    println!("SIC frame coefficients α_j (rows: I, X, Y, Z; columns: ψ0..ψ3):");
    for p in [Pauli::I, Pauli::X, Pauli::Y, Pauli::Z] {
        let mut alpha = [0.0f64; 4];
        for (j, c) in ReconstructionMethod::Sic.expansion(p) {
            alpha[j] = c;
        }
        println!(
            "  {p}:  {:+.4}  {:+.4}  {:+.4}  {:+.4}",
            alpha[0], alpha[1], alpha[2], alpha[3]
        );
    }

    let (circuit, cut) = GoldenAnsatz::new(5, 21).build();
    let truth = Distribution::from_values(5, StateVector::from_circuit(&circuit).probabilities());
    let backend = IdealBackend::new(33);
    let executor = CutExecutor::new(&backend);

    println!(
        "\n{:<34} {:>12} {:>10} {:>12}",
        "scheme", "subcircuits", "shots", "d_w"
    );
    // Each scheme with the measurement settings and preparations it plans.
    for (label, method, policy, planned) in [
        (
            "eigenstate, standard (6 preps)",
            ReconstructionMethod::Eigenstate,
            GoldenPolicy::Disabled,
            (3, 6),
        ),
        (
            "eigenstate, golden   (4 preps)",
            ReconstructionMethod::Eigenstate,
            GoldenPolicy::KnownAPriori(vec![(0, Pauli::Y)]),
            (2, 4),
        ),
        (
            "SIC                  (4 preps)",
            ReconstructionMethod::Sic,
            GoldenPolicy::Disabled,
            (3, 4),
        ),
        (
            "SIC + golden terms   (4 preps)",
            ReconstructionMethod::Sic,
            GoldenPolicy::KnownAPriori(vec![(0, Pauli::Y)]),
            (2, 4),
        ),
    ] {
        let options = ExecutionOptions {
            shots_per_setting: 20_000,
            method,
            ..Default::default()
        };
        let run = executor
            .run(&circuit, &cut, policy, &options)
            .expect("pipeline run");
        let d = weighted_distance(&run.distribution, &truth);
        println!(
            "{label:<34} {:>12} {:>10} {:>12.5}",
            run.report.subcircuits_executed, run.report.total_shots, d
        );
        assert_eq!(
            (run.report.upstream_settings, run.report.downstream_settings),
            planned,
            "{label}: planned measurement settings + preparations"
        );
        assert!(
            d < MAX_DISTANCE,
            "{label}: weighted distance {d} to the exact distribution"
        );
    }

    println!("\nSIC reaches 4 preparations without golden structure (any circuit),");
    println!("golden reaches 4 preparations *and* 2 measurement settings (designed circuits),");
    println!("and the two compose: golden shrinks the SIC contraction from 4 to 3 Pauli terms.");
}
