//! Integration tests of the device layer with the cutting pipeline:
//! noise ordering, timing accounting, parallel executors, SIC on devices.

use qcut::cutting::pipeline::ReconstructionMethod;
use qcut::prelude::*;

fn truth_of(circuit: &Circuit) -> Distribution {
    Distribution::from_values(
        circuit.num_qubits(),
        StateVector::from_circuit(circuit).probabilities(),
    )
}

#[test]
fn noisier_devices_reconstruct_worse() {
    let (circuit, cut) = GoldenAnsatz::new(5, 71).build();
    let truth = truth_of(&circuit);
    let options = ExecutionOptions {
        shots_per_setting: 20_000,
        ..Default::default()
    };
    let policy = GoldenPolicy::KnownAPriori(vec![(0, Pauli::Y)]);

    let mut dws = Vec::new();
    let ideal = IdealBackend::new(1);
    let mild = presets::ibm_5q(1);
    let harsh = presets::very_noisy(1);
    let backends: [&dyn qcut::device::backend::Backend; 3] = [&ideal, &mild, &harsh];
    for backend in backends {
        let run = CutExecutor::new(backend)
            .run(&circuit, &cut, policy.clone(), &options)
            .unwrap();
        dws.push(weighted_distance(&run.distribution, &truth));
    }
    assert!(
        dws[0] < dws[2],
        "harsh noise should beat ideal in d_w: {dws:?}"
    );
    assert!(
        dws[1] < dws[2] * 1.5 + 0.05,
        "mild noise should be under harsh: {dws:?}"
    );
}

#[test]
fn device_time_scales_with_subcircuit_count() {
    // Fig. 5's mechanism in one assertion: simulated device seconds per
    // method are proportional to the number of subcircuit jobs.
    let (circuit, cut) = GoldenAnsatz::new(5, 73).build();
    let backend = presets::ibm_5q(2);
    let executor = CutExecutor::new(&backend);
    let options = ExecutionOptions {
        shots_per_setting: 1000,
        ..Default::default()
    };
    let standard = executor
        .run(&circuit, &cut, GoldenPolicy::Disabled, &options)
        .unwrap();
    let golden = executor
        .run(
            &circuit,
            &cut,
            GoldenPolicy::KnownAPriori(vec![(0, Pauli::Y)]),
            &options,
        )
        .unwrap();
    let ratio = golden.report.simulated_device_seconds / standard.report.simulated_device_seconds;
    assert!(
        (ratio - 6.0 / 9.0).abs() < 0.02,
        "device-time ratio {ratio} should be ≈ 2/3"
    );
}

#[test]
fn sic_runs_on_noisy_device() {
    let (circuit, cut) = GoldenAnsatz::new(5, 79).build();
    let backend = presets::ibm_5q(3);
    let executor = CutExecutor::new(&backend);
    let run = executor
        .run(
            &circuit,
            &cut,
            GoldenPolicy::Disabled,
            &ExecutionOptions {
                shots_per_setting: 10_000,
                method: ReconstructionMethod::Sic,
                ..Default::default()
            },
        )
        .unwrap();
    assert_eq!(run.report.downstream_settings, 4);
    let d = total_variation_distance(&run.distribution, &truth_of(&circuit));
    assert!(d < 0.35, "noisy SIC reconstruction off by {d}");
}

#[test]
fn backend_trait_object_works_with_pipeline() {
    // The executor is generic over `?Sized` backends, so `&dyn Backend`
    // composes with the rest of the stack.
    let ideal = IdealBackend::new(5);
    let backend: &dyn qcut::device::backend::Backend = &ideal;
    let executor = CutExecutor::new(backend);
    let (circuit, cut) = GoldenAnsatz::new(5, 83).build();
    let run = executor
        .run(
            &circuit,
            &cut,
            GoldenPolicy::Disabled,
            &ExecutionOptions {
                shots_per_setting: 5000,
                ..Default::default()
            },
        )
        .unwrap();
    assert_eq!(run.report.subcircuits_executed, 9);
}

#[test]
fn fragments_fit_where_the_full_circuit_does_not_noisy() {
    // Same capacity story on the noisy device: its 5-qubit limit refuses a
    // 7-qubit circuit, but the 4-qubit fragments run.
    let (circuit, cut) = GoldenAnsatz::new(7, 89).build();
    let five_qubit_device = presets::ibm_5q(4);
    let executor = CutExecutor::new(&five_qubit_device);
    assert!(executor.run_uncut(&circuit, 100).is_err());
    let run = executor
        .run(
            &circuit,
            &cut,
            GoldenPolicy::KnownAPriori(vec![(0, Pauli::Y)]),
            &ExecutionOptions {
                shots_per_setting: 4000,
                ..Default::default()
            },
        )
        .unwrap();
    let d = total_variation_distance(&run.distribution, &truth_of(&circuit));
    assert!(d < 0.4, "7q-on-5q noisy reconstruction off by {d}");
}
