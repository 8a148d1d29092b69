//! Cross-crate integration tests: the full pipeline against ground truth
//! on ideal and noisy backends, across circuit widths and policies.

use qcut::prelude::*;

fn truth_of(circuit: &Circuit) -> Distribution {
    Distribution::from_values(
        circuit.num_qubits(),
        StateVector::from_circuit(circuit).probabilities(),
    )
}

#[test]
fn pipeline_matches_truth_on_ideal_backend_both_widths() {
    for width in [5usize, 7] {
        let (circuit, cut) = GoldenAnsatz::new(width, 31).build();
        let truth = truth_of(&circuit);
        let backend = IdealBackend::new(3);
        let executor = CutExecutor::new(&backend);
        let options = ExecutionOptions {
            shots_per_setting: 20_000,
            ..Default::default()
        };
        for policy in [
            GoldenPolicy::Disabled,
            GoldenPolicy::KnownAPriori(vec![(0, Pauli::Y)]),
            GoldenPolicy::detect_exact(),
        ] {
            let run = executor
                .run(&circuit, &cut, policy.clone(), &options)
                .unwrap();
            let d = total_variation_distance(&run.distribution, &truth);
            assert!(
                d < 0.06,
                "width {width}, policy {policy:?}: TVD {d} too large"
            );
        }
    }
}

#[test]
fn golden_and_standard_agree_with_each_other() {
    let (circuit, cut) = GoldenAnsatz::new(5, 77).build();
    let backend = IdealBackend::new(8);
    let executor = CutExecutor::new(&backend);
    let options = ExecutionOptions {
        shots_per_setting: 30_000,
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
    let d = total_variation_distance(&standard.distribution, &golden.distribution);
    assert!(d < 0.05, "methods disagree by {d}");
    assert!(golden.report.total_shots < standard.report.total_shots);
}

#[test]
fn pipeline_works_on_noisy_device() {
    let (circuit, cut) = GoldenAnsatz::new(5, 13).build();
    let truth = truth_of(&circuit);
    let backend = presets::ibm_5q(4);
    let executor = CutExecutor::new(&backend);
    let options = ExecutionOptions {
        shots_per_setting: 10_000,
        ..Default::default()
    };
    let run = executor
        .run(
            &circuit,
            &cut,
            GoldenPolicy::KnownAPriori(vec![(0, Pauli::Y)]),
            &options,
        )
        .unwrap();
    // Noisy: not exact, but in the right neighbourhood.
    let d = total_variation_distance(&run.distribution, &truth);
    assert!(d < 0.35, "noisy reconstruction unreasonably far: {d}");
    // Distribution must be a proper distribution after clipping.
    assert!(run.distribution.is_proper(1e-9));
}

#[test]
fn cutting_lets_small_devices_run_big_circuits() {
    // The motivating use case: a 5-qubit circuit on a 3-qubit device.
    let (circuit, cut) = GoldenAnsatz::new(5, 17).build();
    let small_device = IdealBackend::new(5).with_capacity(3);
    let executor = CutExecutor::new(&small_device);

    // Uncut: impossible.
    assert!(executor.run_uncut(&circuit, 1000).is_err());

    // Cut: both 3-qubit fragments fit.
    let run = executor
        .run(
            &circuit,
            &cut,
            GoldenPolicy::Disabled,
            &ExecutionOptions {
                shots_per_setting: 20_000,
                ..Default::default()
            },
        )
        .unwrap();
    let d = total_variation_distance(&run.distribution, &truth_of(&circuit));
    assert!(d < 0.06, "cut run on small device off by {d}");
}

#[test]
fn seven_qubit_circuit_on_four_qubit_device() {
    let (circuit, cut) = GoldenAnsatz::new(7, 23).build();
    let small_device = IdealBackend::new(6).with_capacity(4);
    let executor = CutExecutor::new(&small_device);
    assert!(executor.run_uncut(&circuit, 100).is_err());
    let run = executor
        .run(
            &circuit,
            &cut,
            GoldenPolicy::KnownAPriori(vec![(0, Pauli::Y)]),
            &ExecutionOptions {
                shots_per_setting: 20_000,
                ..Default::default()
            },
        )
        .unwrap();
    let d = total_variation_distance(&run.distribution, &truth_of(&circuit));
    assert!(d < 0.08, "7q on 4q device off by {d}");
}

#[test]
fn postprocessing_variants_stay_close() {
    use qcut::cutting::pipeline::PostProcess;
    let (circuit, cut) = GoldenAnsatz::new(5, 41).build();
    let truth = truth_of(&circuit);
    let backend = IdealBackend::new(12);
    let executor = CutExecutor::new(&backend);
    for post in [
        PostProcess::Raw,
        PostProcess::ClipRenormalize,
        PostProcess::SimplexProjection,
    ] {
        let run = executor
            .run(
                &circuit,
                &cut,
                GoldenPolicy::Disabled,
                &ExecutionOptions {
                    shots_per_setting: 20_000,
                    postprocess: post,
                    ..Default::default()
                },
            )
            .unwrap();
        let d = total_variation_distance(&run.distribution.clip_renormalize(), &truth);
        assert!(d < 0.06, "postprocess {post:?} off by {d}");
    }
}

#[test]
fn report_accounting_is_consistent() {
    let (circuit, cut) = GoldenAnsatz::new(5, 53).build();
    let backend = presets::ibm_5q(9);
    let executor = CutExecutor::new(&backend);
    let options = ExecutionOptions {
        shots_per_setting: 1000,
        ..Default::default()
    };
    let run = executor
        .run(&circuit, &cut, GoldenPolicy::Disabled, &options)
        .unwrap();
    let r = &run.report;
    assert_eq!(
        r.subcircuits_executed,
        r.upstream_settings + r.downstream_settings
    );
    assert_eq!(r.total_shots, r.subcircuits_executed as u64 * 1000);
    // Device time ≈ subcircuits × (job overhead + shot time).
    let per_job = r.simulated_device_seconds / r.subcircuits_executed as f64;
    assert!(per_job > 1.85 && per_job < 2.6, "per-job time {per_job}");
}

/// `FailurePolicy::Degrade` cannot salvage a lost SIC preparation: no
/// basis neglect drops one, so the run fails with the same typed
/// `PipelineError::Execution` the `Fail` policy raises, naming the lost
/// preparation and every delivered setting. The eigenstate twin, which
/// loses `|+>`, salvages the run by neglecting X.
#[test]
fn degrade_cannot_salvage_a_lost_sic_preparation() {
    use qcut::cutting::jobgraph::Channel;
    use qcut::cutting::tomography::build_downstream_circuit;
    use qcut::math::SicState;
    use qcut::sim::basis_change::sic_prep_circuit;

    let shots_per_setting = 4000;
    let (circuit, cut) = GoldenAnsatz::new(5, 19).build();
    let frags = Fragmenter::fragment(&circuit, &cut).unwrap();
    let down = &frags.downstream;
    let mut lost_sic = Circuit::new(down.circuit.num_qubits());
    lost_sic.extend(&sic_prep_circuit(
        SicState::S1,
        down.circuit.num_qubits(),
        down.cut_ports[0],
    ));
    lost_sic.extend(&down.circuit);
    let options = |method| ExecutionOptions {
        shots_per_setting,
        method,
        failure: FailurePolicy::Degrade,
        ..Default::default()
    };

    let backend =
        FaultInjectingBackend::new(IdealBackend::new(5)).fail_circuit(&lost_sic, u32::MAX);
    let err = CutExecutor::new(&backend)
        .run(
            &circuit,
            &cut,
            GoldenPolicy::Disabled,
            &options(ReconstructionMethod::Sic),
        )
        .unwrap_err();
    let PipelineError::Execution(failure) = err else {
        panic!("a lost SIC preparation must fail the run, got {err:?}");
    };
    // One failed node: the S1 preparation, SIC key 1 (base 4).
    assert_eq!(failure.failed.len(), 1);
    let record = &failure.failed[0];
    assert_eq!(record.consumers.len(), 1);
    let (prep_channel, lost_key) = record.consumers[0];
    assert_ne!(prep_channel, Channel::UpstreamMeas);
    assert_eq!(lost_key, 1);
    assert_eq!(record.attempts, 1);
    assert_eq!(record.shots_lost, shots_per_setting);
    // Delivered: the three upstream settings and the other three SIC
    // preparations, on the lost preparation's channel.
    let keys_on = |channel| -> Vec<u64> {
        failure
            .succeeded
            .iter()
            .filter(|&&(c, _)| c == channel)
            .map(|&(_, k)| k)
            .collect()
    };
    assert_eq!(keys_on(Channel::UpstreamMeas), vec![0, 1, 2]);
    assert_eq!(keys_on(prep_channel), vec![0, 2, 3]);
    assert_eq!(failure.succeeded.len(), 6);

    // The eigenstate twin loses |+> and degrades by neglecting X.
    let lost_plus = build_downstream_circuit(down, &[PrepState::Xp]);
    let backend =
        FaultInjectingBackend::new(IdealBackend::new(5)).fail_circuit(&lost_plus, u32::MAX);
    let run = CutExecutor::new(&backend)
        .run(
            &circuit,
            &cut,
            GoldenPolicy::Disabled,
            &options(ReconstructionMethod::Eigenstate),
        )
        .unwrap();
    assert!(run.report.degraded);
    assert_eq!(run.report.failures.len(), 1);
    assert_eq!(run.report.neglected, vec![vec![Pauli::X]]);
}
