//! Integration tests of the device layer with the cutting pipeline:
//! noise ordering, timing accounting, parallel executors, SIC on devices.

use qcut::circuit::ansatz::MultiCutAnsatz;
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

/// FNV-1a over the bit patterns of a distribution's values: equal digests
/// mean bit-identical distributions (up to 64-bit hashing).
fn bits_digest(distribution: &Distribution) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in distribution.values() {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn noisy_online_detection_outputs_are_pinned() {
    // The `noisy_detect` setting: a 7-qubit GoldenAnsatz on the noisy
    // ibm_7q preset with online detection. A change to the density-matrix
    // kernels that moves any sampled count moves these values, so a
    // faster simulation must leave them bit for bit where they are.
    let detection = GoldenPolicy::DetectOnline(qcut::cutting::golden::OnlineConfig {
        max_shots: 60_000,
        ..Default::default()
    });
    let options = ExecutionOptions {
        shots_per_setting: 1000,
        ..Default::default()
    };
    // (circuit and backend seed, detection shots, gather shots, digest);
    // every seed detects Y golden.
    let pinned = [
        (0, 5500, 6000, 0x4c74_5929_a25c_aed8),
        (1, 9000, 6000, 0xf2db_7a3f_defd_8416),
        (2, 7000, 6000, 0x7a4c_1f5e_cf7a_2a5b),
        (3, 5500, 6000, 0x3a48_9bc4_6305_5a5e),
    ];
    for (seed, detection_shots, total_shots, digest) in pinned {
        let (circuit, cut) = GoldenAnsatz::new(7, seed).build();
        let backend = presets::ibm_7q(seed);
        let run = CutExecutor::new(&backend)
            .run(&circuit, &cut, detection.clone(), &options)
            .unwrap();
        assert_eq!(run.report.neglected, vec![vec![Pauli::Y]], "seed {seed}");
        assert_eq!(run.report.detection_shots, detection_shots, "seed {seed}");
        assert_eq!(run.report.total_shots, total_shots, "seed {seed}");
        assert_eq!(bits_digest(&run.distribution), digest, "seed {seed}");
    }
}

/// Runs online detection on `circuit` twice from seed 1: on `ibm_7q`,
/// whose tier-2 cache keeps the density matrices a cut's second look
/// evolves and serves every later look from them, and on the same preset
/// with every job sent through `Backend::run` (`parallel: false`), which
/// evolves each job on its own and never consults the cache. Checks
/// that the outputs are bit-equal and that every detection job after a
/// cut's second look resumed from a cached state.
fn assert_detection_resumes_from_cached_states(circuit: &Circuit, cut: &CutSpec) {
    let config = qcut::cutting::golden::OnlineConfig {
        max_shots: 60_000,
        ..Default::default()
    };
    let options = ExecutionOptions {
        shots_per_setting: 1000,
        ..Default::default()
    };
    let run = |options: &ExecutionOptions| {
        CutExecutor::new(&presets::ibm_7q(1))
            .run(circuit, cut, GoldenPolicy::DetectOnline(config), options)
            .unwrap()
    };
    let (hot, plain) = (
        run(&options),
        run(&ExecutionOptions {
            parallel: false,
            ..options.clone()
        }),
    );
    let num_cuts = cut.num_cuts();
    // Every look submits one job per setting: 3^(K-1) of them.
    let settings = 3u64.pow(u32::try_from(num_cuts).unwrap() - 1);
    let detection_jobs = hot.report.detection_shots / config.batch_shots;
    let cold_jobs = 2 * num_cuts as u64 * settings;
    assert!(detection_jobs > cold_jobs, "more than two looks ran");
    // Each job of a later look ends at a trie node of its own, and the
    // cache serves every one of those nodes.
    assert!(
        hot.report.states_reused >= detection_jobs - cold_jobs,
        "{} reused for {detection_jobs} detection jobs",
        hot.report.states_reused
    );
    assert_eq!(plain.report.states_reused, 0);
    assert!(hot.report.gates_applied < plain.report.gates_applied);
    assert_eq!(hot.report.neglected, plain.report.neglected);
    assert_eq!(hot.report.detection_shots, plain.report.detection_shots);
    assert_eq!(hot.report.total_shots, plain.report.total_shots);
    assert!(hot
        .distribution
        .values()
        .iter()
        .zip(plain.distribution.values())
        .all(|(a, b)| a.to_bits() == b.to_bits()));
}

#[test]
fn noisy_online_detection_resumes_from_cached_states() {
    // One cut: each look resubmits one circuit.
    let (circuit, cut) = GoldenAnsatz::new(7, 1).build();
    assert_detection_resumes_from_cached_states(&circuit, &cut);
}

#[test]
fn three_cut_noisy_online_detection_resumes_from_cached_states() {
    // Three cuts: each look submits nine circuits, and the cache holds
    // the whole prefix forest they share.
    let (circuit, cut) = MultiCutAnsatz::new(3, 1).build();
    assert_eq!(cut.num_cuts(), 3);
    assert_detection_resumes_from_cached_states(&circuit, &cut);
}
