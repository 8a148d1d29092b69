//! Micro-benchmarks of the simulation substrate: gate kernels, circuit
//! execution, sampling, density-matrix noise kernels, one noisy
//! fragment job and one online-detection look with and without the noisy
//! backend's state cache.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qcut_circuit::ansatz::GoldenAnsatz;
use qcut_circuit::circuit::Circuit;
use qcut_circuit::gate::Gate;
use qcut_circuit::random::{random_circuit, RandomCircuitConfig};
use qcut_core::basis::MeasBasis;
use qcut_core::fragment::Fragmenter;
use qcut_core::tomography::build_upstream_circuit;
use qcut_device::backend::{Backend, JobSpec};
use qcut_device::presets;
use qcut_sim::counts::CdfTable;
use qcut_sim::density::DensityMatrix;
use qcut_sim::noise::KrausChannel;
use qcut_sim::statevector::StateVector;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_single_gate_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("statevector_gate");
    for n in [8usize, 12, 16] {
        group.bench_with_input(BenchmarkId::new("h_on_middle", n), &n, |b, &n| {
            let mut sv = StateVector::zero_state(n);
            let h = Gate::H.matrix();
            b.iter(|| sv.apply_one_qubit(&h, n / 2));
        });
        group.bench_with_input(BenchmarkId::new("cx_adjacent", n), &n, |b, &n| {
            let mut sv = StateVector::zero_state(n);
            let cx = Gate::Cx.matrix();
            b.iter(|| sv.apply_two_qubit(&cx, n / 2, n / 2 + 1));
        });
    }
    group.finish();
}

fn bench_circuit_execution(c: &mut Criterion) {
    let mut group = c.benchmark_group("statevector_circuit");
    for n in [5usize, 7, 10] {
        let circuit = random_circuit(
            n,
            RandomCircuitConfig {
                depth: 10,
                two_qubit_prob: 0.5,
            },
            42,
        );
        group.bench_with_input(
            BenchmarkId::new("random_depth10", n),
            &circuit,
            |b, circ| {
                b.iter(|| StateVector::from_circuit(circ));
            },
        );
    }
    group.finish();
}

fn bench_sampling(c: &mut Criterion) {
    let mut group = c.benchmark_group("sampling");
    let mut circuit = Circuit::new(7);
    for q in 0..7 {
        circuit.h(q);
    }
    let sv = StateVector::from_circuit(&circuit);
    for shots in [1000u64, 10_000] {
        group.bench_with_input(BenchmarkId::new("shots", shots), &shots, |b, &shots| {
            let mut rng = StdRng::seed_from_u64(1);
            b.iter(|| sv.sample(shots, &mut rng));
        });
    }
    // One prebuilt table sampled per job, as the batch engine does: a
    // noisy detection fragment (4 bits), a `wide_recon` fragment (10 bits)
    // and a table much wider than its shot count (16 bits, 100 shots).
    for (bits, shots) in [(4usize, 1000u64), (10, 1000), (16, 100)] {
        let mut gen = StdRng::seed_from_u64(bits as u64);
        let probs: Vec<f64> = (0..1usize << bits).map(|_| gen.gen::<f64>()).collect();
        let table = CdfTable::from_probs(bits, &probs);
        group.bench_with_input(
            BenchmarkId::new(format!("cdf_table_{bits}_bits"), shots),
            &shots,
            |b, &shots| {
                let mut rng = StdRng::seed_from_u64(1);
                b.iter(|| table.sample(shots, &mut rng));
            },
        );
    }
    group.finish();
}

fn bench_density_noise(c: &mut Criterion) {
    let mut group = c.benchmark_group("density_matrix");
    let depol = KrausChannel::depolarizing(0.01);
    let depol2 = KrausChannel::depolarizing_two(0.01);
    let depol2_superop = depol2.superoperator();
    for n in [3usize, 5, 7] {
        group.bench_with_input(BenchmarkId::new("kraus_1q", n), &n, |b, &n| {
            let mut dm = DensityMatrix::zero_state(n);
            b.iter(|| dm.apply_kraus_one(depol.operators(), n / 2));
        });
        group.bench_with_input(BenchmarkId::new("kraus_2q", n), &n, |b, &n| {
            let mut dm = DensityMatrix::zero_state(n);
            b.iter(|| dm.apply_kraus_two(depol2.operators(), 0, 1));
        });
        group.bench_with_input(BenchmarkId::new("superop_2q", n), &n, |b, &n| {
            let mut dm = DensityMatrix::zero_state(n);
            b.iter(|| dm.apply_superop(&depol2_superop, &[0, 1]));
        });
    }
    // One noisy fragment job's exact distribution: the 4-qubit upstream
    // fragment of the 7-qubit golden ansatz on the ibm_7q preset.
    let (circuit, cut) = GoldenAnsatz::new(7, 7).build();
    let fragment = Fragmenter::fragment(&circuit, &cut)
        .expect("the golden ansatz's own cut is valid")
        .upstream
        .circuit;
    let device = presets::ibm_7q(0);
    group.bench_with_input(
        BenchmarkId::new("noisy_fragment", fragment.num_qubits()),
        &fragment,
        |b, fragment| {
            b.iter(|| device.exact_probabilities(fragment));
        },
    );
    group.finish();
}

/// One look of online golden detection on the `noisy_detect` setting: a
/// one-job, 500-shot batch of the 4-qubit Y-detection circuit of the
/// 7-qubit golden ansatz on `ibm_7q`. Cold runs the job through the
/// per-job [`Backend::run`], which bypasses the state cache; warm resumes from the ρ an earlier look
/// left in the cache, leaving readout, the CDF table and sampling.
fn bench_noisy_detection_look(c: &mut Criterion) {
    let mut group = c.benchmark_group("noisy_detection_look");
    let (circuit, cut) = GoldenAnsatz::new(7, 7).build();
    let upstream = Fragmenter::fragment(&circuit, &cut)
        .expect("the golden ansatz's own cut is valid")
        .upstream;
    let detection = build_upstream_circuit(&upstream, &[MeasBasis::Y]);
    let jobs = [JobSpec::new(&detection, 500)];
    let cold = presets::ibm_7q(0);
    let warm = presets::ibm_7q(0);
    // The cache admits the look's ρ the second time it is evolved.
    for _ in 0..2 {
        warm.run_batch(&jobs);
    }
    let width = detection.num_qubits();
    group.bench_with_input(BenchmarkId::new("cold", width), &jobs, |b, jobs| {
        b.iter(|| cold.run(&detection, jobs[0].shots));
    });
    group.bench_with_input(BenchmarkId::new("warm", width), &jobs, |b, jobs| {
        b.iter(|| warm.run_batch(jobs));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_single_gate_kernels,
    bench_circuit_execution,
    bench_sampling,
    bench_density_noise,
    bench_noisy_detection_look
);
criterion_main!(benches);
