//! Prefix-sharing ablation: gather-simulation throughput with the
//! `PrefixForest` batch walk on vs off.
//!
//! The workload is the upstream half of a K-cut gather: `3^K` measurement
//! variants of one deep fragment, differing only in the ≤2-gate basis
//! rotation appended per cut port. With sharing on (the batched
//! `execute(&backend, true)`), the fragment is simulated once and only
//! the rotation suffixes fork; with sharing off (`execute(&backend,
//! false)`, each job through `Backend::run` in turn), every variant pays
//! the full fragment — `O(G + Σ suffix)` vs `O(V·G)` gate applications.
//! Both produce the same counts on an equally seeded backend.
//!
//! Besides the criterion numbers, the bench writes a machine-readable
//! `BENCH_prefix_sharing.json` with median wall times and the on/off
//! speedup per K (3 quick iterations under `cargo bench -- --test`).

use criterion::{criterion_group, BenchmarkId, Criterion};
use qcut_circuit::circuit::Circuit;
use qcut_circuit::random::{random_circuit, RandomCircuitConfig};
use qcut_core::basis::{encode_meas, BasisPlan};
use qcut_core::jobgraph::{Channel, JobGraph};
use qcut_device::ideal::IdealBackend;
use qcut_sim::basis_change::append_basis_rotation;
use std::time::Instant;

const WIDTH: usize = 10;
const DEPTH: usize = 30;
const SHOTS: u64 = 256;

/// The `3^K` upstream measurement variants of one deep fragment, keyed for
/// the gather graph.
fn gather_workload(k: usize) -> Vec<(Circuit, u64)> {
    let base = random_circuit(
        WIDTH,
        RandomCircuitConfig {
            depth: DEPTH,
            two_qubit_prob: 0.5,
        },
        7,
    );
    let ports: Vec<usize> = (WIDTH - k..WIDTH).collect();
    BasisPlan::standard(k)
        .all_meas_settings()
        .iter()
        .map(|setting| {
            let mut c = base.clone();
            for (i, basis) in setting.iter().enumerate() {
                append_basis_rotation(&mut c, basis.pauli(), ports[i]);
            }
            (c, encode_meas(setting))
        })
        .collect()
}

/// One gather: plan the graph and execute it, batched through the prefix
/// forest when `sharing`, job by job otherwise.
fn run_gather(jobs: &[(Circuit, u64)], sharing: bool) -> u64 {
    let mut graph = JobGraph::new();
    for (circuit, key) in jobs {
        graph.add_job(circuit.clone(), (Channel::UpstreamMeas, *key), SHOTS);
    }
    let backend = IdealBackend::new(3);
    let run = graph.execute(&backend, sharing).unwrap();
    run.stats.shots_executed
}

fn bench_prefix_sharing(c: &mut Criterion) {
    let mut group = c.benchmark_group("prefix_gather");
    group.sample_size(20);
    for k in [1usize, 2] {
        let jobs = gather_workload(k);
        for (label, sharing) in [("sharing_on", true), ("sharing_off", false)] {
            group.bench_with_input(BenchmarkId::new(label, k), &k, |b, _| {
                b.iter(|| run_gather(&jobs, sharing))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_prefix_sharing);

/// Median wall time of `iters` runs, in microseconds.
fn median_micros(iters: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..iters)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// Writes the machine-readable summary the acceptance gate reads.
fn write_summary(test_mode: bool) {
    let iters = if test_mode { 3 } else { 25 };
    let mut entries = Vec::new();
    for k in [1usize, 2] {
        let jobs = gather_workload(k);
        // Warm up once per configuration so first-touch costs don't skew
        // the ablation.
        run_gather(&jobs, true);
        run_gather(&jobs, false);
        let on = median_micros(iters, || {
            run_gather(&jobs, true);
        });
        let off = median_micros(iters, || {
            run_gather(&jobs, false);
        });
        entries.push(format!(
            "    {{\"k\": {k}, \"variants\": {}, \"shots_per_setting\": {SHOTS}, \
             \"sharing_on_us\": {on:.1}, \"sharing_off_us\": {off:.1}, \
             \"speedup\": {:.2}}}",
            jobs.len(),
            off / on,
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"prefix_sharing\",\n  \"workload\": \
         \"upstream gather, {WIDTH}q fragment, depth {DEPTH}, 3^K variants\",\n  \
         \"iterations\": {iters},\n  \"results\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    let path = qcut_bench::artifact_path("BENCH_prefix_sharing.json");
    std::fs::write(&path, &json).expect("write bench summary");
    println!("wrote {}:\n{json}", path.display());
}

fn main() {
    benches();
    write_summary(std::env::args().any(|a| a == "--test"));
}
