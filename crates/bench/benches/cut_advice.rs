//! Cut adviser vs. measured reality: does the light-cone/variance
//! scoring in `dataflow::cut_report` recover the empirically best cut?
//!
//! Three workloads with a designed-golden cut: the paper's Fig. 2
//! ansatz (the adviser must rank four equally-golden wires by the
//! variance surrogate), a widened-stabilizer circuit whose only
//! 3-setting cut is proven through non-Clifford widening, and a chain
//! with two 3-setting proven cuts where the adviser must break the
//! settings tie in favour of the balanced edge. For every feasible wire
//! edge the harness runs the *actual* pipeline under
//! `GoldenPolicy::ProveStatic` at an equal total shot budget, several
//! seeds per edge, and scores each edge by its mean RMS reconstruction
//! error — the measured variance-per-shot. The adviser's pick must be
//! the measured minimum on every workload and the designed cut.
//!
//! Writes `BENCH_cut_advice.json`; the assertions run at bench time so
//! the CI smoke run (`cargo bench -- --test`) trips regressions.

use criterion::{black_box, criterion_group, Criterion};
use qcut_circuit::ansatz::{GoldenAnsatz, MultiCutAnsatz};
use qcut_circuit::circuit::Circuit;
use qcut_circuit::cut::CutSpec;
use qcut_circuit::gate::Gate;
use qcut_core::allocation::ShotAllocation;
use qcut_core::analysis::AnalysisConfig;
use qcut_core::dataflow::{cut_report, prove_golden_bases, CutReport};
use qcut_core::fragment::Fragmenter;
use qcut_core::golden::GoldenPolicy;
use qcut_core::pipeline::{CutExecutor, ExecutionOptions, PostProcess};
use qcut_device::ideal::IdealBackend;
use qcut_sim::statevector::StateVector;
use qcut_stats::distribution::Distribution;

/// Equal total budget for every measured edge (matches the adviser's
/// planning-time surrogate budget).
const MEASURE_BUDGET: u64 = 9_000;
/// Independent backend seeds averaged per edge.
const REPS: u64 = 64;

/// A workload with a designed best cut the adviser should recover.
fn workloads() -> Vec<(&'static str, Circuit, CutSpec)> {
    // 1. The paper's Fig. 2 golden ansatz: real upstream, Y provable.
    let (ansatz, ansatz_cut) = GoldenAnsatz::new(5, 4).build();

    // 2. Widened stabilizer: the non-Clifford block on qubits 0–1 widens
    //    the tableau, but wire 2 enters its CZ in |0> and the Z2
    //    generator survives the widening, so cutting there proves X and
    //    Y (3 settings). Every other feasible edge is either a 6-setting
    //    real wire or fully widened at 9 settings — the designed cut is
    //    the unique minimum.
    let mut widened = Circuit::new(4);
    widened.rx(0.8, 0).ry(1.1, 1).cx(0, 1).rz(0.6, 1).cz(1, 2);
    widened.rx(0.5, 3).cx(2, 3).ry(0.9, 3).cz(2, 3);
    let widened_cut = CutSpec::single(2, 0);

    // 3. Real chain with a settings tie: wire 2 enters the (Clifford) CY
    //    in |0>, so its stabilizer survives even though the control was
    //    already widened by the Ry gates — cutting (q2, pos 0) proves X
    //    and Y (3 settings). Wire 3 after its CX is also a 3-setting
    //    proven cut, but lopsided (single-gate downstream); the adviser
    //    must break the tie with the variance surrogate and pick the
    //    balanced edge.
    let mut chain = Circuit::new(4);
    chain.ry(1.1, 0).ry(0.7, 1).cx(0, 1);
    chain.push(Gate::Cy, &[1, 2]);
    chain.rx(0.6, 2).cx(2, 3).ry(0.9, 3);
    let chain_cut = CutSpec::single(2, 0);

    vec![
        ("golden_ansatz_5q", ansatz, ansatz_cut),
        ("widened_stabilizer_4q", widened, widened_cut),
        ("real_chain_4q", chain, chain_cut),
    ]
}

/// RMS deviation between a finite-shot reconstruction and the truth.
fn rms_error(recon: &Distribution, truth: &Distribution) -> f64 {
    let (r, t) = (recon.values(), truth.values());
    let sum: f64 = r.iter().zip(t).map(|(a, b)| (a - b) * (a - b)).sum();
    (sum / r.len() as f64).sqrt()
}

/// Mean measured RMS error of `ProveStatic` runs through one candidate
/// edge at the shared budget.
fn measure_edge(circuit: &Circuit, spec: &CutSpec, truth: &Distribution, salt: u64) -> f64 {
    // Raw quasi-distribution: the adviser's surrogate predicts the
    // variance of the *unprocessed* estimator, so the measurement must
    // skip the (nonlinear) clip-renormalise step.
    let options = ExecutionOptions {
        allocation: Some(ShotAllocation::TotalBudget {
            total: MEASURE_BUDGET,
        }),
        postprocess: PostProcess::Raw,
        // No structural dedup: merged histograms would deliver more
        // shots than the schedule the surrogate modelled.
        dedup: false,
        ..Default::default()
    };
    let mut total = 0.0;
    for rep in 0..REPS {
        let backend = IdealBackend::new(salt.wrapping_mul(1009) + 7 * rep + 13);
        let run = CutExecutor::new(&backend)
            .run(circuit, spec, GoldenPolicy::ProveStatic, &options)
            .expect("feasible edges must execute");
        assert_eq!(
            run.report.detection_shots, 0,
            "ProveStatic must not spend detection shots"
        );
        total += rms_error(&run.distribution, truth);
    }
    total / REPS as f64
}

/// Criterion microbench: the adviser itself (static facts + simulation
/// enrichment over every wire edge of the 5-qubit ansatz), and the
/// stabilizer prover alone on the upstream fragment of a 3-cut ansatz —
/// the proof a `ProveStatic` run makes before its first shot.
fn bench_cut_advice(c: &mut Criterion) {
    let mut group = c.benchmark_group("cut_advice");
    group.sample_size(10);
    let (circuit, _) = GoldenAnsatz::new(5, 4).build();
    let config = AnalysisConfig::default();
    group.bench_function("report_golden_ansatz", |b| {
        b.iter(|| cut_report(&circuit, &config).candidates.len())
    });
    let (multi, multi_cuts) = MultiCutAnsatz::new(3, 7).build();
    let upstream = Fragmenter::fragment(&multi, &multi_cuts)
        .expect("the multi-cut ansatz is cuttable")
        .upstream;
    group.bench_function("prove_multi_cut_upstream", |b| {
        b.iter(|| prove_golden_bases(black_box(&upstream), 3).len())
    });
    group.finish();
}

criterion_group!(benches, bench_cut_advice);

/// One workload's acceptance check + JSON entry.
fn summarize(name: &str, circuit: &Circuit, designed: &CutSpec) -> String {
    let report: CutReport = cut_report(circuit, &AnalysisConfig::default());
    let advised_idx = report.best.expect("every workload has a feasible edge");
    let advised = &report.candidates[advised_idx];
    for (i, c) in report.candidates.iter().enumerate() {
        println!(
            "{name}: candidate {i} (q{}, pos {}) feasible {} settings {} proven {:?} \
             predicted {:?} score {:.5}",
            c.qubit, c.position, c.feasible, c.settings, c.proven_golden, c.predicted_rms, c.score
        );
    }
    let designed_loc = designed.cuts()[0];
    assert_eq!(
        (advised.qubit, advised.position),
        (designed_loc.qubit, designed_loc.after_op),
        "{name}: adviser picked ({}, {}) instead of the designed cut",
        advised.qubit,
        advised.position,
    );

    let truth = Distribution::from_values(
        circuit.num_qubits(),
        StateVector::from_circuit(circuit).probabilities(),
    );
    let feasible: Vec<usize> = report
        .candidates
        .iter()
        .enumerate()
        .filter(|(_, c)| c.feasible)
        .map(|(i, _)| i)
        .collect();
    let measured: Vec<(usize, f64)> = feasible
        .iter()
        .map(|&i| {
            let c = &report.candidates[i];
            let spec = CutSpec::single(c.qubit, c.position);
            (i, measure_edge(circuit, &spec, &truth, i as u64))
        })
        .collect();
    for &(i, rms) in &measured {
        let c = &report.candidates[i];
        println!(
            "{name}: edge {i} = (q{}, pos {}) settings {} proven {:?} predicted {:?} \
             measured {rms:.5}",
            c.qubit, c.position, c.settings, c.proven_golden, c.predicted_rms
        );
    }
    let (min_idx, min_rms) = measured
        .iter()
        .copied()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("at least one feasible edge");
    let advised_rms = measured
        .iter()
        .find(|(i, _)| *i == advised_idx)
        .expect("the advised edge is feasible")
        .1;
    // The acceptance bar: the adviser's pick is the measured-best edge
    // (lowest mean RMS error per shot at equal budget).
    assert_eq!(
        advised_idx, min_idx,
        "{name}: adviser picked edge {advised_idx} ({advised_rms:.5} RMS) but edge \
         {min_idx} measured {min_rms:.5}"
    );

    format!(
        "    {{\"name\": \"{name}\", \"candidates\": {}, \"feasible\": {}, \
         \"advised_qubit\": {}, \"advised_position\": {}, \"advised_settings\": {}, \
         \"proven_golden\": {}, \"predicted_rms\": {}, \
         \"advised_measured_rms\": {advised_rms:.6}, \"min_measured_rms\": {min_rms:.6}, \
         \"recovered\": true}}",
        report.candidates.len(),
        feasible.len(),
        advised.qubit,
        advised.position,
        advised.settings,
        advised.proven_golden.len(),
        advised
            .predicted_rms
            .map_or_else(|| "null".to_string(), |v| format!("{v:.6}")),
    )
}

/// Writes the machine-readable summary the acceptance gate reads.
fn write_summary() {
    let entries: Vec<String> = workloads()
        .iter()
        .map(|(name, circuit, designed)| summarize(name, circuit, designed))
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"cut_advice\",\n  \"workload\": \
         \"3 designed-golden circuits; every feasible wire edge executed under \
         GoldenPolicy::ProveStatic at a {MEASURE_BUDGET}-shot total budget, {REPS} seeds \
         per edge\",\n  \
         \"metric\": \"mean RMS reconstruction error per edge (measured variance/shot); \
         the adviser's pick must be the measured minimum and the designed cut\",\n  \
         \"shot_budget\": {MEASURE_BUDGET},\n  \"reps\": {REPS},\n  \
         \"circuits\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    let path = qcut_bench::artifact_path("BENCH_cut_advice.json");
    std::fs::write(&path, &json).expect("write bench summary");
    println!("wrote {}:\n{json}", path.display());
}

fn main() {
    benches();
    write_summary();
}
