//! Shot-allocation ablation: uniform vs usage-weighted budgets at a fixed
//! total shot count.
//!
//! Two questions, one workload family (`BasisPlan::standard(K)` gathers):
//!
//! 1. **Quality** — at the same total budget, how much estimated
//!    reconstruction variance does `ShotAllocation::WeightedByUsage` shave
//!    off the even split? Measured deterministically with exact tensors
//!    and `variance_from_schedule`, reported as *variance per shot*
//!    (mean per-outcome variance × total budget — a budget-normalised
//!    constant under the 1/N law, so the ratio is budget-independent).
//! 2. **Cost** — what does the weighted schedule cost to *compute and
//!    execute*? Criterion times the full `CutExecutor::run` under each
//!    policy; scheduling is noise next to simulation, which is the point.
//!
//! Besides the criterion numbers, the bench writes a machine-readable
//! `BENCH_allocation.json` with the variance-per-shot metric per K
//! (3 quick iterations under `cargo bench -- --test`).

use criterion::{criterion_group, BenchmarkId, Criterion};
use qcut_circuit::ansatz::{GoldenAnsatz, MultiCutAnsatz};
use qcut_circuit::circuit::Circuit;
use qcut_circuit::cut::CutSpec;
use qcut_core::allocation::{schedule_for_plan, ShotAllocation};
use qcut_core::basis::BasisPlan;
use qcut_core::fragment::Fragmenter;
use qcut_core::golden::GoldenPolicy;
use qcut_core::pipeline::{CutExecutor, ExecutionOptions, ReconstructionMethod};
use qcut_core::reconstruction::{exact_downstream_tensor, exact_upstream_tensor};
use qcut_core::variance::variance_from_schedule;
use qcut_device::ideal::IdealBackend;

const TOTAL_PER_SETTING: u64 = 1000;

/// The K-cut workload: the paper's golden ansatz for K = 1, the multi-cut
/// ansatz beyond.
fn workload(k: usize) -> (Circuit, CutSpec) {
    if k == 1 {
        GoldenAnsatz::new(5, 11).build()
    } else {
        MultiCutAnsatz::new(k, 11).build()
    }
}

fn policies(total: u64) -> [(&'static str, ShotAllocation); 2] {
    [
        ("uniform", ShotAllocation::TotalBudget { total }),
        ("weighted", ShotAllocation::WeightedByUsage { total }),
    ]
}

fn bench_allocation(c: &mut Criterion) {
    let mut group = c.benchmark_group("allocation_gather");
    group.sample_size(20);
    for k in [1usize, 2] {
        let (circuit, cut) = workload(k);
        let total = BasisPlan::standard(k).total_settings() as u64 * TOTAL_PER_SETTING;
        for (label, policy) in policies(total) {
            let options = ExecutionOptions {
                allocation: Some(policy),
                ..Default::default()
            };
            group.bench_with_input(BenchmarkId::new(label, k), &k, |b, _| {
                b.iter(|| {
                    let backend = IdealBackend::new(17);
                    CutExecutor::new(&backend)
                        .run(&circuit, &cut, GoldenPolicy::Disabled, &options)
                        .unwrap()
                        .report
                        .total_shots
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_allocation);

/// Writes the machine-readable summary the acceptance gate reads: the
/// deterministic variance-per-shot of each policy at equal total budget
/// (exact tensors — no sampling, so no iteration count to report).
fn write_summary() {
    let mut entries = Vec::new();
    for k in [1usize, 2] {
        let (circuit, cut) = workload(k);
        let frags = Fragmenter::fragment(&circuit, &cut).expect("valid cut");
        let plan = BasisPlan::standard(k);
        let up = exact_upstream_tensor(&frags.upstream, &plan);
        let down = exact_downstream_tensor(&frags.downstream, &plan);
        let total = plan.total_settings() as u64 * TOTAL_PER_SETTING;
        let mut var_per_shot = [0.0f64; 2];
        for (slot, (_, policy)) in var_per_shot.iter_mut().zip(policies(total)) {
            let sched = schedule_for_plan(&plan, policy).expect("budget covers the plan");
            assert_eq!(sched.total(), total, "policies must spend identically");
            let err = variance_from_schedule(
                &frags,
                &plan,
                ReconstructionMethod::Eigenstate,
                &up,
                &down,
                &sched,
            );
            let dim = 1u64 << circuit.num_qubits();
            let mean_var: f64 = (0..dim).map(|b| err.variance(b)).sum::<f64>() / dim as f64;
            *slot = mean_var * total as f64;
        }
        let [uniform, weighted] = var_per_shot;
        entries.push(format!(
            "    {{\"k\": {k}, \"total_shots\": {total}, \
             \"var_per_shot_uniform\": {uniform:.6e}, \
             \"var_per_shot_weighted\": {weighted:.6e}, \
             \"variance_ratio\": {:.4}}}",
            uniform / weighted,
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"allocation\",\n  \"workload\": \
         \"standard(K) gather, equal total budget, uniform vs usage-weighted\",\n  \
         \"metric\": \"mean per-outcome variance x total budget (lower is better)\",\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    let path = qcut_bench::artifact_path("BENCH_allocation.json");
    std::fs::write(&path, &json).expect("write bench summary");
    println!("wrote {}:\n{json}", path.display());
}

fn main() {
    benches();
    write_summary();
}
