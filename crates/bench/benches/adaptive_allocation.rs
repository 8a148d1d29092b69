//! Two-round adaptive allocation ablation: uniform vs usage-weighted vs
//! pilot→refine Neyman budgets at a fixed total shot count.
//!
//! The workload family is deliberately **skewed**: the golden-structured
//! ansatz circuits under a `BasisPlan::standard(K)` plan (no neglection),
//! whose Y-string coefficients (nearly) vanish. Static policies cannot see
//! that — `WeightedByUsage` keeps funding the Y settings by their usage
//! count — while the adaptive pilot measures the empirical tensors,
//! scores each setting's variance contribution (`qcut_core::variance::
//! neyman_scores`), and moves the refine budget onto the settings whose
//! data the contraction actually amplifies. In effect the adaptive policy
//! recovers a golden-style shot economy *without being told* which basis
//! is negligible.
//!
//! Two measurements, like `benches/allocation.rs`:
//!
//! 1. **Quality** — variance per shot (mean per-outcome variance × total
//!    budget, computed with exact tensors and `variance_from_schedule` so
//!    all three policies are judged by the same deterministic metric; the
//!    adaptive *schedule* still comes from a genuine pilot round on the
//!    backend).
//! 2. **Cost** — criterion times the full two-round `CutExecutor::run`
//!    against the single-round policies.
//!
//! Writes `BENCH_adaptive_allocation.json`; the K = 2 row asserts the
//! ISSUE 5 acceptance bar `var_per_shot_adaptive ≤ var_per_shot_weighted`.

use criterion::{criterion_group, BenchmarkId, Criterion};
use qcut_circuit::ansatz::{GoldenAnsatz, MultiCutAnsatz};
use qcut_circuit::circuit::Circuit;
use qcut_circuit::cut::CutSpec;
use qcut_core::allocation::{
    pilot_schedule, pilot_total, refine_schedule, schedule_for_plan, ShotAllocation, ShotSchedule,
};
use qcut_core::basis::BasisPlan;
use qcut_core::execution::gather;
use qcut_core::fragment::{Fragmenter, Fragments};
use qcut_core::golden::GoldenPolicy;
use qcut_core::pipeline::{CutExecutor, ExecutionOptions, ReconstructionMethod};
use qcut_core::reconstruction::{exact_downstream_tensor, exact_upstream_tensor};
use qcut_core::variance::{neyman_scores, variance_from_schedule};
use qcut_device::ideal::IdealBackend;

const TOTAL_PER_SETTING: u64 = 1000;
const PILOT_FRACTION: f64 = 0.1;

/// The skewed K-cut workload: golden-structured circuits evaluated under
/// the *standard* plan, so the (near-)vanishing Y coefficients stay in
/// the schedule and the policies must decide what to spend on them.
fn workload(k: usize) -> (Circuit, CutSpec) {
    if k == 1 {
        GoldenAnsatz::new(5, 11).build()
    } else {
        MultiCutAnsatz::new(k, 11).build()
    }
}

fn policies(total: u64) -> [(&'static str, ShotAllocation); 3] {
    [
        ("uniform", ShotAllocation::TotalBudget { total }),
        ("weighted", ShotAllocation::WeightedByUsage { total }),
        (
            "adaptive",
            ShotAllocation::Adaptive {
                pilot_fraction: PILOT_FRACTION,
                total,
            },
        ),
    ]
}

fn bench_adaptive(c: &mut Criterion) {
    let mut group = c.benchmark_group("adaptive_allocation");
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

criterion_group!(benches, bench_adaptive);

/// Reproduces the pipeline's two-round scheduling outside the pipeline: a
/// uniform pilot gather on the backend, empirical tensors, Neyman scores,
/// largest-remainder refine. Returns the cumulative schedule so the
/// summary can judge it with the same exact-tensor metric as the static
/// policies.
fn adaptive_schedule(frags: &Fragments, plan: &BasisPlan, total: u64) -> ShotSchedule {
    let pilot = pilot_total(PILOT_FRACTION, total);
    let pilot_sched = pilot_schedule(
        plan.all_meas_settings().len(),
        plan.all_prep_settings().len(),
        pilot,
    )
    .expect("pilot covers the plan");
    let backend = IdealBackend::new(29);
    let data = gather(&backend, frags, plan, &pilot_sched).expect("pilot gather");
    let up = qcut_core::reconstruction::upstream_tensor(&frags.upstream, plan, &data);
    let down = qcut_core::reconstruction::downstream_tensor(&frags.downstream, plan, &data);
    let scores = neyman_scores(frags, plan, ReconstructionMethod::Eigenstate, &up, &down);
    refine_schedule(
        &pilot_sched,
        &scores.upstream,
        &scores.downstream,
        total - pilot,
    )
}

/// Writes the machine-readable summary the acceptance gate reads.
fn write_summary() {
    let mut entries = Vec::new();
    for k in [1usize, 2] {
        let (circuit, cut) = workload(k);
        let frags = Fragmenter::fragment(&circuit, &cut).expect("valid cut");
        let plan = BasisPlan::standard(k);
        let up = exact_upstream_tensor(&frags.upstream, &plan);
        let down = exact_downstream_tensor(&frags.downstream, &plan);
        let total = plan.total_settings() as u64 * TOTAL_PER_SETTING;

        let var_per_shot = |sched: &ShotSchedule| {
            assert_eq!(sched.total(), total, "policies must spend identically");
            let err = variance_from_schedule(
                &frags,
                &plan,
                ReconstructionMethod::Eigenstate,
                &up,
                &down,
                sched,
            );
            let dim = 1u64 << circuit.num_qubits();
            let mean_var: f64 = (0..dim).map(|b| err.variance(b)).sum::<f64>() / dim as f64;
            mean_var * total as f64
        };
        let uniform =
            var_per_shot(&schedule_for_plan(&plan, ShotAllocation::TotalBudget { total }).unwrap());
        let weighted = var_per_shot(
            &schedule_for_plan(&plan, ShotAllocation::WeightedByUsage { total }).unwrap(),
        );
        let adaptive = var_per_shot(&adaptive_schedule(&frags, &plan, total));
        if k == 2 {
            // The ISSUE 5 acceptance bar, enforced at bench time so the CI
            // smoke run (`cargo bench -- --test`) trips on regressions.
            assert!(
                adaptive <= weighted,
                "K=2: adaptive variance/shot {adaptive} must not exceed weighted {weighted}"
            );
        }
        entries.push(format!(
            "    {{\"k\": {k}, \"total_shots\": {total}, \
             \"pilot_fraction\": {PILOT_FRACTION}, \
             \"var_per_shot_uniform\": {uniform:.6e}, \
             \"var_per_shot_weighted\": {weighted:.6e}, \
             \"var_per_shot_adaptive\": {adaptive:.6e}, \
             \"weighted_over_adaptive\": {:.4}, \
             \"uniform_over_adaptive\": {:.4}}}",
            weighted / adaptive,
            uniform / adaptive,
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"adaptive_allocation\",\n  \"workload\": \
         \"skewed-coefficient (golden-structured, standard plan) gather, equal \
         total budget, uniform vs usage-weighted vs two-round adaptive\",\n  \
         \"metric\": \"mean per-outcome variance x total budget (lower is better)\",\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    let path = qcut_bench::artifact_path("BENCH_adaptive_allocation.json");
    std::fs::write(&path, &json).expect("write bench summary");
    println!("wrote {}:\n{json}", path.display());
}

fn main() {
    benches();
    write_summary();
}
