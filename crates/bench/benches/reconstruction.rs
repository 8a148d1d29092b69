//! Benchmarks of the classical reconstruction path: tensor assembly and
//! contraction — the cost the golden method reduces from `4^K` to `3^K`
//! terms.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qcut_circuit::ansatz::GoldenAnsatz;
use qcut_circuit::circuit::Circuit;
use qcut_circuit::cut::CutSpec;
use qcut_core::allocation::{schedule_for_plan, ShotAllocation};
use qcut_core::basis::BasisPlan;
use qcut_core::execution::{gather, FragmentData};
use qcut_core::fragment::{Fragmenter, Fragments};
use qcut_core::reconstruction::{
    contract, downstream_tensor, exact_downstream_tensor, exact_upstream_tensor, upstream_tensor,
};
use qcut_device::ideal::IdealBackend;
use qcut_math::Pauli;

fn setup(width: usize, golden: bool) -> (Fragments, BasisPlan, FragmentData) {
    let (circuit, spec) = GoldenAnsatz::new(width, 7).build();
    let frags = Fragmenter::fragment(&circuit, &spec).unwrap();
    let plan = if golden {
        BasisPlan::with_neglected(vec![Some(Pauli::Y)])
    } else {
        BasisPlan::standard(1)
    };
    let uniform = ShotAllocation::Uniform {
        shots_per_setting: 1000,
    };
    let schedule = schedule_for_plan(&plan, uniform).unwrap();
    let backend = IdealBackend::new(1);
    let data = gather(&backend, &frags, &plan, &schedule).unwrap();
    (frags, plan, data)
}

fn bench_tensor_assembly(c: &mut Criterion) {
    let mut group = c.benchmark_group("tensor_assembly");
    for width in [5usize, 7] {
        let (frags, plan, data) = setup(width, false);
        group.bench_with_input(
            BenchmarkId::new("upstream_from_counts", width),
            &width,
            |b, _| b.iter(|| upstream_tensor(&frags.upstream, &plan, &data)),
        );
        group.bench_with_input(
            BenchmarkId::new("downstream_from_counts", width),
            &width,
            |b, _| b.iter(|| downstream_tensor(&frags.downstream, &plan, &data)),
        );
    }
    group.finish();
}

fn bench_contract_standard_vs_golden(c: &mut Criterion) {
    let mut group = c.benchmark_group("contract");
    for (label, golden) in [("standard_4_terms", false), ("golden_3_terms", true)] {
        // 15 and 19 qubits: the wide regime, where filling the `2^n`
        // output buffer dominates the contraction.
        for width in [5usize, 7, 15, 19] {
            let (frags, plan, _) = setup(width, golden);
            let up = exact_upstream_tensor(&frags.upstream, &plan);
            let down = exact_downstream_tensor(&frags.downstream, &plan);
            group.bench_with_input(BenchmarkId::new(label, width), &width, |b, _| {
                b.iter(|| contract(&frags, &plan, &up, &down))
            });
        }
    }
    // The same 19-qubit golden case with its outputs reordered, so the
    // contiguous runs of fragment outputs in the global order differ:
    // downstream first (`q → (q + 10) mod 19`, a 9-bit run), and
    // interleaved (upstream qubits on the even bits, 1-bit runs).
    let downstream_first: Vec<usize> = (0..19).map(|q| (q + 10) % 19).collect();
    let interleaved: Vec<usize> = (0..19)
        .map(|q| if q <= 9 { 2 * q } else { 2 * (q - 10) + 1 })
        .collect();
    let plan = BasisPlan::with_neglected(vec![Some(Pauli::Y)]);
    let (circuit, spec) = GoldenAnsatz::new(19, 7).build();
    let cut = spec.cuts()[0];
    for (label, perm) in [
        ("golden_3_terms_downstream_first", downstream_first),
        ("golden_3_terms_interleaved", interleaved),
    ] {
        let mut relabelled = Circuit::new(19);
        relabelled.extend_mapped(&circuit, &perm);
        let spec = CutSpec::single(perm[cut.qubit], cut.after_op);
        let frags = Fragmenter::fragment(&relabelled, &spec).unwrap();
        let up = exact_upstream_tensor(&frags.upstream, &plan);
        let down = exact_downstream_tensor(&frags.downstream, &plan);
        group.bench_with_input(BenchmarkId::new(label, 19), &19, |b, _| {
            b.iter(|| contract(&frags, &plan, &up, &down))
        });
    }
    group.finish();
}

fn bench_full_classical_path(c: &mut Criterion) {
    // Tensor assembly + contraction together — the "reconstructing
    // measurement statistics from fragments" cost of the paper's abstract.
    let mut group = c.benchmark_group("classical_reconstruction");
    for (label, golden) in [("standard", false), ("golden", true)] {
        let (frags, plan, data) = setup(5, golden);
        group.bench_function(label, |b| {
            b.iter(|| {
                let up = upstream_tensor(&frags.upstream, &plan, &data);
                let down = downstream_tensor(&frags.downstream, &plan, &data);
                contract(&frags, &plan, &up, &down)
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_tensor_assembly,
    bench_contract_standard_vs_golden,
    bench_full_classical_path
);
criterion_main!(benches);
