//! Ablation B: eigenstate (6^K preparations) vs SIC (4^K preparations)
//! downstream schemes — the trade-off the paper discusses in §II-B
//! ("the SICC basis … can be used to achieve O(4^K) circuit evaluations
//! … However, [it] would require more involved implementation, namely,
//! solving linear systems"). Here the SIC expansion is closed-form, so
//! both schemes assemble through the same exact downstream tensor.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qcut_circuit::ansatz::GoldenAnsatz;
use qcut_core::basis::BasisPlan;
use qcut_core::fragment::Fragmenter;
use qcut_core::golden::GoldenPolicy;
use qcut_core::pipeline::{CutExecutor, ExecutionOptions, ReconstructionMethod};
use qcut_core::reconstruction::exact_downstream_tensor_for;
use qcut_device::ideal::IdealBackend;

fn bench_pipeline_method(c: &mut Criterion) {
    let mut group = c.benchmark_group("prep_scheme_pipeline");
    group.sample_size(20);
    let (circuit, cut) = GoldenAnsatz::new(5, 9).build();
    let backend = IdealBackend::new(17);
    let executor = CutExecutor::new(&backend);
    for (label, method) in [
        ("eigenstate_6preps", ReconstructionMethod::Eigenstate),
        ("sic_4preps", ReconstructionMethod::Sic),
    ] {
        let options = ExecutionOptions {
            shots_per_setting: 1000,
            method,
            parallel: false,
            ..Default::default()
        };
        group.bench_function(label, |b| {
            b.iter(|| {
                executor
                    .run(&circuit, &cut, GoldenPolicy::Disabled, &options)
                    .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_downstream_assembly(c: &mut Criterion) {
    let mut group = c.benchmark_group("downstream_assembly");
    for width in [5usize, 7] {
        let (circuit, spec) = GoldenAnsatz::new(width, 9).build();
        let frags = Fragmenter::fragment(&circuit, &spec).unwrap();
        let plan = BasisPlan::standard(1);
        for (label, method) in [
            ("eigenstate", ReconstructionMethod::Eigenstate),
            ("sic", ReconstructionMethod::Sic),
        ] {
            group.bench_with_input(BenchmarkId::new(label, width), &width, |b, _| {
                b.iter(|| exact_downstream_tensor_for(&frags.downstream, &plan, method))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_pipeline_method, bench_downstream_assembly);
criterion_main!(benches);
