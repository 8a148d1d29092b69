//! Prefix-sharing engine integration tests: batched execution through the
//! `PrefixForest` must be bit-identical to per-job sequential `run` calls
//! on both backends, across random batches of shared/unshared circuits,
//! with sharing on and off — plus forest shape checks on planner-built
//! workloads.

use proptest::prelude::*;
use qcut::cutting::basis::BasisPlan;
use qcut::cutting::tomography::build_upstream_circuit;
use qcut::device::backend::JobSpec;
use qcut::prelude::*;
use qcut::sim::prefix::PrefixForest;

/// A random batch mixing prefix-sharing families with unrelated circuits.
///
/// Families are built like tomography variants: a random base circuit plus
/// short random suffixes (including the empty suffix, so some circuits are
/// strict prefixes of others). `family_sizes[f] == 1` yields an unshared
/// singleton.
fn random_batch(width: usize, depth: usize, family_sizes: &[u8], seed: u64) -> Vec<Circuit> {
    let mut batch = Vec::new();
    for (f, &size) in family_sizes.iter().enumerate() {
        let base = random_circuit(
            width,
            RandomCircuitConfig {
                depth,
                two_qubit_prob: 0.4,
            },
            seed ^ (f as u64).wrapping_mul(0x9E37),
        );
        for member in 0..size {
            let mut c = base.clone();
            // Member 0 is the bare base; others append 1–3 suffix gates.
            for g in 0..member % 4 {
                let q = (f + g as usize) % width;
                match (member + g) % 3 {
                    0 => c.h(q),
                    1 => c.sdg(q),
                    _ => c.t(q),
                };
            }
            batch.push(c);
        }
    }
    batch
}

fn assert_batched_equals_sequential<B: Backend>(make: impl Fn() -> B, batch: &[Circuit]) {
    let jobs: Vec<JobSpec<'_>> = batch
        .iter()
        .enumerate()
        .map(|(i, c)| JobSpec::new(c, 50 + i as u64))
        .collect();
    let batched = make().run_batch(&jobs);
    let sequential = make();
    for (job, result) in jobs.iter().zip(&batched) {
        let reference = sequential.run(job.circuit, job.shots).unwrap();
        assert_eq!(
            result.as_ref().unwrap().counts,
            reference.counts,
            "batched counts diverged from sequential run"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Ideal backend: prefix-shared `run_batch` is bit-identical to a
    /// sequential `run` loop on an equally-seeded backend, for any mix of
    /// shared families and unshared singletons.
    #[test]
    fn ideal_prefix_shared_batch_is_bit_identical_to_sequential(
        seed in 0u64..1000,
        width in 2usize..5,
        depth in 1usize..5,
        family_sizes in proptest::collection::vec(1u8..5, 1usize..4),
    ) {
        let batch = random_batch(width, depth, &family_sizes, seed);
        assert_batched_equals_sequential(|| IdealBackend::new(seed ^ 0xA5), &batch);
    }

    /// And the sharing ablation itself never changes counts: the shared
    /// batch equals the per-job baseline (`run` on an equally seeded
    /// backend), job by job.
    #[test]
    fn ideal_sharing_ablation_is_bit_identical(
        seed in 0u64..1000,
        family_sizes in proptest::collection::vec(1u8..5, 1usize..4),
    ) {
        let batch = random_batch(3, 3, &family_sizes, seed);
        let jobs: Vec<JobSpec<'_>> = batch.iter().map(|c| JobSpec::new(c, 120)).collect();
        let on = IdealBackend::new(seed).run_batch(&jobs);
        let per_job = IdealBackend::new(seed);
        let off: Vec<_> = jobs.iter().map(|j| per_job.run(j.circuit, j.shots)).collect();
        for (a, b) in on.iter().zip(&off) {
            prop_assert_eq!(&a.as_ref().unwrap().counts, &b.as_ref().unwrap().counts);
        }
    }
}

proptest! {
    // Density-matrix evolution is O(4^n) per gate — keep the noisy cases small.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Noisy backend: the prefix-shared density/readout path is
    /// bit-identical to sequential `run` calls too.
    #[test]
    fn noisy_prefix_shared_batch_is_bit_identical_to_sequential(
        seed in 0u64..1000,
        family_sizes in proptest::collection::vec(1u8..4, 1usize..3),
    ) {
        let batch = random_batch(3, 2, &family_sizes, seed);
        assert_batched_equals_sequential(|| presets::ibm_5q(seed ^ 0x5A), &batch);
    }
}

#[test]
fn forest_node_count_matches_distinct_prefixes_of_a_gather() {
    // Planner-shaped workload: one fragment, three rotation variants. The
    // forest must hold exactly one node per distinct prefix segment —
    // root, shared fragment, H suffix, Sdg+H suffix — and one terminal
    // node per distinct circuit.
    let (circuit, cut) = GoldenAnsatz::new(5, 9).build();
    let frags = Fragmenter::fragment(&circuit, &cut).unwrap();
    let plan = BasisPlan::standard(1);
    let variants: Vec<Circuit> = plan
        .all_meas_settings()
        .iter()
        .map(|s| build_upstream_circuit(&frags.upstream, s))
        .collect();
    let refs: Vec<&Circuit> = variants.iter().collect();
    let forest = PrefixForest::build(&refs);
    assert_eq!(forest.num_nodes(), 4);
    assert_eq!(forest.num_terminal_nodes(), 3);
    // The shared walk pays the fragment once instead of three times.
    let base = frags.upstream.circuit.len() as u64;
    assert_eq!(forest.gates_naive(), 3 * base + 3); // + H + (Sdg, H)
    assert_eq!(forest.gates_shared(), base + 3);
}

#[test]
fn pipeline_report_carries_prefix_sharing_counters() {
    let (circuit, cut) = GoldenAnsatz::new(5, 12).build();
    let backend = IdealBackend::new(8);
    let options = ExecutionOptions {
        shots_per_setting: 500,
        ..Default::default()
    };
    let run = CutExecutor::new(&backend)
        .run(&circuit, &cut, GoldenPolicy::Disabled, &options)
        .unwrap();
    let r = &run.report;
    assert!(r.gates_applied > 0);
    assert!(
        r.gates_saved > 0,
        "upstream variants share the fragment; the gather must save gates: {r:?}"
    );
    assert!(r.prefix_sharing_ratio() > 0.0 && r.prefix_sharing_ratio() < 1.0);

    // The per-job ablation (each job through `Backend::run`) reports no
    // savings and the same distribution (sharing only changes *how*
    // states are computed).
    let ablation = IdealBackend::new(8);
    let per_job = ExecutionOptions {
        parallel: false,
        ..options
    };
    let off = CutExecutor::new(&ablation)
        .run(&circuit, &cut, GoldenPolicy::Disabled, &per_job)
        .unwrap();
    assert_eq!(off.report.gates_saved, 0);
    assert_eq!(
        run.distribution.values(),
        off.distribution.values(),
        "prefix sharing must not change a single reconstructed value"
    );
}
