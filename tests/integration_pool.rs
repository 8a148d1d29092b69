//! Pool-level equivalence suite: a [`BackendPool`] behind the full
//! cutting pipeline must be indistinguishable from its members. A
//! single-member pool is bit-identical to the bare backend (ideal and
//! noisy), homogeneous sharding stays statistically equivalent while
//! splitting the makespan, sibling failover absorbs transient member
//! faults, and the pool composes with every existing guarantee: the
//! warm-start cache (per-member fingerprint keying), adaptive shot
//! allocation, and graceful degradation.

use qcut::cutting::tomography::build_upstream_circuit;
use qcut::prelude::*;
use std::sync::Arc;

fn truth_of(circuit: &Circuit) -> Distribution {
    Distribution::from_values(
        circuit.num_qubits(),
        StateVector::from_circuit(circuit).probabilities(),
    )
}

fn options(shots: u64) -> ExecutionOptions {
    ExecutionOptions {
        shots_per_setting: shots,
        ..Default::default()
    }
}

/// The accounting invariant every report must satisfy, extended over the
/// pool fields: per-member deliveries sum to the executed job total.
fn assert_report_invariants(report: &qcut::cutting::report::RunReport) {
    assert_eq!(
        report.shots_requested,
        report.detection_shots
            + report.pilot_shots
            + report.total_shots
            + report.shots_saved
            + report.cache_shots_reused
            + report.shots_lost,
        "shot invariant"
    );
    if !report.jobs_per_member.is_empty() {
        // Permanently failed nodes were submitted (executed) but never
        // delivered by any member, so they are the only allowed gap.
        assert_eq!(
            report.jobs_per_member.iter().sum::<u64>() + report.failures.len() as u64,
            report.jobs_executed as u64,
            "per-member deliveries plus permanent failures must sum to the executed jobs"
        );
    }
}

/// A single-member pool is a wrapper, not a different device: the full
/// pipeline produces the bit-identical distribution and accounting, plus
/// the pool-only member fields.
#[test]
fn single_member_ideal_pool_is_bit_identical_to_the_bare_backend() {
    let (circuit, cut) = GoldenAnsatz::new(5, 77).build();
    let opts = options(3000);

    let bare = IdealBackend::new(42);
    let bare_run = CutExecutor::new(&bare)
        .run(&circuit, &cut, GoldenPolicy::Disabled, &opts)
        .unwrap();

    let pool = BackendPool::new(PlacementPolicy::LeastLoaded).with_backend(IdealBackend::new(42));
    let pool_run = CutExecutor::new(&pool)
        .run(&circuit, &cut, GoldenPolicy::Disabled, &opts)
        .unwrap();

    assert_eq!(
        pool_run.distribution.values(),
        bare_run.distribution.values(),
        "a single-member pool must replay the bare backend bit-for-bit"
    );
    assert_eq!(pool_run.report.total_shots, bare_run.report.total_shots);
    assert_eq!(pool_run.report.jobs_executed, bare_run.report.jobs_executed);

    // Only the member accounting differs: the pool itemises its one member.
    assert_eq!(
        pool_run.report.jobs_per_member,
        vec![pool_run.report.jobs_executed as u64]
    );
    assert_eq!(pool_run.report.member_makespan_seconds.len(), 1);
    assert!((pool_run.report.pool_parallel_ratio - 1.0).abs() < 1e-12);
    assert_eq!(pool_run.report.jobs_failed_over, 0);
    assert_report_invariants(&pool_run.report);
}

/// The same contract on a noisy member: sharding must not perturb the
/// noisy backend's deterministic seed streams.
#[test]
fn single_member_noisy_pool_is_bit_identical_to_the_bare_backend() {
    let (circuit, cut) = GoldenAnsatz::new(5, 19).build();
    let opts = options(2000);

    let bare = presets::ibm_5q(7);
    let bare_run = CutExecutor::new(&bare)
        .run(&circuit, &cut, GoldenPolicy::Disabled, &opts)
        .unwrap();

    let pool = BackendPool::new(PlacementPolicy::RoundRobin).with_backend(presets::ibm_5q(7));
    let pool_run = CutExecutor::new(&pool)
        .run(&circuit, &cut, GoldenPolicy::Disabled, &opts)
        .unwrap();

    assert_eq!(
        pool_run.distribution.values(),
        bare_run.distribution.values()
    );
    assert_eq!(pool_run.report.total_shots, bare_run.report.total_shots);
    assert_report_invariants(&pool_run.report);
}

/// A bare (non-pool) run reports empty member vectors and the neutral
/// parallel ratio — the pool fields are strictly additive.
#[test]
fn bare_runs_report_empty_member_accounting() {
    let (circuit, cut) = GoldenAnsatz::new(5, 3).build();
    let backend = IdealBackend::new(9);
    let run = CutExecutor::new(&backend)
        .run(&circuit, &cut, GoldenPolicy::Disabled, &options(1000))
        .unwrap();
    assert!(run.report.jobs_per_member.is_empty());
    assert!(run.report.member_makespan_seconds.is_empty());
    assert_eq!(run.report.pool_parallel_ratio, 1.0);
    assert_eq!(run.report.jobs_failed_over, 0);
}

/// A homogeneous 4-member pool reconstructs the same physics (each
/// member is an unbiased sampler) while splitting the simulated device
/// makespan across the members.
#[test]
fn homogeneous_pool_shards_without_changing_the_physics() {
    let (circuit, cut) = GoldenAnsatz::new(5, 11).build();
    let mut pool = BackendPool::new(PlacementPolicy::RoundRobin);
    for seed in 0..4u64 {
        pool =
            pool.with_backend(IdealBackend::new(100 + seed).with_timing(TimingModel::ibm_like()));
    }
    let run = CutExecutor::new(&pool)
        .run(&circuit, &cut, GoldenPolicy::Disabled, &options(4000))
        .unwrap();

    let d = total_variation_distance(&run.distribution, &truth_of(&circuit));
    assert!(d < 0.1, "sharded reconstruction off by {d}");

    assert_eq!(run.report.jobs_per_member.len(), 4);
    assert_eq!(run.report.member_makespan_seconds.len(), 4);
    assert!(
        run.report.jobs_per_member.iter().all(|&j| j > 0),
        "round-robin over 4 members must use every member: {:?}",
        run.report.jobs_per_member
    );
    // Job overhead dominates ibm_like timing, so splitting the fan-out
    // across 4 members must beat a single device's makespan clearly.
    assert!(
        run.report.pool_parallel_ratio > 1.5,
        "parallel ratio {}",
        run.report.pool_parallel_ratio
    );
    assert_report_invariants(&run.report);
}

/// A member that transiently fails one subcircuit hands it to a healthy
/// sibling within the same round: no shots lost, no degradation, one
/// failover on the books — and the reconstruction still matches truth.
#[test]
fn transient_member_fault_fails_over_to_a_sibling() {
    let (circuit, cut) = GoldenAnsatz::new(5, 1).build();
    let frags = Fragmenter::fragment(&circuit, &cut).unwrap();
    let y_circuit = build_upstream_circuit(&frags.upstream, &[MeasBasis::Y]);

    // Everything pins to member 0, which fails the Y-measurement
    // subcircuit once; the default single-attempt retry policy suffices
    // because failover happens before the round counts as lost.
    let pool = BackendPool::new(PlacementPolicy::Pinned(vec![0]))
        .with_backend(FaultInjectingBackend::new(IdealBackend::new(3)).fail_circuit(&y_circuit, 1))
        .with_backend(IdealBackend::new(17));
    let run = CutExecutor::new(&pool)
        .run(&circuit, &cut, GoldenPolicy::Disabled, &options(5000))
        .unwrap();

    assert!(!run.report.degraded);
    assert_eq!(run.report.jobs_failed_over, 1);
    assert_eq!(run.report.shots_lost, 0);
    // The pinned member did everything except the failed-over node.
    assert_eq!(run.report.jobs_per_member[1], 1);
    assert_eq!(
        run.report.attempts,
        run.report.jobs_executed as u64 + 1,
        "exactly one extra (failover) attempt"
    );
    assert_report_invariants(&run.report);

    let d = total_variation_distance(&run.distribution, &truth_of(&circuit));
    assert!(d < 0.1, "failed-over reconstruction off by {d}");
}

/// A failed-over node's histogram is cached under the fingerprint of the
/// member that measured it, never the member placement assigned it to:
/// noisy counts from the sibling must not later warm-start an ideal run.
#[test]
fn failover_delivery_is_cached_under_the_delivering_member() {
    let (circuit, cut) = GoldenAnsatz::new(5, 1).build();
    let frags = Fragmenter::fragment(&circuit, &cut).unwrap();
    let y_circuit = build_upstream_circuit(&frags.upstream, &[MeasBasis::Y]);
    let cache = Arc::new(WarmCache::open(CacheConfig::in_memory()));
    let opts = ExecutionOptions {
        shots_per_setting: 2000,
        cache: Some(cache.clone()),
        ..Default::default()
    };

    let pool = BackendPool::new(PlacementPolicy::Pinned(vec![0]))
        .with_backend(FaultInjectingBackend::new(IdealBackend::new(3)).fail_circuit(&y_circuit, 1))
        .with_backend(presets::very_noisy(17));
    let run = CutExecutor::new(&pool)
        .run(&circuit, &cut, GoldenPolicy::Disabled, &opts)
        .unwrap();
    assert_eq!(run.report.jobs_failed_over, 1);

    let key = |member: usize| {
        CacheKey::new(
            y_circuit.structural_hash(),
            pool.member(member).cache_fingerprint(),
            ShotDiscipline::Multinomial,
        )
    };
    assert!(
        cache.lookup(&key(0), &y_circuit).is_none(),
        "the assigned member never measured the Y subcircuit"
    );
    assert!(
        cache.lookup(&key(1), &y_circuit).is_some(),
        "the delivering member's histogram must be cached under its own fingerprint"
    );
}

/// A node the warm cache topped up that then failed over delivers a
/// histogram mixing the cached shots of its assigned member with the
/// sibling's fresh ones. It is stored under neither member: the cached
/// entry stays as it was and the sibling gets none.
#[test]
fn cache_seeded_failover_is_not_cached() {
    let (circuit, cut) = GoldenAnsatz::new(5, 1).build();
    let frags = Fragmenter::fragment(&circuit, &cut).unwrap();
    let y_circuit = build_upstream_circuit(&frags.upstream, &[MeasBasis::Y]);
    let cache = Arc::new(WarmCache::open(CacheConfig::in_memory()));
    let opts = |shots_per_setting| ExecutionOptions {
        shots_per_setting,
        cache: Some(cache.clone()),
        ..Default::default()
    };
    let pool = |faults| {
        BackendPool::new(PlacementPolicy::Pinned(vec![0]))
            .with_backend(
                FaultInjectingBackend::new(IdealBackend::new(3)).fail_circuit(&y_circuit, faults),
            )
            .with_backend(presets::very_noisy(17))
    };
    let key = |pool: &BackendPool, member: usize| {
        CacheKey::new(
            y_circuit.structural_hash(),
            pool.member(member).cache_fingerprint(),
            ShotDiscipline::Multinomial,
        )
    };

    let clean = pool(0);
    CutExecutor::new(&clean)
        .run(&circuit, &cut, GoldenPolicy::Disabled, &opts(2000))
        .unwrap();
    let primed = cache.lookup(&key(&clean, 0), &y_circuit).unwrap();
    assert_eq!(primed.total(), 2000);

    // At twice the budget the Y node is seeded with member 0's 2000
    // cached shots; its 2000-shot increment fails over to member 1.
    let flaky = pool(1);
    let run = CutExecutor::new(&flaky)
        .run(&circuit, &cut, GoldenPolicy::Disabled, &opts(4000))
        .unwrap();
    assert_eq!(run.report.jobs_failed_over, 1);
    assert!(run.report.cache_hits > 0);
    assert_eq!(
        cache.lookup(&key(&flaky, 0), &y_circuit),
        Some(primed),
        "the mixed histogram must not replace member 0's entry"
    );
    assert!(
        cache.lookup(&key(&flaky, 1), &y_circuit).is_none(),
        "member 1 measured only half of the mixed histogram"
    );
}

/// An adaptive run's final histograms merge both rounds' shots. When the
/// pilot's Y node failed over to the sibling and the refine round ran it
/// on its assigned member, the merged histogram belongs to neither
/// member and is not cached; every other node is cached under member 0.
#[test]
fn adaptive_histogram_mixing_two_members_is_not_cached() {
    let (circuit, cut) = GoldenAnsatz::new(5, 1).build();
    let frags = Fragmenter::fragment(&circuit, &cut).unwrap();
    let y_circuit = build_upstream_circuit(&frags.upstream, &[MeasBasis::Y]);
    let z_circuit = build_upstream_circuit(&frags.upstream, &[MeasBasis::Z]);
    let cache = Arc::new(WarmCache::open(CacheConfig::in_memory()));
    let opts = ExecutionOptions {
        allocation: Some(ShotAllocation::Adaptive {
            pilot_fraction: 0.25,
            total: 18_000,
        }),
        cache: Some(cache.clone()),
        ..Default::default()
    };

    let pool = BackendPool::new(PlacementPolicy::Pinned(vec![0]))
        .with_backend(FaultInjectingBackend::new(IdealBackend::new(3)).fail_circuit(&y_circuit, 1))
        .with_backend(presets::very_noisy(17));
    let run = CutExecutor::new(&pool)
        .run(&circuit, &cut, GoldenPolicy::Disabled, &opts)
        .unwrap();
    assert_eq!(run.report.rounds, 2);
    assert_eq!(run.report.jobs_failed_over, 1);

    let lookup = |c: &Circuit, member: usize| {
        let fingerprint = pool.member(member).cache_fingerprint();
        let key = CacheKey::new(
            c.structural_hash(),
            fingerprint,
            ShotDiscipline::Multinomial,
        );
        cache.lookup(&key, c)
    };
    assert!(lookup(&y_circuit, 0).is_none());
    assert!(lookup(&y_circuit, 1).is_none());
    assert!(lookup(&z_circuit, 0).is_some());
}

/// A device that measures one fixed bitstring whatever it runs: all
/// zeros, or all ones. Its name sets its cache fingerprint, so a cached
/// histogram shows which member measured each of its shots.
struct ConstantBackend {
    name: &'static str,
    ones: bool,
    timing: TimingModel,
}

impl ConstantBackend {
    fn new(name: &'static str, ones: bool) -> Self {
        ConstantBackend {
            name,
            ones,
            timing: TimingModel::instantaneous(),
        }
    }

    fn outcome(&self, width: usize) -> u64 {
        if self.ones {
            (1u64 << width) - 1
        } else {
            0
        }
    }
}

impl Backend for ConstantBackend {
    fn name(&self) -> &str {
        self.name
    }
    fn num_qubits(&self) -> usize {
        16
    }
    fn timing(&self) -> &TimingModel {
        &self.timing
    }
    fn run(
        &self,
        circuit: &Circuit,
        shots: u64,
    ) -> Result<qcut::device::backend::ExecutionResult, qcut::device::backend::BackendError> {
        let width = circuit.num_qubits();
        Ok(qcut::device::backend::ExecutionResult {
            counts: Counts::from_pairs(width, [(self.outcome(width), shots)]),
            simulated_duration: std::time::Duration::ZERO,
            host_duration: std::time::Duration::ZERO,
        })
    }
}

/// Online detection measures the Y settings on some members; the gather
/// round then places those nodes by its own pinning and tops them up
/// there. A histogram that mixes two devices must not be cached under
/// either one's fingerprint: every cached histogram holds only the
/// outcome of the member it is keyed to. With two cuts, the (Y, Y)
/// setting is measured by both cuts' detection batches, on different
/// members.
#[test]
fn detection_seeded_histograms_are_cached_only_under_the_measuring_member() {
    let workloads = [
        GoldenAnsatz::new(5, 1).build(),
        qcut::circuit::ansatz::MultiCutAnsatz::new(2, 7).build(),
    ];
    for (circuit, cut) in workloads {
        let frags = Fragmenter::fragment(&circuit, &cut).unwrap();
        let cache = Arc::new(WarmCache::open(CacheConfig::in_memory()));
        let opts = ExecutionOptions {
            shots_per_setting: 2000,
            postprocess: qcut::cutting::pipeline::PostProcess::Raw,
            cache: Some(cache.clone()),
            ..Default::default()
        };
        let members = [
            ConstantBackend::new("zeros", false),
            ConstantBackend::new("ones", true),
        ];
        let outcomes: Vec<u64> = members
            .iter()
            .map(|m| m.outcome(frags.upstream.circuit.num_qubits()))
            .collect();
        let pool = members.into_iter().fold(
            BackendPool::new(PlacementPolicy::Pinned(vec![0, 1, 1])),
            |pool, m| pool.with_backend(m),
        );
        let run = CutExecutor::new(&pool)
            .run(
                &circuit,
                &cut,
                GoldenPolicy::DetectOnline(Default::default()),
                &opts,
            )
            .unwrap();
        assert!(run.report.detection_shots > 0);
        assert!(run.report.jobs_per_member.iter().all(|&jobs| jobs > 0));

        let mut cached = 0;
        for setting in qcut::cutting::basis::BasisPlan::standard(frags.num_cuts).all_meas_settings()
        {
            let c = build_upstream_circuit(&frags.upstream, &setting);
            for (member, &outcome) in outcomes.iter().enumerate() {
                let key = CacheKey::new(
                    c.structural_hash(),
                    pool.member(member).cache_fingerprint(),
                    ShotDiscipline::Multinomial,
                );
                if let Some(counts) = cache.lookup(&key, &c) {
                    cached += 1;
                    assert_eq!(
                        counts.get(outcome),
                        counts.total(),
                        "K = {}: {setting:?} cached under member {member} holds another \
                         member's shots",
                        frags.num_cuts
                    );
                }
            }
        }
        assert!(
            cached > 0,
            "the run must cache its single-member histograms"
        );
    }
}

/// Warm-start reruns work through a pool: the cold run stores every
/// node under the fingerprint of the member that executed it, and the
/// warm rerun — with deterministic placement assigning the same members
/// — replays bit-identically with zero fresh shots. The members carry
/// distinct fingerprints (different capacities) so this exercises the
/// per-member cache keying, not the pool-identity fallback.
#[test]
fn pool_warm_rerun_is_bit_identical_and_executes_nothing() {
    let (circuit, cut) = GoldenAnsatz::new(5, 77).build();
    let cache = Arc::new(WarmCache::open(CacheConfig::in_memory()));
    let opts = ExecutionOptions {
        shots_per_setting: 3000,
        cache: Some(cache.clone()),
        ..Default::default()
    };
    let pool = || {
        BackendPool::new(PlacementPolicy::LeastLoaded)
            .with_backend(IdealBackend::new(1))
            .with_backend(IdealBackend::new(2).with_capacity(16))
    };

    let cold_pool = pool();
    let cold = CutExecutor::new(&cold_pool)
        .run(&circuit, &cut, GoldenPolicy::Disabled, &opts)
        .unwrap();
    assert_eq!(cold.report.cache_shots_reused, 0, "first run starts cold");
    assert!(cache.entries() > 0, "the run must populate the cache");

    let warm_pool = pool();
    let warm = CutExecutor::new(&warm_pool)
        .run(&circuit, &cut, GoldenPolicy::Disabled, &opts)
        .unwrap();
    assert_eq!(warm.report.total_shots, 0, "warm rerun executes nothing");
    assert_eq!(warm.report.jobs_executed, 0);
    assert!(warm.report.cache_hits > 0);
    assert_eq!(warm.report.cache_shots_reused, warm.report.shots_requested);
    assert_eq!(
        warm.distribution.values(),
        cold.distribution.values(),
        "warm pool reconstruction must be bit-identical to the cold run"
    );
}

/// Fingerprint isolation survives pooling in both directions: histograms
/// an ideal pool stored never serve a noisy pool (and vice versa), and
/// the original entries stay intact for a same-pool warm rerun.
#[test]
fn pool_cache_entries_partition_by_member_fingerprint() {
    let (circuit, cut) = GoldenAnsatz::new(5, 77).build();
    let cache = Arc::new(WarmCache::open(CacheConfig::in_memory()));
    let opts = ExecutionOptions {
        shots_per_setting: 2000,
        cache: Some(cache),
        ..Default::default()
    };
    let ideal_pool = || {
        BackendPool::new(PlacementPolicy::RoundRobin)
            .with_backend(IdealBackend::new(1))
            .with_backend(IdealBackend::new(2))
    };
    let noisy_pool = || {
        BackendPool::new(PlacementPolicy::RoundRobin)
            .with_backend(presets::ibm_5q(3))
            .with_backend(presets::ibm_5q(4))
    };

    let p1 = ideal_pool();
    CutExecutor::new(&p1)
        .run(&circuit, &cut, GoldenPolicy::Disabled, &opts)
        .unwrap();

    // Ideal entries must not leak into the noisy pool's run ...
    let p2 = noisy_pool();
    let noisy_run = CutExecutor::new(&p2)
        .run(&circuit, &cut, GoldenPolicy::Disabled, &opts)
        .unwrap();
    assert_eq!(
        noisy_run.report.cache_shots_reused, 0,
        "ideal-member histograms must never serve a noisy pool"
    );
    assert!(noisy_run.report.total_shots > 0);

    // ... and the noisy run's stores must not evict or shadow them: the
    // ideal pool still replays fully warm.
    let p3 = ideal_pool();
    let warm = CutExecutor::new(&p3)
        .run(&circuit, &cut, GoldenPolicy::Disabled, &opts)
        .unwrap();
    assert_eq!(warm.report.total_shots, 0);
    assert_eq!(warm.report.cache_shots_reused, warm.report.shots_requested);
}

/// Two-round adaptive allocation schedules both rounds through the pool:
/// pilot and refine shard independently, and the member accounting
/// accumulates across the rounds.
#[test]
fn adaptive_allocation_composes_with_a_pool() {
    let (circuit, cut) = GoldenAnsatz::new(5, 5).build();
    let pool = BackendPool::new(PlacementPolicy::LeastLoaded)
        .with_backend(IdealBackend::new(21).with_timing(TimingModel::ibm_like()))
        .with_backend(IdealBackend::new(22).with_timing(TimingModel::ibm_like()));
    let opts = ExecutionOptions {
        shots_per_setting: 1000,
        allocation: Some(ShotAllocation::Adaptive {
            pilot_fraction: 0.25,
            total: 18_000,
        }),
        ..Default::default()
    };
    let run = CutExecutor::new(&pool)
        .run(&circuit, &cut, GoldenPolicy::Disabled, &opts)
        .unwrap();

    assert_eq!(run.report.rounds, 2);
    assert!(run.report.pilot_shots > 0);
    assert_eq!(run.report.jobs_per_member.len(), 2);
    assert_report_invariants(&run.report);

    let d = total_variation_distance(&run.distribution, &truth_of(&circuit));
    assert!(d < 0.1, "adaptive pool reconstruction off by {d}");
}

/// Degradation composes with failover: when only one member loses a
/// subcircuit permanently, the sibling absorbs it and nothing degrades;
/// when every member loses it, `FailurePolicy::Degrade` drops the
/// setting and renormalizes — exactly the single-backend semantics.
#[test]
fn pool_degrades_only_when_every_member_is_down() {
    let (circuit, cut) = GoldenAnsatz::new(5, 1).build();
    let frags = Fragmenter::fragment(&circuit, &cut).unwrap();
    let y_circuit = build_upstream_circuit(&frags.upstream, &[MeasBasis::Y]);
    let opts = ExecutionOptions {
        shots_per_setting: 20_000,
        retry: RetryPolicy::with_attempts(2),
        failure: FailurePolicy::Degrade,
        ..Default::default()
    };

    // Partial outage: member 0 permanently fails the Y subcircuit, but
    // the sibling delivers it — failover wins before degradation starts.
    let partial = BackendPool::new(PlacementPolicy::Pinned(vec![0]))
        .with_backend(
            FaultInjectingBackend::new(IdealBackend::new(3)).fail_circuit(&y_circuit, u32::MAX),
        )
        .with_backend(IdealBackend::new(17));
    let saved = CutExecutor::new(&partial)
        .run(&circuit, &cut, GoldenPolicy::Disabled, &opts)
        .unwrap();
    assert!(!saved.report.degraded);
    assert!(saved.report.failures.is_empty());
    assert!(saved.report.jobs_failed_over >= 1);
    assert_eq!(saved.report.shots_lost, 0);

    // Total outage: every member fails the Y subcircuit on every
    // attempt, so the node is permanently lost and Degrade salvages the
    // run by neglecting Y (the ansatz is golden at Y, so the salvage is
    // exact in the shot limit).
    let doomed = BackendPool::new(PlacementPolicy::Pinned(vec![0]))
        .with_backend(
            FaultInjectingBackend::new(IdealBackend::new(3)).fail_circuit(&y_circuit, u32::MAX),
        )
        .with_backend(
            FaultInjectingBackend::new(IdealBackend::new(4)).fail_circuit(&y_circuit, u32::MAX),
        );
    let degraded = CutExecutor::new(&doomed)
        .run(&circuit, &cut, GoldenPolicy::Disabled, &opts)
        .unwrap();
    assert!(degraded.report.degraded);
    assert_eq!(degraded.report.failures.len(), 1);
    assert!(degraded.report.shots_lost > 0);
    assert!(degraded.report.neglected[0].contains(&Pauli::Y));
    assert!(degraded.report.variance_inflation > 1.0);
    assert_report_invariants(&degraded.report);
    let d = total_variation_distance(&degraded.distribution, &truth_of(&circuit));
    assert!(d < 0.05, "degraded pool reconstruction off by {d}");
}

/// A noise-aware heterogeneous pool runs the pipeline end to end with
/// every member accounted for and the shot invariant intact.
#[test]
fn noise_aware_heterogeneous_pool_runs_end_to_end() {
    let (circuit, cut) = GoldenAnsatz::new(5, 13).build();
    let pool = BackendPool::new(PlacementPolicy::NoiseAware)
        .with_backend(presets::very_noisy(1))
        .with_backend(IdealBackend::new(2));
    let run = CutExecutor::new(&pool)
        .run(&circuit, &cut, GoldenPolicy::Disabled, &options(2000))
        .unwrap();
    assert_eq!(run.report.jobs_per_member.len(), 2);
    assert_report_invariants(&run.report);
    // The clean member exists and noise-sensitive (wide) fragments pin to
    // it, so the run must not be pure noise.
    assert!(run.report.jobs_per_member[1] > 0);
}
