//! Property-based tests over the workspace's core invariants.
//!
//! The headline property is the wire-cutting identity itself: for *any*
//! circuit from the cuttable family and *any* valid cut, the exact
//! reconstruction equals the uncut distribution — standard plan and
//! golden plan alike (on designed-golden circuits).

use proptest::prelude::*;
use qcut::circuit::ansatz::MultiCutAnsatz;
use qcut::circuit::random::{random_circuit_with, random_real_circuit_with, RandomCircuitConfig};
use qcut::cutting::basis::BasisPlan;
use qcut::cutting::jobgraph::{Channel, JobGraph};
use qcut::cutting::reconstruction::{exact_reconstruct, exact_upstream_tensor};
use qcut::cutting::tomography::{build_downstream_circuit, build_upstream_circuit};
use qcut::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A random cuttable circuit: upstream block on qubits `0..=cut`, downstream
/// on `cut..n`, single cut on the shared wire. Entangling chains keep each
/// side connected. `real_upstream` decides whether the cut is designed
/// golden.
fn cuttable_circuit(
    n: usize,
    cut_qubit: usize,
    seed: u64,
    depth: usize,
    real_upstream: bool,
) -> (Circuit, CutSpec) {
    assert!(cut_qubit >= 1 && cut_qubit < n - 1 || n == 2);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::new(n);
    let up: Vec<usize> = (0..=cut_qubit).collect();
    let down: Vec<usize> = (cut_qubit..n).collect();
    let cfg = RandomCircuitConfig {
        depth,
        two_qubit_prob: 0.5,
    };

    for w in up.windows(2) {
        c.cx(w[0], w[1]);
    }
    if up.len() == 1 {
        c.ry(1.3, up[0]);
    }
    let u1 = if real_upstream {
        random_real_circuit_with(up.len(), cfg, &mut rng)
    } else {
        random_circuit_with(up.len(), cfg, &mut rng)
    };
    c.extend_mapped(&u1, &up);
    let cut_pos = c
        .instructions()
        .iter()
        .filter(|i| i.acts_on(cut_qubit))
        .count()
        - 1;
    for w in down.windows(2) {
        c.cx(w[0], w[1]);
    }
    if down.len() == 1 {
        c.ry(0.7, down[0]);
    }
    let u2 = random_circuit_with(down.len(), cfg, &mut rng);
    c.extend_mapped(&u2, &down);
    (c, CutSpec::single(cut_qubit, cut_pos))
}

/// A random *Clifford* cuttable circuit with the same layout as
/// [`cuttable_circuit`]: entangling chains keep each side connected, the
/// cut sits after the last upstream touch of the cut wire. On Clifford
/// upstream fragments the stabilizer prover is complete, so
/// `proven_plan` must reproduce `ExactDetector` exactly.
fn clifford_cuttable_circuit(
    n: usize,
    cut_qubit: usize,
    seed: u64,
    depth: usize,
) -> (Circuit, CutSpec) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::new(n);
    let up: Vec<usize> = (0..=cut_qubit).collect();
    let down: Vec<usize> = (cut_qubit..n).collect();
    for w in up.windows(2) {
        c.cx(w[0], w[1]);
    }
    random_clifford_block(&mut c, &up, depth, &mut rng);
    let cut_pos = c
        .instructions()
        .iter()
        .filter(|i| i.acts_on(cut_qubit))
        .count()
        - 1;
    for w in down.windows(2) {
        c.cx(w[0], w[1]);
    }
    random_clifford_block(&mut c, &down, depth, &mut rng);
    (c, CutSpec::single(cut_qubit, cut_pos))
}

/// Appends `depth * qubits.len()` random gates drawn from the Clifford
/// alphabet {H, S, S†, X, Y, Z, √X, CX, CZ, CY, SWAP} on `qubits`.
fn random_clifford_block(c: &mut Circuit, qubits: &[usize], depth: usize, rng: &mut StdRng) {
    use rand::Rng;
    for _ in 0..depth * qubits.len() {
        if qubits.len() >= 2 && rng.gen_bool(0.4) {
            let a = qubits[rng.gen_range(0..qubits.len())];
            let mut b = a;
            while b == a {
                b = qubits[rng.gen_range(0..qubits.len())];
            }
            match rng.gen_range(0..4) {
                0 => c.cx(a, b),
                1 => c.cz(a, b),
                2 => c.push(Gate::Cy, &[a, b]),
                _ => c.swap(a, b),
            };
        } else {
            let q = qubits[rng.gen_range(0..qubits.len())];
            match rng.gen_range(0..7) {
                0 => c.h(q),
                1 => c.s(q),
                2 => c.sdg(q),
                3 => c.x(q),
                4 => c.y(q),
                5 => c.z(q),
                _ => c.push(Gate::Sx, &[q]),
            };
        }
    }
}

fn truth_of(circuit: &Circuit) -> Distribution {
    Distribution::from_values(
        circuit.num_qubits(),
        StateVector::from_circuit(circuit).probabilities(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The wire-cutting identity holds for arbitrary circuits and cut
    /// positions (paper Eq. 13): exact reconstruction == uncut
    /// distribution.
    #[test]
    fn cutting_identity_holds(
        n in 3usize..7,
        cut_frac in 1usize..5,
        seed in 0u64..5000,
        depth in 1usize..4,
    ) {
        let cut_qubit = 1 + (cut_frac * (n - 2)) / 5;
        let (circuit, cut) = cuttable_circuit(n, cut_qubit.min(n - 2).max(1), seed, depth, false);
        let frags = Fragmenter::fragment(&circuit, &cut).unwrap();
        let recon = exact_reconstruct(&frags, &BasisPlan::standard(1));
        let d = total_variation_distance(&recon, &truth_of(&circuit));
        prop_assert!(d < 1e-8, "TVD {d} for n={n}, cut={cut_qubit}, seed={seed}");
    }

    /// Real upstream blocks make Y negligible — always, not just for the
    /// seeds the unit tests happen to use.
    #[test]
    fn real_upstream_is_golden_for_y(
        n in 3usize..7,
        seed in 0u64..5000,
        depth in 1usize..4,
    ) {
        let cut_qubit = (n / 2).max(1);
        let (circuit, cut) = cuttable_circuit(n, cut_qubit, seed, depth, true);
        let frags = Fragmenter::fragment(&circuit, &cut).unwrap();
        let up = exact_upstream_tensor(&frags.upstream, &BasisPlan::standard(1));
        prop_assert!(
            up.max_abs(&[Pauli::Y]) < 1e-9,
            "Y coefficient {} on a real upstream (seed {seed})",
            up.max_abs(&[Pauli::Y])
        );
        // And the golden reconstruction is exact.
        let recon = exact_reconstruct(&frags, &BasisPlan::with_neglected(vec![Some(Pauli::Y)]));
        let d = total_variation_distance(&recon, &truth_of(&circuit));
        prop_assert!(d < 1e-8, "golden TVD {d}");
    }

    /// The reconstructed quasi-distribution always has unit total mass
    /// (the I⊗…⊗I term carries the normalisation) even from finite shots.
    #[test]
    fn reconstruction_mass_is_one(seed in 0u64..2000) {
        let (circuit, cut) = GoldenAnsatz::new(5, seed).build();
        let frags = Fragmenter::fragment(&circuit, &cut).unwrap();
        let plan = BasisPlan::standard(1);
        let sched = qcut::cutting::allocation::schedule_for_plan(
            &plan,
            ShotAllocation::Uniform { shots_per_setting: 256 },
        )
        .unwrap();
        let backend = IdealBackend::new(seed);
        let data = qcut::cutting::execution::gather(&backend, &frags, &plan, &sched).unwrap();
        let recon = qcut::cutting::reconstruction::reconstruct(&frags, &plan, &data);
        prop_assert!(
            (recon.total_mass() - 1.0).abs() < 1e-9,
            "mass {}", recon.total_mass()
        );
    }

    /// Multi-cut ansatz: identity holds for K cuts, golden plan included.
    #[test]
    fn multi_cut_identity(k in 1usize..3, seed in 0u64..1000) {
        let (circuit, cut) = MultiCutAnsatz::new(k, seed).build();
        let frags = Fragmenter::fragment(&circuit, &cut).unwrap();
        let standard = exact_reconstruct(&frags, &BasisPlan::standard(k));
        let t = truth_of(&circuit);
        prop_assert!(total_variation_distance(&standard, &t) < 1e-8);
        let golden = exact_reconstruct(
            &frags,
            &BasisPlan::with_neglected(vec![Some(Pauli::Y); k]),
        );
        prop_assert!(total_variation_distance(&golden, &t) < 1e-8);
    }

    /// Distribution post-processing: clipping and simplex projection both
    /// produce proper distributions from arbitrary quasi-distributions.
    #[test]
    fn postprocessing_produces_proper_distributions(
        values in proptest::collection::vec(-0.5f64..1.5, 8),
    ) {
        let d = Distribution::from_values(3, values);
        let clipped = d.clip_renormalize();
        prop_assert!(clipped.is_proper(1e-9));
        let projected = d.project_to_simplex();
        prop_assert!(projected.is_proper(1e-9));
    }

    /// Weighted distance (Eq. 17) is a nonnegative divergence: zero iff the
    /// distributions agree on the support of the truth.
    #[test]
    fn weighted_distance_nonnegative(
        p_raw in proptest::collection::vec(0.0f64..1.0, 8),
        q_raw in proptest::collection::vec(0.01f64..1.0, 8),
    ) {
        let norm = |v: &[f64]| {
            let s: f64 = v.iter().sum();
            Distribution::from_values(3, v.iter().map(|x| x / s).collect())
        };
        let p = norm(&p_raw);
        let q = norm(&q_raw);
        prop_assert!(weighted_distance(&p, &q) >= 0.0);
        prop_assert!(weighted_distance(&q, &q) == 0.0);
    }

    /// Counts: splitting into two bit groups preserves the total and the
    /// marginals match direct extraction.
    #[test]
    fn counts_split_consistency(
        pairs in proptest::collection::vec((0u64..32, 1u64..50), 1..20),
    ) {
        let counts = Counts::from_pairs(5, pairs);
        let joint = counts.split(&[0, 2], &[1, 3, 4]);
        let total: u64 = joint.values().sum();
        prop_assert_eq!(total, counts.total());
        // Marginal over group A from the split equals the direct marginal.
        let mut from_split = std::collections::HashMap::new();
        for ((a, _), n) in &joint {
            *from_split.entry(*a).or_insert(0u64) += n;
        }
        let direct = counts.marginal(&[0, 2]);
        for (bits, n) in from_split {
            prop_assert_eq!(n, direct.get(bits));
        }
    }

    /// On Clifford upstream fragments the stabilizer prover is *complete*:
    /// `proven_plan` derives symbolically exactly the plan `ExactDetector`
    /// finds by simulation — it never proves a basis whose coefficient is
    /// nonzero, and it never misses one that is identically zero. The
    /// proven plan also reconstructs exactly.
    #[test]
    fn prove_static_is_exact_on_clifford_upstreams(
        n in 3usize..6,
        seed in 0u64..5000,
        depth in 1usize..4,
    ) {
        let cut_qubit = (n / 2).max(1);
        let (circuit, cut) = clifford_cuttable_circuit(n, cut_qubit, seed, depth);
        let frags = Fragmenter::fragment(&circuit, &cut).unwrap();
        let proven = proven_plan(&frags.upstream, 1);
        let detected = ExactDetector::default().detect(&frags.upstream, 1);
        prop_assert_eq!(&proven, &detected, "seed {}", seed);
        // Soundness against ground truth: every proven basis has an
        // exactly-zero upstream coefficient family.
        let up = exact_upstream_tensor(&frags.upstream, &BasisPlan::standard(1));
        for p in &proven.neglected()[0] {
            prop_assert!(
                up.max_abs(&[*p]) < 1e-9,
                "proved {:?} but |A| = {} (seed {})", p, up.max_abs(&[*p]), seed
            );
        }
        let recon = exact_reconstruct(&frags, &proven);
        let d = total_variation_distance(&recon, &truth_of(&circuit));
        prop_assert!(d < 1e-8, "proven-plan TVD {d} (seed {seed})");
    }

    /// Random circuits preserve state norm (simulator unitarity).
    #[test]
    fn simulator_preserves_norm(n in 1usize..7, seed in 0u64..3000, depth in 1usize..6) {
        let c = random_circuit(n, RandomCircuitConfig { depth, two_qubit_prob: 0.5 }, seed);
        let sv = StateVector::from_circuit(&c);
        prop_assert!((sv.norm_sqr() - 1.0).abs() < 1e-9);
    }

    /// Every circuit the workspace builds passes the validating import
    /// seam unchanged: random and random-real circuits, both ansatz
    /// families, their fragments with every tomography variant, and the
    /// adjoints of all of these.
    #[test]
    fn from_instructions_round_trips_every_built_circuit(
        n in 1usize..7,
        depth in 1usize..6,
        seed in 0u64..2000,
        k in 1usize..4,
    ) {
        let cfg = RandomCircuitConfig { depth, two_qubit_prob: 0.5 };
        let mut circuits = vec![random_circuit(n, cfg, seed), random_real_circuit(n, cfg, seed)];
        let width = 5 + 2 * (seed % 3) as usize;
        for (circuit, cut) in [
            GoldenAnsatz::new(width, seed).build(),
            MultiCutAnsatz::new(k, seed).build(),
        ] {
            let frags = Fragmenter::fragment(&circuit, &cut).unwrap();
            let plan = BasisPlan::standard(cut.num_cuts());
            for setting in plan.all_meas_settings() {
                circuits.push(build_upstream_circuit(&frags.upstream, &setting));
            }
            for preparation in plan.all_prep_settings() {
                circuits.push(build_downstream_circuit(&frags.downstream, &preparation));
            }
            circuits.extend([frags.upstream.circuit, frags.downstream.circuit, circuit]);
        }
        let adjoints: Vec<Circuit> = circuits.iter().map(Circuit::adjoint).collect();
        circuits.extend(adjoints);
        for c in circuits {
            let rebuilt = Circuit::from_instructions(c.num_qubits(), c.instructions().to_vec());
            prop_assert_eq!(rebuilt, Ok(c));
        }
    }

    /// Appending gates never shortens a circuit's critical path: the
    /// timing model the pool's load-balancing placement relies on is
    /// monotone in circuit growth (and non-negative).
    #[test]
    fn circuit_duration_is_monotone_under_appended_gates(
        n in 1usize..5,
        depth in 1usize..6,
        seed in 0u64..3000,
        extra in 1usize..6,
    ) {
        let base = random_circuit(n, RandomCircuitConfig { depth, two_qubit_prob: 0.5 }, seed);
        let mut longer = base.clone();
        for i in 0..extra {
            longer.h(i % n);
        }
        for t in [
            TimingModel::ibm_like(),
            TimingModel { gate_1q: 4e-8, gate_2q: 6e-7, readout: 2e-6, rep_delay: 1e-4, job_overhead: 0.5 },
        ] {
            let short = t.circuit_duration(&base);
            let long = t.circuit_duration(&longer);
            prop_assert!(short >= 0.0);
            prop_assert!(long >= short, "appending gates shortened {short} -> {long}");
        }
    }

    /// `job_duration` is affine in the shot count — overhead plus a
    /// per-shot slope — which is what makes the greedy least-loaded
    /// placement's accumulated-load bookkeeping additive.
    #[test]
    fn job_duration_is_affine_in_shots(
        seed in 0u64..3000,
        a in 1u64..10_000,
        b in 1u64..10_000,
        rep_delay in 0.0f64..1e-3,
        job_overhead in 0.0f64..2.0,
    ) {
        let c = random_circuit(3, RandomCircuitConfig { depth: 3, two_qubit_prob: 0.5 }, seed);
        let t = TimingModel {
            gate_1q: 35e-9,
            gate_2q: 300e-9,
            readout: 5e-6,
            rep_delay,
            job_overhead,
        };
        let f0 = t.job_duration(&c, 0);
        prop_assert!((f0 - t.job_overhead).abs() < 1e-12, "zero shots cost exactly the overhead");
        let fa = t.job_duration(&c, a);
        let fb = t.job_duration(&c, b);
        let fab = t.job_duration(&c, a + b);
        // Affinity: f(a+b) = f(a) + f(b) - f(0).
        prop_assert!((fab - (fa + fb - f0)).abs() <= 1e-9 * fab.max(1.0), "f({a}+{b}) = {fab}, f({a})+f({b})-f(0) = {}", fa + fb - f0);
        // The slope is non-negative: more shots never run faster.
        prop_assert!(fa >= f0 && fab >= fa.max(fb));
    }
}

// JobGraph engine invariants: full pipeline runs, so fewer cases with a
// small shot budget.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The engine's structural dedup never changes the reconstruction:
    /// with equally-seeded fresh backends, dedup on and off produce
    /// bit-identical distributions (tomography plans are duplicate-free, so
    /// the executed job stream must be untouched by the hashing, node
    /// merging, and fan-out machinery).
    #[test]
    fn dedup_never_changes_reconstruction(seed in 0u64..2000) {
        let (circuit, cut) = GoldenAnsatz::new(5, seed).build();
        let policy = if seed % 2 == 0 {
            GoldenPolicy::Disabled
        } else {
            GoldenPolicy::KnownAPriori(vec![(0, Pauli::Y)])
        };
        let run = |dedup: bool| {
            let backend = IdealBackend::new(seed ^ 0xD5);
            CutExecutor::new(&backend)
                .run(
                    &circuit,
                    &cut,
                    policy.clone(),
                    &ExecutionOptions { shots_per_setting: 256, dedup, ..Default::default() },
                )
                .unwrap()
        };
        let on = run(true);
        let off = run(false);
        prop_assert_eq!(on.distribution.values(), off.distribution.values());
        prop_assert_eq!(on.report.jobs_executed, off.report.jobs_executed);
        prop_assert_eq!(on.report.shots_saved, 0);
    }

    /// Batched (parallel) execution is bit-identical to the sequential
    /// path for both downstream schemes — the backends assign per-job RNG
    /// streams by batch position, not scheduling order.
    #[test]
    fn batched_execution_equals_sequential(seed in 0u64..2000) {
        let (circuit, cut) = GoldenAnsatz::new(5, seed).build();
        let method = if seed % 2 == 0 {
            ReconstructionMethod::Eigenstate
        } else {
            ReconstructionMethod::Sic
        };
        let run = |parallel: bool| {
            let backend = IdealBackend::new(seed.wrapping_mul(31) ^ 7);
            CutExecutor::new(&backend)
                .run(
                    &circuit,
                    &cut,
                    GoldenPolicy::Disabled,
                    &ExecutionOptions {
                        shots_per_setting: 256,
                        method,
                        parallel,
                        ..Default::default()
                    },
                )
                .unwrap()
        };
        prop_assert_eq!(run(true).distribution.values(), run(false).distribution.values());
    }

    /// `GoldenPolicy::ProveStatic` resolves its plan symbolically — zero
    /// detection shots — and, because the golden-ansatz upstream is real,
    /// the real-component argument proves Y, so the run is bit-identical
    /// to a `KnownAPriori` oracle handed the same basis at equal budget.
    #[test]
    fn prove_static_runs_bit_identical_to_the_oracle(seed in 0u64..2000) {
        let (circuit, cut) = GoldenAnsatz::new(5, seed).build();
        let run = |policy: GoldenPolicy| {
            let backend = IdealBackend::new(seed ^ 0x5A);
            CutExecutor::new(&backend)
                .run(
                    &circuit,
                    &cut,
                    policy,
                    &ExecutionOptions { shots_per_setting: 256, ..Default::default() },
                )
                .unwrap()
        };
        let proven = run(GoldenPolicy::ProveStatic);
        let oracle = run(GoldenPolicy::KnownAPriori(vec![(0, Pauli::Y)]));
        prop_assert_eq!(proven.report.detection_shots, 0);
        prop_assert_eq!(&proven.report.neglected, &oracle.report.neglected);
        prop_assert_eq!(proven.distribution.values(), oracle.distribution.values());
        prop_assert_eq!(proven.report.total_shots, oracle.report.total_shots);
    }

    /// Transient faults that retries outlast are invisible: a backend
    /// failing every job's first `fails` submissions under
    /// `max_attempts > fails` produces a bit-identical run to the
    /// fault-free backend — across both downstream schemes and with a
    /// warm-start cache attached (a retried node must seed the cache the
    /// same bytes a clean one does).
    #[test]
    fn retries_recover_bit_identically(seed in 0u64..2000, fails in 1u32..3) {
        use std::sync::Arc;
        let (circuit, cut) = GoldenAnsatz::new(5, seed).build();
        let method = if seed % 2 == 0 {
            ReconstructionMethod::Eigenstate
        } else {
            ReconstructionMethod::Sic
        };
        let with_cache = seed % 3 == 0;
        let run = |flaky: bool| {
            let inner = IdealBackend::new(seed ^ 0xFA);
            let opts = ExecutionOptions {
                shots_per_setting: 256,
                method,
                retry: RetryPolicy::with_attempts(fails + 1),
                cache: with_cache
                    .then(|| Arc::new(WarmCache::open(CacheConfig::in_memory()))),
                ..Default::default()
            };
            if flaky {
                let backend = FaultInjectingBackend::new(inner).fail_first(fails);
                CutExecutor::new(&backend)
                    .run(&circuit, &cut, GoldenPolicy::Disabled, &opts)
                    .unwrap()
            } else {
                CutExecutor::new(&inner)
                    .run(&circuit, &cut, GoldenPolicy::Disabled, &opts)
                    .unwrap()
            }
        };
        let recovered = run(true);
        let clean = run(false);
        prop_assert_eq!(recovered.distribution.values(), clean.distribution.values());
        prop_assert_eq!(recovered.report.total_shots, clean.report.total_shots);
        prop_assert_eq!(recovered.report.shots_lost, 0);
        prop_assert!(!recovered.report.degraded);
        prop_assert!(recovered.report.jobs_retried > 0);
        prop_assert_eq!(clean.report.jobs_retried, 0);
    }

    /// Wrapping any backend — ideal or noisy — in a single-member pool is
    /// invisible to the full pipeline: bit-identical distribution and shot
    /// accounting, plus the pool's (trivial) member itemisation.
    #[test]
    fn single_member_pool_pipeline_is_bit_identical(seed in 0u64..2000) {
        let (circuit, cut) = GoldenAnsatz::new(5, seed).build();
        let noisy = seed % 2 == 1;
        let member = |s: u64| -> Box<dyn Backend> {
            if noisy {
                Box::new(presets::ibm_5q(s))
            } else {
                Box::new(IdealBackend::new(s))
            }
        };
        let opts = ExecutionOptions { shots_per_setting: 256, ..Default::default() };
        let bare = member(seed ^ 0x91);
        let bare_run = CutExecutor::new(bare.as_ref())
            .run(&circuit, &cut, GoldenPolicy::Disabled, &opts)
            .unwrap();
        let pool = BackendPool::new(PlacementPolicy::RoundRobin).with_member(member(seed ^ 0x91));
        let pool_run = CutExecutor::new(&pool)
            .run(&circuit, &cut, GoldenPolicy::Disabled, &opts)
            .unwrap();
        prop_assert_eq!(pool_run.distribution.values(), bare_run.distribution.values());
        prop_assert_eq!(pool_run.report.total_shots, bare_run.report.total_shots);
        prop_assert_eq!(pool_run.report.jobs_executed, bare_run.report.jobs_executed);
        prop_assert_eq!(
            pool_run.report.jobs_per_member.iter().sum::<u64>(),
            pool_run.report.jobs_executed as u64
        );
    }

    /// Same-round sibling failover is bit-identical to never having
    /// faulted: a pool whose pinned member transiently drops one node is
    /// indistinguishable from a fault-free pool that pinned that node to
    /// the sibling outright — the sibling sees the identical batch at the
    /// identical seed-counter base. Holds over ideal and noisy members
    /// and any failing-node position.
    #[test]
    fn pool_failover_is_bit_identical_to_the_fault_free_reference(
        seed in 0u64..2000,
        k in 2usize..5,
        p_raw in 0usize..5,
        noisy_raw in 0u8..2,
    ) {
        let p = p_raw % k;
        let noisy = noisy_raw == 1;
        // k structurally distinct 3-qubit circuits (distinct rotation
        // angles), so node order is exactly insertion order.
        let nodes: Vec<Circuit> = (0..k)
            .map(|i| {
                let mut c = Circuit::new(3);
                c.h(0).cx(0, 1).rz(0.1 + i as f64 * 0.37, 2);
                c
            })
            .collect();
        let member = |s: u64| -> Box<dyn Backend> {
            if noisy {
                Box::new(presets::ibm_5q(s))
            } else {
                Box::new(IdealBackend::new(s))
            }
        };
        let build = |nodes: &[Circuit]| {
            let mut g = JobGraph::new();
            for (i, c) in nodes.iter().enumerate() {
                g.add_job(c.clone(), (Channel::UpstreamMeas, i as u64), 200 + i as u64);
            }
            g
        };

        // Everything pins to member 0, which fails node p once: the
        // engine must hand node p to sibling 1 within the round.
        let faulty = BackendPool::new(PlacementPolicy::Pinned(vec![0]))
            .with_backend(FaultInjectingBackend::new(member(seed)).fail_circuit(&nodes[p], 1))
            .with_member(member(seed ^ 0xBEEF));
        let run = build(&nodes).execute(&faulty, true).unwrap();
        prop_assert_eq!(run.stats.jobs_failed_over, 1);
        prop_assert_eq!(run.stats.shots_lost, 0);

        // Fault-free reference: node p pinned to member 1 outright.
        let pins: Vec<usize> = (0..k).map(|i| usize::from(i == p)).collect();
        let reference = BackendPool::new(PlacementPolicy::Pinned(pins))
            .with_member(member(seed))
            .with_member(member(seed ^ 0xBEEF));
        let want = build(&nodes).execute(&reference, true).unwrap();
        prop_assert_eq!(want.stats.jobs_failed_over, 0);
        for i in 0..k as u64 {
            prop_assert_eq!(
                run.counts(&(Channel::UpstreamMeas, i)),
                want.counts(&(Channel::UpstreamMeas, i)),
                "node {} differs (failing node {})", i, p
            );
        }
        prop_assert_eq!(run.stats.shots_executed, want.stats.shots_executed);
        prop_assert_eq!(run.stats.jobs_per_member, want.stats.jobs_per_member);
    }
}
