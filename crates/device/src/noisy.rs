//! Noisy backend — the workspace's substitute for the paper's IBM
//! superconducting devices (see DESIGN.md §4 for the substitution
//! argument).
//!
//! Evolution is exact density-matrix simulation with the configured
//! [`NoiseModel`]: every gate is followed by a depolarizing channel plus
//! optional thermal relaxation on its operand qubits; at measurement the
//! readout confusion matrix acts on the outcome probabilities, and shots
//! are sampled from the corrupted distribution.
//!
//! The gate noise is folded once, at construction, into one
//! [`Superoperator`] per gate arity (thermal ∘ depolarizing; for two-qubit
//! gates the thermal part is thermal ⊗ thermal). Each instruction composes
//! its gate's `U ⊗ Ū` with that map and applies the fused result to ρ in
//! one block pass, so a noisy gate costs one pass over ρ however many Kraus
//! operators its noise has.
//!
//! The two maps live in one shared `GateNoise` value. Every density
//! matrix the batch walk evolves holds a handle to it, so an evolving
//! state owns everything it needs and can outlive the batch. Each backend
//! keeps up to 32 evolved states in a tier-2 [`ForkStateCache`] (fewer on
//! a device wider than 8 qubits, so the cache stays within 32 MiB). The
//! cache admits a state the second time a batch evolves its prefix
//! ([`ForkStateCache::admitting_repeats`]), so traffic that never repeats
//! a prefix copies no ρ into it. A later batch that repeats a prefix
//! resumes from the cached ρ and re-evolves only what follows it. Each
//! look of online golden detection resubmits the same circuits, so from
//! the third look on it pays only readout, the CDF table and sampling:
//! one uniform and one binary search per shot, and one histogram insert
//! per distinct outcome.

use crate::backend::{
    mix_seed, run_batch_forest, Backend, BackendError, BatchRun, ExecutionResult, JobResult,
    JobSpec,
};
use crate::timing::TimingModel;
use qcut_circuit::circuit::{Circuit, Instruction};
use qcut_sim::counts::sample_counts;
use qcut_sim::density::DensityMatrix;
use qcut_sim::noise::{KrausChannel, NoiseModel, Superoperator, ThermalSpec};
use qcut_sim::prefix::{ForkState, ForkStateCache};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Most density matrices a backend's tier-2 cache keeps. The cache must
/// hold every trie node of one online-detection look, or least-recently-
/// used eviction drops each state just before the next look asks for it.
/// A K-cut look submits 3^(K-1) circuits, whose prefix forest has fewer
/// than 2·3^(K-1) nodes: at most 17 at K = 3, which leaves room for the
/// fragment prefixes of the other cuts' looks. A K = 4 look (up to 53
/// nodes) outgrows it.
const MAX_CACHED_STATES: usize = 32;

/// Memory ceiling of a backend's tier-2 cache. A density matrix of n
/// qubits takes 16·4^n bytes, and the cache is sized for the device's
/// widest circuit: up to 8 qubits it keeps `MAX_CACHED_STATES` states,
/// at 10 qubits 2, and from 11 qubits on none.
const STATE_CACHE_BYTES: usize = 32 << 20;

/// Density-matrix backend with gate noise, thermal relaxation and readout
/// error.
pub struct NoisyBackend {
    name: String,
    capacity: usize,
    noise: NoiseModel,
    timing: TimingModel,
    seed: u64,
    job_counter: AtomicU64,
    /// The fused noise after every gate, shared with every evolving state.
    gate_noise: Arc<GateNoise>,
    /// Warm-start tier 2: fork states kept across batches (and runs) so
    /// repeated prefixes re-simulate only their divergent suffixes; `None`
    /// when not one density matrix of the device's width fits in
    /// `STATE_CACHE_BYTES`. A lock poisoned by a panic elsewhere is
    /// recovered: the cache's `lookup`, `admits` and `store` cannot panic
    /// between two mutations, so it stays consistent.
    state_cache: Option<Mutex<ForkStateCache<NoisyEvolution>>>,
}

/// The gate noise of a [`NoiseModel`], folded into one superoperator per
/// gate arity.
struct GateNoise {
    /// The noise after every one-qubit gate: thermal ∘ depolarizing.
    one_qubit: Superoperator,
    /// The noise after every two-qubit gate: (thermal ⊗ thermal) ∘
    /// two-qubit depolarizing.
    two_qubit: Superoperator,
}

impl GateNoise {
    /// Applies one instruction with its gate noise as one fused
    /// superoperator — the single evolution step of both the per-job path
    /// and the prefix-shared batch walk (both must perform the identical
    /// operation sequence for the batched-equals-sequential contract).
    fn apply(&self, dm: &mut DensityMatrix, inst: &Instruction) {
        let noise = if inst.qubits.len() == 1 {
            &self.one_qubit
        } else {
            &self.two_qubit
        };
        dm.apply_superop(&noise.after_unitary(&inst.gate.matrix()), &inst.qubits);
    }
}

impl NoisyBackend {
    /// Builds a noisy backend with an empty tier-2 state cache (see the
    /// module docs). Counts do not depend on the cache.
    ///
    /// # Panics
    /// If the model's `one_qubit` channel is not a one-qubit channel or its
    /// `two_qubit` channel not a two-qubit one.
    pub fn new(
        name: impl Into<String>,
        capacity: usize,
        noise: NoiseModel,
        timing: TimingModel,
        seed: u64,
    ) -> Self {
        let map = |channel: Option<&KrausChannel>, arity| {
            channel.map_or_else(
                || Superoperator::identity(arity),
                KrausChannel::superoperator,
            )
        };
        let thermal =
            |spec: ThermalSpec, time| KrausChannel::thermal_relaxation(spec.t1, spec.t2, time);
        let thermal_1q = noise.thermal.map(|spec| thermal(spec, spec.time_1q));
        // Thermal relaxation acts independently on each operand qubit.
        let thermal_2q = noise.thermal.map(|spec| {
            let th = thermal(spec, spec.time_2q);
            th.tensor(&th)
        });
        let gate_noise = GateNoise {
            one_qubit: map(noise.one_qubit.as_ref(), 1).then(&map(thermal_1q.as_ref(), 1)),
            two_qubit: map(noise.two_qubit.as_ref(), 2).then(&map(thermal_2q.as_ref(), 2)),
        };
        let max_states = u32::try_from(capacity)
            .ok()
            .and_then(|n| 4usize.checked_pow(n))
            .and_then(|entries| entries.checked_mul(16))
            .map_or(0, |rho_bytes| {
                (STATE_CACHE_BYTES / rho_bytes).min(MAX_CACHED_STATES)
            });
        NoisyBackend {
            name: name.into(),
            capacity,
            noise,
            timing,
            seed,
            job_counter: AtomicU64::new(0),
            gate_noise: Arc::new(gate_noise),
            state_cache: (max_states > 0)
                .then(|| Mutex::new(ForkStateCache::admitting_repeats(max_states))),
        }
    }

    /// The backend's noise model.
    pub fn noise(&self) -> &NoiseModel {
        &self.noise
    }

    /// Readout-corrupted outcome distribution of an evolved density matrix
    /// (the per-leaf finalisation of the batch walk).
    fn readout_probabilities(&self, dm: &DensityMatrix) -> Vec<f64> {
        let probs = dm.normalized_probabilities();
        self.noise.readout.apply_to_probs(&probs, dm.num_qubits())
    }

    /// Exact noisy output distribution (before shot sampling): density
    /// matrix evolution + readout confusion. Exposed for tests and for
    /// infinite-shot analyses. The device capacity is not checked: any
    /// width the host can hold is evolved.
    pub fn exact_probabilities(&self, circuit: &Circuit) -> Vec<f64> {
        let mut dm = DensityMatrix::zero_state(circuit.num_qubits());
        for inst in circuit.instructions() {
            self.gate_noise.apply(&mut dm, inst);
        }
        self.readout_probabilities(&dm)
    }
}

/// A density matrix evolving under a backend's gate noise — the
/// [`ForkState`] the prefix-shared batch walk clones at trie branch points
/// and the tier-2 cache holds across batches.
#[derive(Clone)]
struct NoisyEvolution {
    noise: Arc<GateNoise>,
    dm: DensityMatrix,
}

impl ForkState for NoisyEvolution {
    fn apply(&mut self, inst: &Instruction) {
        self.noise.apply(&mut self.dm, inst);
    }

    fn gate_cost(num_qubits: usize) -> u64 {
        <DensityMatrix as ForkState>::gate_cost(num_qubits)
    }
}

impl Backend for NoisyBackend {
    fn name(&self) -> &str {
        &self.name
    }

    fn num_qubits(&self) -> usize {
        self.capacity
    }

    fn timing(&self) -> &TimingModel {
        &self.timing
    }

    fn run(&self, circuit: &Circuit, shots: u64) -> Result<ExecutionResult, BackendError> {
        let job_seed = mix_seed(self.seed, self.job_counter.fetch_add(1, Ordering::Relaxed));
        self.check(circuit, shots)?;
        let started = Instant::now();
        let probs = self.exact_probabilities(circuit);
        let mut rng = StdRng::seed_from_u64(job_seed);
        let counts = sample_counts(circuit.num_qubits(), &probs, shots, &mut rng);
        Ok(ExecutionResult {
            counts,
            simulated_duration: self.timing.job_duration_as_duration(circuit, shots),
            host_duration: started.elapsed(),
        })
    }

    /// Native batched execution. The expensive per-backend noise setup (the
    /// pre-built noise superoperators) is shared across the whole batch,
    /// sub-seeds are assigned by batch position (batched results are
    /// bit-identical to a sequential loop over [`Backend::run`]), and the
    /// density-matrix evolution of shared circuit prefixes — the dominant `O(4^n)`-per-gate cost — runs once per
    /// prefix, forking at trie branch points. The walk also resumes from
    /// the states earlier batches left in the tier-2 cache.
    fn run_batch_stats(&self, jobs: &[JobSpec<'_>]) -> BatchRun {
        run_batch_forest(
            &self.job_counter,
            self.seed,
            jobs,
            |c, s| self.check(c, s),
            |width| NoisyEvolution {
                noise: Arc::clone(&self.gate_noise),
                dm: DensityMatrix::zero_state(width),
            },
            |state: &NoisyEvolution| self.readout_probabilities(&state.dm),
            &self.timing,
            self.state_cache.as_ref(),
        )
    }

    /// Kept in lockstep with [`Backend::run_batch_stats`] (the trait's
    /// default `run_batch` would bypass the batch-position seeding and the
    /// prefix forest).
    fn run_batch(&self, jobs: &[JobSpec<'_>]) -> Vec<JobResult> {
        self.run_batch_stats(jobs).results
    }

    /// Folds the noise character into the device fingerprint: histograms
    /// measured under one noise model must never be pooled with another's
    /// (nor with an ideal backend's — see the cache-isolation tests).
    fn cache_fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for b in self.name.bytes() {
            mix(u64::from(b));
        }
        mix(self.capacity as u64);
        mix(self.noise.fingerprint());
        h
    }

    /// Per-job sub-seeds are a pure function of (constructor seed, batch
    /// position): equal requests reproduce equal histograms.
    fn deterministic_seeding(&self) -> bool {
        true
    }

    /// Deterministic Bell-probe figure of merit: the total-variation
    /// distance between this backend's exact noisy output distribution on
    /// a 2-qubit Bell circuit and the noiseless one. Zero for a noiseless
    /// model; grows monotonically with depolarizing/readout strength —
    /// exactly the ordering `PlacementPolicy::NoiseAware` needs.
    fn noise_score(&self) -> f64 {
        if self.noise.is_noiseless() {
            return 0.0;
        }
        let probe_width = self.capacity.clamp(1, 2);
        let mut probe = Circuit::new(probe_width);
        probe.h(0);
        if probe_width > 1 {
            probe.cx(0, 1);
        }
        tvd(
            &self.exact_probabilities(&probe),
            &ideal_probabilities(&probe),
        )
    }
}

/// A helper used by tests: the exact (infinite-shot) distribution of the
/// noiseless circuit, for comparing noise magnitudes.
pub fn ideal_probabilities(circuit: &Circuit) -> Vec<f64> {
    use qcut_sim::statevector::StateVector;
    StateVector::from_circuit(circuit).probabilities()
}

/// Total-variation distance between two probability vectors (test helper).
pub fn tvd(a: &[f64], b: &[f64]) -> f64 {
    0.5 * a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcut_math::Matrix;
    use qcut_sim::noise::ReadoutError;

    fn bell() -> Circuit {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        c
    }

    fn noisy(seed: u64) -> NoisyBackend {
        NoisyBackend::new(
            "test_noisy",
            5,
            NoiseModel::depolarizing(0.002, 0.02, 0.02),
            TimingModel::ibm_like(),
            seed,
        )
    }

    #[test]
    fn noise_perturbs_but_does_not_destroy() {
        let b = noisy(1);
        let noisy_probs = b.exact_probabilities(&bell());
        let ideal = ideal_probabilities(&bell());
        let d = tvd(&noisy_probs, &ideal);
        assert!(d > 1e-4, "noise had no effect (tvd = {d})");
        assert!(d < 0.2, "noise destroyed the state (tvd = {d})");
        // Forbidden outcomes now have small but nonzero probability.
        assert!(noisy_probs[0b01] > 0.0);
    }

    #[test]
    fn probabilities_remain_normalised() {
        let b = noisy(2);
        let probs = b.exact_probabilities(&bell());
        let total: f64 = probs.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(probs.iter().all(|&p| p >= 0.0));
    }

    #[test]
    fn thermal_relaxation_biases_toward_ground() {
        let model = NoiseModel {
            one_qubit: None,
            two_qubit: None,
            thermal: Some(ThermalSpec {
                t1: 10e-6,
                t2: 10e-6,
                time_1q: 2e-6, // exaggerated: 20% of T1 per gate
                time_2q: 4e-6,
            }),
            readout: ReadoutError::none(),
        };
        let b = NoisyBackend::new("thermal", 2, model, TimingModel::ibm_like(), 0);
        let mut c = Circuit::new(1);
        c.x(0); // |1>
        let probs = b.exact_probabilities(&c);
        assert!(probs[0] > 0.15, "expected decay toward |0>, got {probs:?}");
        assert!(probs[1] < 0.85);
    }

    #[test]
    fn readout_error_flips_deterministic_outcomes() {
        let model = NoiseModel {
            one_qubit: None,
            two_qubit: None,
            thermal: None,
            readout: ReadoutError::symmetric(0.05),
        };
        let b = NoisyBackend::new("ro", 1, model, TimingModel::ibm_like(), 0);
        let c = Circuit::new(1); // |0> always
        let probs = b.exact_probabilities(&c);
        assert!((probs[1] - 0.05).abs() < 1e-9);
    }

    #[test]
    fn run_samples_and_accounts_time() {
        let b = noisy(3);
        let r = b.run(&bell(), 1000).unwrap();
        assert_eq!(r.counts.total(), 1000);
        // ibm_like: 2 s job overhead dominates.
        let t = r.simulated_duration.as_secs_f64();
        assert!(t > 1.85 && t < 2.4, "simulated duration {t}");
    }

    #[test]
    fn seeded_runs_are_reproducible() {
        let r1 = noisy(9).run(&bell(), 200).unwrap();
        let r2 = noisy(9).run(&bell(), 200).unwrap();
        assert_eq!(r1.counts, r2.counts);
    }

    #[test]
    fn batched_run_is_bit_identical_to_sequential_runs() {
        let c = bell();
        let jobs: Vec<JobSpec<'_>> = (0..5).map(|i| JobSpec::new(&c, 150 + i)).collect();
        let batched = noisy(31).run_batch(&jobs);
        let seq_backend = noisy(31);
        for (job, r) in jobs.iter().zip(&batched) {
            let s = seq_backend.run(job.circuit, job.shots).unwrap();
            assert_eq!(r.as_ref().unwrap().counts, s.counts);
        }
    }

    #[test]
    fn prefix_sharing_is_bit_identical_on_the_noisy_backend() {
        // Shared-prefix variants of a noisy fragment: the density-matrix
        // evolution (gates + Kraus channels) of the prefix runs once.
        let mut base = Circuit::new(2);
        base.h(0).cx(0, 1).ry(0.4, 1);
        let mut x_rot = base.clone();
        x_rot.h(1);
        let mut y_rot = base.clone();
        y_rot.sdg(1).h(1);
        let circuits = [&base, &x_rot, &y_rot, &x_rot];
        let jobs: Vec<JobSpec<'_>> = circuits
            .iter()
            .enumerate()
            .map(|(i, c)| JobSpec::new(c, 200 + i as u64))
            .collect();

        let shared = noisy(21).run_batch_stats(&jobs);
        // The per-job baseline: a sequential loop over `run`.
        let seq = noisy(21);
        for (job, r) in jobs.iter().zip(&shared.results) {
            let s = seq.run(job.circuit, job.shots).unwrap();
            assert_eq!(r.as_ref().unwrap().counts, s.counts);
        }
        assert!(shared.stats.gates_applied < shared.stats.gates_naive);
        assert_eq!(shared.stats.unique_states, 3);
    }

    #[test]
    fn state_reuse_is_bit_identical_and_skips_repeated_evolution() {
        // Online detection's shape: one fragment measured in one basis,
        // resubmitted as a one-job batch per look.
        let mut look = Circuit::new(3);
        look.h(0).cx(0, 1).ry(0.4, 2).cx(1, 2).sdg(2).h(2);
        // A variant that extends the look's circuit by a suffix.
        let mut variant = look.clone();
        variant.h(1).cx(0, 1);
        let batches: [&[&Circuit]; 6] = [
            &[&look],
            &[&look],
            &[&look],
            &[&look, &variant],
            &[&look, &variant],
            &[&variant],
        ];

        let warm = noisy(41);
        // Per-job `run` evolves each job on its own and never touches the
        // cache.
        let cold = noisy(41);
        for (i, batch) in batches.iter().enumerate() {
            let jobs: Vec<JobSpec<'_>> = batch.iter().map(|c| JobSpec::new(c, 300)).collect();
            let run = warm.run_batch_stats(&jobs);
            for (job, r) in jobs.iter().zip(&run.results) {
                let want = cold.run(job.circuit, job.shots).unwrap();
                assert_eq!(r.as_ref().unwrap().counts, want.counts, "batch {i}");
            }
            let stats = run.stats;
            match i {
                // The first look's ρ is only sighted; the second look
                // evolves it again and the cache admits it.
                0 | 1 => assert_eq!(stats.states_reused, 0, "batch {i} is cold"),
                // The variant resumes from the look's state and applies
                // only its own two gates, twice before its state is kept.
                3 | 4 => {
                    assert_eq!(stats.states_reused, 1, "batch {i}");
                    assert_eq!(stats.gates_applied, 2, "batch {i}");
                }
                _ => {
                    assert!(stats.states_reused >= 1, "batch {i}: {stats:?}");
                    assert_eq!(stats.gates_applied, 0, "batch {i}: {stats:?}");
                }
            }
        }
    }

    #[test]
    fn state_cache_stays_within_its_memory_ceiling() {
        let device = |qubits| {
            let b = NoisyBackend::new(
                "wide",
                qubits,
                NoiseModel::depolarizing(0.002, 0.02, 0.02),
                TimingModel::ibm_like(),
                0,
            );
            b.state_cache
                .map(|cache| format!("{:?}", cache.into_inner().unwrap()))
        };
        let keeps = |n| Some(format!("ForkStateCache {{ states: 0, max_states: {n} }}"));
        assert_eq!(device(8), keeps(MAX_CACHED_STATES));
        assert_eq!(device(9), keeps(8));
        assert_eq!(device(10), keeps(2));
        assert_eq!(device(11), None);
        assert_eq!(device(usize::MAX), None);
    }

    #[test]
    fn capacity_enforced() {
        let b = noisy(0);
        let mut wide = Circuit::new(6);
        wide.h(0);
        assert!(matches!(
            b.run(&wide, 10),
            Err(BackendError::CircuitTooWide { .. })
        ));
    }

    /// ρ ← Σ_m K_m ρ K_m† with every operator kron-expanded to the full
    /// `2^n × 2^n` space — the reference the fused block kernel must match.
    fn dense_channel(rho: &Matrix, ops: &[Matrix], qubits: &[usize], n: usize) -> Matrix {
        let mut out = Matrix::zeros(rho.rows(), rho.cols());
        for k in ops {
            let full = match *qubits {
                [q] => Matrix::embed_one_qubit(k, n, q),
                [q0, q1] => Matrix::embed_two_qubit(k, n, q0, q1),
                _ => unreachable!("gates act on one or two qubits"),
            };
            out = &out + &full.matmul(rho).matmul(&full.adjoint());
        }
        out
    }

    /// The noisy evolution of `circuit` under `model`, gate by gate and
    /// channel by channel in the model's documented order (gate, then
    /// depolarizing, then thermal relaxation on each operand), plus the
    /// readout-corrupted outcome distribution.
    fn dense_oracle(model: &NoiseModel, circuit: &Circuit) -> (Matrix, Vec<f64>) {
        let n = circuit.num_qubits();
        let dim = 1usize << n;
        let mut rho = Matrix::zeros(dim, dim);
        rho[(0, 0)] = qcut_math::Complex::ONE;
        for inst in circuit.instructions() {
            let q = &inst.qubits;
            rho = dense_channel(&rho, &[inst.gate.matrix()], q, n);
            let depolarizing = if q.len() == 1 {
                &model.one_qubit
            } else {
                &model.two_qubit
            };
            if let Some(ch) = depolarizing {
                rho = dense_channel(&rho, ch.operators(), q, n);
            }
            if let Some(spec) = model.thermal {
                let time = if q.len() == 1 {
                    spec.time_1q
                } else {
                    spec.time_2q
                };
                let th = KrausChannel::thermal_relaxation(spec.t1, spec.t2, time);
                for &qubit in q {
                    rho = dense_channel(&rho, th.operators(), &[qubit], n);
                }
            }
        }
        let truth: Vec<f64> = (0..dim).map(|i| rho[(i, i)].re).collect();
        let ro = model.readout;
        let flip = |measured: usize, true_bit: usize| match (measured, true_bit) {
            (0, 0) => 1.0 - ro.p01,
            (1, 0) => ro.p01,
            (0, _) => ro.p10,
            _ => 1.0 - ro.p10,
        };
        let probs = (0..dim)
            .map(|m| {
                (0..dim)
                    .map(|t| {
                        (0..n)
                            .map(|b| flip((m >> b) & 1, (t >> b) & 1))
                            .product::<f64>()
                            * truth[t]
                    })
                    .sum()
            })
            .collect();
        (rho, probs)
    }

    fn oracle_models() -> Vec<NoiseModel> {
        vec![
            crate::presets::ibm_7q(0).noise().clone(),
            crate::presets::very_noisy(0).noise().clone(),
            NoiseModel::depolarizing(0.03, 0.1, 0.0),
            NoiseModel {
                one_qubit: None,
                two_qubit: None,
                // Exaggerated: each gate lasts 1–6% of T1.
                thermal: Some(ThermalSpec {
                    t1: 50.0,
                    t2: 40.0,
                    time_1q: 0.5,
                    time_2q: 3.0,
                }),
                readout: ReadoutError::none(),
            },
            NoiseModel::noiseless(),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        /// The fused per-instruction superoperator reproduces dense Kraus
        /// evolution under every noise model, and ρ stays a state.
        #[test]
        fn fused_superoperators_match_a_dense_kraus_oracle(
            width in 1usize..5,
            depth in 1usize..6,
            model in 0usize..5,
            seed in 0u64..1_000_000,
        ) {
            use qcut_circuit::random::{random_circuit, RandomCircuitConfig};
            let circuit = random_circuit(
                width,
                RandomCircuitConfig { depth, two_qubit_prob: 0.5 },
                seed,
            );
            let noise = oracle_models().swap_remove(model);
            let (want_rho, want) = dense_oracle(&noise, &circuit);
            let backend =
                NoisyBackend::new("oracle", 4, noise, TimingModel::instantaneous(), 0);

            let mut dm = DensityMatrix::zero_state(width);
            for inst in circuit.instructions() {
                backend.gate_noise.apply(&mut dm, inst);
            }
            let rho = dm.matrix();
            proptest::prop_assert!(rho.max_abs_diff(&want_rho) < 1e-12);
            proptest::prop_assert!(rho.is_hermitian(1e-12));
            proptest::prop_assert!((dm.trace() - 1.0).abs() < 1e-12);

            let got = backend.exact_probabilities(&circuit);
            for (g, w) in got.iter().zip(&want) {
                proptest::prop_assert!((g - w).abs() < 1e-12, "{g} vs {w}");
            }
        }
    }

    #[test]
    fn noiseless_model_matches_ideal_simulator() {
        let b = NoisyBackend::new(
            "clean",
            4,
            NoiseModel::noiseless(),
            TimingModel::instantaneous(),
            0,
        );
        let probs = b.exact_probabilities(&bell());
        let ideal = ideal_probabilities(&bell());
        assert!(tvd(&probs, &ideal) < 1e-10);
    }
}
