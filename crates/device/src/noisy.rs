//! Noisy backend — the workspace's substitute for the paper's IBM
//! superconducting devices (see DESIGN.md §4 for the substitution
//! argument).
//!
//! Evolution is exact density-matrix simulation with the configured
//! [`NoiseModel`]: after every gate a depolarizing channel plus optional
//! thermal relaxation is applied to the operand qubits; at measurement the
//! readout confusion matrix acts on the outcome probabilities, and shots
//! are sampled from the corrupted distribution.

use crate::backend::{
    mix_seed, run_batch_forest, run_batch_indexed, Backend, BackendError, BatchRun, BatchStats,
    ExecutionResult, JobResult, JobSpec,
};
use crate::timing::TimingModel;
use qcut_circuit::circuit::{Circuit, Instruction};
use qcut_math::Matrix;
use qcut_sim::counts::sample_counts;
use qcut_sim::density::DensityMatrix;
use qcut_sim::noise::{KrausChannel, NoiseModel};
use qcut_sim::prefix::ForkState;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Density-matrix backend with gate noise, thermal relaxation and readout
/// error.
pub struct NoisyBackend {
    name: String,
    capacity: usize,
    noise: NoiseModel,
    timing: TimingModel,
    seed: u64,
    job_counter: AtomicU64,
    /// Pre-built thermal channels (1q and 2q gate durations).
    thermal_1q: Option<KrausChannel>,
    thermal_2q: Option<KrausChannel>,
    prefix_sharing: bool,
}

impl NoisyBackend {
    /// Builds a noisy backend.
    pub fn new(
        name: impl Into<String>,
        capacity: usize,
        noise: NoiseModel,
        timing: TimingModel,
        seed: u64,
    ) -> Self {
        let (thermal_1q, thermal_2q) = match noise.thermal {
            Some(spec) => (
                Some(KrausChannel::thermal_relaxation(
                    spec.t1,
                    spec.t2,
                    spec.time_1q,
                )),
                Some(KrausChannel::thermal_relaxation(
                    spec.t1,
                    spec.t2,
                    spec.time_2q,
                )),
            ),
            None => (None, None),
        };
        NoisyBackend {
            name: name.into(),
            capacity,
            noise,
            timing,
            seed,
            job_counter: AtomicU64::new(0),
            thermal_1q,
            thermal_2q,
            prefix_sharing: true,
        }
    }

    /// The backend's noise model.
    pub fn noise(&self) -> &NoiseModel {
        &self.noise
    }

    /// Toggles prefix-shared batch simulation (on by default; `false` is
    /// the per-job ablation baseline). Counts are bit-identical either way.
    pub fn with_prefix_sharing(mut self, enabled: bool) -> Self {
        self.prefix_sharing = enabled;
        self
    }

    fn next_job_seed(&self) -> u64 {
        mix_seed(self.seed, self.job_counter.fetch_add(1, Ordering::Relaxed))
    }

    fn run_seeded(
        &self,
        circuit: &Circuit,
        shots: u64,
        job_seed: u64,
    ) -> Result<ExecutionResult, BackendError> {
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

    /// Applies one unitary instruction followed by the configured noise
    /// channels on its operand qubits — the single evolution step shared by
    /// [`NoisyBackend::exact_probabilities`] and the prefix-shared batch
    /// walk (both must perform the identical operation sequence for the
    /// batched-equals-sequential contract).
    fn apply_noisy_instruction(&self, dm: &mut DensityMatrix, inst: &Instruction) {
        dm.apply_instruction(inst);
        match inst.qubits.len() {
            1 => {
                if let Some(ch) = &self.noise.one_qubit {
                    dm.apply_kraus_one(ch.operators(), inst.qubits[0]);
                }
                if let Some(th) = &self.thermal_1q {
                    dm.apply_kraus_one(th.operators(), inst.qubits[0]);
                }
            }
            2 => {
                if let Some(ch) = &self.noise.two_qubit {
                    dm.apply_kraus_two(ch.operators(), inst.qubits[0], inst.qubits[1]);
                }
                if let Some(th) = &self.thermal_2q {
                    // Thermal relaxation acts independently per qubit.
                    dm.apply_kraus_one(th.operators(), inst.qubits[0]);
                    dm.apply_kraus_one(th.operators(), inst.qubits[1]);
                }
            }
            _ => unreachable!(),
        }
    }

    /// Readout-corrupted outcome distribution of an evolved density matrix
    /// (the per-leaf finalisation of the batch walk).
    fn readout_probabilities(&self, dm: &DensityMatrix) -> Vec<f64> {
        let mut dm = dm.clone();
        dm.renormalize();
        let probs = dm.probabilities();
        self.noise.readout.apply_to_probs(&probs, dm.num_qubits())
    }

    /// Exact noisy output distribution (before shot sampling): density
    /// matrix evolution + readout confusion. Exposed for tests and for
    /// infinite-shot analyses.
    pub fn exact_probabilities(&self, circuit: &Circuit) -> Vec<f64> {
        let mut dm = DensityMatrix::zero_state(circuit.num_qubits());
        for inst in circuit.instructions() {
            self.apply_noisy_instruction(&mut dm, inst);
        }
        self.readout_probabilities(&dm)
    }
}

/// A density matrix evolving under this backend's noise model — the
/// [`ForkState`] the prefix-shared batch walk clones at trie branch points.
#[derive(Clone)]
struct NoisyEvolution<'b> {
    backend: &'b NoisyBackend,
    dm: DensityMatrix,
}

impl ForkState for NoisyEvolution<'_> {
    fn apply(&mut self, inst: &Instruction) {
        self.backend.apply_noisy_instruction(&mut self.dm, inst);
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
        self.run_seeded(circuit, shots, self.next_job_seed())
    }

    /// Native batched execution. The expensive per-backend noise setup (the
    /// pre-built thermal Kraus channels) is shared across the whole batch,
    /// sub-seeds are assigned by batch position (batched results are
    /// bit-identical to a sequential loop over [`Backend::run`]), and with
    /// prefix sharing on the density-matrix evolution of shared circuit
    /// prefixes — the dominant `O(4^n)`-per-gate cost — runs once per
    /// prefix, forking at trie branch points.
    fn run_batch_stats(&self, jobs: &[JobSpec<'_>]) -> BatchRun {
        if !self.prefix_sharing {
            let results = run_batch_indexed(&self.job_counter, jobs, |job, idx| {
                self.run_seeded(job.circuit, job.shots, mix_seed(self.seed, idx))
            });
            let stats = BatchStats::unshared(jobs, &results);
            return BatchRun { results, stats };
        }
        run_batch_forest(
            &self.job_counter,
            self.seed,
            jobs,
            |c, s| self.check(c, s),
            |width| NoisyEvolution {
                backend: self,
                dm: DensityMatrix::zero_state(width),
            },
            |state: &NoisyEvolution<'_>| self.readout_probabilities(&state.dm),
            &self.timing,
            // No tier-2 state cache: `NoisyEvolution` borrows the backend,
            // so caching it inside the backend would be self-referential;
            // density matrices are also the least rewarding states to hold.
            None,
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

#[allow(dead_code)]
fn _assert_traits()
where
    NoisyBackend: Sync,
{
    // NoisyBackend must stay Sync for rayon fan-out; Matrix is only used
    // behind &self.
    let _ = std::mem::size_of::<Matrix>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcut_sim::noise::{ReadoutError, ThermalSpec};

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
        let unshared = noisy(21).with_prefix_sharing(false).run_batch_stats(&jobs);
        for (a, b) in shared.results.iter().zip(&unshared.results) {
            assert_eq!(a.as_ref().unwrap().counts, b.as_ref().unwrap().counts);
        }
        let seq = noisy(21);
        for (job, r) in jobs.iter().zip(&shared.results) {
            let s = seq.run(job.circuit, job.shots).unwrap();
            assert_eq!(r.as_ref().unwrap().counts, s.counts);
        }
        assert!(shared.stats.gates_applied < shared.stats.gates_naive);
        assert_eq!(shared.stats.unique_states, 3);
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
