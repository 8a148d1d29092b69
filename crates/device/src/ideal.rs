//! Ideal (noiseless) backend — the workspace's Qiskit-Aer stand-in.
//!
//! Runs circuits on the state-vector simulator and samples shot noise
//! multinomially. Deterministic given the constructor seed: each job draws
//! a fresh sub-seed from an atomic counter, so results are reproducible
//! regardless of the order in which parallel jobs are scheduled *per job
//! index*, and two backends with the same seed produce the same stream.

use crate::backend::{
    mix_seed, run_batch_forest, Backend, BackendError, BatchRun, ExecutionResult, JobResult,
    JobSpec,
};
use crate::timing::TimingModel;
use qcut_circuit::circuit::Circuit;
use qcut_sim::prefix::ForkStateCache;
use qcut_sim::statevector::StateVector;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Noiseless state-vector backend with shot sampling.
#[derive(Debug)]
pub struct IdealBackend {
    name: String,
    capacity: usize,
    seed: u64,
    job_counter: AtomicU64,
    timing: TimingModel,
    /// Warm-start tier 2: fork states kept across batches (and runs) so
    /// repeated prefixes re-simulate only their divergent suffixes. A lock
    /// poisoned by a panic elsewhere is recovered: the cache's `lookup` and
    /// `store` cannot panic between two mutations, so it stays consistent.
    state_cache: Option<Mutex<ForkStateCache<StateVector>>>,
}

impl IdealBackend {
    /// A 32-qubit-capacity ideal backend.
    pub fn new(seed: u64) -> Self {
        IdealBackend {
            name: "aer_like_ideal".to_string(),
            capacity: 32,
            seed,
            job_counter: AtomicU64::new(0),
            timing: TimingModel::instantaneous(),
            state_cache: None,
        }
    }

    /// Sets an explicit capacity (for tests exercising the too-wide error).
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }

    /// Attaches a timing model (e.g. to make the ideal backend report
    /// device-like durations in runtime experiments).
    pub fn with_timing(mut self, timing: TimingModel) -> Self {
        self.timing = timing;
        self
    }

    /// Attaches a warm-start fork-state cache holding up to `max_states`
    /// states (tier 2 of the cross-run cache). Batches then resume
    /// simulation from the deepest prefix any earlier batch — in this run
    /// or a previous `CutExecutor::run` on the same backend — has already
    /// evolved. Counts are bit-identical with or without the cache; only
    /// host time and the `states_reused` accounting change.
    pub fn with_state_reuse(mut self, max_states: usize) -> Self {
        self.state_cache = Some(Mutex::new(ForkStateCache::new(max_states)));
        self
    }

    /// States currently held by the tier-2 cache (0 without one).
    pub fn cached_states(&self) -> usize {
        self.state_cache
            .as_ref()
            .map(|c| c.lock().unwrap_or_else(PoisonError::into_inner).len())
            .unwrap_or(0)
    }
}

impl Backend for IdealBackend {
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
        let sv = StateVector::from_circuit(circuit);
        let mut rng = StdRng::seed_from_u64(job_seed);
        let counts = sv.sample(shots, &mut rng);
        Ok(ExecutionResult {
            counts,
            simulated_duration: self.timing.job_duration_as_duration(circuit, shots),
            host_duration: started.elapsed(),
        })
    }

    /// Native batched execution: sub-seeds are assigned by *batch
    /// position*, not scheduling order — so the counts are deterministic
    /// under any thread interleaving and identical to running the same
    /// jobs one by one through [`Backend::run`]. The batch is simulated
    /// through a [`qcut_sim::prefix::PrefixForest`]: each shared
    /// instruction prefix evolves once, the state vector forks at branch
    /// points, and every distinct final state builds one CDF table reused
    /// by all jobs ending there — same bits, `O(G + Σ suffix)` instead of
    /// `O(V·G)` gates.
    fn run_batch_stats(&self, jobs: &[JobSpec<'_>]) -> BatchRun {
        run_batch_forest(
            &self.job_counter,
            self.seed,
            jobs,
            |c, s| self.check(c, s),
            StateVector::zero_state,
            |state: &StateVector| state.probabilities(),
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

    /// Per-job sub-seeds are a pure function of (constructor seed, batch
    /// position): equal requests reproduce equal histograms.
    fn deterministic_seeding(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BatchStats;

    fn bell() -> Circuit {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        c
    }

    #[test]
    fn runs_and_returns_all_shots() {
        let b = IdealBackend::new(1);
        let r = b.run(&bell(), 5000).unwrap();
        assert_eq!(r.counts.total(), 5000);
        // Bell state: only 00 and 11.
        assert_eq!(r.counts.get(0b01), 0);
        assert_eq!(r.counts.get(0b10), 0);
        let p00 = r.counts.probability(0b00);
        assert!((p00 - 0.5).abs() < 0.05, "p00 = {p00}");
    }

    #[test]
    fn rejects_oversized_circuits() {
        let b = IdealBackend::new(0).with_capacity(1);
        let err = b.run(&bell(), 100).unwrap_err();
        assert!(matches!(
            err,
            BackendError::CircuitTooWide {
                circuit: 2,
                device: 1
            }
        ));
    }

    #[test]
    fn rejects_zero_shots() {
        let b = IdealBackend::new(0);
        assert_eq!(b.run(&bell(), 0).unwrap_err(), BackendError::NoShots);
    }

    #[test]
    fn same_seed_same_stream() {
        let b1 = IdealBackend::new(77);
        let b2 = IdealBackend::new(77);
        let r1 = b1.run(&bell(), 100).unwrap();
        let r2 = b2.run(&bell(), 100).unwrap();
        assert_eq!(r1.counts, r2.counts);
        // Second job differs from the first (fresh sub-seed).
        let r1b = b1.run(&bell(), 100).unwrap();
        assert_ne!(r1.counts, r1b.counts);
    }

    #[test]
    fn batched_run_is_bit_identical_to_sequential_runs() {
        let bell_c = bell();
        let mut ghz = Circuit::new(3);
        ghz.h(0).cx(0, 1).cx(1, 2);
        let jobs: Vec<JobSpec<'_>> = (0..6u64)
            .map(|i| JobSpec::new(if i % 2 == 0 { &bell_c } else { &ghz }, 400 + i))
            .collect();
        let batched = IdealBackend::new(42).run_batch(&jobs);
        let sequential: Vec<JobResult> = {
            let b = IdealBackend::new(42);
            jobs.iter().map(|j| b.run(j.circuit, j.shots)).collect()
        };
        for (a, b) in batched.iter().zip(&sequential) {
            assert_eq!(a.as_ref().unwrap().counts, b.as_ref().unwrap().counts);
        }
    }

    #[test]
    fn prefix_sharing_is_bit_identical_to_per_job_simulation() {
        // Upstream-variant-shaped batch: one shared prefix, tiny suffixes,
        // plus an exact duplicate and an unrelated circuit.
        let mut base = Circuit::new(3);
        base.h(0).cx(0, 1).ry(0.3, 2).cx(1, 2);
        let mut x_rot = base.clone();
        x_rot.h(2);
        let mut y_rot = base.clone();
        y_rot.sdg(2).h(2);
        let mut other = Circuit::new(2);
        other.x(0).h(1);
        let circuits = [&base, &x_rot, &y_rot, &base, &other];
        let jobs: Vec<JobSpec<'_>> = circuits
            .iter()
            .enumerate()
            .map(|(i, c)| JobSpec::new(c, 300 + i as u64))
            .collect();

        let shared = IdealBackend::new(7).run_batch_stats(&jobs);
        // The per-job baseline: a sequential loop over `run`.
        let seq = IdealBackend::new(7);
        let per_job: Vec<JobResult> = jobs.iter().map(|j| seq.run(j.circuit, j.shots)).collect();
        let unshared = BatchStats::unshared(&jobs, &per_job);
        for (a, b) in shared.results.iter().zip(&per_job) {
            assert_eq!(a.as_ref().unwrap().counts, b.as_ref().unwrap().counts);
        }
        // Accounting: sharing applied fewer gates for the same batch.
        assert_eq!(shared.stats.gates_naive, unshared.gates_naive);
        assert!(shared.stats.gates_applied < shared.stats.gates_naive);
        assert_eq!(unshared.gates_saved(), 0);
        // base appears twice but is one terminal node (one CDF table).
        assert_eq!(shared.stats.unique_states, 4);
        assert!(shared.stats.prefix_nodes >= 4);
    }

    #[test]
    fn prefix_shared_batch_reports_errors_in_place() {
        let b = IdealBackend::new(0).with_capacity(2);
        let mut wide = Circuit::new(3);
        wide.h(0);
        let mut fits = Circuit::new(2);
        fits.h(0);
        let jobs = vec![
            JobSpec::new(&wide, 10),
            JobSpec::new(&fits, 10),
            JobSpec::new(&fits, 0),
        ];
        let run = b.run_batch_stats(&jobs);
        assert!(matches!(
            run.results[0],
            Err(BackendError::CircuitTooWide { .. })
        ));
        assert!(run.results[1].is_ok());
        assert!(matches!(run.results[2], Err(BackendError::NoShots)));
        // Invalid jobs stay out of the gate accounting.
        assert_eq!(run.stats.gates_naive, 1);
    }

    #[test]
    fn batch_errors_are_reported_in_place() {
        let b = IdealBackend::new(0).with_capacity(1);
        let wide = bell();
        let mut fits = Circuit::new(1);
        fits.h(0);
        let jobs = vec![
            JobSpec::new(&wide, 10),
            JobSpec::new(&fits, 10),
            JobSpec::new(&fits, 0),
        ];
        let results = b.run_batch(&jobs);
        assert!(matches!(
            results[0],
            Err(BackendError::CircuitTooWide { .. })
        ));
        assert!(results[1].is_ok());
        assert!(matches!(results[2], Err(BackendError::NoShots)));
    }

    #[test]
    fn state_reuse_is_bit_identical_and_counts_reused_states() {
        // Sweep-shaped workload: same fragment, varying final rotation.
        let mut base = Circuit::new(3);
        base.h(0).cx(0, 1).ry(0.3, 2).cx(1, 2);
        let mut a = base.clone();
        a.rz(0.1, 2);
        let mut b = base.clone();
        b.rz(0.2, 2);

        let plain = IdealBackend::new(5);
        let warm = IdealBackend::new(5).with_state_reuse(64);
        let jobs_a = [JobSpec::new(&a, 500)];
        let r_plain_a = plain.run_batch_stats(&jobs_a);
        let r_warm_a = warm.run_batch_stats(&jobs_a);
        assert_eq!(r_warm_a.stats.states_reused, 0, "first batch is cold");
        assert!(warm.cached_states() > 0, "cold batch exports its states");

        let jobs_b = [JobSpec::new(&b, 500), JobSpec::new(&a, 500)];
        let r_plain_b = plain.run_batch_stats(&jobs_b);
        let r_warm_b = warm.run_batch_stats(&jobs_b);
        assert!(
            r_warm_b.stats.states_reused > 0,
            "second batch resumes from cached prefixes"
        );
        assert!(
            r_warm_b.stats.gates_applied < r_plain_b.stats.gates_applied,
            "reused segments drop out of the gate accounting"
        );
        for (p, w) in r_plain_a
            .results
            .iter()
            .chain(&r_plain_b.results)
            .zip(r_warm_a.results.iter().chain(&r_warm_b.results))
        {
            assert_eq!(
                p.as_ref().unwrap().counts,
                w.as_ref().unwrap().counts,
                "state reuse must not change a single sampled bit"
            );
        }
    }

    #[test]
    fn cache_fingerprint_separates_ideal_from_noisy() {
        use crate::noisy::NoisyBackend;
        use qcut_sim::noise::NoiseModel;
        let ideal = IdealBackend::new(1);
        let noisy = NoisyBackend::new(
            "fake_lagos",
            7,
            NoiseModel::depolarizing(0.01, 0.02, 0.01),
            TimingModel::instantaneous(),
            1,
        );
        let quieter = NoisyBackend::new(
            "fake_lagos",
            7,
            NoiseModel::depolarizing(0.001, 0.002, 0.001),
            TimingModel::instantaneous(),
            99, // seed deliberately differs: it must not matter
        );
        assert_ne!(ideal.cache_fingerprint(), noisy.cache_fingerprint());
        assert_ne!(noisy.cache_fingerprint(), quieter.cache_fingerprint());
        // Same device model, different seed: same fingerprint (histograms
        // from different seeds are statistically poolable).
        let reseeded = IdealBackend::new(123);
        assert_eq!(ideal.cache_fingerprint(), reseeded.cache_fingerprint());
        assert!(ideal.deterministic_seeding() && noisy.deterministic_seeding());
    }

    #[test]
    fn simulated_duration_uses_timing_model() {
        let t = TimingModel {
            gate_1q: 0.0,
            gate_2q: 0.0,
            readout: 0.0,
            rep_delay: 0.0,
            job_overhead: 1.5,
        };
        let b = IdealBackend::new(0).with_timing(t);
        let r = b.run(&bell(), 10).unwrap();
        assert!((r.simulated_duration.as_secs_f64() - 1.5).abs() < 1e-9);
    }
}
