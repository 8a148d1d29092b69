//! The backend abstraction: anything that can run a circuit for a number
//! of shots and return counts.
//!
//! Two implementations ship with the workspace: [`crate::ideal::IdealBackend`]
//! (the Aer-simulator stand-in) and [`crate::noisy::NoisyBackend`] (the
//! simulated IBM device). Backends are `Sync` so fragment tomography can
//! fan out over a rayon pool.

use crate::pool::BackendPool;
use crate::timing::TimingModel;
use qcut_circuit::circuit::Circuit;
use qcut_sim::counts::{CdfTable, Counts};
use qcut_sim::prefix::{ForkState, ForkStateCache, PrefixForest};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use std::fmt;
use std::time::{Duration, Instant};

/// One batchable unit of work: a circuit and its shot budget. The batched
/// entry point [`Backend::run_batch`] consumes a slice of these; the
/// `qcut-core` JobGraph engine is the main producer. Borrows its circuit
/// so batch submission never copies the (potentially matrix-laden)
/// instruction stream.
#[derive(Debug, Clone, Copy)]
pub struct JobSpec<'a> {
    /// Circuit to execute.
    pub circuit: &'a Circuit,
    /// Number of shots.
    pub shots: u64,
}

impl<'a> JobSpec<'a> {
    /// Creates a job spec.
    pub fn new(circuit: &'a Circuit, shots: u64) -> Self {
        JobSpec { circuit, shots }
    }
}

/// Per-job outcome of a batched run.
pub type JobResult = Result<ExecutionResult, BackendError>;

/// Classical-simulation accounting for one batched submission. The gate
/// counters expose what prefix sharing saved: a non-sharing backend always
/// reports `gates_applied == gates_naive`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Gate applications the backend actually performed simulating the
    /// batch (shared prefixes counted once).
    pub gates_applied: u64,
    /// Gate applications a per-job simulation would have performed
    /// (`Σ len(circuit)` over valid jobs).
    pub gates_naive: u64,
    /// Prefix-forest trie nodes (0 for per-job execution or a backend
    /// without a prefix forest).
    pub prefix_nodes: u64,
    /// Distinct final states sampled from — one CDF table is built per
    /// unique state and reused by every job ending there.
    pub unique_states: u64,
    /// Trie segments whose end state was served from a warm-start
    /// fork-state cache instead of being re-simulated (tier 2; 0 when the
    /// backend has no state cache attached).
    pub states_reused: u64,
}

impl BatchStats {
    /// The accounting of a backend that simulated every job of `results`
    /// independently. Failed jobs were never simulated, so only successful
    /// ones contribute gates and states — mirroring the prefix-sharing
    /// path, which excludes invalid jobs from its forest.
    pub fn unshared(jobs: &[JobSpec<'_>], results: &[JobResult]) -> Self {
        let gates: u64 = jobs
            .iter()
            .zip(results)
            .filter(|(_, r)| r.is_ok())
            .map(|(j, _)| j.circuit.len() as u64)
            .sum();
        BatchStats {
            gates_applied: gates,
            gates_naive: gates,
            prefix_nodes: 0,
            unique_states: results.iter().filter(|r| r.is_ok()).count() as u64,
            states_reused: 0,
        }
    }

    /// Gate applications eliminated by prefix sharing.
    pub fn gates_saved(&self) -> u64 {
        self.gates_naive - self.gates_applied
    }

    /// Folds another batch's accounting into this one.
    pub fn absorb(&mut self, other: &BatchStats) {
        self.gates_applied += other.gates_applied;
        self.gates_naive += other.gates_naive;
        self.prefix_nodes += other.prefix_nodes;
        self.unique_states += other.unique_states;
        self.states_reused += other.states_reused;
    }
}

/// Results plus accounting of one batched submission.
#[derive(Debug)]
pub struct BatchRun {
    /// Per-job outcomes in submission order.
    pub results: Vec<JobResult>,
    /// Simulation-cost accounting for the whole batch.
    pub stats: BatchStats,
}

/// Result of one circuit execution.
#[derive(Debug, Clone)]
pub struct ExecutionResult {
    /// Measured bitstring histogram (all qubits, computational basis).
    pub counts: Counts,
    /// *Simulated* device occupation time — what a real device would have
    /// spent on this job according to the backend's [`TimingModel`]. This
    /// is the quantity behind the paper's Fig. 5 wall-times.
    pub simulated_duration: Duration,
    /// Actual host CPU time spent simulating.
    pub host_duration: Duration,
}

/// What kind of transient fault a backend reported. Real fleets surface
/// these as HTTP 429/5xx, queue evictions, or mid-job recalibrations; the
/// vocabulary here is deliberately coarse — the retry engine only needs to
/// know the failure is worth re-submitting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransientKind {
    /// The service rejected the submission under load (retry after backoff).
    Throttled,
    /// The submission was lost in transit (network partition, dropped job).
    Network,
    /// The device went into recalibration mid-queue and evicted the job.
    Calibration,
}

impl fmt::Display for TransientKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransientKind::Throttled => write!(f, "throttled"),
            TransientKind::Network => write!(f, "network"),
            TransientKind::Calibration => write!(f, "calibration"),
        }
    }
}

/// Errors a backend can raise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendError {
    /// The circuit does not fit on the device.
    CircuitTooWide {
        /// Requested width.
        circuit: usize,
        /// Device capacity.
        device: usize,
    },
    /// Zero shots requested.
    NoShots,
    /// A transient fault: the job failed for a reason that does not
    /// implicate the job itself, so re-submitting it may succeed.
    Transient {
        /// What failed.
        kind: TransientKind,
        /// Which delivery attempt this was (1-based, as counted by the
        /// failing backend).
        attempt: u32,
    },
    /// The job ran longer than the caller's per-job deadline. `elapsed` is
    /// *simulated* device time (from the backend's [`TimingModel`]), so
    /// timeout behaviour is deterministic and wall-clock-free in tests.
    Timeout {
        /// Simulated time the job had consumed when the deadline passed.
        elapsed: Duration,
    },
    /// The backend is (temporarily) not accepting work at all.
    Unavailable,
}

impl BackendError {
    /// True for failures worth re-submitting: the job itself is fine, the
    /// delivery failed. `CircuitTooWide` and `NoShots` are deterministic
    /// misconfigurations — retrying them can only fail identically.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            BackendError::Transient { .. }
                | BackendError::Timeout { .. }
                | BackendError::Unavailable
        )
    }
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::CircuitTooWide { circuit, device } => write!(
                f,
                "circuit needs {circuit} qubits but the device has only {device} \
                 (this is exactly the situation circuit cutting addresses)"
            ),
            BackendError::NoShots => write!(f, "shots must be positive"),
            BackendError::Transient { kind, attempt } => {
                write!(f, "transient {kind} fault on attempt {attempt}")
            }
            BackendError::Timeout { elapsed } => write!(
                f,
                "job exceeded its per-job timeout after {:.3} s of simulated device time",
                elapsed.as_secs_f64()
            ),
            BackendError::Unavailable => write!(f, "backend is not accepting work"),
        }
    }
}

impl std::error::Error for BackendError {}

/// SplitMix64-style mixing of (backend seed, job index) into a per-job
/// sub-seed. Shared by the seed-deterministic backends so the
/// batched-equals-sequential parity can never drift between them.
pub fn mix_seed(seed: u64, job: u64) -> u64 {
    let mut z = seed ^ job.wrapping_mul(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Shared prefix-sharing batch driver for the seed-deterministic
/// simulator backends: reserves one contiguous block of job indices from
/// `counter` (so per-job seeds are assigned by *batch position*, exactly
/// like a sequential loop over `run`), validates each job with `check`,
/// then simulates the valid circuits through one [`PrefixForest`] — every
/// shared instruction prefix evolves once, the state forks at branch
/// points, and each node terminating ≥1 job builds a single [`CdfTable`]
/// from `finalize(state)` that all its jobs sample through with their own
/// position-seeded RNG stream. Bit-identical to
/// per-job simulation because forking is a bit-exact clone and the
/// instruction application order per job is unchanged.
///
/// Per-job `simulated_duration` stays the full per-variant device time
/// (prefix sharing is a *classical simulation* economy; a real device
/// still runs every variant), while host time — which sharing genuinely
/// shrinks — is measured for the whole batch and amortised equally over
/// the successful jobs.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_batch_forest<S, I, P>(
    counter: &std::sync::atomic::AtomicU64,
    seed: u64,
    jobs: &[JobSpec<'_>],
    check: impl Fn(&Circuit, u64) -> Result<(), BackendError>,
    init: I,
    finalize: P,
    timing: &TimingModel,
    reuse: Option<&std::sync::Mutex<ForkStateCache<S>>>,
) -> BatchRun
where
    S: ForkState,
    I: Fn(usize) -> S + Sync,
    P: Fn(&S) -> Vec<f64> + Sync,
{
    let started = Instant::now();
    let base = counter.fetch_add(jobs.len() as u64, std::sync::atomic::Ordering::Relaxed);
    let mut results: Vec<Option<JobResult>> = jobs
        .iter()
        .map(|j| check(j.circuit, j.shots).err().map(Err))
        .collect();
    let valid: Vec<usize> = (0..jobs.len()).filter(|&i| results[i].is_none()).collect();
    let circuits: Vec<&Circuit> = valid.iter().map(|&i| jobs[i].circuit).collect();

    let forest = PrefixForest::build(&circuits);
    let visit = |state: &S, members: &[usize]| {
        let width = circuits[members[0]].num_qubits();
        let cdf = CdfTable::from_probs(width, &finalize(state));
        members
            .iter()
            .map(|&m| {
                let job = valid[m];
                let mut rng = StdRng::seed_from_u64(mix_seed(seed, base + job as u64));
                cdf.sample(jobs[job].shots, &mut rng)
            })
            .collect()
    };
    // The warm tier-2 path swaps `simulate_with` for the reuse-aware walk;
    // cached states are bit-identical to re-simulated ones (confirmed
    // prefix equality + deterministic evolution), so the sampled counts —
    // still seeded purely by batch position — cannot differ between the
    // two paths.
    let (sampled, reuse_stats): (Vec<Counts>, _) = match reuse {
        Some(cache) => forest.simulate_with_reuse(&init, visit, cache),
        None => (
            forest.simulate_with(&init, visit),
            qcut_sim::prefix::ReuseStats::default(),
        ),
    };
    let stats = BatchStats {
        gates_applied: forest.gates_shared() - reuse_stats.gates_skipped,
        gates_naive: forest.gates_naive(),
        prefix_nodes: forest.num_nodes() as u64,
        unique_states: forest.num_terminal_nodes() as u64,
        states_reused: reuse_stats.states_reused,
    };

    let host_share = started
        .elapsed()
        .checked_div(valid.len().max(1) as u32)
        .unwrap_or_default();
    for (m, counts) in sampled.into_iter().enumerate() {
        let job = valid[m];
        results[job] = Some(Ok(ExecutionResult {
            counts,
            simulated_duration: timing.job_duration_as_duration(jobs[job].circuit, jobs[job].shots),
            host_duration: host_share,
        }));
    }
    BatchRun {
        results: results
            .into_iter()
            .map(|r| r.expect("every job resolved to a result"))
            .collect(),
        stats,
    }
}

/// A quantum execution backend.
pub trait Backend: Sync {
    /// Human-readable backend name.
    fn name(&self) -> &str;

    /// Device qubit capacity.
    fn num_qubits(&self) -> usize;

    /// The backend's timing model (used to account simulated wall time).
    fn timing(&self) -> &TimingModel;

    /// Runs `circuit` for `shots` shots, measuring every qubit in the
    /// computational basis.
    fn run(&self, circuit: &Circuit, shots: u64) -> Result<ExecutionResult, BackendError>;

    /// Runs a whole batch of jobs in one submission, returning one result
    /// per job in submission order.
    ///
    /// The default implementation fans the jobs out over the rayon pool
    /// (the trait is `Sync`), so any backend gets parallel batching for
    /// free. Backends whose `run` draws from shared mutable RNG state
    /// should override this to assign per-job streams by *batch index* if
    /// they need batched-equals-sequential determinism. A backend that
    /// overrides [`Backend::run_batch_stats`] (the richer entry point the
    /// engine calls) must override this one to delegate to it, as the
    /// workspace backends do — the two must never diverge.
    fn run_batch(&self, jobs: &[JobSpec<'_>]) -> Vec<JobResult> {
        jobs.par_iter()
            .map(|j| self.run(j.circuit, j.shots))
            .collect()
    }

    /// Runs a whole batch of jobs in one submission, returning one result
    /// per job in submission order plus [`BatchStats`] accounting.
    ///
    /// The default implementation delegates to [`Backend::run_batch`] with
    /// per-job (non-sharing) accounting, so backends that customise only
    /// `run_batch` keep their behaviour. The workspace backends
    /// ([`crate::ideal::IdealBackend`], [`crate::noisy::NoisyBackend`])
    /// override this method to (a) assign per-job RNG streams by *batch
    /// index*, making their batched runs bit-identical to a sequential
    /// loop over [`Backend::run`] on an equally-seeded backend — the
    /// property the pipeline's batched-vs-sequential equivalence tests
    /// rely on — and (b) route the batch through a
    /// [`qcut_sim::prefix::PrefixForest`] so shared circuit prefixes are
    /// simulated once per batch (and mirror `run_batch` to this method).
    fn run_batch_stats(&self, jobs: &[JobSpec<'_>]) -> BatchRun {
        let results = self.run_batch(jobs);
        let stats = BatchStats::unshared(jobs, &results);
        BatchRun { results, stats }
    }

    /// A stable fingerprint of everything that makes this backend's
    /// histograms statistically poolable with another run's: device
    /// identity, capacity, and noise character — but *not* the RNG seed
    /// (samples drawn under different seeds from the same device model are
    /// exchangeable). The warm-start cache folds this into every histogram
    /// key, so e.g. an ideal backend's measurements are never served to a
    /// noisy run.
    ///
    /// The default hashes the backend's name and capacity; backends with
    /// configurable noise must override to include it (the workspace's
    /// `NoisyBackend` folds in `NoiseModel::fingerprint`).
    fn cache_fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |byte: u8| {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for b in self.name().bytes() {
            mix(b);
        }
        for b in (self.num_qubits() as u64).to_le_bytes() {
            mix(b);
        }
        h
    }

    /// True when the backend is expected to raise transient faults
    /// ([`BackendError::is_transient`]) during normal operation — real
    /// cloud devices, or a [`crate::fault::FaultInjectingBackend`] with a
    /// fault schedule configured. Lint QA501 warns when such a backend is
    /// driven with retries disabled. Defaults to `false` (the workspace
    /// simulators never fail transiently).
    fn is_fault_prone(&self) -> bool {
        false
    }

    /// True when the backend assigns per-job RNG streams deterministically
    /// (by seed and batch position), so equal requests reproduce equal
    /// histograms. The warm-start cache works with either answer, but
    /// reproducible warm-vs-cold comparisons need determinism, so lint
    /// QA401 warns when caching is enabled over a backend that does not
    /// claim it. Defaults to `false` (unknown third-party backends).
    fn deterministic_seeding(&self) -> bool {
        false
    }

    /// A scalar noise figure of merit for placement: 0.0 means ideal,
    /// larger means noisier. [`crate::pool::PlacementPolicy::NoiseAware`]
    /// uses it to pin noise-sensitive wide fragments to the cleanest
    /// members. The scale is only compared *within* one pool, so any
    /// monotone measure works; the workspace's `NoisyBackend` reports the
    /// total-variation distance its noise model inflicts on a Bell-state
    /// probe. Defaults to `0.0` (noiseless).
    fn noise_score(&self) -> f64 {
        0.0
    }

    /// Downcast seam for the engine: a [`crate::pool::BackendPool`]
    /// returns `Some(self)` so the JobGraph execute path can route pooled
    /// backends through its sharding/failover engine while every other
    /// backend takes the single-device path. Defaults to `None`.
    fn as_pool(&self) -> Option<&BackendPool> {
        None
    }

    /// Validates a job without running it: the circuit fits and asks for
    /// at least one shot.
    fn check(&self, circuit: &Circuit, shots: u64) -> Result<(), BackendError> {
        if circuit.num_qubits() > self.num_qubits() {
            return Err(BackendError::CircuitTooWide {
                circuit: circuit.num_qubits(),
                device: self.num_qubits(),
            });
        }
        if shots == 0 {
            return Err(BackendError::NoShots);
        }
        Ok(())
    }
}

/// Full delegation for borrowed backends. Without this, a `&B` passed
/// where an `impl Backend` is expected would re-derive every *default*
/// method body — most damagingly `run_batch_stats`, which would silently
/// replace the inner backend's prefix-sharing accounting (and
/// batch-position seeding guarantees) with the naive fallback.
impl<B: Backend + ?Sized> Backend for &B {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn num_qubits(&self) -> usize {
        (**self).num_qubits()
    }
    fn timing(&self) -> &TimingModel {
        (**self).timing()
    }
    fn run(&self, circuit: &Circuit, shots: u64) -> Result<ExecutionResult, BackendError> {
        (**self).run(circuit, shots)
    }
    fn run_batch(&self, jobs: &[JobSpec<'_>]) -> Vec<JobResult> {
        (**self).run_batch(jobs)
    }
    fn run_batch_stats(&self, jobs: &[JobSpec<'_>]) -> BatchRun {
        (**self).run_batch_stats(jobs)
    }
    fn cache_fingerprint(&self) -> u64 {
        (**self).cache_fingerprint()
    }
    fn is_fault_prone(&self) -> bool {
        (**self).is_fault_prone()
    }
    fn deterministic_seeding(&self) -> bool {
        (**self).deterministic_seeding()
    }
    fn noise_score(&self) -> f64 {
        (**self).noise_score()
    }
    fn as_pool(&self) -> Option<&BackendPool> {
        (**self).as_pool()
    }
    fn check(&self, circuit: &Circuit, shots: u64) -> Result<(), BackendError> {
        (**self).check(circuit, shots)
    }
}

/// Full delegation for owned trait objects — what [`crate::pool::
/// BackendPool`] members are. The latent gap this closes: `Box<dyn
/// Backend>` previously had no `Backend` impl at all, so generic wrappers
/// had to deref manually, and any blanket impl that forwarded only the
/// required methods would have dropped `run_batch_stats` down to the
/// stats-losing default (see `boxed_member_keeps_prefix_sharing_stats`).
impl<B: Backend + ?Sized> Backend for Box<B> {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn num_qubits(&self) -> usize {
        (**self).num_qubits()
    }
    fn timing(&self) -> &TimingModel {
        (**self).timing()
    }
    fn run(&self, circuit: &Circuit, shots: u64) -> Result<ExecutionResult, BackendError> {
        (**self).run(circuit, shots)
    }
    fn run_batch(&self, jobs: &[JobSpec<'_>]) -> Vec<JobResult> {
        (**self).run_batch(jobs)
    }
    fn run_batch_stats(&self, jobs: &[JobSpec<'_>]) -> BatchRun {
        (**self).run_batch_stats(jobs)
    }
    fn cache_fingerprint(&self) -> u64 {
        (**self).cache_fingerprint()
    }
    fn is_fault_prone(&self) -> bool {
        (**self).is_fault_prone()
    }
    fn deterministic_seeding(&self) -> bool {
        (**self).deterministic_seeding()
    }
    fn noise_score(&self) -> f64 {
        (**self).noise_score()
    }
    fn as_pool(&self) -> Option<&BackendPool> {
        (**self).as_pool()
    }
    fn check(&self, circuit: &Circuit, shots: u64) -> Result<(), BackendError> {
        (**self).check(circuit, shots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A third-party-style backend that customises batching solely via
    /// `run_batch` (the PR 2 extension point): it tags every job's counts
    /// with a fixed outcome so delegation is observable.
    struct RunBatchOnly {
        timing: TimingModel,
    }

    impl Backend for RunBatchOnly {
        fn name(&self) -> &str {
            "run_batch_only"
        }
        fn num_qubits(&self) -> usize {
            4
        }
        fn timing(&self) -> &TimingModel {
            &self.timing
        }
        fn run(&self, _circuit: &Circuit, _shots: u64) -> Result<ExecutionResult, BackendError> {
            panic!("this backend only serves batches");
        }
        fn run_batch(&self, jobs: &[JobSpec<'_>]) -> Vec<JobResult> {
            jobs.iter()
                .map(|j| {
                    let mut counts = Counts::new(j.circuit.num_qubits());
                    counts.record_many(0, j.shots);
                    Ok(ExecutionResult {
                        counts,
                        simulated_duration: Duration::ZERO,
                        host_duration: Duration::ZERO,
                    })
                })
                .collect()
        }
    }

    #[test]
    fn default_run_batch_stats_honours_a_run_batch_override() {
        // The engine calls run_batch_stats; a backend that overrode only
        // run_batch must still be routed through its override.
        let backend = RunBatchOnly {
            timing: TimingModel::instantaneous(),
        };
        let mut c = Circuit::new(2);
        c.h(0);
        let jobs = [JobSpec::new(&c, 7)];
        let run = backend.run_batch_stats(&jobs);
        assert_eq!(run.results[0].as_ref().unwrap().counts.get(0), 7);
        assert_eq!(run.stats.gates_applied, run.stats.gates_naive);
        assert_eq!(run.stats.unique_states, 1);
    }

    #[test]
    fn boxed_member_keeps_prefix_sharing_stats() {
        // The latent-gap regression: wrapping a prefix-sharing backend in
        // a Box (as pool members are) must preserve run_batch_stats —
        // gate-saving accounting, batch-position seeding, and all. A
        // delegation that fell back to the trait default would report
        // gates_applied == gates_naive here.
        use crate::ideal::IdealBackend;
        let mut base = Circuit::new(3);
        base.h(0).cx(0, 1).ry(0.3, 2).cx(1, 2);
        let mut variant = base.clone();
        variant.h(2);
        let jobs = [JobSpec::new(&base, 300), JobSpec::new(&variant, 300)];

        let bare = IdealBackend::new(11);
        let boxed: Box<dyn Backend> = Box::new(IdealBackend::new(11));
        let borrowed_backend = IdealBackend::new(11);
        let borrowed: &dyn Backend = &borrowed_backend;

        let want = bare.run_batch_stats(&jobs);
        assert!(
            want.stats.gates_saved() > 0,
            "workload must exercise prefix sharing"
        );
        for (label, got) in [
            ("Box<dyn Backend>", boxed.run_batch_stats(&jobs)),
            ("&dyn Backend", borrowed.run_batch_stats(&jobs)),
        ] {
            assert_eq!(got.stats, want.stats, "{label} lost batch accounting");
            for (a, b) in want.results.iter().zip(&got.results) {
                assert_eq!(
                    a.as_ref().unwrap().counts,
                    b.as_ref().unwrap().counts,
                    "{label} changed sampled counts"
                );
            }
        }
        // Identity methods delegate too.
        assert_eq!(boxed.cache_fingerprint(), bare.cache_fingerprint());
        assert!(boxed.deterministic_seeding());
        assert!(boxed.as_pool().is_none());
    }

    #[test]
    fn error_messages_mention_sizes() {
        let e = BackendError::CircuitTooWide {
            circuit: 9,
            device: 5,
        };
        let s = e.to_string();
        assert!(s.contains('9') && s.contains('5'));
        assert!(BackendError::NoShots.to_string().contains("positive"));
    }
}
