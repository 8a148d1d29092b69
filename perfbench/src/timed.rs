//! A [`Backend`] decorator that times every device submission.
//!
//! The decorator forwards every trait method to the wrapped backend, so a
//! wrapped run is bit-identical to an unwrapped one. It only adds a wall
//! clock around `run` / `run_batch` / `run_batch_stats` and folds the
//! submission into a shared [`Tally`]. Pool members are wrapped one by one
//! (the engine calls members directly once [`Backend::as_pool`] answers),
//! so several decorators may share one tally.

use qcut_circuit::circuit::Circuit;
use qcut_device::backend::{Backend, BackendError, BatchRun, ExecutionResult, JobResult, JobSpec};
use qcut_device::pool::BackendPool;
use qcut_device::timing::TimingModel;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// What the device layer did, summed over every submission.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DeviceTally {
    /// Host wall time spent inside backend calls.
    pub busy: Duration,
    /// Backend calls (one batch each; a single `run` counts as a batch).
    pub batches: u64,
    /// Jobs submitted.
    pub jobs: u64,
    /// Shots submitted.
    pub shots: u64,
}

impl DeviceTally {
    /// What was added since the earlier reading `before`.
    pub fn since(&self, before: &DeviceTally) -> DeviceTally {
        DeviceTally {
            busy: self.busy.saturating_sub(before.busy),
            batches: self.batches - before.batches,
            jobs: self.jobs - before.jobs,
            shots: self.shots - before.shots,
        }
    }
}

/// A shared handle on one [`DeviceTally`].
#[derive(Debug, Clone, Default)]
pub struct Tally(Arc<Mutex<DeviceTally>>);

impl Tally {
    /// The totals so far.
    pub fn get(&self) -> DeviceTally {
        *self.0.lock().expect("device tally poisoned")
    }

    fn add(&self, busy: Duration, jobs: u64, shots: u64) {
        let mut t = self.0.lock().expect("device tally poisoned");
        t.busy += busy;
        t.batches += 1;
        t.jobs += jobs;
        t.shots += shots;
    }
}

/// Times every submission to `inner` into a [`Tally`].
pub struct TimedBackend<B> {
    inner: B,
    tally: Tally,
}

impl<B: Backend> TimedBackend<B> {
    /// Wraps `inner`, recording into `tally`.
    pub fn new(inner: B, tally: Tally) -> Self {
        TimedBackend { inner, tally }
    }

    fn timed<T>(&self, jobs: u64, shots: u64, call: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = call();
        self.tally.add(started.elapsed(), jobs, shots);
        out
    }
}

fn batch_shots(jobs: &[JobSpec<'_>]) -> u64 {
    jobs.iter().map(|j| j.shots).sum()
}

impl<B: Backend> Backend for TimedBackend<B> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn num_qubits(&self) -> usize {
        self.inner.num_qubits()
    }
    fn timing(&self) -> &TimingModel {
        self.inner.timing()
    }
    fn run(&self, circuit: &Circuit, shots: u64) -> Result<ExecutionResult, BackendError> {
        self.timed(1, shots, || self.inner.run(circuit, shots))
    }
    fn run_batch(&self, jobs: &[JobSpec<'_>]) -> Vec<JobResult> {
        self.timed(jobs.len() as u64, batch_shots(jobs), || {
            self.inner.run_batch(jobs)
        })
    }
    fn run_batch_stats(&self, jobs: &[JobSpec<'_>]) -> BatchRun {
        self.timed(jobs.len() as u64, batch_shots(jobs), || {
            self.inner.run_batch_stats(jobs)
        })
    }
    fn cache_fingerprint(&self) -> u64 {
        self.inner.cache_fingerprint()
    }
    fn is_fault_prone(&self) -> bool {
        self.inner.is_fault_prone()
    }
    fn deterministic_seeding(&self) -> bool {
        self.inner.deterministic_seeding()
    }
    fn noise_score(&self) -> f64 {
        self.inner.noise_score()
    }
    fn as_pool(&self) -> Option<&BackendPool> {
        self.inner.as_pool()
    }
    fn check(&self, circuit: &Circuit, shots: u64) -> Result<(), BackendError> {
        self.inner.check(circuit, shots)
    }
}
