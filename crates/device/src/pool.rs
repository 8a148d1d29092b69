//! Multi-backend sharding: a pool of heterogeneous devices behind one
//! [`Backend`] facade, with a capacity- and noise-aware placement engine.
//!
//! A [`BackendPool`] owns a set of member backends (ideal, noisy,
//! fault-injecting — anything implementing [`Backend`]) and shards every
//! batched submission across them under a [`PlacementPolicy`]:
//!
//! | Policy | Rule |
//! |---|---|
//! | [`PlacementPolicy::RoundRobin`] | cycle through feasible members in index order |
//! | [`PlacementPolicy::LeastLoaded`] | greedy makespan balancing by [`TimingModel::job_duration`] |
//! | [`PlacementPolicy::NoiseAware`] | wide (noise-sensitive) jobs pin to the low-noise tier, narrow jobs balance across all feasible members |
//! | [`PlacementPolicy::Pinned`] | explicit job-index → member map (tests, manual layouts) |
//!
//! Placement is a pure function of the job list and the pool
//! configuration — no clocks, no RNG — so the same submission always
//! shards the same way. Every policy respects per-member qubit capacity:
//! a member never receives a circuit wider than its device, and a job no
//! member can fit is reported as infeasible rather than silently dropped.
//!
//! The pool implements [`Backend`] itself, so it slots into every
//! existing seam: `CutExecutor::new(&pool)` shards a whole cutting run.
//! The JobGraph engine runs every backend as a pool — a bare backend is
//! a pool of one — and reaches a real pool's members via
//! [`Backend::as_pool`]. It places nodes with [`BackendPool::place`],
//! submits each member's batch itself, fails transient faults over to a
//! sibling, keeps per-member accounting, and records which member
//! delivered each node; the pipeline keys warm-cache entries by that
//! delivering member (see `qcut_core::jobgraph`). Calling the pool's own
//! [`Backend::run_batch_stats`] directly gives the single-attempt sharded
//! semantics without failover.

use crate::backend::{
    Backend, BackendError, BatchRun, BatchStats, ExecutionResult, JobResult, JobSpec,
};
use crate::timing::TimingModel;
use qcut_circuit::circuit::Circuit;

/// How a [`BackendPool`] assigns jobs to members.
#[derive(Debug, Clone, PartialEq)]
pub enum PlacementPolicy {
    /// Cycle through the members in index order, skipping members whose
    /// capacity cannot fit the job.
    RoundRobin,
    /// Greedy makespan balancing: each job (in submission order) goes to
    /// the feasible member with the smallest accumulated predicted load,
    /// where load is the sum of [`TimingModel::job_duration`] estimates
    /// of the jobs already assigned to that member. Ties break toward
    /// the lower member index.
    LeastLoaded,
    /// Noise-aware placement: members are split into a low-noise tier
    /// (noise score at or below the midpoint of the pool's score range)
    /// and the rest. Noise-sensitive jobs — circuits at or above the
    /// midpoint of the batch's width range — are balanced (least-loaded)
    /// across the feasible low-noise tier only; narrow jobs balance
    /// across every feasible member. On a homogeneous pool every member
    /// is low-noise and the policy degenerates to [`Self::LeastLoaded`].
    NoiseAware,
    /// Explicit placement: job `i` goes to member `map[i % map.len()]`.
    /// An out-of-range or capacity-infeasible pin makes the job
    /// infeasible. An empty map makes every job infeasible.
    Pinned(Vec<usize>),
}

/// One member's placement-relevant identity, as an owned snapshot (what
/// the static-analysis pool lints read).
#[derive(Debug, Clone, PartialEq)]
pub struct MemberInfo {
    /// The member's [`Backend::name`].
    pub name: String,
    /// The member's qubit capacity.
    pub capacity: usize,
    /// The member's [`Backend::cache_fingerprint`] — the key the warm
    /// cache uses for histograms measured on this member.
    pub fingerprint: u64,
    /// The member's [`Backend::noise_score`].
    pub noise_score: f64,
}

/// The result of placing one batch: a member index per job, `None` for
/// jobs no member can fit.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// Per-job member assignment, in submission order.
    pub assignment: Vec<Option<usize>>,
    /// Predicted per-member load (seconds of simulated device time)
    /// accumulated by the policy while placing. Zero entries are members
    /// the placement left idle.
    pub predicted_load: Vec<f64>,
}

impl Placement {
    /// Number of jobs assigned to each member.
    pub fn jobs_per_member(&self, members: usize) -> Vec<u64> {
        let mut per = vec![0u64; members];
        for &a in &self.assignment {
            if let Some(m) = a {
                per[m] += 1;
            }
        }
        per
    }
}

/// A set of heterogeneous backends behind one [`Backend`] facade, sharding
/// batches across members under a [`PlacementPolicy`].
///
/// ```
/// use qcut_device::pool::{BackendPool, PlacementPolicy};
/// use qcut_device::ideal::IdealBackend;
/// use qcut_device::backend::{Backend, JobSpec};
/// use qcut_circuit::circuit::Circuit;
///
/// let pool = BackendPool::new(PlacementPolicy::RoundRobin)
///     .with_backend(IdealBackend::new(1))
///     .with_backend(IdealBackend::new(2));
/// let mut bell = Circuit::new(2);
/// bell.h(0).cx(0, 1);
/// let mut ghz = Circuit::new(3);
/// ghz.h(0).cx(0, 1).cx(1, 2);
/// let jobs = [JobSpec::new(&bell, 100), JobSpec::new(&ghz, 100)];
/// let placement = pool.place(&jobs);
/// assert_eq!(placement.assignment, vec![Some(0), Some(1)]);
/// let run = pool.run_batch_stats(&jobs);
/// assert!(run.results.iter().all(|r| r.is_ok()));
/// ```
pub struct BackendPool {
    members: Vec<Box<dyn Backend>>,
    policy: PlacementPolicy,
    name: String,
    /// Returned by [`Backend::timing`] when the pool is empty; member 0's
    /// model is representative otherwise.
    fallback_timing: TimingModel,
}

impl std::fmt::Debug for BackendPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BackendPool")
            .field("name", &self.name)
            .field("policy", &self.policy)
            .field(
                "members",
                &self.members.iter().map(|m| m.name()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl BackendPool {
    /// An empty pool under `policy`. Add members with
    /// [`Self::with_backend`] / [`Self::with_member`]; an empty pool
    /// rejects every job as [`BackendError::Unavailable`].
    pub fn new(policy: PlacementPolicy) -> Self {
        BackendPool {
            members: Vec::new(),
            policy,
            name: "backend_pool".to_string(),
            fallback_timing: TimingModel::instantaneous(),
        }
    }

    /// Adds a member backend (builder form, taking ownership).
    pub fn with_backend<B: Backend + 'static>(self, backend: B) -> Self {
        self.with_member(Box::new(backend))
    }

    /// Adds an already-boxed member backend.
    pub fn with_member(mut self, member: Box<dyn Backend>) -> Self {
        self.members.push(member);
        self
    }

    /// Renames the pool (the default name is `backend_pool`).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Replaces the placement policy.
    pub fn with_policy(mut self, policy: PlacementPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when the pool has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The configured placement policy.
    pub fn policy(&self) -> &PlacementPolicy {
        &self.policy
    }

    /// Member `i` (callers index within `0..self.len()`).
    pub fn member(&self, i: usize) -> &dyn Backend {
        &*self.members[i]
    }

    /// Iterates the members in index order.
    pub fn members(&self) -> impl Iterator<Item = &dyn Backend> + '_ {
        self.members.iter().map(|m| &**m)
    }

    /// Owned per-member identity snapshot (what the `QA70x` analysis
    /// lints read).
    pub fn member_info(&self) -> Vec<MemberInfo> {
        self.members
            .iter()
            .map(|m| MemberInfo {
                name: m.name().to_string(),
                capacity: m.num_qubits(),
                fingerprint: m.cache_fingerprint(),
                noise_score: m.noise_score(),
            })
            .collect()
    }

    /// Member indices whose capacity fits a `width`-qubit circuit, in
    /// index order.
    pub fn feasible_members(&self, width: usize) -> Vec<usize> {
        (0..self.members.len())
            .filter(|&m| self.members[m].num_qubits() >= width)
            .collect()
    }

    /// The next member after `from` (cyclically, excluding `from` itself)
    /// that fits a `width`-qubit circuit — the failover sibling order the
    /// JobGraph retry engine uses.
    pub fn failover_sibling(&self, from: usize, width: usize) -> Option<usize> {
        let n = self.members.len();
        (1..n)
            .map(|step| (from + step) % n)
            .find(|&m| self.members[m].num_qubits() >= width)
    }

    /// Places `jobs` onto members under the configured policy. Placement
    /// is deterministic: a pure function of the job list (circuit widths,
    /// predicted durations) and the pool configuration.
    pub fn place(&self, jobs: &[JobSpec<'_>]) -> Placement {
        let n = self.members.len();
        let mut assignment = vec![None; jobs.len()];
        let mut load = vec![0.0f64; n];
        if n == 0 {
            return Placement {
                assignment,
                predicted_load: load,
            };
        }
        let duration = |m: usize, job: &JobSpec<'_>| -> f64 {
            self.members[m]
                .timing()
                .job_duration(job.circuit, job.shots)
        };
        let least_loaded = |candidates: &[usize], load: &[f64]| -> Option<usize> {
            candidates.iter().copied().min_by(|&a, &b| {
                load[a]
                    .partial_cmp(&load[b])
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            })
        };
        match &self.policy {
            PlacementPolicy::RoundRobin => {
                let mut cursor = 0usize;
                for (i, job) in jobs.iter().enumerate() {
                    let width = job.circuit.num_qubits();
                    let chosen = (0..n)
                        .map(|step| (cursor + step) % n)
                        .find(|&m| self.members[m].num_qubits() >= width);
                    if let Some(m) = chosen {
                        assignment[i] = Some(m);
                        load[m] += duration(m, job);
                        cursor = (m + 1) % n;
                    }
                }
            }
            PlacementPolicy::LeastLoaded => {
                for (i, job) in jobs.iter().enumerate() {
                    let feasible = self.feasible_members(job.circuit.num_qubits());
                    if let Some(m) = least_loaded(&feasible, &load) {
                        assignment[i] = Some(m);
                        load[m] += duration(m, job);
                    }
                }
            }
            PlacementPolicy::NoiseAware => {
                let scores: Vec<f64> = self.members.iter().map(|m| m.noise_score()).collect();
                let lo = scores.iter().copied().fold(f64::INFINITY, f64::min);
                let hi = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let score_mid = (lo + hi) / 2.0;
                let widths: Vec<usize> = jobs.iter().map(|j| j.circuit.num_qubits()).collect();
                let w_lo = widths.iter().copied().min().unwrap_or(0);
                let w_hi = widths.iter().copied().max().unwrap_or(0);
                let width_mid = (w_lo + w_hi) as f64 / 2.0;
                for (i, job) in jobs.iter().enumerate() {
                    let width = job.circuit.num_qubits();
                    let feasible = self.feasible_members(width);
                    let sensitive = width as f64 >= width_mid;
                    let tier: Vec<usize> = if sensitive {
                        let low: Vec<usize> = feasible
                            .iter()
                            .copied()
                            .filter(|&m| scores[m] <= score_mid)
                            .collect();
                        // A wide job only a noisy member can fit still
                        // runs there — capacity beats noise preference.
                        if low.is_empty() {
                            feasible
                        } else {
                            low
                        }
                    } else {
                        feasible
                    };
                    if let Some(m) = least_loaded(&tier, &load) {
                        assignment[i] = Some(m);
                        load[m] += duration(m, job);
                    }
                }
            }
            PlacementPolicy::Pinned(map) => {
                for (i, job) in jobs.iter().enumerate() {
                    if map.is_empty() {
                        continue;
                    }
                    let m = map[i % map.len()];
                    if m < n && self.members[m].num_qubits() >= job.circuit.num_qubits() {
                        assignment[i] = Some(m);
                        load[m] += duration(m, job);
                    }
                }
            }
        }
        Placement {
            assignment,
            predicted_load: load,
        }
    }

    /// Shards one batch across the members (single attempt, no failover)
    /// and reassembles the results in submission order. Member batches are
    /// submitted in member-index order, each preserving submission order
    /// within the member — so per-member seed streams are a deterministic
    /// function of the placement, and a single-member pool submits the
    /// exact batch the bare backend would have seen.
    fn run_sharded(&self, jobs: &[JobSpec<'_>]) -> BatchRun {
        let placement = self.place(jobs);
        let mut slots: Vec<Option<JobResult>> = (0..jobs.len()).map(|_| None).collect();
        let mut stats = BatchStats::default();
        for m in 0..self.members.len() {
            let mine: Vec<usize> = (0..jobs.len())
                .filter(|&i| placement.assignment[i] == Some(m))
                .collect();
            if mine.is_empty() {
                continue;
            }
            let batch: Vec<JobSpec<'_>> = mine.iter().map(|&i| jobs[i]).collect();
            let run = self.members[m].run_batch_stats(&batch);
            stats.absorb(&run.stats);
            for (&i, result) in mine.iter().zip(run.results) {
                slots[i] = Some(result);
            }
        }
        let results = slots
            .into_iter()
            .zip(jobs)
            .map(|(slot, job)| slot.unwrap_or_else(|| Err(self.infeasible_error(job.circuit))))
            .collect();
        BatchRun { results, stats }
    }

    /// The error an unplaceable job reports: capacity-infeasible on a
    /// non-empty pool, [`BackendError::Unavailable`] on an empty one.
    pub fn infeasible_error(&self, circuit: &Circuit) -> BackendError {
        if self.members.is_empty() {
            BackendError::Unavailable
        } else {
            BackendError::CircuitTooWide {
                circuit: circuit.num_qubits(),
                device: self.num_qubits(),
            }
        }
    }
}

impl Backend for BackendPool {
    fn name(&self) -> &str {
        &self.name
    }

    /// The widest member's capacity — what [`Backend::check`] admits
    /// (each member still enforces its own capacity at placement).
    fn num_qubits(&self) -> usize {
        self.members
            .iter()
            .map(|m| m.num_qubits())
            .max()
            .unwrap_or(0)
    }

    /// A representative timing model: member 0's (instantaneous when the
    /// pool is empty). Per-member makespans are accounted exactly by the
    /// JobGraph engine; this model only feeds coarse pre-run
    /// estimates (e.g. the `QA502` timeout lint).
    fn timing(&self) -> &TimingModel {
        self.members
            .first()
            .map(|m| m.timing())
            .unwrap_or(&self.fallback_timing)
    }

    fn run(&self, circuit: &Circuit, shots: u64) -> Result<ExecutionResult, BackendError> {
        self.check(circuit, shots)?;
        let jobs = [JobSpec::new(circuit, shots)];
        let placement = self.place(&jobs);
        match placement.assignment[0] {
            Some(m) => self.members[m].run(circuit, shots),
            None => Err(self.infeasible_error(circuit)),
        }
    }

    /// Kept in lockstep with [`Backend::run_batch_stats`], like every
    /// workspace backend.
    fn run_batch(&self, jobs: &[JobSpec<'_>]) -> Vec<JobResult> {
        self.run_batch_stats(jobs).results
    }

    fn run_batch_stats(&self, jobs: &[JobSpec<'_>]) -> BatchRun {
        self.run_sharded(jobs)
    }

    /// The *pool identity* fingerprint: every member's fingerprint folded
    /// in member order, plus a policy tag. This is deliberately not any
    /// single member's fingerprint — histograms gathered by a pool are a
    /// member mixture. The pipeline's warm cache never stores under it:
    /// it looks each node up under the fingerprint of the member the
    /// placement assigns it to, and stores each histogram under the
    /// fingerprint of the member that *delivered* it (see
    /// `qcut_core::pipeline`).
    fn cache_fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        mix(match &self.policy {
            PlacementPolicy::RoundRobin => 1,
            PlacementPolicy::LeastLoaded => 2,
            PlacementPolicy::NoiseAware => 3,
            PlacementPolicy::Pinned(_) => 4,
        });
        for m in &self.members {
            mix(m.cache_fingerprint());
        }
        h
    }

    /// Fault-prone when any member is.
    fn is_fault_prone(&self) -> bool {
        self.members.iter().any(|m| m.is_fault_prone())
    }

    /// Deterministic only when every member is (sharding and per-member
    /// seed streams are deterministic by construction, so the members are
    /// the only entropy source). An empty pool runs nothing and is
    /// vacuously deterministic.
    fn deterministic_seeding(&self) -> bool {
        self.members.iter().all(|m| m.deterministic_seeding())
    }

    /// The best (lowest) member score — the pool can always route a job
    /// to its cleanest feasible device.
    fn noise_score(&self) -> f64 {
        self.members
            .iter()
            .map(|m| m.noise_score())
            .fold(f64::INFINITY, f64::min)
            .min(f64::MAX)
    }

    fn check(&self, circuit: &Circuit, shots: u64) -> Result<(), BackendError> {
        if shots == 0 {
            return Err(BackendError::NoShots);
        }
        if self.members.is_empty() {
            return Err(BackendError::Unavailable);
        }
        if self.feasible_members(circuit.num_qubits()).is_empty() {
            return Err(self.infeasible_error(circuit));
        }
        Ok(())
    }

    fn as_pool(&self) -> Option<&BackendPool> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultInjectingBackend;
    use crate::ideal::IdealBackend;
    use crate::noisy::NoisyBackend;
    use qcut_sim::noise::NoiseModel;

    fn bell() -> Circuit {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        c
    }

    fn wide(n: usize) -> Circuit {
        let mut c = Circuit::new(n);
        for q in 0..n {
            c.h(q);
        }
        for q in 0..n - 1 {
            c.cx(q, q + 1);
        }
        c
    }

    fn homogeneous(n: usize, seed: u64) -> BackendPool {
        let mut pool = BackendPool::new(PlacementPolicy::RoundRobin);
        for _ in 0..n {
            pool = pool.with_backend(IdealBackend::new(seed));
        }
        pool
    }

    #[test]
    fn round_robin_cycles_and_respects_capacity() {
        let pool = BackendPool::new(PlacementPolicy::RoundRobin)
            .with_backend(IdealBackend::new(1).with_capacity(2))
            .with_backend(IdealBackend::new(2).with_capacity(8));
        let b = bell();
        let w = wide(5);
        let jobs = [
            JobSpec::new(&b, 10),
            JobSpec::new(&w, 10), // does not fit member 0
            JobSpec::new(&b, 10),
            JobSpec::new(&b, 10),
        ];
        let p = pool.place(&jobs);
        // Job 0 → member 0; job 1 skips member 1? No: cursor=1 and member
        // 1 fits, so job 1 → member 1; job 2 → member 0; job 3 → member 1.
        assert_eq!(p.assignment, vec![Some(0), Some(1), Some(0), Some(1)],);
        // A job nothing fits is infeasible, not misplaced.
        let giant = wide(9);
        let p = pool.place(&[JobSpec::new(&giant, 10)]);
        assert_eq!(p.assignment, vec![None]);
    }

    #[test]
    fn least_loaded_balances_predicted_makespan() {
        let pool = BackendPool::new(PlacementPolicy::LeastLoaded)
            .with_backend(IdealBackend::new(1).with_timing(TimingModel::ibm_like()))
            .with_backend(IdealBackend::new(2).with_timing(TimingModel::ibm_like()));
        let b = bell();
        // Four identical jobs must split 2/2, not pile onto one member.
        let jobs = [
            JobSpec::new(&b, 100),
            JobSpec::new(&b, 100),
            JobSpec::new(&b, 100),
            JobSpec::new(&b, 100),
        ];
        let p = pool.place(&jobs);
        assert_eq!(p.jobs_per_member(2), vec![2, 2]);
        let spread = (p.predicted_load[0] - p.predicted_load[1]).abs();
        assert!(spread < 1e-9, "balanced loads, got {:?}", p.predicted_load);
    }

    #[test]
    fn noise_aware_pins_wide_jobs_to_low_noise_members() {
        let noisy = NoisyBackend::new(
            "noisy_member",
            8,
            NoiseModel::depolarizing(0.02, 0.05, 0.03),
            TimingModel::instantaneous(),
            7,
        );
        let pool = BackendPool::new(PlacementPolicy::NoiseAware)
            .with_backend(noisy)
            .with_backend(IdealBackend::new(1).with_capacity(8));
        assert!(pool.member(0).noise_score() > pool.member(1).noise_score());
        let w = wide(6);
        let b = bell();
        let jobs = [
            JobSpec::new(&w, 10),
            JobSpec::new(&b, 10),
            JobSpec::new(&w, 10),
        ];
        let p = pool.place(&jobs);
        // Wide (noise-sensitive) jobs pin to the clean member (index 1).
        assert_eq!(p.assignment[0], Some(1));
        assert_eq!(p.assignment[2], Some(1));
        // The narrow job balances onto the idle noisy member.
        assert_eq!(p.assignment[1], Some(0));
    }

    #[test]
    fn noise_aware_capacity_beats_noise_preference() {
        // Only the noisy member fits the wide job: it must run there.
        let noisy = NoisyBackend::new(
            "big_noisy",
            8,
            NoiseModel::depolarizing(0.02, 0.05, 0.03),
            TimingModel::instantaneous(),
            7,
        );
        let pool = BackendPool::new(PlacementPolicy::NoiseAware)
            .with_backend(IdealBackend::new(1).with_capacity(2))
            .with_backend(noisy);
        let w = wide(6);
        let p = pool.place(&[JobSpec::new(&w, 10)]);
        assert_eq!(p.assignment, vec![Some(1)]);
    }

    #[test]
    fn noise_aware_homogeneous_degenerates_to_least_loaded() {
        let na = homogeneous(3, 5).with_policy(PlacementPolicy::NoiseAware);
        let ll = homogeneous(3, 5).with_policy(PlacementPolicy::LeastLoaded);
        let b = bell();
        let w = wide(4);
        let jobs = [
            JobSpec::new(&b, 50),
            JobSpec::new(&w, 50),
            JobSpec::new(&b, 50),
            JobSpec::new(&w, 50),
            JobSpec::new(&b, 50),
        ];
        assert_eq!(na.place(&jobs).assignment, ll.place(&jobs).assignment);
    }

    #[test]
    fn pinned_placement_is_explicit() {
        let pool = homogeneous(3, 1).with_policy(PlacementPolicy::Pinned(vec![2, 0]));
        let b = bell();
        let jobs = [
            JobSpec::new(&b, 10),
            JobSpec::new(&b, 10),
            JobSpec::new(&b, 10),
        ];
        let p = pool.place(&jobs);
        assert_eq!(p.assignment, vec![Some(2), Some(0), Some(2)]);
        // Out-of-range pins are infeasible, not wrapped.
        let bad = homogeneous(2, 1).with_policy(PlacementPolicy::Pinned(vec![5]));
        assert_eq!(bad.place(&jobs[..1]).assignment, vec![None]);
    }

    #[test]
    fn single_member_pool_batches_bit_identically_to_the_bare_backend() {
        let bare = IdealBackend::new(42);
        let pool =
            BackendPool::new(PlacementPolicy::LeastLoaded).with_backend(IdealBackend::new(42));
        let b = bell();
        let g = wide(3);
        let jobs = [
            JobSpec::new(&b, 400),
            JobSpec::new(&g, 300),
            JobSpec::new(&b, 200),
        ];
        let bare_run = bare.run_batch_stats(&jobs);
        let pool_run = pool.run_batch_stats(&jobs);
        for (a, b) in bare_run.results.iter().zip(&pool_run.results) {
            assert_eq!(
                a.as_ref().unwrap().counts,
                b.as_ref().unwrap().counts,
                "a single-member pool must submit the identical batch"
            );
        }
        assert_eq!(bare_run.stats, pool_run.stats);
    }

    #[test]
    fn pool_facade_reports_identity_correctly() {
        let pool = BackendPool::new(PlacementPolicy::RoundRobin)
            .with_backend(IdealBackend::new(1).with_capacity(4))
            .with_backend(
                FaultInjectingBackend::new(IdealBackend::new(2).with_capacity(8)).fail_first(1),
            );
        assert_eq!(pool.num_qubits(), 8);
        assert!(pool.is_fault_prone());
        assert!(pool.deterministic_seeding());
        assert!(pool.as_pool().is_some());
        assert_eq!(pool.member_info().len(), 2);
        // Capacity check admits what the widest member fits.
        assert!(pool.check(&wide(8), 10).is_ok());
        assert!(matches!(
            pool.check(&wide(9), 10),
            Err(BackendError::CircuitTooWide { device: 8, .. })
        ));
        // Pools with different member sets fingerprint apart.
        let other = BackendPool::new(PlacementPolicy::RoundRobin)
            .with_backend(IdealBackend::new(1).with_capacity(4));
        assert_ne!(pool.cache_fingerprint(), other.cache_fingerprint());
    }

    #[test]
    fn empty_pool_rejects_work_instead_of_panicking() {
        let pool = BackendPool::new(PlacementPolicy::RoundRobin);
        assert_eq!(pool.num_qubits(), 0);
        assert_eq!(
            pool.run(&bell(), 10).unwrap_err(),
            BackendError::Unavailable
        );
        let b = bell();
        let run = pool.run_batch_stats(&[JobSpec::new(&b, 10)]);
        assert!(matches!(run.results[0], Err(BackendError::Unavailable)));
    }

    #[test]
    fn failover_sibling_walks_cyclically_and_respects_capacity() {
        let pool = BackendPool::new(PlacementPolicy::RoundRobin)
            .with_backend(IdealBackend::new(1).with_capacity(8))
            .with_backend(IdealBackend::new(2).with_capacity(2))
            .with_backend(IdealBackend::new(3).with_capacity(8));
        assert_eq!(pool.failover_sibling(0, 5), Some(2));
        assert_eq!(pool.failover_sibling(2, 5), Some(0));
        assert_eq!(pool.failover_sibling(0, 2), Some(1));
        // No sibling fits: single-member pools have nowhere to fail over.
        let solo = homogeneous(1, 1);
        assert_eq!(solo.failover_sibling(0, 2), None);
    }
}
