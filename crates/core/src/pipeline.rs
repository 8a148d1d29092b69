//! The high-level cutting pipeline: circuit + cut + policy → reconstructed
//! distribution + accounting.
//!
//! ```text
//! CutExecutor::run
//!   ├─ plan the run once (crate::planner::RunPlan): fragment, resolve
//!   │    the static golden policy into a BasisPlan (a priori / exact
//!   │    simulation / stabilizer proof; online detection starts from
//!   │    the standard plan)
//!   ├─ gate: lint that plan, its schedule and its unexecuted JobGraph
//!   ├─ online detection: sequential batches through the JobGraph
//!   │    engine, then replan with the detected neglects
//!   ├─ gather round(s): a single-round policy executes the planned
//!   │    graph; Adaptive runs a uniform pilot round, scores
//!   │    per-setting variance from the empirical tensors, and seeds a
//!   │    Neyman-weighted refine round from the pilot's measurements.
//!   │    Identical subcircuits dedup into one node, detection/pilot
//!   │    counts seed it, and each round executes as one batch per
//!   │    backend member with fan-out
//!   ├─ reconstruct (tensor contraction, Eq. 14)
//!   └─ post-process the quasi-distribution
//! ```
//!
//! Every backend interaction — the gather under either preparation
//! scheme, online detection, and [`CutExecutor::run_uncut`] — flows through
//! [`crate::jobgraph::JobGraph`], so the [`RunReport`] carries unified
//! dedup accounting (`jobs_planned` / `jobs_executed` / `shots_saved`).
//! Inside `run`, every round executes through one helper that applies
//! the retry and failure policies, and the detection seeds, pilot seeds
//! and warm-cache store-back all read what the executed graph delivered.

use crate::allocation::{
    pilot_schedule, pilot_total, refine_schedule, ShotAllocation, ShotSchedule,
};
use crate::analysis::{gate, AnalysisConfig, Diagnostic, LintCode, Severity};
use crate::basis::{decode_meas, encode_meas, BasisPlan};
use crate::error::{ExecutionFailure, PipelineError};
use crate::execution::FragmentData;
use crate::fragment::Fragments;
use crate::frame::{PrepFrame, TermTable};
use crate::golden::{GoldenPolicy, GoldenVerdict, OnlineConfig, OnlineDetector};
use crate::jobgraph::{Channel, ConsumerKey, GraphFailure, GraphStats, JobGraph, NodeFailure};
use crate::planner::{gather_graph, uncut_graph, RunPlan};
use crate::reconstruction::{contract, downstream_tensor_for, upstream_tensor};
use crate::report::{FailureRecord, RunReport, UncutReport};
use crate::retry::{FailurePolicy, RetryPolicy};
use crate::tomography::build_upstream_circuit;
use crate::variance::neyman_scores;
use qcut_cache::{CacheKey, ShotDiscipline, WarmCache};
use qcut_circuit::circuit::Circuit;
use qcut_circuit::cut::CutSpec;
use qcut_device::backend::{Backend, BackendError};
use qcut_math::Pauli;
use qcut_sim::counts::Counts;
use qcut_stats::distribution::Distribution;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Downstream preparation scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReconstructionMethod {
    /// Pauli eigenstate preparations: `6^{K_r} 4^{K_g}` subcircuits
    /// (the paper's scheme; golden cuts shrink it).
    #[default]
    Eigenstate,
    /// SIC preparations: always `4^K` subcircuits, each reconstruction
    /// Pauli expanded over the four tetrahedral states in closed form
    /// (paper §II-B's alternative).
    Sic,
}

impl ReconstructionMethod {
    /// The expansion `P = Σ c · |ψ><ψ|` of `pauli` over this scheme's
    /// preparation states at a cut that neglects nothing: its non-zero
    /// terms `(state, c)`, with `state` indexing
    /// [`qcut_math::PrepState::ALL`] (eigenstates) or
    /// [`qcut_math::SicState::ALL`] (SIC).
    pub fn expansion(self, pauli: Pauli) -> Vec<(usize, f64)> {
        let frame = PrepFrame::new(self, &BasisPlan::standard(1));
        frame.terms(0, pauli).to_vec()
    }
}

/// Post-processing applied to the reconstructed quasi-distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PostProcess {
    /// Return the raw quasi-distribution (may have negative entries).
    Raw,
    /// Clip negatives and renormalise.
    #[default]
    ClipRenormalize,
    /// Euclidean projection onto the probability simplex.
    SimplexProjection,
}

/// Knobs for one pipeline run.
#[derive(Debug, Clone)]
pub struct ExecutionOptions {
    /// Shots for every subcircuit setting (the paper uses 1 000 for the
    /// runtime experiments and 10 000 for the accuracy experiment). The
    /// uniform budget that [`ExecutionOptions::allocation`] falls back to.
    pub shots_per_setting: u64,
    /// Shot-allocation policy for the gather schedule. `None` (the
    /// default) is the paper's protocol —
    /// [`ShotAllocation::Uniform`] at `shots_per_setting` — and is
    /// bit-identical to the historical uniform path. `Some(policy)`
    /// overrides the budget entirely (see [`crate::allocation`]);
    /// [`ShotAllocation::WeightedByUsage`] skews a fixed total toward the
    /// settings more reconstruction terms consume.
    pub allocation: Option<ShotAllocation>,
    /// Downstream preparation scheme.
    pub method: ReconstructionMethod,
    /// Post-processing step.
    pub postprocess: PostProcess,
    /// Submit each backend member's batch natively
    /// ([`Backend::run_batch_stats`]: prefix sharing, rayon fan-out)
    /// rather than job by job through [`Backend::run`]. Holds for a bare
    /// backend and for every member of a pool alike; both settings give
    /// bit-identical counts on the workspace backends.
    pub parallel: bool,
    /// Deduplicate structurally identical subcircuits on the JobGraph
    /// engine and reuse online-detection data for the main gather. Off is
    /// the ablation baseline: every planned job executes independently.
    pub dedup: bool,
    /// The static-analysis gate run over the run's own plan before
    /// anything executes (see [`crate::analysis`]): deny-level findings
    /// abort the run as [`PipelineError::Analysis`], warnings ride in
    /// [`RunReport::diagnostics`]. [`AnalysisConfig::disabled`] skips it.
    pub analysis: AnalysisConfig,
    /// Cross-run warm-start cache (see [`qcut_cache`]). `None` — the
    /// default — is bit-identical to the historical pipeline. `Some`
    /// seeds every first gather round from persisted per-node histograms
    /// (the engine executes only each node's shot *increment*, attributed
    /// to [`RunReport::cache_shots_reused`]) and stores the delivered
    /// cumulative histograms back after the run. Requires
    /// [`ExecutionOptions::dedup`] — with dedup off (the ablation
    /// baseline) the cache is bypassed entirely, because serving
    /// hash-keyed entries without the engine's equality confirmation
    /// would be unsound.
    pub cache: Option<Arc<WarmCache>>,
    /// Retry policy honored inside every engine submission of the run
    /// (detection batches, pilot, gather rounds): transient backend
    /// faults and deterministic per-job timeouts re-submit only the
    /// failed nodes, up to [`RetryPolicy::max_attempts`] total attempts
    /// each. The default (one attempt, no backoff, no timeout) is
    /// bit-identical to the historical engine.
    pub retry: RetryPolicy,
    /// What to do when a node still fails after every retry:
    /// [`FailurePolicy::Fail`] (default) aborts with a typed
    /// [`PipelineError::Execution`] naming both the failed nodes and the
    /// consumers that succeeded; [`FailurePolicy::Degrade`] drops the
    /// affected basis settings from the plan (when the frame stays
    /// solvable), renormalizes the reconstruction over the surviving
    /// terms, and returns a [`RunReport`] with [`RunReport::degraded`]
    /// set and the damage itemised in [`RunReport::failures`].
    pub failure: FailurePolicy,
}

impl Default for ExecutionOptions {
    fn default() -> Self {
        ExecutionOptions {
            shots_per_setting: 1000,
            allocation: None,
            method: ReconstructionMethod::Eigenstate,
            postprocess: PostProcess::ClipRenormalize,
            parallel: true,
            dedup: true,
            analysis: AnalysisConfig::default(),
            cache: None,
            retry: RetryPolicy::default(),
            failure: FailurePolicy::default(),
        }
    }
}

impl ExecutionOptions {
    /// Default options running `policy` instead of the uniform protocol.
    pub fn with_allocation(policy: ShotAllocation) -> Self {
        ExecutionOptions {
            allocation: Some(policy),
            ..Default::default()
        }
    }

    /// The allocation policy this run schedules under: the explicit
    /// [`ExecutionOptions::allocation`] when set, the paper's uniform
    /// protocol at [`ExecutionOptions::shots_per_setting`] otherwise.
    pub fn resolved_allocation(&self) -> ShotAllocation {
        self.allocation.unwrap_or(ShotAllocation::Uniform {
            shots_per_setting: self.shots_per_setting,
        })
    }
}

/// Result of a pipeline run.
#[derive(Debug, Clone)]
pub struct CutRun {
    /// Reconstructed distribution over the full circuit's qubits.
    pub distribution: Distribution,
    /// Accounting (settings, shots, timings).
    pub report: RunReport,
}

/// Result of an uncut reference run.
#[derive(Debug, Clone)]
pub struct UncutRun {
    /// Measured distribution.
    pub distribution: Distribution,
    /// Accounting.
    pub report: UncutReport,
}

/// The high-level executor bound to one backend.
pub struct CutExecutor<'b, B: Backend + ?Sized> {
    backend: &'b B,
}

/// One executed engine round: the delivered channels, the engine
/// accounting, and the graph that ran.
struct Round {
    upstream: HashMap<u64, Counts>,
    downstream: HashMap<u64, Counts>,
    detection: HashMap<u64, Counts>,
    stats: GraphStats,
    /// The executed graph: which circuit fed which consumers.
    graph: JobGraph,
    /// Per node of `graph`, the warm-cache fingerprint of the member that
    /// measured its histogram (empty when no cache is configured). A
    /// histogram that mixes two members' shots has `None` and is never
    /// stored.
    measured_by: Vec<Option<u64>>,
}

impl Round {
    /// The one walk over an executed round: each delivered node in graph
    /// order, with its structural hash and circuit, the histogram its
    /// consumers received, and its [`Round::measured_by`] fingerprint. A
    /// failed node delivered nothing and is skipped.
    fn delivered(&self) -> impl Iterator<Item = Delivery<'_>> + '_ {
        let nodes = self.graph.node_hashes().zip(self.graph.node_jobs());
        nodes
            .enumerate()
            .filter_map(|(node, (hash, (circuit, consumers)))| {
                let (channel, key) = consumers.first()?.0;
                let counts = match channel {
                    Channel::UpstreamMeas => &self.upstream,
                    Channel::DownstreamPrep => &self.downstream,
                    Channel::Detection => &self.detection,
                    Channel::Uncut => return None,
                }
                .get(&key)?;
                let measured_by = self.measured_by.get(node).copied().flatten();
                Some((hash, circuit, counts, measured_by))
            })
    }
}

/// One node of [`Round::delivered`]: structural hash, circuit, delivered
/// histogram and measuring member's fingerprint.
type Delivery<'r> = (u64, &'r Circuit, &'r Counts, Option<u64>);

/// A histogram measured earlier in the run (an online-detection batch,
/// or an adaptive pilot) that seeds a node of a later gather round.
struct Seed {
    circuit: Circuit,
    counts: Counts,
    /// The warm-cache fingerprint of the member that measured every one
    /// of its shots; `None` once members with different fingerprints
    /// contributed. A node seeded by another member is never stored.
    measured_by: Option<u64>,
}

/// Adds an executed round's deliveries to the same-run `seeds`, keyed by
/// structural hash. A circuit seeded before merges the new shots in and
/// keeps its [`Seed::measured_by`] only while the same member measured
/// them. Merging needs true structural equality: a 64-bit hash collision
/// must not mix another circuit's histogram in.
fn add_seeds<'r>(seeds: &mut HashMap<u64, Seed>, delivered: impl Iterator<Item = Delivery<'r>>) {
    for (hash, circuit, counts, measured_by) in delivered {
        match seeds.entry(hash) {
            Entry::Occupied(mut e) => {
                let seed = e.get_mut();
                if seed.circuit == *circuit {
                    seed.counts.merge(counts);
                    if seed.measured_by != measured_by {
                        seed.measured_by = None;
                    }
                }
            }
            Entry::Vacant(e) => {
                e.insert(Seed {
                    circuit: circuit.clone(),
                    counts: counts.clone(),
                    measured_by,
                });
            }
        }
    }
}

/// Merges one channel's histograms into another (the dedup-off refine
/// path, where the pilot's data cannot ride the engine's seed cache).
fn merge_channel(into: &mut HashMap<u64, Counts>, from: HashMap<u64, Counts>) {
    for (key, counts) in from {
        into.entry(key)
            .and_modify(|mine| mine.merge(&counts))
            .or_insert(counts);
    }
}

/// Attempts to shrink `plan` so that no permanently failed consumer is
/// needed anymore: each lost measurement setting (or preparation) is
/// covered by greedily neglecting the corresponding Pauli at the first
/// cut where [`BasisPlan::try_neglect`] still allows it. Returns `None`
/// when the damage cannot be absorbed:
///
/// * a lost preparation that no neglect drops — every SIC preparation,
///   which the identity term reads;
/// * an uncut reference job was lost — there is nothing to renormalize;
/// * every cut position of a lost setting already neglects two bases
///   (dropping the last surviving pair would orphan the identity).
///
/// Detection-channel failures are resolved upstream (the affected cut
/// falls back to `NotGolden`) and are skipped here.
fn degrade_plan(
    plan: &BasisPlan,
    frame: &PrepFrame,
    failures: &[NodeFailure],
) -> Option<BasisPlan> {
    let num_cuts = plan.num_cuts();
    let mut salvaged = plan.clone();
    for failure in failures {
        for &(channel, key) in &failure.consumers {
            // Per cut, the basis whose neglect drops this setting there.
            let bases: Vec<Option<Pauli>> = match channel {
                Channel::Detection => continue,
                Channel::Uncut => return None,
                Channel::UpstreamMeas => decode_meas(key, num_cuts)
                    .iter()
                    .map(|b| Some(b.pauli()))
                    .collect(),
                Channel::DownstreamPrep => frame.bases_of(key, num_cuts),
            };
            // An earlier neglect may already have dropped this setting
            // from the surviving plan.
            let needed = bases
                .iter()
                .enumerate()
                .all(|(c, p)| p.is_none_or(|p| !salvaged.neglected()[c].contains(&p)));
            if needed
                && !bases
                    .iter()
                    .enumerate()
                    .any(|(c, p)| p.is_some_and(|p| salvaged.try_neglect(c, p)))
            {
                return None;
            }
        }
    }
    Some(salvaged)
}

/// Builds the typed [`PipelineError::Execution`] for a run that cannot
/// (or must not) be salvaged: every failed node plus the sorted consumer
/// keys whose data *was* delivered.
fn execution_failure(
    failures: &[NodeFailure],
    upstream: &HashMap<u64, Counts>,
    downstream: &HashMap<u64, Counts>,
) -> PipelineError {
    let mut succeeded: Vec<ConsumerKey> = upstream
        .keys()
        .map(|&k| (Channel::UpstreamMeas, k))
        .chain(downstream.keys().map(|&k| (Channel::DownstreamPrep, k)))
        .collect();
    succeeded.sort_unstable();
    let cause = failures
        .first()
        .map(|f| f.error.clone())
        .unwrap_or(BackendError::Unavailable);
    PipelineError::Execution(ExecutionFailure {
        failed: failures.iter().map(FailureRecord::from).collect(),
        succeeded,
        cause,
    })
}

impl<'b, B: Backend + ?Sized> CutExecutor<'b, B> {
    /// Binds an executor to a backend.
    pub fn new(backend: &'b B) -> Self {
        CutExecutor { backend }
    }

    /// Runs the full pipeline.
    // By-value `policy` keeps call sites literal-friendly
    // (`run(.., GoldenPolicy::Disabled, ..)`); the body only borrows it.
    #[allow(clippy::needless_pass_by_value)]
    pub fn run(
        &self,
        circuit: &Circuit,
        cut: &CutSpec,
        policy: GoldenPolicy,
        options: &ExecutionOptions,
    ) -> Result<CutRun, PipelineError> {
        // Plan the run once: fragment, resolve the static golden policy
        // (online detection starts from the standard plan).
        let resolve_started = Instant::now();
        let mut planned = RunPlan::resolve(circuit, cut, &policy);
        let resolve_time = resolve_started.elapsed();

        // Static-analysis gate: lint that plan before a single shot is
        // spent. Deny-level findings abort the run; warnings are carried
        // through to the report.
        let mut diagnostics: Vec<Diagnostic> = Vec::new();
        if options.analysis.enabled {
            let diags = gate(circuit, cut, options, self.backend, &mut planned);
            if diags.has_deny() {
                return Err(PipelineError::Analysis(diags));
            }
            diagnostics = diags.into_vec();
        }
        let mut run_plan = planned?;

        // A cache that failed to load (corrupt/truncated/foreign file)
        // became a cold start at open time. Drain that notice so the next
        // run on this cache does not repeat it, and report it here only
        // when the gate did not (analysis disabled, or QA403 allowed).
        if let Some(why) = self
            .warm_cache(options)
            .and_then(WarmCache::take_degradation)
        {
            if !diagnostics
                .iter()
                .any(|d| d.code == LintCode::CacheDegraded)
            {
                diagnostics.push(Diagnostic {
                    code: LintCode::CacheDegraded,
                    severity: Severity::Warn,
                    message: format!("warm-start cache degraded to a cold start: {why}"),
                });
            }
        }

        // Online detection runs its sequential batches through the engine
        // and leaves its measurements in `detection_cache` for the main
        // gather to reuse.
        let detect_started = Instant::now();
        let mut detection_cache: HashMap<u64, Seed> = HashMap::new();
        let mut detection_stats = GraphStats::default();
        // Permanent node failures tolerated so far (only ever non-empty
        // under FailurePolicy::Degrade — the Fail policy aborts at the
        // first failed engine submission).
        let mut failures: Vec<NodeFailure> = Vec::new();
        if let GoldenPolicy::DetectOnline(config) = &policy {
            let detected = self.detect_online(
                &run_plan.fragments,
                *config,
                options,
                &mut detection_cache,
                &mut detection_stats,
                &mut failures,
            )?;
            run_plan.replan(detected);
        }
        let detection_seconds = (resolve_time + detect_started.elapsed()).as_secs_f64();
        let detection_shots = detection_stats.shots_executed;

        // Resolve the allocation policy for the surviving plan (golden
        // detection shrinks the settings the budget divides over). Uniform
        // reproduces the paper's protocol bit-identically; weighted/total
        // policies skew or split a fixed budget, exactly (largest-
        // remainder split); the adaptive policy runs a pilot round first.
        // `normalized` resolves degenerate adaptive fractions into the
        // single-round policy they are bit-identical to.
        let allocation = options.resolved_allocation();
        let effective = allocation.normalized();

        let gather_started = Instant::now();
        let (gather, pilot_shots, rounds) = if let ShotAllocation::Adaptive {
            pilot_fraction,
            total,
        } = effective
        {
            self.gather_adaptive(
                &run_plan,
                options,
                pilot_fraction,
                total,
                &detection_cache,
                &mut failures,
            )?
        } else {
            // The graph the gate linted (or, after online detection
            // shrank the plan, its replanned successor).
            let round = self.execute_round(
                run_plan.take_gather(options)?.graph,
                options,
                &detection_cache,
                self.warm_cache(options),
                &mut failures,
            )?;
            (round, 0, 1)
        };
        let gather_seconds = gather_started.elapsed().as_secs_f64();

        // Store each delivered node of the final round's graph back into
        // the warm cache, under the member that measured it, so the next
        // run (or sweep point) starts from it; then persist. Delivered
        // totals already include everything — cached, detection-seeded,
        // and fresh shots — and `store` replaces, so re-running never
        // duplicates samples.
        if let Some(cache) = self.warm_cache(options) {
            for (hash, circuit, counts, measured_by) in gather.delivered() {
                if let Some(fingerprint) = measured_by {
                    let key = CacheKey::new(hash, fingerprint, ShotDiscipline::Multinomial);
                    cache.store(&key, circuit, counts);
                }
            }
            if cache.config().path.is_some() {
                if let Err(e) = cache.persist() {
                    diagnostics.push(Diagnostic {
                        code: LintCode::CacheDegraded,
                        severity: Severity::Warn,
                        message: format!(
                            "warm-start cache failed to persist ({e}); the next \
                             run starts cold"
                        ),
                    });
                }
            }
        }
        let RunPlan {
            fragments,
            basis: plan,
            ..
        } = run_plan;
        let Round {
            upstream,
            downstream,
            stats: gather_stats,
            ..
        } = gather;

        // Graceful degradation: when nodes failed permanently under
        // FailurePolicy::Degrade, shrink the plan until no lost consumer
        // is needed (greedy extra neglects), then verify the surviving
        // plan is fully covered by delivered data. Runs whose damage
        // cannot be absorbed — a lost preparation no neglect drops (any
        // SIC preparation), or a cut already at two neglects — fail with
        // the same typed error the Fail policy raises.
        let planned_terms = plan.all_recon_strings().len();
        let mut degraded = false;
        let plan = if failures.is_empty() {
            plan
        } else {
            let unsalvageable = || execution_failure(&failures, &upstream, &downstream);
            let frame = PrepFrame::new(options.method, &plan);
            let salvaged = degrade_plan(&plan, &frame, &failures).ok_or_else(unsalvageable)?;
            let table = TermTable::new(&PrepFrame::new(options.method, &salvaged), &salvaged);
            let covered = table.upstream_keys.iter().all(|k| upstream.contains_key(k))
                && (table.downstream_keys.iter()).all(|k| downstream.contains_key(k));
            if !covered {
                return Err(unsalvageable());
            }
            degraded = true;
            salvaged
        };
        let surviving_terms = plan.all_recon_strings().len();
        let variance_inflation = if degraded {
            planned_terms as f64 / surviving_terms.max(1) as f64
        } else {
            1.0
        };
        let failure_records: Vec<FailureRecord> =
            failures.iter().map(FailureRecord::from).collect();

        let upstream_settings = upstream.len();
        let downstream_settings = downstream.len();
        // The realized per-setting schedule rides in the fragment data
        // (delivered histogram totals — ≥ the requested schedule when
        // detection data was reused or duplicates merged), so downstream
        // variance/CI math sees actual shots per setting, never a nominal
        // mean.
        let data = FragmentData::from_counts(
            upstream,
            downstream,
            gather_stats.simulated_device_time,
            gather_stats.host_time,
        );

        // Reconstruct.
        let recon_started = Instant::now();
        let up = upstream_tensor(&fragments.upstream, &plan, &data);
        let down = downstream_tensor_for(&fragments.downstream, &plan, options.method, &data);
        let mut distribution = contract(&fragments, &plan, &up, &down);
        match options.postprocess {
            PostProcess::Raw => {}
            PostProcess::ClipRenormalize => distribution.clip_renormalize_in_place(),
            PostProcess::SimplexProjection => distribution.project_to_simplex_in_place(),
        }
        let reconstruct_seconds = recon_started.elapsed().as_secs_f64();

        // Accounting: engine numbers unify detection and gather.
        let mut engine = detection_stats;
        engine.absorb(&gather_stats);
        let pool_parallel_ratio = engine.pool_parallel_ratio();
        let report = RunReport {
            num_cuts: fragments.num_cuts,
            neglected: plan.neglected().to_vec(),
            allocation,
            upstream_settings,
            downstream_settings,
            subcircuits_executed: upstream_settings + downstream_settings,
            // Fresh device shots for the main gather round only —
            // detection and pilot shots are reported separately, so the
            // fields never double-count a reused measurement.
            total_shots: gather_stats.shots_executed - pilot_shots,
            pilot_shots,
            rounds,
            shots_requested: engine.shots_requested,
            jobs_planned: engine.jobs_planned,
            jobs_executed: engine.jobs_executed,
            shots_saved: engine.shots_saved,
            cache_hits: engine.cache_hits,
            cache_shots_reused: engine.cache_shots_reused,
            states_reused: engine.states_reused,
            gates_applied: engine.gates_applied,
            gates_saved: engine.gates_saved,
            reconstruction_terms: surviving_terms,
            simulated_device_seconds: engine.simulated_device_time.as_secs_f64(),
            gather_seconds,
            reconstruct_seconds,
            detection_shots,
            detection_seconds,
            attempts: engine.attempts,
            jobs_retried: engine.jobs_retried,
            shots_lost: engine.shots_lost,
            backoff_seconds: engine.backoff_wait.as_secs_f64(),
            jobs_per_member: engine.jobs_per_member,
            member_makespan_seconds: engine
                .member_makespan
                .into_iter()
                .map(|d| d.as_secs_f64())
                .collect(),
            pool_parallel_ratio,
            jobs_failed_over: engine.jobs_failed_over,
            degraded,
            failures: failure_records,
            variance_inflation,
            diagnostics,
        };
        Ok(CutRun {
            distribution,
            report,
        })
    }

    /// The warm-start cache this run may consult: the configured one, and
    /// only with dedup on — cache entries are keyed by structural hash,
    /// and only the dedup engine path confirms true circuit equality
    /// before merging histograms, so serving them without it would be
    /// unsound. With dedup off the run is bit-identical to a cache-free
    /// run by construction.
    fn warm_cache<'o>(&self, options: &'o ExecutionOptions) -> Option<&'o WarmCache> {
        options.cache.as_deref().filter(|_| options.dedup)
    }

    /// Executes one engine round, the one place `run` submits to the
    /// backend: seeds `graph` with prior measurements (online-detection
    /// batches for a first gather round, the pilot's histograms for an
    /// adaptive refine round), then with any matching `warm` cross-run
    /// cache entries, and executes it. The engine executes only each
    /// node's missing shots, so same-run seeds count toward the round's
    /// budget as `shots_saved` and warm-cache seeds as
    /// `cache_shots_reused`.
    ///
    /// The engine honors [`ExecutionOptions::retry`]. What still fails
    /// either aborts the round ([`FailurePolicy::Fail`]) or is pushed
    /// onto `failures` while the salvaged sibling data is delivered
    /// ([`FailurePolicy::Degrade`]).
    ///
    /// Warm-cache keys are per engine member: each node is looked up under
    /// the fingerprint of the member [`JobGraph::assign_members`] assigns
    /// it, and [`Round::measured_by`] names the member that delivered its
    /// fresh shots (`GraphRun::delivered_by`). A node that executed nothing
    /// keeps its lookup member. Two kinds of node get no fingerprint,
    /// because their histograms mix two devices: a cache-seeded node that
    /// failed over to a sibling, and a node whose same-run seed another
    /// member measured ([`Seed::measured_by`]). Among nodes sharing a
    /// structural hash only the first gets one.
    fn execute_round(
        &self,
        mut graph: JobGraph,
        options: &ExecutionOptions,
        seeds: &HashMap<u64, Seed>,
        warm: Option<&WarmCache>,
        failures: &mut Vec<NodeFailure>,
    ) -> Result<Round, PipelineError> {
        for seed in seeds.values() {
            graph.seed_counts(&seed.circuit, &seed.counts);
        }
        let caching = self.warm_cache(options).is_some();
        let assigned = if caching {
            graph.assign_members(self.backend)
        } else {
            Vec::new()
        };
        let mut cache_seeded = vec![false; graph.num_nodes()];
        if let Some(cache) = warm {
            let nodes = graph.node_hashes().zip(graph.node_circuits());
            let hits: Vec<(usize, Counts)> = nodes
                .enumerate()
                .filter_map(|(i, (hash, circuit))| {
                    let fingerprint = self.member_fingerprint(assigned[i]);
                    let key = CacheKey::new(hash, fingerprint, ShotDiscipline::Multinomial);
                    Some((i, cache.lookup(&key, circuit)?))
                })
                .collect();
            for (i, counts) in hits {
                cache_seeded[i] = graph.seed_node_from_cache(i, &counts);
            }
        }
        let executed = graph.execute_with(self.backend, options.parallel, &options.retry);
        let mut run = match (executed, options.failure) {
            (Ok(run), _) => run,
            (Err(failure), FailurePolicy::Fail) => return Err(failure.into()),
            (Err(failure), FailurePolicy::Degrade) => {
                let GraphFailure {
                    failures: failed,
                    salvage,
                } = *failure;
                failures.extend(failed);
                salvage
            }
        };
        let mut claimed: HashMap<u64, usize> = HashMap::new();
        let mut measured_by = Vec::new();
        if caching {
            measured_by = graph
                .node_hashes()
                .enumerate()
                .map(|(i, hash)| {
                    let member = match run.delivered_by(i) {
                        None => assigned[i],
                        Some(m) if cache_seeded[i] && assigned[i] != Some(m) => return None,
                        Some(m) => Some(m),
                    };
                    let fingerprint = self.member_fingerprint(member);
                    let foreign_seed = seeds
                        .get(&hash)
                        .is_some_and(|seed| seed.measured_by != Some(fingerprint));
                    (!foreign_seed && *claimed.entry(hash).or_insert(i) == i).then_some(fingerprint)
                })
                .collect();
        }
        Ok(Round {
            upstream: run.take_channel(Channel::UpstreamMeas),
            downstream: run.take_channel(Channel::DownstreamPrep),
            detection: run.take_channel(Channel::Detection),
            stats: run.stats,
            graph,
            measured_by,
        })
    }

    /// The warm-cache fingerprint of engine member `member`: that member
    /// of a pool, the backend itself otherwise. A node no pool member can
    /// fit (`None`) falls back to the pool's aggregate fingerprint; it
    /// fails before submission, so nothing is ever stored under it.
    fn member_fingerprint(&self, member: Option<usize>) -> u64 {
        match (self.backend.as_pool(), member) {
            (Some(pool), Some(m)) => pool.member(m).cache_fingerprint(),
            _ => self.backend.cache_fingerprint(),
        }
    }

    /// The two-round adaptive gather (`ShotAllocation::Adaptive` with an
    /// interior pilot fraction):
    ///
    /// 1. a uniform **pilot** round of `round(pilot_fraction · total)`
    ///    shots runs through the engine (seeded with detection data like
    ///    any gather);
    /// 2. empirical fragment tensors built from the pilot's histograms are
    ///    scored per setting ([`neyman_scores`]) and the remaining budget
    ///    is apportioned `N ∝ √score` by largest remainder;
    /// 3. a **refine** round requests the cumulative per-setting targets,
    ///    seeded with the pilot's delivered histograms — the engine
    ///    executes exactly the refine increments and every consumer
    ///    receives the merged two-round data. (With dedup off, the
    ///    ablation baseline, the seed cache is disabled by design, so the
    ///    round requests only the increments and the pilot's histograms
    ///    are merged into the delivery directly — same data, same total.)
    ///
    /// Returns the final round's channels (cumulative histograms), the
    /// pilot's fresh shot count, and the round count (2).
    fn gather_adaptive(
        &self,
        run_plan: &RunPlan,
        options: &ExecutionOptions,
        pilot_fraction: f64,
        total: u64,
        detection_cache: &HashMap<u64, Seed>,
        failures: &mut Vec<NodeFailure>,
    ) -> Result<(Round, u64, usize), PipelineError> {
        let (fragments, plan) = (&run_plan.fragments, &run_plan.basis);
        let frame = PrepFrame::new(options.method, plan);
        let n_up = plan.all_meas_settings().len();
        let n_down = frame.settings().len();

        // Round 1: the uniform pilot.
        // The warm cache seeds the pilot only: its histograms become part
        // of the pilot's delivered data, which already seeds the refine
        // round below — seeding both rounds would duplicate the samples.
        // A warm pilot is a *free* pilot (the engine executes only the
        // increment beyond the cached shots).
        let pilot = pilot_total(pilot_fraction, total);
        let pilot_sched = pilot_schedule(n_up, n_down, pilot)?;
        let failures_before_pilot = failures.len();
        let pilot_run = self.execute_round(
            gather_graph(fragments, plan, options.method, &pilot_sched, options.dedup),
            options,
            detection_cache,
            self.warm_cache(options),
            failures,
        )?;
        let pilot_degraded = failures.len() > failures_before_pilot;

        // Empirical tensors from the pilot's delivered histograms. A
        // degraded pilot (some settings permanently undelivered under
        // FailurePolicy::Degrade) cannot be scored — the tensors would
        // read absent histograms — so the refine round falls back to the
        // uniform split; the final replan after the gather decides what
        // the reconstruction can still salvage.
        let pilot_data = FragmentData::from_counts(
            pilot_run.upstream.clone(),
            pilot_run.downstream.clone(),
            pilot_run.stats.simulated_device_time,
            pilot_run.stats.host_time,
        );
        let (up_scores, down_scores) = if pilot_degraded {
            (vec![1.0; n_up], vec![1.0; n_down])
        } else {
            let up = upstream_tensor(&fragments.upstream, plan, &pilot_data);
            let down =
                downstream_tensor_for(&fragments.downstream, plan, options.method, &pilot_data);
            let scores = neyman_scores(fragments, plan, options.method, &up, &down);
            // The same downstream rule as WeightedByUsage: a frame whose
            // preparations are not usage-weighted (SIC) splits evenly.
            (scores.upstream, frame.downstream_weights(scores.downstream))
        };

        // Round 2. With dedup on, the refine round requests the
        // *cumulative* Neyman targets and is seeded with the pilot's
        // histograms, so the engine executes exactly the refine increments
        // and delivers the merged two-round data (the pilot reuse shows up
        // as shots_saved). With dedup off — the ablation baseline —
        // `seed_counts` is deliberately a no-op, so the round requests
        // only the increments and the pilot's histograms are merged back
        // into the delivery here: either way both rounds together execute
        // exactly `total` fresh shots.
        let cumulative = refine_schedule(&pilot_sched, &up_scores, &down_scores, total - pilot);
        let mut refine_run = if options.dedup {
            // A degraded pilot delivered nothing for its failed nodes,
            // which then simply have no seed to ride. Each seed carries
            // the pilot's fingerprint, so a merged histogram is stored
            // only when both rounds measured it on the same member.
            let mut seeds: HashMap<u64, Seed> = HashMap::new();
            add_seeds(&mut seeds, pilot_run.delivered());
            self.execute_round(
                gather_graph(fragments, plan, options.method, &cumulative, options.dedup),
                options,
                &seeds,
                None,
                failures,
            )?
        } else {
            // The refine split alone: the same apportionment over no pilot.
            let none = ShotSchedule::uniform(n_up, n_down, 0);
            let increments = refine_schedule(&none, &up_scores, &down_scores, total - pilot);
            let mut run = self.execute_round(
                gather_graph(fragments, plan, options.method, &increments, options.dedup),
                options,
                &HashMap::new(),
                None,
                failures,
            )?;
            merge_channel(&mut run.upstream, pilot_data.upstream);
            merge_channel(&mut run.downstream, pilot_data.downstream);
            run
        };

        let pilot_shots = pilot_run.stats.shots_executed;
        let mut stats = pilot_run.stats;
        stats.absorb(&refine_run.stats);
        refine_run.stats = stats;
        Ok((refine_run, pilot_shots, 2))
    }

    /// Runs the uncut circuit directly (the reference arm of Fig. 3),
    /// routed through the engine like every other execution.
    pub fn run_uncut(&self, circuit: &Circuit, shots: u64) -> Result<UncutRun, PipelineError> {
        self.run_uncut_with(circuit, shots, &RetryPolicy::default())
    }

    /// Like [`CutExecutor::run_uncut`] but honoring a [`RetryPolicy`].
    /// There is no degraded mode for the reference arm — the single
    /// histogram either arrives or the run fails with the typed
    /// [`PipelineError::Execution`].
    pub fn run_uncut_with(
        &self,
        circuit: &Circuit,
        shots: u64,
        retry: &RetryPolicy,
    ) -> Result<UncutRun, PipelineError> {
        let started = Instant::now();
        let graph = uncut_graph(circuit, shots);
        let mut run = graph.execute_with(self.backend, false, retry)?;
        let counts = run
            .take_channel(Channel::Uncut)
            .remove(&0)
            .ok_or(PipelineError::Backend(BackendError::Unavailable))?;
        Ok(UncutRun {
            distribution: counts.to_distribution(),
            report: UncutReport {
                shots,
                simulated_device_seconds: run.stats.simulated_device_time.as_secs_f64(),
                host_seconds: started.elapsed().as_secs_f64(),
            },
        })
    }

    /// Online golden detection: batches of upstream measurements per cut
    /// until every cut reaches a verdict (paper §IV). Each round's settings
    /// are executed as one engine batch; all measurements accumulate in
    /// `cache` (keyed by circuit structural hash) so the main gather can
    /// reuse them, and `stats` absorbs the engine accounting.
    /// Under [`FailurePolicy::Degrade`], a detection batch that fails
    /// permanently (after retries) downgrades the affected cut to
    /// `NotGolden` — the safe verdict: the full basis set stays scheduled
    /// and the failure is itemised in the report — instead of aborting.
    fn detect_online(
        &self,
        fragments: &Fragments,
        config: OnlineConfig,
        options: &ExecutionOptions,
        cache: &mut HashMap<u64, Seed>,
        stats: &mut GraphStats,
        failures: &mut Vec<NodeFailure>,
    ) -> Result<BasisPlan, PipelineError> {
        let num_cuts = fragments.num_cuts;
        let mut plan = BasisPlan::standard(num_cuts);
        for cut in 0..num_cuts {
            let mut detector = OnlineDetector::new(&fragments.upstream, cut, num_cuts, config);
            // The settings are fixed per cut, so every look resubmits the
            // same circuits.
            let settings: Vec<_> = detector
                .required_settings()
                .into_iter()
                .map(|setting| {
                    let circuit = build_upstream_circuit(&fragments.upstream, &setting);
                    (setting, circuit)
                })
                .collect();
            loop {
                match detector.verdict() {
                    GoldenVerdict::Golden => {
                        plan.neglect(cut, config.candidate);
                        break;
                    }
                    GoldenVerdict::NotGolden => break,
                    GoldenVerdict::Undecided => {
                        if detector.exhausted() {
                            return Err(PipelineError::DetectionUndecided {
                                cut,
                                shots_spent: detector.min_shots(),
                            });
                        }
                        let mut graph = JobGraph::with_dedup(options.dedup);
                        for (setting, circuit) in &settings {
                            graph.add_job(
                                circuit.clone(),
                                (Channel::Detection, encode_meas(setting)),
                                config.batch_shots,
                            );
                        }
                        let failed_before = failures.len();
                        let round =
                            self.execute_round(graph, options, &HashMap::new(), None, failures)?;
                        stats.absorb(&round.stats);
                        if failures.len() > failed_before {
                            // NotGolden fallback: keep the full basis set
                            // for this cut.
                            break;
                        }
                        for (setting, _) in &settings {
                            let counts = round
                                .detection
                                .get(&encode_meas(setting))
                                .ok_or(PipelineError::Backend(BackendError::Unavailable))?;
                            detector.feed(setting, counts);
                        }
                        add_seeds(cache, round.delivered());
                    }
                }
            }
        }
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::Fragmenter;
    use qcut_circuit::ansatz::GoldenAnsatz;
    use qcut_device::ideal::IdealBackend;
    use qcut_sim::statevector::StateVector;
    use qcut_stats::distance::total_variation_distance;
    use std::time::Duration;

    fn truth(circuit: &Circuit) -> Distribution {
        let sv = StateVector::from_circuit(circuit);
        Distribution::from_values(circuit.num_qubits(), sv.probabilities())
    }

    fn options(shots: u64) -> ExecutionOptions {
        ExecutionOptions {
            shots_per_setting: shots,
            ..Default::default()
        }
    }

    #[test]
    fn standard_run_reconstructs_the_circuit() {
        let (circuit, cut) = GoldenAnsatz::new(5, 1).build();
        let backend = IdealBackend::new(3);
        let exec = CutExecutor::new(&backend);
        let run = exec
            .run(&circuit, &cut, GoldenPolicy::Disabled, &options(20_000))
            .unwrap();
        assert_eq!(run.report.subcircuits_executed, 9);
        assert_eq!(run.report.reconstruction_terms, 4);
        let d = total_variation_distance(&run.distribution, &truth(&circuit));
        assert!(d < 0.05, "reconstruction off by {d}");
    }

    #[test]
    fn golden_run_matches_standard_with_fewer_subcircuits() {
        let (circuit, cut) = GoldenAnsatz::new(5, 2).build();
        let backend = IdealBackend::new(4);
        let exec = CutExecutor::new(&backend);
        let golden = exec
            .run(
                &circuit,
                &cut,
                GoldenPolicy::KnownAPriori(vec![(0, Pauli::Y)]),
                &options(20_000),
            )
            .unwrap();
        assert_eq!(golden.report.subcircuits_executed, 6);
        assert_eq!(golden.report.reconstruction_terms, 3);
        assert_eq!(golden.report.total_shots, 6 * 20_000);
        let d = total_variation_distance(&golden.distribution, &truth(&circuit));
        assert!(d < 0.05, "golden reconstruction off by {d}");
    }

    #[test]
    fn exact_detection_policy_discovers_y() {
        let (circuit, cut) = GoldenAnsatz::new(5, 3).build();
        let backend = IdealBackend::new(5);
        let exec = CutExecutor::new(&backend);
        let run = exec
            .run(
                &circuit,
                &cut,
                GoldenPolicy::detect_exact(),
                &options(10_000),
            )
            .unwrap();
        assert!(run.report.neglected[0].contains(&Pauli::Y));
        assert_eq!(run.report.subcircuits_executed, 6);
    }

    #[test]
    fn online_detection_policy_works_end_to_end() {
        let (circuit, cut) = GoldenAnsatz::new(5, 4).build();
        let backend = IdealBackend::new(6);
        let exec = CutExecutor::new(&backend);
        let config = OnlineConfig {
            epsilon: 0.08,
            batch_shots: 3000,
            ..OnlineConfig::default()
        };
        let run = exec
            .run(
                &circuit,
                &cut,
                GoldenPolicy::DetectOnline(config),
                &options(10_000),
            )
            .unwrap();
        assert!(run.report.neglected[0].contains(&Pauli::Y));
        assert!(run.report.detection_shots > 0);
        let d = total_variation_distance(&run.distribution, &truth(&circuit));
        assert!(d < 0.06, "online-detected reconstruction off by {d}");
    }

    #[test]
    fn sic_method_reconstructs() {
        let (circuit, cut) = GoldenAnsatz::new(5, 5).build();
        let backend = IdealBackend::new(7);
        let exec = CutExecutor::new(&backend);
        let opts = ExecutionOptions {
            shots_per_setting: 40_000,
            method: ReconstructionMethod::Sic,
            ..Default::default()
        };
        let run = exec
            .run(&circuit, &cut, GoldenPolicy::Disabled, &opts)
            .unwrap();
        // 3 upstream + 4 SIC preparations.
        assert_eq!(run.report.subcircuits_executed, 7);
        let d = total_variation_distance(&run.distribution, &truth(&circuit));
        assert!(d < 0.06, "SIC reconstruction off by {d}");
    }

    #[test]
    fn postprocess_raw_preserves_quasi_character() {
        let (circuit, cut) = GoldenAnsatz::new(5, 6).build();
        let backend = IdealBackend::new(8);
        let exec = CutExecutor::new(&backend);
        let opts = ExecutionOptions {
            shots_per_setting: 500, // deliberately noisy
            postprocess: PostProcess::Raw,
            ..Default::default()
        };
        let run = exec
            .run(&circuit, &cut, GoldenPolicy::Disabled, &opts)
            .unwrap();
        // Mass ≈ 1 but entries may dip negative; clipping fixes it.
        assert!((run.distribution.total_mass() - 1.0).abs() < 0.05);
        let clipped = run.distribution.clip_renormalize();
        assert!(clipped.is_proper(1e-9));
    }

    #[test]
    fn uncut_reference_run() {
        let (circuit, _) = GoldenAnsatz::new(5, 7).build();
        let backend = IdealBackend::new(9);
        let exec = CutExecutor::new(&backend);
        let run = exec.run_uncut(&circuit, 30_000).unwrap();
        let d = total_variation_distance(&run.distribution, &truth(&circuit));
        assert!(d < 0.03);
        assert_eq!(run.report.shots, 30_000);
    }

    #[test]
    fn invalid_cut_is_reported() {
        let (circuit, _) = GoldenAnsatz::new(5, 0).build();
        let backend = IdealBackend::new(0);
        let exec = CutExecutor::new(&backend);
        let bad = CutSpec::single(0, 99);
        let err = exec
            .run(&circuit, &bad, GoldenPolicy::Disabled, &options(100))
            .unwrap_err();
        // The static-analysis gate catches the invalid cut (QA101) before
        // fragmenting even starts.
        let PipelineError::Analysis(diags) = err else {
            panic!("expected analysis rejection, got {err:?}");
        };
        assert!(diags.contains(crate::analysis::LintCode::InvalidCut));
    }

    #[test]
    fn invalid_cut_is_reported_as_fragment_error_when_analysis_is_off() {
        let (circuit, _) = GoldenAnsatz::new(5, 0).build();
        let backend = IdealBackend::new(0);
        let exec = CutExecutor::new(&backend);
        let bad = CutSpec::single(0, 99);
        let opts = ExecutionOptions {
            shots_per_setting: 100,
            analysis: AnalysisConfig::disabled(),
            ..Default::default()
        };
        let err = exec
            .run(&circuit, &bad, GoldenPolicy::Disabled, &opts)
            .unwrap_err();
        assert!(matches!(err, PipelineError::Fragment(_)));
    }

    #[test]
    fn known_a_priori_cut_out_of_range_is_a_typed_error() {
        let (circuit, cut) = GoldenAnsatz::new(5, 1).build();
        let backend = IdealBackend::new(0);
        let err = CutExecutor::new(&backend)
            .run(
                &circuit,
                &cut,
                GoldenPolicy::KnownAPriori(vec![(4, Pauli::Y)]),
                &options(100),
            )
            .unwrap_err();
        assert_eq!(
            err,
            PipelineError::GoldenCutOutOfRange {
                cut: 4,
                num_cuts: 1
            }
        );
    }

    #[test]
    fn fault_free_default_run_has_clean_fault_accounting() {
        let (circuit, cut) = GoldenAnsatz::new(5, 1).build();
        let backend = IdealBackend::new(3);
        let run = CutExecutor::new(&backend)
            .run(&circuit, &cut, GoldenPolicy::Disabled, &options(2000))
            .unwrap();
        assert_eq!(run.report.attempts, run.report.jobs_executed as u64);
        assert_eq!(run.report.jobs_retried, 0);
        assert_eq!(run.report.shots_lost, 0);
        assert_eq!(run.report.backoff_seconds, 0.0);
        assert!(!run.report.degraded);
        assert!(run.report.failures.is_empty());
        assert_eq!(run.report.variance_inflation, 1.0);
    }

    #[test]
    fn transient_faults_retry_to_a_bit_identical_run() {
        use crate::retry::Backoff;
        use qcut_device::fault::FaultInjectingBackend;
        let (circuit, cut) = GoldenAnsatz::new(5, 1).build();
        // Every subcircuit fails its first two submissions, then recovers.
        let flaky = FaultInjectingBackend::new(IdealBackend::new(3)).fail_first(2);
        let opts = ExecutionOptions {
            shots_per_setting: 5000,
            retry: RetryPolicy {
                max_attempts: 4,
                backoff: Backoff::Fixed(Duration::from_millis(10)),
                per_job_timeout: None,
            },
            ..Default::default()
        };
        let run = CutExecutor::new(&flaky)
            .run(&circuit, &cut, GoldenPolicy::Disabled, &opts)
            .unwrap();

        let clean = IdealBackend::new(3);
        let reference = CutExecutor::new(&clean)
            .run(&circuit, &cut, GoldenPolicy::Disabled, &options(5000))
            .unwrap();
        let d = total_variation_distance(&run.distribution, &reference.distribution);
        assert_eq!(d, 0.0, "recovered run must be bit-identical, off by {d}");

        assert!(!run.report.degraded);
        assert!(run.report.failures.is_empty());
        assert_eq!(run.report.variance_inflation, 1.0);
        // 9 nodes × (2 failures + 1 success): 27 attempts, 18 of them retries.
        assert_eq!(run.report.jobs_retried, 18);
        assert_eq!(run.report.attempts, 27);
        assert_eq!(run.report.shots_lost, 0);
        // Backoff is accounting, never slept: two retry rounds × 10 ms
        // (failed nodes re-submit together, one delay per round).
        assert!((run.report.backoff_seconds - 0.02).abs() < 1e-12);
    }

    #[test]
    fn degrade_salvages_a_permanently_failed_meas_setting() {
        use crate::basis::MeasBasis;
        use crate::tomography::build_upstream_circuit;
        use qcut_device::fault::FaultInjectingBackend;
        let (circuit, cut) = GoldenAnsatz::new(5, 1).build();
        let frags = Fragmenter::fragment(&circuit, &cut).unwrap();
        let y_circuit = build_upstream_circuit(&frags.upstream, &[MeasBasis::Y]);
        // The Y-measurement subcircuit fails on every attempt.
        let backend =
            FaultInjectingBackend::new(IdealBackend::new(3)).fail_circuit(&y_circuit, u32::MAX);
        let opts = ExecutionOptions {
            shots_per_setting: 20_000,
            retry: RetryPolicy::with_attempts(2),
            failure: FailurePolicy::Degrade,
            ..Default::default()
        };
        let run = CutExecutor::new(&backend)
            .run(&circuit, &cut, GoldenPolicy::Disabled, &opts)
            .unwrap();

        assert!(run.report.degraded);
        assert_eq!(run.report.failures.len(), 1);
        assert_eq!(run.report.failures[0].attempts, 2);
        assert!(run.report.shots_lost > 0);
        // The lost setting was neglected and the reconstruction
        // renormalized over the survivors: 4 → 3 terms, variance ×4/3.
        assert!(run.report.neglected[0].contains(&Pauli::Y));
        assert_eq!(run.report.reconstruction_terms, 3);
        assert!((run.report.variance_inflation - 4.0 / 3.0).abs() < 1e-12);
        // The ansatz is golden at Y, so dropping it is exact in the limit.
        let d = total_variation_distance(&run.distribution, &truth(&circuit));
        assert!(d < 0.05, "degraded reconstruction off by {d}");
    }

    #[test]
    fn fail_policy_raises_a_typed_execution_error() {
        use crate::basis::MeasBasis;
        use crate::tomography::build_upstream_circuit;
        use qcut_device::fault::FaultInjectingBackend;
        let (circuit, cut) = GoldenAnsatz::new(5, 1).build();
        let frags = Fragmenter::fragment(&circuit, &cut).unwrap();
        let y_circuit = build_upstream_circuit(&frags.upstream, &[MeasBasis::Y]);
        let backend =
            FaultInjectingBackend::new(IdealBackend::new(3)).fail_circuit(&y_circuit, u32::MAX);
        let opts = ExecutionOptions {
            shots_per_setting: 2000,
            retry: RetryPolicy::with_attempts(3),
            ..Default::default()
        };
        let err = CutExecutor::new(&backend)
            .run(&circuit, &cut, GoldenPolicy::Disabled, &opts)
            .unwrap_err();
        let PipelineError::Execution(failure) = err else {
            panic!("expected a typed execution failure, got {err:?}");
        };
        assert_eq!(failure.failed.len(), 1);
        assert_eq!(failure.failed[0].attempts, 3);
        // The 8 surviving subcircuits are named as salvaged consumers.
        assert_eq!(failure.succeeded.len(), 8);
        assert!(matches!(failure.cause, BackendError::Transient { .. }));
    }

    #[test]
    fn report_timing_fields_are_populated() {
        let (circuit, cut) = GoldenAnsatz::new(5, 8).build();
        let backend = IdealBackend::new(10);
        let exec = CutExecutor::new(&backend);
        let run = exec
            .run(&circuit, &cut, GoldenPolicy::Disabled, &options(1000))
            .unwrap();
        assert!(run.report.gather_seconds > 0.0);
        assert!(run.report.reconstruct_seconds >= 0.0);
        assert!(run.report.total_host_seconds() > 0.0);
    }
}
