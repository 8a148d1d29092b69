//! The traced staged pass: one `CutExecutor::run`, re-driven stage by
//! stage through the library's public functions, with a clock around each
//! call.
//!
//! The stages, their order, and every input they see follow
//! `CutExecutor::run` for the configurations the workloads use (eigenstate
//! preparations, one gather round, dedup on, the fail policy). Online
//! detection and warm-cache seeding have no public entry point of their
//! own, so the staged pass repeats their loops over the public
//! `OnlineDetector`, `JobGraph` and `WarmCache` calls. The fidelity tests
//! pin the staged pass to `CutExecutor::run`: same counters on every workload,
//! and the same distribution bit for bit.

use crate::timed::Tally;
use crate::workload::{Counters, Workload};
use qcut_cache::{CacheKey, ShotDiscipline, WarmCache};
use qcut_circuit::circuit::Circuit;
use qcut_circuit::cut::CutSpec;
use qcut_core::allocation::{schedule_for_plan, ShotAllocation};
use qcut_core::analysis::analyze_with_backend;
use qcut_core::basis::{encode_meas, encode_prep, BasisPlan};
use qcut_core::dataflow::proven_plan;
use qcut_core::execution::FragmentData;
use qcut_core::fragment::{Fragmenter, Fragments};
use qcut_core::golden::{
    resolve_static_policy, GoldenPolicy, GoldenVerdict, OnlineConfig, OnlineDetector,
};
use qcut_core::jobgraph::{Channel, GraphRun, GraphStats, JobGraph};
use qcut_core::pipeline::{ExecutionOptions, PostProcess, ReconstructionMethod};
use qcut_core::planner::{add_downstream_jobs, add_upstream_jobs};
use qcut_core::reconstruction::{contract, downstream_tensor, upstream_tensor};
use qcut_core::retry::FailurePolicy;
use qcut_core::tomography::{build_downstream_circuit, build_upstream_circuit};
use qcut_device::backend::{Backend, JobSpec};
use qcut_sim::counts::Counts;
use qcut_stats::distribution::Distribution;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

/// Wall time of each stage of one staged run.
#[derive(Debug, Clone, Default)]
pub struct StageTimes {
    /// `analyze_with_backend`.
    pub analysis: Duration,
    /// `Fragmenter::fragment`.
    pub fragment: Duration,
    /// `dataflow::proven_plan` (`ProveStatic` only).
    pub prove: Duration,
    /// The whole online-detection stage, its engine calls included.
    pub detect: Duration,
    /// `schedule_for_plan`.
    pub schedule: Duration,
    /// `planner::add_*_jobs` plus seeding detection counts into the graph.
    pub planner: Duration,
    /// `BackendPool::place` for the per-member cache keys (pools only).
    pub place: Duration,
    /// Every `JobGraph::execute_with` call, detection rounds included.
    pub execute: Duration,
    /// Device time inside those calls, from the timing decorator.
    pub execute_device: Duration,
    /// Each `WarmCache::lookup` call.
    pub lookups: Vec<Duration>,
    /// Each `WarmCache::store` call.
    pub stores: Vec<Duration>,
    /// `upstream_tensor`.
    pub upstream: Duration,
    /// `downstream_tensor`.
    pub downstream: Duration,
    /// `contract`.
    pub contract: Duration,
    /// `clip_renormalize` / `project_to_simplex`.
    pub postprocess: Duration,
}

/// Everything one staged run produced.
#[derive(Debug, Clone)]
pub struct StagedRun {
    /// The post-processed distribution.
    pub distribution: Distribution,
    /// Counters, assembled the way `CutExecutor::run` fills its report.
    pub counters: Counters,
    /// Per-stage wall times.
    pub times: StageTimes,
    /// The engine's pool balance (`1.0` off a pool).
    pub pool_parallel_ratio: f64,
    /// Entries written to the warm cache, in store order.
    pub stored: Vec<(CacheKey, Circuit, Counts)>,
}

/// Seeds from online detection, keyed by structural hash.
type Seeds = HashMap<u64, (Circuit, Counts)>;

/// Runs `circuit` + `cut` through the stages of `CutExecutor::run` on
/// `workload`'s backend. `tally` must be the tally the workload's devices
/// record into.
pub fn run(
    workload: &Workload,
    circuit: &Circuit,
    cut: &CutSpec,
    tally: &Tally,
) -> Result<StagedRun, String> {
    let backend: &dyn Backend = &*workload.backend;
    let options = &workload.options;
    let allocation = options.resolved_allocation().normalized();
    if options.method != ReconstructionMethod::Eigenstate
        || !options.dedup
        || options.failure != FailurePolicy::Fail
        || matches!(allocation, ShotAllocation::Adaptive { .. })
    {
        return Err("the staged pass covers eigenstate, dedup-on, fail-policy, \
                    single-round runs only"
            .to_string());
    }
    let mut t = StageTimes::default();

    if options.analysis.enabled {
        let started = Instant::now();
        let diags = analyze_with_backend(circuit, cut, options, backend);
        t.analysis = started.elapsed();
        if diags.has_deny() {
            return Err(format!("analysis gate denied the run: {diags:?}"));
        }
    }
    let cache = options.cache.as_deref();
    if let Some(why) = cache.and_then(WarmCache::take_degradation) {
        return Err(format!("warm cache degraded: {why}"));
    }

    let started = Instant::now();
    let fragments = Fragmenter::fragment(circuit, cut).map_err(|e| e.to_string())?;
    t.fragment = started.elapsed();

    let mut detection = GraphStats::default();
    let mut seeds = Seeds::new();
    let plan = match &workload.policy {
        GoldenPolicy::ProveStatic => {
            let started = Instant::now();
            let plan = proven_plan(&fragments.upstream, fragments.num_cuts);
            t.prove = started.elapsed();
            plan
        }
        GoldenPolicy::DetectOnline(config) => {
            let started = Instant::now();
            let plan = detect_online(
                backend,
                &fragments,
                *config,
                options,
                &mut seeds,
                &mut detection,
                &mut t,
                tally,
            )?;
            t.detect = started.elapsed();
            plan
        }
        policy => resolve_static_policy(policy, &fragments.upstream, fragments.num_cuts)
            .ok_or("policy does not resolve statically")?,
    };

    let started = Instant::now();
    let sched = schedule_for_plan(&plan, allocation).map_err(|e| e.to_string())?;
    t.schedule = started.elapsed();

    let started = Instant::now();
    let mut graph = JobGraph::new();
    add_upstream_jobs(&mut graph, &fragments, &plan, &sched.upstream);
    add_downstream_jobs(&mut graph, &fragments, &plan, &sched.downstream);
    for (seed_circuit, counts) in seeds.values() {
        graph.seed_counts(seed_circuit, counts);
    }
    t.planner = started.elapsed();

    // Cache keys carry the fingerprint of the pool member placement picks.
    let fingerprint = backend.cache_fingerprint();
    let mut member_fingerprints: HashMap<u64, u64> = HashMap::new();
    if let Some(pool) = backend.as_pool() {
        let jobs: Vec<(&Circuit, u64)> = graph
            .node_jobs()
            .map(|(c, consumers)| (c, consumers.iter().map(|&(_, s)| s).max().unwrap_or(0)))
            .collect();
        let specs: Vec<JobSpec<'_>> = jobs.iter().map(|&(c, s)| JobSpec::new(c, s)).collect();
        let started = Instant::now();
        let placement = pool.place(&specs);
        t.place = started.elapsed();
        for (&(c, _), &member) in jobs.iter().zip(&placement.assignment) {
            let fp = match member {
                Some(m) => pool.member(m).cache_fingerprint(),
                None => pool.cache_fingerprint(),
            };
            member_fingerprints.insert(c.structural_hash(), fp);
        }
    }
    let key_for = |hash: u64| {
        let fp = member_fingerprints
            .get(&hash)
            .copied()
            .unwrap_or(fingerprint);
        CacheKey::new(hash, fp, ShotDiscipline::Multinomial)
    };

    if let Some(cache) = cache {
        let nodes: Vec<Circuit> = graph.node_jobs().map(|(c, _)| c.clone()).collect();
        for node in nodes {
            let key = key_for(node.structural_hash());
            let started = Instant::now();
            let hit = cache.lookup(&key, &node);
            t.lookups.push(started.elapsed());
            if let Some(counts) = hit {
                graph.seed_counts_from_cache(&node, &counts);
            }
        }
    }

    let mut grun = execute(&graph, backend, options, &mut t, tally)?;
    let upstream = grun.take_channel(Channel::UpstreamMeas);
    let downstream = grun.take_channel(Channel::DownstreamPrep);
    let gather = grun.stats;

    let mut stored = Vec::new();
    if let Some(cache) = cache {
        let mut seen: HashSet<u64> = HashSet::new();
        let mut store = |node: Circuit, counts: &Counts| {
            let hash = node.structural_hash();
            if seen.insert(hash) {
                let key = key_for(hash);
                let started = Instant::now();
                cache.store(&key, &node, counts);
                t.stores.push(started.elapsed());
                stored.push((key, node, counts.clone()));
            }
        };
        for setting in plan.all_meas_settings() {
            if let Some(counts) = upstream.get(&encode_meas(&setting)) {
                store(
                    build_upstream_circuit(&fragments.upstream, &setting),
                    counts,
                );
            }
        }
        for prep in plan.all_prep_settings() {
            if let Some(counts) = downstream.get(&encode_prep(&prep)) {
                store(
                    build_downstream_circuit(&fragments.downstream, &prep),
                    counts,
                );
            }
        }
        if cache.config().path.is_some() {
            cache.persist().map_err(|e| e.to_string())?;
        }
    }

    let data = FragmentData::from_counts(
        upstream,
        downstream,
        gather.simulated_device_time,
        gather.host_time,
    );
    let started = Instant::now();
    let up = upstream_tensor(&fragments.upstream, &plan, &data);
    t.upstream = started.elapsed();
    let started = Instant::now();
    let down = downstream_tensor(&fragments.downstream, &plan, &data);
    t.downstream = started.elapsed();
    let started = Instant::now();
    let raw = contract(&fragments, &plan, &up, &down);
    t.contract = started.elapsed();
    let started = Instant::now();
    let distribution = match options.postprocess {
        PostProcess::Raw => raw,
        PostProcess::ClipRenormalize => raw.clip_renormalize(),
        PostProcess::SimplexProjection => raw.project_to_simplex(),
    };
    t.postprocess = started.elapsed();

    let mut engine = detection.clone();
    engine.absorb(&gather);
    let counters = Counters {
        jobs_planned: engine.jobs_planned as u64,
        jobs_executed: engine.jobs_executed as u64,
        shots_requested: engine.shots_requested,
        detection_shots: detection.shots_executed,
        pilot_shots: 0,
        total_shots: gather.shots_executed,
        shots_saved: engine.shots_saved,
        cache_hits: engine.cache_hits,
        cache_shots_reused: engine.cache_shots_reused,
        shots_lost: engine.shots_lost,
        states_reused: engine.states_reused,
        gates_applied: engine.gates_applied,
        gates_saved: engine.gates_saved,
        reconstruction_terms: plan.all_recon_strings().len() as u64,
        neglected_bases: plan.neglected().iter().map(|n| n.len() as u64).sum(),
        device_seconds: engine.simulated_device_time.as_secs_f64(),
        jobs_per_member: engine.jobs_per_member.clone(),
    };
    Ok(StagedRun {
        distribution,
        counters,
        times: t,
        pool_parallel_ratio: engine.pool_parallel_ratio(),
        stored,
    })
}

/// One timed `JobGraph::execute_with` call.
fn execute(
    graph: &JobGraph,
    backend: &dyn Backend,
    options: &ExecutionOptions,
    t: &mut StageTimes,
    tally: &Tally,
) -> Result<GraphRun, String> {
    let device_before = tally.get().busy;
    let started = Instant::now();
    let run = graph
        .execute_with(backend, options.parallel, &options.retry)
        .map_err(|e| e.to_string());
    t.execute += started.elapsed();
    t.execute_device += tally.get().busy.saturating_sub(device_before);
    run
}

/// Sequential online detection per cut, as `CutExecutor::run` does it:
/// each undecided round executes the detector's settings as one engine
/// batch, and every measurement is kept in `seeds` for the gather.
#[allow(clippy::too_many_arguments)]
fn detect_online(
    backend: &dyn Backend,
    fragments: &Fragments,
    config: OnlineConfig,
    options: &ExecutionOptions,
    seeds: &mut Seeds,
    stats: &mut GraphStats,
    t: &mut StageTimes,
    tally: &Tally,
) -> Result<BasisPlan, String> {
    let num_cuts = fragments.num_cuts;
    let mut plan = BasisPlan::standard(num_cuts);
    for cut in 0..num_cuts {
        let mut detector = OnlineDetector::new(&fragments.upstream, cut, num_cuts, config);
        loop {
            match detector.verdict() {
                GoldenVerdict::Golden => {
                    plan.neglect(cut, config.candidate);
                    break;
                }
                GoldenVerdict::NotGolden => break,
                GoldenVerdict::Undecided => {
                    if detector.exhausted() {
                        return Err(format!("online detection undecided at cut {cut}"));
                    }
                    let settings = detector.required_settings();
                    let circuits: Vec<Circuit> = settings
                        .iter()
                        .map(|s| build_upstream_circuit(&fragments.upstream, s))
                        .collect();
                    let mut graph = JobGraph::new();
                    for (setting, circuit) in settings.iter().zip(&circuits) {
                        graph.add_job(
                            circuit.clone(),
                            (Channel::Detection, encode_meas(setting)),
                            config.batch_shots,
                        );
                    }
                    let mut grun = execute(&graph, backend, options, t, tally)?;
                    let mut batch = grun.take_channel(Channel::Detection);
                    stats.absorb(&grun.stats);
                    for (setting, circuit) in settings.iter().zip(circuits) {
                        let counts = batch
                            .remove(&encode_meas(setting))
                            .ok_or("a detection setting delivered no counts")?;
                        detector.feed(setting, &counts);
                        match seeds.entry(circuit.structural_hash()) {
                            Entry::Occupied(mut e) => {
                                let (stored, merged) = e.get_mut();
                                if *stored == circuit {
                                    merged.merge(&counts);
                                }
                            }
                            Entry::Vacant(e) => {
                                e.insert((circuit, counts));
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(plan)
}
