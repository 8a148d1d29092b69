//! The three named workloads: inputs made from a seed, the backend set-up,
//! and the checks every run's output must pass.

use crate::timed::{Tally, TimedBackend};
use qcut_cache::{CacheConfig, WarmCache};
use qcut_circuit::ansatz::{GoldenAnsatz, MultiCutAnsatz};
use qcut_circuit::circuit::Circuit;
use qcut_circuit::cut::CutSpec;
use qcut_core::golden::{GoldenPolicy, OnlineConfig};
use qcut_core::pipeline::{CutRun, ExecutionOptions};
use qcut_core::report::RunReport;
use qcut_device::backend::{mix_seed, Backend};
use qcut_device::ideal::IdealBackend;
use qcut_device::pool::{BackendPool, PlacementPolicy};
use qcut_device::presets;
use qcut_device::timing::TimingModel;
use qcut_math::Pauli;
use qcut_sim::statevector::StateVector;
use qcut_stats::distribution::Distribution;
use std::sync::Arc;

/// Shots per tomography setting on every workload.
const SHOTS_PER_SETTING: u64 = 1000;

/// The warm cache's byte budget on `sweep_cache`.
pub const SWEEP_CACHE_BUDGET: u64 = 1 << 20;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Wide `GoldenAnsatz` on an ideal backend: reconstruction dominates.
    WideRecon,
    /// Narrow `GoldenAnsatz` on a noisy 7-qubit device with online
    /// golden detection: density-matrix simulation and detection dominate.
    NoisyDetect,
    /// A variational sweep on a two-member pool with the warm cache.
    SweepCache,
}

impl Kind {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Kind; 3] = [Kind::WideRecon, Kind::NoisyDetect, Kind::SweepCache];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::WideRecon => "wide_recon",
            Kind::NoisyDetect => "noisy_detect",
            Kind::SweepCache => "sweep_cache",
        }
    }

    /// Runs before timing starts. On `sweep_cache` this runs past the
    /// point where the cache reaches its byte budget and starts evicting.
    pub fn warmup_runs(self) -> usize {
        match self {
            Kind::WideRecon => 16,
            Kind::NoisyDetect => 32,
            Kind::SweepCache => 160,
        }
    }

    /// Runs in the fixed verification pass: the first runs after warm-up,
    /// one or two full cycles of the workload's circuits. Their outputs
    /// depend only on the seed.
    pub fn verification_runs(self) -> usize {
        match self {
            Kind::WideRecon => 16,
            Kind::NoisyDetect => 32,
            Kind::SweepCache => 16,
        }
    }

    /// A run fails its check when its distance from the exact distribution
    /// reaches this bound.
    pub fn tvd_bound(self) -> f64 {
        match self {
            Kind::WideRecon => 0.5,
            Kind::NoisyDetect => 0.4,
            Kind::SweepCache => 0.2,
        }
    }

    /// Counters every run after warm-up must show, whatever the seed.
    pub fn check_counters(self, c: &Counters) -> Result<(), String> {
        let expect = |what: &str, got: u64, want: u64| {
            if got == want {
                Ok(())
            } else {
                Err(format!("{what} = {got}, expected {want}"))
            }
        };
        match self {
            Kind::WideRecon => {
                expect("jobs_executed", c.jobs_executed, 6)?;
                expect("total_shots", c.total_shots, 6 * SHOTS_PER_SETTING)?;
                expect("reconstruction_terms", c.reconstruction_terms, 3)
            }
            Kind::NoisyDetect => {
                expect("neglected_bases", c.neglected_bases, 1)?;
                expect("reconstruction_terms", c.reconstruction_terms, 3)
            }
            Kind::SweepCache => {
                expect("jobs_planned", c.jobs_planned, 72)?;
                expect("jobs_executed", c.jobs_executed, 64)?;
                expect("cache_hits", c.cache_hits, 8)?;
                expect("reconstruction_terms", c.reconstruction_terms, 27)
            }
        }
    }
}

/// The counters of one run, read from a [`RunReport`] or assembled by the
/// staged pass.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Counters {
    /// Jobs registered on the engine.
    pub jobs_planned: u64,
    /// Jobs the engine submitted.
    pub jobs_executed: u64,
    /// Shots requested before dedup and reuse.
    pub shots_requested: u64,
    /// Online-detection shots.
    pub detection_shots: u64,
    /// Adaptive pilot shots.
    pub pilot_shots: u64,
    /// Fresh gather shots.
    pub total_shots: u64,
    /// Shots saved by dedup and same-run reuse.
    pub shots_saved: u64,
    /// Nodes served from the warm cache.
    pub cache_hits: u64,
    /// Shots served from the warm cache.
    pub cache_shots_reused: u64,
    /// Shots of permanently failed nodes.
    pub shots_lost: u64,
    /// Fork states served from the tier-2 state cache.
    pub states_reused: u64,
    /// Gate applications simulated.
    pub gates_applied: u64,
    /// Gate applications prefix sharing saved.
    pub gates_saved: u64,
    /// Terms in the reconstruction contraction.
    pub reconstruction_terms: u64,
    /// Bases neglected, summed over cuts.
    pub neglected_bases: u64,
    /// Simulated device seconds.
    pub device_seconds: f64,
    /// Jobs each pool member delivered (empty off a pool).
    pub jobs_per_member: Vec<u64>,
}

impl Counters {
    /// Device shots of the run: detection + pilot + gather (Fig. 5).
    pub fn shots(&self) -> u64 {
        self.detection_shots + self.pilot_shots + self.total_shots
    }

    /// The shot-accounting invariant of [`RunReport::shots_requested`].
    pub fn check_invariant(&self) -> Result<(), String> {
        let accounted = self.detection_shots
            + self.pilot_shots
            + self.total_shots
            + self.shots_saved
            + self.cache_shots_reused
            + self.shots_lost;
        if accounted == self.shots_requested {
            Ok(())
        } else {
            Err(format!(
                "shot accounting: requested {} but detection + pilot + total + saved + \
                 cache + lost = {accounted}",
                self.shots_requested
            ))
        }
    }
}

impl From<&RunReport> for Counters {
    fn from(r: &RunReport) -> Self {
        Counters {
            jobs_planned: r.jobs_planned as u64,
            jobs_executed: r.jobs_executed as u64,
            shots_requested: r.shots_requested,
            detection_shots: r.detection_shots,
            pilot_shots: r.pilot_shots,
            total_shots: r.total_shots,
            shots_saved: r.shots_saved,
            cache_hits: r.cache_hits,
            cache_shots_reused: r.cache_shots_reused,
            shots_lost: r.shots_lost,
            states_reused: r.states_reused,
            gates_applied: r.gates_applied,
            gates_saved: r.gates_saved,
            reconstruction_terms: r.reconstruction_terms as u64,
            neglected_bases: r.neglected.iter().map(|n| n.len() as u64).sum(),
            device_seconds: r.simulated_device_seconds,
            jobs_per_member: r.jobs_per_member.clone(),
        }
    }
}

/// What one checked run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The run's counters.
    pub counters: Counters,
    /// Total variation distance from the exact distribution.
    pub tvd: f64,
}

/// The circuits a workload cycles through, made from the seed alone.
pub struct Inputs {
    kind: Kind,
    circuits: Vec<(Circuit, CutSpec)>,
}

impl Inputs {
    /// The workload's circuits for `seed`.
    pub fn new(kind: Kind, seed: u64) -> Self {
        let circuits = match kind {
            Kind::WideRecon => (0..16)
                .map(|j| GoldenAnsatz::new(19, mix_seed(seed, j)).build())
                .collect(),
            Kind::NoisyDetect => (0..32)
                .map(|j| GoldenAnsatz::new(7, mix_seed(seed, j)).build())
                .collect(),
            Kind::SweepCache => (0..8)
                .map(|j| MultiCutAnsatz::new(3, mix_seed(seed, j)).build())
                .collect(),
        };
        Inputs { kind, circuits }
    }

    /// How many circuits the workload cycles through: run `i` is given
    /// circuit `i % cycle()`.
    pub fn cycle(&self) -> usize {
        self.circuits.len()
    }

    /// The circuit and cut of run `i` (warm-up runs included). The sweep
    /// appends `rz(θ_i)` on its downstream-only last qubit, with
    /// `θ_i = 0.1 + 0.618034·i`, so no two runs share a downstream circuit
    /// while each base circuit's upstream fragment recurs every cycle.
    pub fn get(&self, i: usize) -> (Circuit, CutSpec) {
        let (circuit, cut) = &self.circuits[i % self.circuits.len()];
        let mut circuit = circuit.clone();
        if self.kind == Kind::SweepCache {
            let last = circuit.num_qubits() - 1;
            circuit.rz(0.1 + 0.618034 * i as f64, last);
        }
        (circuit, cut.clone())
    }
}

/// The exact output distribution of one circuit, held in `f32` so that
/// sixteen 19-qubit truths take 32 MiB (the distance it feeds is accurate
/// to ~1e-7).
pub struct Truth(Vec<f32>);

impl Truth {
    /// Simulates `circuit` exactly.
    pub fn of(circuit: &Circuit) -> Self {
        let sv = StateVector::from_circuit(circuit);
        Truth(sv.probabilities().into_iter().map(|p| p as f32).collect())
    }

    /// Number of bits of the distribution.
    pub fn num_bits(&self) -> usize {
        self.0.len().trailing_zeros() as usize
    }

    /// Total variation distance from `d`, which must have the same length.
    pub fn tvd(&self, d: &Distribution) -> f64 {
        0.5 * d
            .values()
            .iter()
            .zip(&self.0)
            .map(|(&p, &q)| (p - f64::from(q)).abs())
            .sum::<f64>()
    }
}

/// The exact distributions a workload's runs are checked against.
pub struct Truths(Vec<Truth>);

impl Truths {
    /// Computes the exact distribution of every base circuit.
    pub fn new(inputs: &Inputs) -> Self {
        Truths(inputs.circuits.iter().map(|(c, _)| Truth::of(c)).collect())
    }

    /// The exact distribution for run `i`. The sweep's trailing `rz` is
    /// diagonal, so it leaves the base circuit's distribution unchanged.
    pub fn get(&self, i: usize) -> &Truth {
        &self.0[i % self.0.len()]
    }
}

/// Online detection on `noisy_detect`: the default test with a higher
/// shot cap. The device's asymmetric readout error biases the estimated Y
/// coefficients by up to ~0.015, so under the default 20 000-shot cap about
/// one run in a thousand ends undecided; the higher cap lets those runs
/// decide and leaves every other run unchanged.
pub fn detection_config() -> OnlineConfig {
    OnlineConfig {
        max_shots: 60_000,
        ..OnlineConfig::default()
    }
}

/// A built workload: backend, options and policy, ready to run.
pub struct Workload {
    /// Which workload.
    pub kind: Kind,
    /// The circuits it cycles through.
    pub inputs: Inputs,
    /// The backend every run executes on.
    pub backend: Box<dyn Backend>,
    /// Options of every run (never sets `parallel`).
    pub options: ExecutionOptions,
    /// Golden policy of every run.
    pub policy: GoldenPolicy,
}

impl Workload {
    /// Builds the workload for `seed`. With a `tally`, every device is
    /// wrapped in a [`TimedBackend`] recording into it; pool members are
    /// wrapped one by one so the engine's pool path stays in use.
    pub fn build(kind: Kind, seed: u64, tally: Option<&Tally>) -> Self {
        fn device<B: Backend + 'static>(b: B, tally: Option<&Tally>) -> Box<dyn Backend> {
            match tally {
                Some(t) => Box::new(TimedBackend::new(b, t.clone())),
                None => Box::new(b),
            }
        }
        let backend_seed = mix_seed(seed, 1 << 32);
        let mut options = ExecutionOptions {
            shots_per_setting: SHOTS_PER_SETTING,
            ..Default::default()
        };
        let (backend, policy) = match kind {
            Kind::WideRecon => (
                device(
                    IdealBackend::new(backend_seed).with_timing(TimingModel::ibm_like()),
                    tally,
                ),
                GoldenPolicy::KnownAPriori(vec![(0, Pauli::Y)]),
            ),
            Kind::NoisyDetect => (
                device(presets::ibm_7q(backend_seed), tally),
                GoldenPolicy::DetectOnline(detection_config()),
            ),
            Kind::SweepCache => {
                let member = |j: u64| {
                    device(
                        IdealBackend::new(mix_seed(backend_seed, j))
                            .with_timing(TimingModel::ibm_like())
                            .with_state_reuse(64),
                        tally,
                    )
                };
                let pool = BackendPool::new(PlacementPolicy::RoundRobin)
                    .with_member(member(0))
                    .with_member(member(1));
                options.cache = Some(Arc::new(WarmCache::open(
                    CacheConfig::in_memory().with_byte_budget(SWEEP_CACHE_BUDGET),
                )));
                (
                    Box::new(pool) as Box<dyn Backend>,
                    GoldenPolicy::ProveStatic,
                )
            }
        };
        Workload {
            kind,
            inputs: Inputs::new(kind, seed),
            backend,
            options,
            policy,
        }
    }

    /// The warm cache, on workloads that have one.
    pub fn cache(&self) -> Option<&WarmCache> {
        self.options.cache.as_deref()
    }
}

/// Checks one run's output: a distribution of length `2^n` summing to 1,
/// the shot-accounting invariant, the workload's fixed counters, and a
/// distance from `truth` under the workload's bound.
pub fn check(
    kind: Kind,
    distribution: &Distribution,
    counters: &Counters,
    truth: &Truth,
) -> Result<Outcome, String> {
    let n = truth.num_bits();
    if distribution.num_bits() != n || distribution.values().len() != 1usize << n {
        return Err(format!(
            "distribution has {} entries, expected 2^{n}",
            distribution.values().len()
        ));
    }
    let mass = distribution.total_mass();
    if !mass.is_finite() || (mass - 1.0).abs() > 1e-9 {
        return Err(format!("distribution sums to {mass}"));
    }
    counters.check_invariant()?;
    kind.check_counters(counters)?;
    let tvd = truth.tvd(distribution);
    if tvd.is_nan() || tvd >= kind.tvd_bound() {
        return Err(format!(
            "distance from the exact distribution {tvd} is not under {}",
            kind.tvd_bound()
        ));
    }
    Ok(Outcome {
        counters: counters.clone(),
        tvd,
    })
}

/// [`check`] applied to a [`CutRun`].
pub fn check_run(kind: Kind, run: &CutRun, truth: &Truth) -> Result<Outcome, String> {
    check(kind, &run.distribution, &Counters::from(&run.report), truth)
}
