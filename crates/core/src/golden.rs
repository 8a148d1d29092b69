//! Golden cutting point policies and detection.
//!
//! The paper (Definition 1) calls a cut *golden* when the eigenvalue-
//! weighted upstream coefficient of some basis vanishes identically:
//! `Σ_r r · tr(O_f1 ρ_f1(M^r)) = 0` for every reconstruction string `M`
//! carrying that basis at the cut. Three ways to obtain this knowledge are
//! implemented:
//!
//! * **A priori** — the paper's experimental setting ("we assumed the
//!   golden cutting point was known a priori", §III-B): the caller names
//!   the negligible bases.
//! * **Exact detection** — classically simulate the upstream fragment and
//!   test the coefficients against a tolerance. Free for fragments small
//!   enough to simulate, which is the regime circuit cutting targets.
//! * **Online detection** — the paper's §IV proposal: estimate the
//!   coefficients from sequential batches of real measurements and decide
//!   with a concentration bound (Hoeffding), without ever simulating.
//! * **Static proof** — the dataflow engine's symbolic route
//!   ([`crate::dataflow`]): propagate a stabilizer tableau through the
//!   upstream fragment and *prove* coefficients zero over GF(2), spending
//!   neither shots nor statevector memory.

use crate::basis::{encode_meas, BasisPlan, MeasBasis};
use crate::fragment::Fragment;
use crate::reconstruction::exact_upstream_tensor;
use qcut_math::{Pauli, TOL_GOLDEN};
use qcut_sim::counts::Counts;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// How the pipeline learns about golden cutting points.
#[derive(Debug, Clone, PartialEq)]
pub enum GoldenPolicy {
    /// Standard method: nothing is neglected (the paper's baseline
    /// \[18\]).
    Disabled,
    /// The paper's experiments: neglected bases are known from the circuit
    /// design. Pairs of `(cut index, basis)`.
    KnownAPriori(Vec<(usize, Pauli)>),
    /// Detect negligible bases by exact upstream simulation before running
    /// any hardware job.
    DetectExact {
        /// Coefficients below this are treated as zero.
        tolerance: f64,
    },
    /// Detect negligible bases online from measurement batches
    /// (paper §IV).
    DetectOnline(OnlineConfig),
    /// Prove negligible bases symbolically with the stabilizer-domain
    /// dataflow engine ([`crate::dataflow::proven_plan`]) — zero detection
    /// shots, zero simulation. Complete on Clifford upstream fragments;
    /// sound (possibly conservative) everywhere else.
    ProveStatic,
}

impl GoldenPolicy {
    /// The paper's default exact detector.
    pub fn detect_exact() -> Self {
        GoldenPolicy::DetectExact {
            tolerance: TOL_GOLDEN,
        }
    }
}

/// Exact golden-point detector.
#[derive(Debug, Clone, Copy)]
pub struct ExactDetector {
    /// Coefficients below this are treated as zero.
    pub tolerance: f64,
}

impl Default for ExactDetector {
    fn default() -> Self {
        ExactDetector {
            tolerance: TOL_GOLDEN,
        }
    }
}

impl ExactDetector {
    /// Simulates the upstream fragment and returns the plan with every
    /// detected negligible basis removed. At most two bases per cut are
    /// neglected (one basis must survive to provide the identity
    /// marginal).
    pub fn detect(&self, upstream: &Fragment, num_cuts: usize) -> BasisPlan {
        let standard = BasisPlan::standard(num_cuts);
        let tensor = exact_upstream_tensor(upstream, &standard);
        let strings = standard.all_recon_strings();
        let mut plan = BasisPlan::standard(num_cuts);
        for cut in 0..num_cuts {
            let mut neglected = 0;
            // Prefer Y (the paper's designed case), then X, then Z.
            for candidate in [Pauli::Y, Pauli::X, Pauli::Z] {
                if neglected == 2 {
                    break;
                }
                let worst = strings
                    .iter()
                    .filter(|m| m[cut] == candidate)
                    .map(|m| tensor.max_abs(m))
                    .fold(0.0f64, f64::max);
                if worst < self.tolerance {
                    plan.neglect(cut, candidate);
                    neglected += 1;
                }
            }
        }
        plan
    }
}

/// Configuration for the online detector.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OnlineConfig {
    /// The basis under test (the paper's ansatz makes Y the candidate).
    pub candidate: Pauli,
    /// Accept "golden" when every coefficient is provably below this.
    pub epsilon: f64,
    /// Confidence parameter: each bound holds with probability `1 − delta`.
    pub delta: f64,
    /// Shots per sequential batch.
    pub batch_shots: u64,
    /// Give up (verdict [`GoldenVerdict::Undecided`]) after this many
    /// shots per setting.
    pub max_shots: u64,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig {
            candidate: Pauli::Y,
            epsilon: 0.05,
            delta: 0.01,
            batch_shots: 500,
            max_shots: 20_000,
        }
    }
}

/// Outcome of the sequential test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GoldenVerdict {
    /// All coefficients provably below epsilon: neglect the basis.
    Golden,
    /// Some coefficient provably above epsilon: keep the basis.
    NotGolden,
    /// Not enough shots to decide either way.
    Undecided,
}

/// Sequential empirical detector for one cut (paper §IV).
///
/// Feed it upstream counts for the settings it requires
/// ([`OnlineDetector::required_settings`]); it maintains running coefficient
/// estimates and decides once the Hoeffding interval separates every
/// estimate from (or some estimate beyond) the epsilon threshold.
#[derive(Debug, Clone)]
pub struct OnlineDetector {
    config: OnlineConfig,
    cut: usize,
    num_cuts: usize,
    output_locals: Vec<usize>,
    cut_ports: Vec<usize>,
    /// The required settings and their keys, built once.
    settings: Vec<(Vec<MeasBasis>, u64)>,
    /// Accumulated counts per required setting key.
    data: HashMap<u64, Counts>,
}

impl OnlineDetector {
    /// A detector for cut `cut` of an upstream fragment with `num_cuts`
    /// cuts.
    pub fn new(upstream: &Fragment, cut: usize, num_cuts: usize, config: OnlineConfig) -> Self {
        assert!(cut < num_cuts, "cut index out of range");
        assert_ne!(config.candidate, Pauli::I, "cannot test the identity");
        // Candidate at this cut, all basis combinations elsewhere.
        let mut settings = vec![Vec::new()];
        for k in 0..num_cuts {
            let options: Vec<MeasBasis> = if k == cut {
                vec![MeasBasis::for_pauli(config.candidate)]
            } else {
                MeasBasis::ALL.to_vec()
            };
            let mut next = Vec::with_capacity(settings.len() * options.len());
            for prefix in &settings {
                for &o in &options {
                    let mut s: Vec<MeasBasis> = prefix.clone();
                    s.push(o);
                    next.push(s);
                }
            }
            settings = next;
        }
        OnlineDetector {
            config,
            cut,
            num_cuts,
            output_locals: upstream.output_locals.clone(),
            cut_ports: upstream.cut_ports.clone(),
            settings: settings
                .into_iter()
                .map(|s| {
                    let key = encode_meas(&s);
                    (s, key)
                })
                .collect(),
            data: HashMap::new(),
        }
    }

    /// The measurement settings whose data the verdict needs: candidate at
    /// this cut, all basis combinations elsewhere (`3^{K-1}` settings).
    pub fn required_settings(&self) -> Vec<Vec<MeasBasis>> {
        self.settings.iter().map(|(s, _)| s.clone()).collect()
    }

    /// Accumulates a batch of counts for one setting.
    pub fn feed(&mut self, setting: &[MeasBasis], counts: &Counts) {
        let key = encode_meas(setting);
        self.data
            .entry(key)
            .and_modify(|c| c.merge(counts))
            .or_insert_with(|| counts.clone());
    }

    /// Total shots accumulated on the least-covered required setting.
    pub fn min_shots(&self) -> u64 {
        self.settings
            .iter()
            .map(|(_, key)| self.data.get(key).map_or(0, Counts::total))
            .min()
            .unwrap_or(0)
    }

    /// The current verdict.
    pub fn verdict(&self) -> GoldenVerdict {
        // Need data on every setting first.
        if self.min_shots() == 0 {
            return GoldenVerdict::Undecided;
        }

        // Signed counts per b1 for one string: integers, so the estimate
        // does not depend on the order the histogram iterates in.
        let mut acc = vec![0i64; 1 << self.output_locals.len()];
        let mut all_provably_small = true;
        for (setting, key) in &self.settings {
            let counts = &self.data[key];
            let n = counts.total();
            // Each coefficient is a mean of ±1-bounded per-shot values.
            let eps_n = qcut_stats::bounds::hoeffding_epsilon(n, self.config.delta, -1.0, 1.0);
            let joint = counts.split(&self.output_locals, &self.cut_ports);
            let total = n as f64;

            // Enumerate M strings measurable from this setting with the
            // candidate at the tested cut: M_j ∈ {setting_j, I} for j ≠ cut.
            let free: Vec<usize> = (0..self.num_cuts).filter(|&k| k != self.cut).collect();
            for subset in 0..(1usize << free.len()) {
                let mut m: Vec<Pauli> = setting.iter().map(|b| b.pauli()).collect();
                m[self.cut] = self.config.candidate;
                for (i, &k) in free.iter().enumerate() {
                    if (subset >> i) & 1 == 1 {
                        m[k] = Pauli::I;
                    }
                }
                // Estimate A[M][b1] for every b1. An unobserved b1 reads
                // 0, which decides nothing an observed one does not.
                acc.fill(0);
                for (&(b1, rbits), &cnt) in &joint {
                    let mut sign = 1;
                    for (k, &pauli) in m.iter().enumerate() {
                        if pauli != Pauli::I && (rbits >> k) & 1 == 1 {
                            sign = -sign;
                        }
                    }
                    acc[b1 as usize] += sign * cnt as i64;
                }
                for &signed in &acc {
                    let a = signed as f64 / total;
                    if a.abs() - eps_n > self.config.epsilon {
                        return GoldenVerdict::NotGolden;
                    }
                    if a.abs() + eps_n > self.config.epsilon {
                        all_provably_small = false;
                    }
                }
            }
        }
        if all_provably_small {
            GoldenVerdict::Golden
        } else {
            GoldenVerdict::Undecided
        }
    }

    /// Whether the shot budget is exhausted.
    pub fn exhausted(&self) -> bool {
        self.min_shots() >= self.config.max_shots
    }

    /// The configuration.
    pub fn config(&self) -> &OnlineConfig {
        &self.config
    }
}

/// Resolves a [`GoldenPolicy`] into a concrete [`BasisPlan`] without
/// touching a backend (the online variant is resolved by the pipeline,
/// which owns backend access).
pub fn resolve_static_policy(
    policy: &GoldenPolicy,
    upstream: &Fragment,
    num_cuts: usize,
) -> Option<BasisPlan> {
    match policy {
        GoldenPolicy::Disabled => Some(BasisPlan::standard(num_cuts)),
        GoldenPolicy::KnownAPriori(pairs) => {
            let mut plan = BasisPlan::standard(num_cuts);
            for &(cut, basis) in pairs {
                assert!(cut < num_cuts, "cut index {cut} out of range");
                plan.neglect(cut, basis);
            }
            Some(plan)
        }
        GoldenPolicy::DetectExact { tolerance } => {
            let detector = ExactDetector {
                tolerance: *tolerance,
            };
            Some(detector.detect(upstream, num_cuts))
        }
        GoldenPolicy::DetectOnline(_) => None,
        GoldenPolicy::ProveStatic => Some(crate::dataflow::proven_plan(upstream, num_cuts)),
    }
}

/// Test helper shared with the pipeline: simulate one upstream setting and
/// sample counts from it (what a backend run of the variant would return).
pub fn simulate_upstream_setting(
    upstream: &Fragment,
    setting: &[MeasBasis],
    shots: u64,
    seed: u64,
) -> Counts {
    use crate::tomography::build_upstream_circuit;
    use qcut_sim::statevector::StateVector;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let circuit = build_upstream_circuit(upstream, setting);
    let sv = StateVector::from_circuit(&circuit);
    let mut rng = StdRng::seed_from_u64(seed);
    sv.sample(shots, &mut rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::Fragmenter;
    use qcut_circuit::ansatz::{GoldenAnsatz, MultiCutAnsatz};
    use qcut_circuit::circuit::Circuit;
    use qcut_circuit::cut::CutSpec;

    fn golden_fragment(seed: u64) -> Fragment {
        let (c, spec) = GoldenAnsatz::new(5, seed).build();
        Fragmenter::fragment(&c, &spec).unwrap().upstream
    }

    fn non_golden_fragment() -> Fragment {
        // RX rotations give the cut qubit a Y component; the trailing RZ
        // mixes it into X as well, so no basis is negligible. (Without the
        // RZ, the X coefficients of this family vanish identically — a
        // accidental golden point that tripped an earlier version of this
        // test.)
        let mut c = Circuit::new(3);
        c.rx(1.1, 0).rx(0.9, 1).cx(0, 1).rz(0.8, 1).cx(1, 2);
        let spec = CutSpec::single(1, 2);
        Fragmenter::fragment(&c, &spec).unwrap().upstream
    }

    #[test]
    fn exact_detector_finds_designed_golden_point() {
        for seed in 0..5 {
            let frag = golden_fragment(seed);
            let plan = ExactDetector::default().detect(&frag, 1);
            assert!(
                plan.neglected()[0].contains(&Pauli::Y),
                "seed {seed}: Y not detected as negligible"
            );
        }
    }

    #[test]
    fn exact_detector_rejects_non_golden_circuit() {
        let plan = ExactDetector::default().detect(&non_golden_fragment(), 1);
        assert!(
            plan.neglected()[0].is_empty(),
            "found a golden point where none exists: {:?}",
            plan.neglected()
        );
    }

    #[test]
    fn exact_detector_multi_cut() {
        let (c, spec) = MultiCutAnsatz::new(2, 9).build();
        let frags = Fragmenter::fragment(&c, &spec).unwrap();
        let plan = ExactDetector::default().detect(&frags.upstream, 2);
        for k in 0..2 {
            assert!(
                plan.neglected()[k].contains(&Pauli::Y),
                "cut {k} not detected golden: {:?}",
                plan.neglected()
            );
        }
    }

    #[test]
    fn exact_detector_caps_at_two_bases() {
        // A |0> cut qubit makes X and Y negligible; Z must survive.
        let mut c = Circuit::new(2);
        c.h(1).h(1); // identity on the cut wire, but keeps it active
        c.cx(1, 0); // hmm: wire 1 feeds the cut
        let spec = CutSpec::single(1, 1);
        // rebuild: upstream is h,h on qubit 1; downstream cx(1,0).
        let frags = Fragmenter::fragment(&c, &spec).unwrap();
        let plan = ExactDetector::default().detect(&frags.upstream, 1);
        let neglected = &plan.neglected()[0];
        assert!(neglected.contains(&Pauli::X));
        assert!(neglected.contains(&Pauli::Y));
        assert!(!neglected.contains(&Pauli::Z));
    }

    #[test]
    fn resolve_static_policies() {
        let frag = golden_fragment(0);
        let disabled = resolve_static_policy(&GoldenPolicy::Disabled, &frag, 1).unwrap();
        assert_eq!(disabled.num_golden(), 0);
        let known =
            resolve_static_policy(&GoldenPolicy::KnownAPriori(vec![(0, Pauli::Y)]), &frag, 1)
                .unwrap();
        assert_eq!(known.num_golden(), 1);
        let exact = resolve_static_policy(&GoldenPolicy::detect_exact(), &frag, 1).unwrap();
        assert!(exact.neglected()[0].contains(&Pauli::Y));
        // The static prover resolves without a backend too; on the (real
        // but non-Clifford) golden ansatz it still proves Y via the
        // real-component argument.
        let proven = resolve_static_policy(&GoldenPolicy::ProveStatic, &frag, 1).unwrap();
        assert!(proven.neglected()[0].contains(&Pauli::Y));
        assert!(resolve_static_policy(
            &GoldenPolicy::DetectOnline(OnlineConfig::default()),
            &frag,
            1
        )
        .is_none());
    }

    #[test]
    fn online_detector_accepts_golden_circuit() {
        let frag = golden_fragment(1);
        let config = OnlineConfig {
            epsilon: 0.08,
            batch_shots: 2000,
            ..OnlineConfig::default()
        };
        let mut det = OnlineDetector::new(&frag, 0, 1, config);
        assert_eq!(det.verdict(), GoldenVerdict::Undecided);
        let mut seed = 0;
        while det.verdict() == GoldenVerdict::Undecided && !det.exhausted() {
            for setting in det.required_settings() {
                let counts =
                    simulate_upstream_setting(&frag, &setting, config.batch_shots, 1000 + seed);
                det.feed(&setting, &counts);
                seed += 1;
            }
        }
        assert_eq!(det.verdict(), GoldenVerdict::Golden);
    }

    #[test]
    fn online_detector_rejects_informative_basis() {
        let frag = non_golden_fragment();
        let config = OnlineConfig {
            epsilon: 0.05,
            batch_shots: 2000,
            ..OnlineConfig::default()
        };
        let mut det = OnlineDetector::new(&frag, 0, 1, config);
        let mut seed = 0;
        while det.verdict() == GoldenVerdict::Undecided && !det.exhausted() {
            for setting in det.required_settings() {
                let counts =
                    simulate_upstream_setting(&frag, &setting, config.batch_shots, 2000 + seed);
                det.feed(&setting, &counts);
                seed += 1;
            }
        }
        assert_eq!(det.verdict(), GoldenVerdict::NotGolden);
    }

    #[test]
    fn online_detector_needs_all_settings_for_multi_cut() {
        let (c, spec) = MultiCutAnsatz::new(2, 4).build();
        let frags = Fragmenter::fragment(&c, &spec).unwrap();
        let det = OnlineDetector::new(&frags.upstream, 0, 2, OnlineConfig::default());
        let settings = det.required_settings();
        assert_eq!(settings.len(), 3); // Y fixed at cut 0, {X,Y,Z} at cut 1
        for s in &settings {
            assert_eq!(s[0], MeasBasis::Y);
        }
    }

    #[test]
    fn online_detector_min_shots_tracks_coverage() {
        let frag = golden_fragment(2);
        let mut det = OnlineDetector::new(&frag, 0, 1, OnlineConfig::default());
        assert_eq!(det.min_shots(), 0);
        let setting = det.required_settings()[0].clone();
        let counts = simulate_upstream_setting(&frag, &setting, 300, 5);
        det.feed(&setting, &counts);
        assert_eq!(det.min_shots(), 300);
    }
}
