//! Pins the benchmark's instruments to the program they measure.
//!
//! * The timing decorator must not change a run: wrapped and unwrapped
//!   devices give bit-identical distributions and identical report
//!   counters on every workload.
//! * The staged pass must describe the same program as
//!   `CutExecutor::run`: same counters run after run, same distribution.
//! * A seed never used while tuning the benchmark still passes every
//!   per-run check, fixed counters included.
//!
//! Run with `cargo test --release` (the 19-qubit workload is slow
//! unoptimised).

use perfbench::staged;
use perfbench::timed::{Tally, TimedBackend};
use perfbench::workload::{check_run, Counters, Kind, Truths, Workload};
use qcut_core::pipeline::{CutExecutor, CutRun};
use qcut_stats::distribution::Distribution;

const SEED: u64 = 7;

/// Runs per workload: enough to pass one cycle of the sweep's base
/// circuits, so its later runs are served from the warm cache.
fn runs(kind: Kind) -> usize {
    match kind {
        Kind::WideRecon => 3,
        Kind::NoisyDetect => 6,
        Kind::SweepCache => 12,
    }
}

fn run(w: &Workload, i: usize) -> CutRun {
    let (circuit, cut) = w.inputs.get(i);
    CutExecutor::new(&*w.backend)
        .run(&circuit, &cut, w.policy.clone(), &w.options)
        .unwrap_or_else(|e| panic!("{} run {i}: {e}", w.kind.name()))
}

/// The counters two runs of the same program must share. On `sweep_cache`
/// the members' tier-2 fork-state caches evict in an order set by thread
/// interleaving, so the split of simulated gates between applied and saved,
/// and the states reused, vary between identical runs; their total does not.
fn comparable(kind: Kind, c: &Counters) -> Counters {
    let mut c = c.clone();
    if kind == Kind::SweepCache {
        c.gates_applied += c.gates_saved;
        c.gates_saved = 0;
        c.states_reused = 0;
    }
    c
}

/// Asserts two runs' distributions agree: bit for bit on the one-cut
/// workloads, to rounding on `sweep_cache`. Its three-cut reconstruction
/// sums over hash maps whose iteration order differs between two
/// instances of the same program, so even two unwrapped sweep runs differ
/// in the last bits.
fn assert_same(kind: Kind, a: &Distribution, b: &Distribution, what: &str) {
    if kind == Kind::SweepCache {
        let worst = a
            .values()
            .iter()
            .zip(b.values())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f64, f64::max);
        assert_eq!(a.dim(), b.dim(), "{what}");
        assert!(worst <= 1e-12, "{what}: distributions differ by {worst}");
    } else {
        let bits = |d: &Distribution| d.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert!(bits(a) == bits(b), "{what}: distributions differ");
    }
}

#[test]
fn timed_devices_leave_every_run_unchanged() {
    for kind in Kind::ALL {
        let plain = Workload::build(kind, SEED, None);
        let tally = Tally::default();
        let timed = Workload::build(kind, SEED, Some(&tally));
        for i in 0..runs(kind) {
            let (a, b) = (run(&plain, i), run(&timed, i));
            let what = format!("{} run {i}", kind.name());
            assert_same(kind, &a.distribution, &b.distribution, &what);
            assert_eq!(
                comparable(kind, &Counters::from(&a.report)),
                comparable(kind, &Counters::from(&b.report)),
                "{what}"
            );
            assert_eq!(a.report.diagnostics, b.report.diagnostics, "{what}");
        }
        let t = tally.get();
        assert!(
            t.jobs > 0 && t.shots > 0 && t.batches > 0,
            "{}",
            kind.name()
        );
    }
}

#[test]
fn a_timed_pool_keeps_its_pool_path() {
    // Wrapping the whole pool must forward `as_pool`: otherwise the engine
    // would fall back to the single-device path and silently drop
    // placement and per-member accounting.
    let kind = Kind::SweepCache;
    let plain = Workload::build(kind, SEED, None);
    let mut wrapped = Workload::build(kind, SEED, None);
    let tally = Tally::default();
    wrapped.backend = Box::new(TimedBackend::new(wrapped.backend, tally.clone()));
    for i in 0..runs(kind) {
        let (a, b) = (run(&plain, i), run(&wrapped, i));
        assert_eq!(a.report.jobs_per_member.len(), 2);
        assert_eq!(
            comparable(kind, &Counters::from(&a.report)),
            comparable(kind, &Counters::from(&b.report)),
            "run {i}"
        );
        assert_same(kind, &a.distribution, &b.distribution, &format!("run {i}"));
    }
    // The engine submits to the members directly, past the outer wrapper:
    // the reason the benchmark wraps each member instead.
    assert_eq!(tally.get().jobs, 0);
}

#[test]
fn staged_pass_reproduces_cut_executor_runs() {
    for kind in Kind::ALL {
        let plain = Workload::build(kind, SEED, None);
        let tally = Tally::default();
        let traced = Workload::build(kind, SEED, Some(&tally));
        for i in 0..runs(kind) {
            let expected = run(&plain, i);
            let (circuit, cut) = traced.inputs.get(i);
            let staged = staged::run(&traced, &circuit, &cut, &tally)
                .unwrap_or_else(|e| panic!("{} staged run {i}: {e}", kind.name()));
            let what = format!("{} run {i}", kind.name());
            assert_eq!(
                comparable(kind, &Counters::from(&expected.report)),
                comparable(kind, &staged.counters),
                "{what}"
            );
            assert_same(kind, &expected.distribution, &staged.distribution, &what);
            let t = &staged.times;
            assert!(t.execute >= t.execute_device, "{what}");
            let cache_calls = if kind == Kind::SweepCache { 72 } else { 0 };
            assert_eq!(t.lookups.len(), cache_calls, "{what}");
            assert_eq!(t.stores.len(), cache_calls, "{what}");
        }
    }
}

#[test]
fn a_held_out_seed_passes_every_per_run_check() {
    const HELD_OUT: u64 = 20_261_016;
    for kind in Kind::ALL {
        let w = Workload::build(kind, HELD_OUT, None);
        let truths = Truths::new(&w.inputs);
        let first = kind.warmup_runs();
        for i in 0..first {
            run(&w, i);
        }
        for i in first..first + runs(kind) {
            let outcome = check_run(kind, &run(&w, i), truths.get(i))
                .unwrap_or_else(|e| panic!("{} run {i}: {e}", kind.name()));
            if kind == Kind::SweepCache {
                // Upstream nodes are cache reads, downstream nodes fresh.
                assert_eq!(outcome.counters.cache_hits, 8);
                assert_eq!(outcome.counters.jobs_executed, 64);
            }
        }
    }
}
