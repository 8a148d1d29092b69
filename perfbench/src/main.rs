//! The benchmark command.
//!
//! ```text
//! perfbench --workload <wide_recon|noisy_detect|sweep_cache> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` is a closed loop of one client issuing `CutExecutor::run`
//! back to back for `--seconds`, and reports the end-to-end metrics.
//! `--trace 1` times a short untraced loop, then drives the same workload
//! through the staged pass (`perfbench::staged`) and reports the
//! per-layer metrics. Every run's output is checked; the last line of
//! standard output is the JSON result.

use perfbench::report::{
    mean, median, median_ms, peak_rss_mb, per_input_medians, result_json, tail, Metric, Provenance,
};
use perfbench::staged::{self, StageTimes};
use perfbench::timed::{DeviceTally, Tally};
use perfbench::workload::{check, check_run, Counters, Inputs, Kind, Outcome, Truths, Workload};
use qcut_cache::{CacheConfig, CacheKey, WarmCache};
use qcut_circuit::circuit::Circuit;
use qcut_core::pipeline::CutExecutor;
use qcut_sim::counts::Counts;
use std::collections::VecDeque;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// Persist and open repetitions behind `cache.persist_ms` / `cache.open_ms`.
const CACHE_IO_REPEATS: usize = 5;

/// Command-line arguments.
struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut kind = None;
        let mut seed = 1;
        let mut seconds: f64 = 10.0;
        let mut trace = false;
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    kind = Some(Kind::parse(&value).ok_or_else(|| {
                        format!("unknown workload {value}; expected wide_recon, noisy_detect or sweep_cache")
                    })?);
                }
                "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
                "--seconds" => {
                    seconds = value
                        .parse()
                        .map_err(|e| format!("--seconds {value}: {e}"))?;
                    if !seconds.is_finite() || seconds <= 0.0 {
                        return Err("--seconds must be positive".to_string());
                    }
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            kind: kind.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
        })
    }
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let prov = Provenance::collect(args.seed);
    println!(
        "perfbench workload={} trace={} seconds={}",
        args.kind.name(),
        u8::from(args.trace),
        args.seconds
    );
    println!("provenance {}", prov.to_json());
    let result = if args.trace {
        traced(&args)
    } else {
        end_to_end(&args)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// Tallies of one checked loop.
#[derive(Default)]
struct Loop {
    attempted: usize,
    failed: usize,
    /// Wall milliseconds of every run, failed ones included.
    run_ms: Vec<f64>,
    /// The input (index into the workload's cycle) each run was given.
    run_input: Vec<usize>,
    /// Loop wall time with input building and output checks left out.
    wall: Duration,
    /// The first `verification_runs` outcomes (`None` for a failed run).
    verification: Vec<Option<Outcome>>,
    /// Largest distance from the exact distribution over checked runs.
    tvd_max: f64,
}

impl Loop {
    fn record(
        &mut self,
        kind: Kind,
        input: usize,
        elapsed: Duration,
        outcome: Result<Outcome, String>,
    ) {
        self.attempted += 1;
        self.run_ms.push(elapsed.as_secs_f64() * 1e3);
        self.run_input.push(input);
        let outcome = match outcome {
            Ok(o) => {
                self.tvd_max = self.tvd_max.max(o.tvd);
                Some(o)
            }
            Err(e) => {
                self.failed += 1;
                eprintln!("run {} failed its check: {e}", self.attempted);
                None
            }
        };
        if self.verification.len() < kind.verification_runs() {
            self.verification.push(outcome);
        }
    }

    fn done(&self, kind: Kind, started: Instant, paused: Duration, seconds: f64) -> bool {
        self.verification.len() >= kind.verification_runs()
            && started.elapsed().saturating_sub(paused).as_secs_f64() >= seconds
    }

    fn verified(&self) -> Vec<&Outcome> {
        self.verification.iter().flatten().collect()
    }
}

/// Runs the workload's warm-up through `CutExecutor::run`.
fn warm_up(w: &Workload) -> Result<(), String> {
    let exec = CutExecutor::new(&*w.backend);
    for i in 0..w.kind.warmup_runs() {
        let (circuit, cut) = w.inputs.get(i);
        exec.run(&circuit, &cut, w.policy.clone(), &w.options)
            .map_err(|e| format!("warm-up run {i}: {e}"))?;
    }
    Ok(())
}

/// The closed loop over `CutExecutor::run`, for at least `seconds` of
/// loop time and at least the verification pass.
fn run_loop(w: &Workload, truths: &Truths, seconds: f64) -> Loop {
    let exec = CutExecutor::new(&*w.backend);
    let mut out = Loop::default();
    let started = Instant::now();
    let mut paused = Duration::ZERO;
    let mut i = w.kind.warmup_runs();
    while !out.done(w.kind, started, paused, seconds) {
        let pause = Instant::now();
        let (circuit, cut) = w.inputs.get(i);
        let policy = w.policy.clone();
        paused += pause.elapsed();
        let run_started = Instant::now();
        let result = exec.run(&circuit, &cut, policy, &w.options);
        let elapsed = run_started.elapsed();
        let pause = Instant::now();
        let outcome = result
            .map_err(|e| e.to_string())
            .and_then(|run| check_run(w.kind, &run, truths.get(i)));
        out.record(w.kind, i % w.inputs.cycle(), elapsed, outcome);
        i += 1;
        paused += pause.elapsed();
    }
    out.wall = started.elapsed().saturating_sub(paused);
    out
}

fn end_to_end(args: &Args) -> Result<bool, String> {
    let kind = args.kind;
    let truths = Truths::new(&Inputs::new(kind, args.seed));

    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut workload = None;
    for _ in 0..SETUP_REPEATS {
        drop(workload.take());
        let started = Instant::now();
        let w = Workload::build(kind, args.seed, None);
        warm_up(&w)?;
        setup_s.push(started.elapsed().as_secs_f64());
        workload = Some(w);
    }
    let w = workload.ok_or("no set-up ran")?;

    let lp = run_loop(&w, &truths, args.seconds);
    let verified = lp.verified();
    let per_run =
        |f: &dyn Fn(&Outcome) -> f64| -> Vec<f64> { verified.iter().map(|o| f(o)).collect() };
    // The rate is taken from per-input medians: on a shared host the
    // wall-clock rate, like the per-run tail, is set by the host's
    // preemption spikes. Both are still printed on the `samples` line.
    let cycle = w.inputs.cycle();
    let cycle_ms: f64 = per_input_medians(&lp.run_ms, &lp.run_input, cycle)
        .iter()
        .sum();
    let (tail_p, tail_ms) = tail(&lp.run_ms);
    let completed = lp.attempted - lp.failed;
    let v = verified.len();
    let metrics = [
        Metric::new("run_ms_p50", median(&lp.run_ms), "ms", lp.run_ms.len()),
        Metric::new(
            "runs_per_s",
            cycle as f64 / (cycle_ms / 1e3),
            "1/s",
            lp.run_ms.len(),
        ),
        Metric::new("setup_s", median(&setup_s), "s", setup_s.len()),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MiB", 1),
        Metric::new(
            "shots_per_run",
            mean(&per_run(&|o| o.counters.shots() as f64)),
            "count",
            v,
        ),
        Metric::new(
            "device_s_per_run",
            mean(&per_run(&|o| o.counters.device_seconds)),
            "s",
            v,
        ),
        Metric::new("tvd_vs_truth", mean(&per_run(&|o| o.tvd)), "tvd", v),
        Metric::new(
            "ok_frac",
            completed as f64 / lp.attempted as f64,
            "ratio",
            lp.attempted,
        ),
    ];
    println!(
        "samples {{\"run_ms\": {}, \"inputs\": {cycle}, \"run_ms_tail\": {tail_ms}, \
         \"run_ms_tail_percentile\": {tail_p}, \"wall_runs_per_s\": {}, \"setup_repeats\": {}, \
         \"warmup_runs\": {}, \"verification_runs\": {}, \"failed_frac\": {}, \"tvd_max\": {}}}",
        lp.run_ms.len(),
        completed as f64 / lp.wall.as_secs_f64(),
        setup_s.len(),
        kind.warmup_runs(),
        v,
        lp.failed as f64 / lp.attempted as f64,
        lp.tvd_max
    );
    print_table(&metrics);
    let correct = lp.failed == 0 && v == kind.verification_runs();
    println!(
        "{}",
        result_json(correct, lp.attempted, lp.failed, &metrics)
    );
    Ok(correct)
}

/// Per-iteration record of the traced loop (the distribution itself is
/// dropped once checked: at 2^19 outputs it is 4 MiB per run).
struct Traced {
    total: Duration,
    times: StageTimes,
    counters: Counters,
    pool_parallel_ratio: f64,
    outputs: usize,
    device: DeviceTally,
}

fn traced(args: &Args) -> Result<bool, String> {
    let kind = args.kind;
    let truths = Truths::new(&Inputs::new(kind, args.seed));
    let half = args.seconds / 2.0;

    // Untraced reference for trace.overhead_frac.
    let plain = Workload::build(kind, args.seed, None);
    warm_up(&plain)?;
    let reference = run_loop(&plain, &truths, half);
    drop(plain);

    let tally = Tally::default();
    let w = Workload::build(kind, args.seed, Some(&tally));
    for i in 0..kind.warmup_runs() {
        let (circuit, cut) = w.inputs.get(i);
        staged::run(&w, &circuit, &cut, &tally).map_err(|e| format!("warm-up run {i}: {e}"))?;
    }

    let mut attempted = reference.attempted;
    let mut failed = reference.failed;
    let mut records: Vec<Traced> = Vec::new();
    // The last runs' cache writes, replayed into a file-backed cache below.
    let mut recent_stores: VecDeque<Vec<(CacheKey, Circuit, Counts)>> = VecDeque::new();
    let started = Instant::now();
    let mut paused = Duration::ZERO;
    let first = kind.warmup_runs();
    let mut i = first;
    while started.elapsed().saturating_sub(paused).as_secs_f64() < half
        || i - first < kind.verification_runs()
    {
        let pause = Instant::now();
        let (circuit, cut) = w.inputs.get(i);
        let before = tally.get();
        paused += pause.elapsed();
        let run_started = Instant::now();
        let result = staged::run(&w, &circuit, &cut, &tally);
        let total = run_started.elapsed();
        let pause = Instant::now();
        let after = tally.get();
        attempted += 1;
        let checked = result.and_then(|run| {
            check(kind, &run.distribution, &run.counters, truths.get(i)).map(|_| run)
        });
        match checked {
            Ok(run) => {
                if recent_stores.len() == 64 {
                    recent_stores.pop_front();
                }
                recent_stores.push_back(run.stored);
                records.push(Traced {
                    total,
                    times: run.times,
                    counters: run.counters,
                    pool_parallel_ratio: run.pool_parallel_ratio,
                    outputs: run.distribution.dim(),
                    device: after.since(&before),
                });
            }
            Err(e) => {
                failed += 1;
                eprintln!("traced run {i} failed its check: {e}");
            }
        }
        i += 1;
        paused += pause.elapsed();
    }

    let (open_ms, persist_ms) = match w.cache() {
        Some(_) => cache_io(&recent_stores)?,
        None => (0.0, 0.0),
    };
    let bytes_used = w.cache().map_or(0, WarmCache::bytes_used);

    let n = records.len();
    let times = |f: &dyn Fn(&Traced) -> Duration| median_ms(records.iter().map(f));
    let avg = |f: &dyn Fn(&Traced) -> f64| mean(&records.iter().map(f).collect::<Vec<_>>());
    let calls_us = |f: &dyn Fn(&Traced) -> &Vec<Duration>| {
        let us: Vec<f64> = records
            .iter()
            .flat_map(|r| f(r).iter().map(|d| d.as_secs_f64() * 1e6))
            .collect();
        (median(&us), us.len())
    };
    let (lookup_us, lookups) = calls_us(&|r| &r.times.lookups);
    let (store_us, stores) = calls_us(&|r| &r.times.stores);
    let traced_p50 = times(&|r| r.total);
    let untraced_p50 = median(&reference.run_ms);
    let metrics = [
        Metric::new("analysis.gate_ms", times(&|r| r.times.analysis), "ms", n),
        Metric::new("fragment.ms", times(&|r| r.times.fragment), "ms", n),
        Metric::new("dataflow.prove_ms", times(&|r| r.times.prove), "ms", n),
        Metric::new(
            "allocation.schedule_ms",
            times(&|r| r.times.schedule),
            "ms",
            n,
        ),
        Metric::new("planner.build_ms", times(&|r| r.times.planner), "ms", n),
        Metric::new("jobgraph.execute_ms", times(&|r| r.times.execute), "ms", n),
        Metric::new(
            "jobgraph.self_ms",
            times(&|r| r.times.execute.saturating_sub(r.times.execute_device)),
            "ms",
            n,
        ),
        Metric::new(
            "jobgraph.jobs_planned",
            avg(&|r| r.counters.jobs_planned as f64),
            "count",
            n,
        ),
        Metric::new(
            "jobgraph.jobs_executed",
            avg(&|r| r.counters.jobs_executed as f64),
            "count",
            n,
        ),
        Metric::new(
            "jobgraph.dedup_ratio",
            avg(&|r| {
                let k = &r.counters;
                1.0 - k.jobs_executed as f64 / k.jobs_planned.max(1) as f64
            }),
            "ratio",
            n,
        ),
        Metric::new("device.busy_ms", times(&|r| r.device.busy), "ms", n),
        Metric::new(
            "device.batches",
            avg(&|r| r.device.batches as f64),
            "count",
            n,
        ),
        Metric::new("device.jobs", avg(&|r| r.device.jobs as f64), "count", n),
        Metric::new("device.shots", avg(&|r| r.device.shots as f64), "count", n),
        Metric::new("pool.place_ms", times(&|r| r.times.place), "ms", n),
        Metric::new(
            "pool.parallel_ratio",
            avg(&|r| r.pool_parallel_ratio),
            "ratio",
            n,
        ),
        Metric::new(
            "sim.gates_applied",
            avg(&|r| r.counters.gates_applied as f64),
            "count",
            n,
        ),
        Metric::new(
            "sim.gates_saved",
            avg(&|r| r.counters.gates_saved as f64),
            "count",
            n,
        ),
        Metric::new(
            "sim.states_reused",
            avg(&|r| r.counters.states_reused as f64),
            "count",
            n,
        ),
        Metric::new("golden.detect_ms", times(&|r| r.times.detect), "ms", n),
        Metric::new(
            "golden.detection_shots",
            avg(&|r| r.counters.detection_shots as f64),
            "count",
            n,
        ),
        Metric::new(
            "golden.neglected_bases",
            avg(&|r| r.counters.neglected_bases as f64),
            "count",
            n,
        ),
        Metric::new("cache.open_ms", open_ms, "ms", CACHE_IO_REPEATS),
        Metric::new("cache.lookup_us", lookup_us, "us", lookups),
        Metric::new("cache.store_us", store_us, "us", stores),
        Metric::new("cache.persist_ms", persist_ms, "ms", CACHE_IO_REPEATS),
        Metric::new(
            "cache.hits",
            avg(&|r| r.counters.cache_hits as f64),
            "count",
            n,
        ),
        Metric::new(
            "cache.shots_reused",
            avg(&|r| r.counters.cache_shots_reused as f64),
            "count",
            n,
        ),
        Metric::new("cache.bytes_used", bytes_used as f64, "bytes", 1),
        Metric::new(
            "reconstruction.upstream_ms",
            times(&|r| r.times.upstream),
            "ms",
            n,
        ),
        Metric::new(
            "reconstruction.downstream_ms",
            times(&|r| r.times.downstream),
            "ms",
            n,
        ),
        Metric::new(
            "reconstruction.contract_ms",
            times(&|r| r.times.contract),
            "ms",
            n,
        ),
        Metric::new(
            "reconstruction.terms",
            avg(&|r| r.counters.reconstruction_terms as f64),
            "count",
            n,
        ),
        Metric::new(
            "reconstruction.outputs",
            avg(&|r| r.outputs as f64),
            "count",
            n,
        ),
        Metric::new("postprocess.ms", times(&|r| r.times.postprocess), "ms", n),
        Metric::new(
            "trace.overhead_frac",
            traced_p50 / untraced_p50 - 1.0,
            "ratio",
            n,
        ),
    ];
    println!(
        "samples {{\"traced_runs\": {n}, \"untraced_runs\": {}, \"traced_run_ms_p50\": {traced_p50}, \
         \"untraced_run_ms_p50\": {untraced_p50}, \"cache_lookups\": {lookups}, \"cache_stores\": {stores}}}",
        reference.run_ms.len()
    );
    print_table(&metrics);
    let correct = failed == 0 && reference.verified().len() == kind.verification_runs();
    println!("{}", result_json(correct, attempted, failed, &metrics));
    Ok(correct)
}

/// Replays the recent cache writes into a file-backed cache with the
/// workload's budget, then times `WarmCache::persist` and reopening the
/// file with `WarmCache::open`. Returns the medians `(open_ms, persist_ms)`.
fn cache_io(stores: &VecDeque<Vec<(CacheKey, Circuit, Counts)>>) -> Result<(f64, f64), String> {
    let dir = PathBuf::from(".bench_build").join("perfbench");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("warm-cache-{}.bin", std::process::id()));
    let config =
        CacheConfig::at_path(&path).with_byte_budget(perfbench::workload::SWEEP_CACHE_BUDGET);
    let _ = std::fs::remove_file(&path);
    let cache = WarmCache::open(config.clone());
    for (key, circuit, counts) in stores.iter().flatten() {
        cache.store(key, circuit, counts);
    }
    let mut persist = Vec::with_capacity(CACHE_IO_REPEATS);
    let mut open = Vec::with_capacity(CACHE_IO_REPEATS);
    let mut result = Ok(());
    for _ in 0..CACHE_IO_REPEATS {
        let started = Instant::now();
        if let Err(e) = cache.persist() {
            result = Err(format!("persisting the warm cache: {e}"));
            break;
        }
        persist.push(started.elapsed());
        let started = Instant::now();
        let reopened = WarmCache::open(config.clone());
        open.push(started.elapsed());
        if let Some(why) = reopened.take_degradation() {
            result = Err(format!("reopening the warm cache: {why}"));
            break;
        }
        if reopened.entries() != cache.entries() {
            result = Err("the reopened warm cache lost entries".to_string());
            break;
        }
    }
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir(&dir);
    let _ = std::fs::remove_dir(".bench_build");
    result.map(|()| (median_ms(open), median_ms(persist)))
}

fn print_table(metrics: &[Metric]) {
    for m in metrics {
        println!(
            "  {:<30} {:>16.6} {:<6} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
}
