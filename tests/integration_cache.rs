//! Integration tests for the cross-run warm-start cache: warm reruns are
//! bit-identical free replays, an absent/empty cache is bit-identical to
//! today's pipeline, backend fingerprints partition entries, and corrupt
//! cache files degrade to a cold start with a typed diagnostic.

use qcut::prelude::*;
use std::sync::Arc;

fn workload() -> (Circuit, CutSpec) {
    GoldenAnsatz::new(5, 77).build()
}

fn options_with_cache(cache: Option<Arc<WarmCache>>) -> ExecutionOptions {
    ExecutionOptions {
        shots_per_setting: 4000,
        cache,
        ..Default::default()
    }
}

/// A warm rerun of the identical workload at the same budget executes
/// zero fresh shots — every node is fully served from the cache — and
/// reconstructs the bit-identical distribution (the delivered histograms
/// ARE the stored ones).
#[test]
fn warm_rerun_is_bit_identical_and_executes_nothing() {
    let (circuit, cut) = workload();
    let cache = Arc::new(WarmCache::open(CacheConfig::in_memory()));
    let options = options_with_cache(Some(cache.clone()));

    let backend = IdealBackend::new(31);
    let cold = CutExecutor::new(&backend)
        .run(&circuit, &cut, GoldenPolicy::Disabled, &options)
        .unwrap();
    assert_eq!(cold.report.cache_shots_reused, 0, "first run starts cold");
    assert!(cache.entries() > 0, "the run must populate the cache");

    // Fresh backend (same seed irrelevant: nothing executes) and executor:
    // only the cache carries state across the runs.
    let backend2 = IdealBackend::new(99);
    let warm = CutExecutor::new(&backend2)
        .run(&circuit, &cut, GoldenPolicy::Disabled, &options)
        .unwrap();

    assert_eq!(warm.report.total_shots, 0, "warm run executes nothing");
    assert_eq!(warm.report.jobs_executed, 0);
    assert!(warm.report.cache_hits > 0);
    assert_eq!(
        warm.report.cache_shots_reused, warm.report.shots_requested,
        "every requested shot is served from the cache"
    );
    assert_eq!(warm.report.shots_saved, 0);
    assert_eq!(
        warm.distribution.values(),
        cold.distribution.values(),
        "warm reconstruction must be bit-identical to the cold run"
    );
}

/// The two ideal backends above share a fingerprint only because
/// `cache_fingerprint` deliberately ignores the RNG seed (histograms from
/// different seeds are statistically poolable). Pin that contract
/// end-to-end.
#[test]
fn warm_hits_survive_a_different_backend_seed() {
    let (circuit, cut) = workload();
    let cache = Arc::new(WarmCache::open(CacheConfig::in_memory()));
    let options = options_with_cache(Some(cache));
    let a = IdealBackend::new(1);
    CutExecutor::new(&a)
        .run(&circuit, &cut, GoldenPolicy::Disabled, &options)
        .unwrap();
    let b = IdealBackend::new(2);
    let warm = CutExecutor::new(&b)
        .run(&circuit, &cut, GoldenPolicy::Disabled, &options)
        .unwrap();
    assert_eq!(warm.report.total_shots, 0);
}

/// `cache: None`, an empty in-memory cache, and the default options all
/// produce bit-identical runs: the `None` path is pinned to pre-cache
/// behavior, and an empty cache only adds lookups that miss.
#[test]
fn no_cache_and_empty_cache_are_bit_identical_to_default() {
    let (circuit, cut) = workload();
    let run = |cache: Option<Arc<WarmCache>>| {
        let backend = IdealBackend::new(55);
        CutExecutor::new(&backend)
            .run(
                &circuit,
                &cut,
                GoldenPolicy::Disabled,
                &options_with_cache(cache),
            )
            .unwrap()
    };
    let none = run(None);
    let empty = run(Some(Arc::new(WarmCache::open(CacheConfig::in_memory()))));
    assert_eq!(none.distribution.values(), empty.distribution.values());
    assert_eq!(none.report.total_shots, empty.report.total_shots);
    assert_eq!(none.report.jobs_executed, empty.report.jobs_executed);
    assert_eq!(empty.report.cache_shots_reused, 0);
}

/// With dedup off (the ablation baseline) the cache is bypassed entirely:
/// no hits, no reuse, and the delivered result matches the cache-free
/// ablation bit for bit.
#[test]
fn ablation_without_dedup_bypasses_the_cache() {
    let (circuit, cut) = workload();
    let cache = Arc::new(WarmCache::open(CacheConfig::in_memory()));
    let run = |cache: Option<Arc<WarmCache>>| {
        let backend = IdealBackend::new(91);
        CutExecutor::new(&backend)
            .run(
                &circuit,
                &cut,
                GoldenPolicy::Disabled,
                &ExecutionOptions {
                    shots_per_setting: 2000,
                    dedup: false,
                    cache,
                    ..Default::default()
                },
            )
            .unwrap()
    };
    let with_cache = run(Some(cache.clone()));
    assert_eq!(with_cache.report.cache_hits, 0);
    assert_eq!(with_cache.report.cache_shots_reused, 0);
    assert_eq!(cache.entries(), 0, "nothing may be stored either");
    let without = run(None);
    assert_eq!(
        with_cache.distribution.values(),
        without.distribution.values()
    );
}

/// Histograms gathered on the ideal backend are never served to a noisy
/// run of the same circuits (and vice versa): the backend fingerprint in
/// the cache key partitions the entries.
#[test]
fn ideal_histograms_are_never_served_to_a_noisy_run() {
    let (circuit, cut) = workload();
    let cache = Arc::new(WarmCache::open(CacheConfig::in_memory()));
    let options = options_with_cache(Some(cache.clone()));

    let ideal = IdealBackend::new(3);
    CutExecutor::new(&ideal)
        .run(&circuit, &cut, GoldenPolicy::Disabled, &options)
        .unwrap();
    let populated = cache.entries();
    assert!(populated > 0);

    let noisy = qcut::device::presets::ibm_5q(3);
    let noisy_run = CutExecutor::new(&noisy)
        .run(&circuit, &cut, GoldenPolicy::Disabled, &options)
        .unwrap();
    assert_eq!(
        noisy_run.report.cache_shots_reused, 0,
        "ideal entries must not serve a noisy run"
    );
    assert_eq!(noisy_run.report.cache_hits, 0);
    assert!(noisy_run.report.total_shots > 0);
    assert!(
        cache.entries() > populated,
        "the noisy run stores its own entries alongside the ideal ones"
    );

    // And the partition works both ways: a warm ideal rerun still hits
    // only ideal entries.
    let ideal2 = IdealBackend::new(3);
    let warm = CutExecutor::new(&ideal2)
        .run(&circuit, &cut, GoldenPolicy::Disabled, &options)
        .unwrap();
    assert_eq!(warm.report.total_shots, 0);
}

/// A truncated/corrupt cache file degrades to a cold start — the run
/// succeeds, a typed QA403 warning lands in the report diagnostics, and a
/// successful run afterwards persists a loadable cache over it.
#[test]
fn corrupt_cache_file_degrades_to_cold_start_with_diagnostic() {
    let (circuit, cut) = workload();
    let path = std::env::temp_dir().join(format!(
        "qcut-integration-corrupt-{}.qwc",
        std::process::id()
    ));
    std::fs::write(&path, b"definitely not a cache file").unwrap();

    let cache = Arc::new(WarmCache::open(CacheConfig::at_path(&path)));
    let options = options_with_cache(Some(cache));
    let backend = IdealBackend::new(17);
    let run = CutExecutor::new(&backend)
        .run(&circuit, &cut, GoldenPolicy::Disabled, &options)
        .unwrap();

    assert_eq!(run.report.cache_shots_reused, 0, "cold start");
    assert!(run.report.total_shots > 0);
    let degraded: Vec<_> = run
        .report
        .diagnostics
        .iter()
        .filter(|d| d.code == LintCode::CacheDegraded)
        .collect();
    assert!(
        !degraded.is_empty(),
        "a degraded cache must surface a QA403 warning: {:?}",
        run.report.diagnostics
    );
    assert!(degraded.iter().all(|d| d.severity == Severity::Warn));

    // The run stored + persisted over the corpse: reopening now warm-hits.
    let reopened = Arc::new(WarmCache::open(CacheConfig::at_path(&path)));
    assert!(
        reopened.entries() > 0,
        "persist must have replaced the file"
    );
    let backend2 = IdealBackend::new(18);
    let warm = CutExecutor::new(&backend2)
        .run(
            &circuit,
            &cut,
            GoldenPolicy::Disabled,
            &options_with_cache(Some(reopened)),
        )
        .unwrap();
    assert_eq!(warm.report.total_shots, 0);
    assert!(warm
        .report
        .diagnostics
        .iter()
        .all(|d| d.code != LintCode::CacheDegraded));
    std::fs::remove_file(&path).ok();
}

/// Rewrites every entry's histogram width in a cache file image to one
/// more than its circuit's, then recomputes the FNV-1a trailer, so the
/// file passes every check but the width one. Walks the record layout
/// documented in `qcut_cache::disk`.
fn widen_every_histogram(bytes: &mut [u8]) {
    fn u16_at(b: &[u8], at: usize) -> usize {
        u16::from_le_bytes([b[at], b[at + 1]]) as usize
    }
    fn u32_at(b: &[u8], at: usize) -> usize {
        u32::from_le_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]]) as usize
    }
    let content = bytes.len() - 8;
    let entries = u32_at(bytes, 10);
    let mut at = 14;
    for _ in 0..entries {
        at += 24; // key
        let instructions = u32_at(bytes, at + 2);
        at += 6;
        for _ in 0..instructions {
            let (params, arity) = match bytes[at] {
                0..=9 => (0, 1),
                10..=13 => (8, 1),
                14 => (24, 1),
                15 => (64, 1),
                16..=20 => (0, 2),
                21..=24 => (8, 2),
                25 => (256, 2),
                tag => panic!("unknown gate tag {tag}"),
            };
            at += 1 + params + 2 * arity;
        }
        let num_bits = u16_at(bytes, at) as u16 + 1;
        bytes[at..at + 2].copy_from_slice(&num_bits.to_le_bytes());
        at += 6 + 16 * u32_at(bytes, at + 2);
    }
    assert_eq!(at, content, "walked every record");
    let mut sum: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in &bytes[..content] {
        sum ^= u64::from(b);
        sum = sum.wrapping_mul(0x0000_0100_0000_01b3);
    }
    bytes[content..].copy_from_slice(&sum.to_le_bytes());
}

/// A cache file whose histograms are one bit wider than their circuits
/// (checksum intact) must not reach the engine: merging a cached
/// histogram into a fresh one of another width panics. The decoder
/// rejects it, so the run starts cold with a QA403 warning.
#[test]
fn a_width_mismatched_cache_file_degrades_to_a_cold_start() {
    let (circuit, cut) = workload();
    let path =
        std::env::temp_dir().join(format!("qcut-integration-width-{}.qwc", std::process::id()));
    let options = |cache: Arc<WarmCache>, shots_per_setting: u64| ExecutionOptions {
        shots_per_setting,
        cache: Some(cache),
        ..Default::default()
    };
    let primed = Arc::new(WarmCache::open(CacheConfig::at_path(&path)));
    CutExecutor::new(&IdealBackend::new(5))
        .run(
            &circuit,
            &cut,
            GoldenPolicy::Disabled,
            &options(primed.clone(), 1000),
        )
        .unwrap();
    assert!(primed.entries() > 0);
    let mut bytes = std::fs::read(&path).unwrap();
    widen_every_histogram(&mut bytes);
    std::fs::write(&path, &bytes).unwrap();

    let reopened = Arc::new(WarmCache::open(CacheConfig::at_path(&path)));
    let run = CutExecutor::new(&IdealBackend::new(6))
        .run(
            &circuit,
            &cut,
            GoldenPolicy::Disabled,
            &options(reopened, 2000),
        )
        .expect("a bad cache file never fails the run");
    std::fs::remove_file(&path).ok();

    assert_eq!(run.report.cache_shots_reused, 0, "cold start");
    let degraded: Vec<_> = run
        .report
        .diagnostics
        .iter()
        .filter(|d| d.code == LintCode::CacheDegraded)
        .collect();
    assert!(
        !degraded.is_empty(),
        "a rejected cache file must surface a QA403 warning: {:?}",
        run.report.diagnostics
    );
    assert!(degraded.iter().all(|d| d.severity == Severity::Warn));
}

/// The adaptive policy treats cached histograms as a free pilot: on a
/// warm rerun the pilot round executes nothing, only the refine
/// increments run, and the shot invariant holds with the cache term.
#[test]
fn adaptive_warm_rerun_gets_a_free_pilot() {
    let (circuit, cut) = workload();
    let cache = Arc::new(WarmCache::open(CacheConfig::in_memory()));
    let options = ExecutionOptions {
        allocation: Some(ShotAllocation::Adaptive {
            pilot_fraction: 0.2,
            total: 60_000,
        }),
        cache: Some(cache),
        ..Default::default()
    };
    let backend = IdealBackend::new(23);
    let cold = CutExecutor::new(&backend)
        .run(&circuit, &cut, GoldenPolicy::Disabled, &options)
        .unwrap();
    assert!(cold.report.pilot_shots > 0);

    let backend2 = IdealBackend::new(24);
    let warm = CutExecutor::new(&backend2)
        .run(&circuit, &cut, GoldenPolicy::Disabled, &options)
        .unwrap();
    assert_eq!(warm.report.pilot_shots, 0, "the cache pays for the pilot");
    assert!(warm.report.cache_shots_reused > 0);
    assert_eq!(warm.report.rounds, 2);
    assert_eq!(
        warm.report.shots_requested,
        warm.report.detection_shots
            + warm.report.pilot_shots
            + warm.report.total_shots
            + warm.report.shots_saved
            + warm.report.cache_shots_reused,
        "exact accounting with the cache term"
    );
}

/// A corrupt cache file surfaces exactly one QA403 per run, whether the
/// analysis gate reports it (from the opened cache's load notice) or,
/// with analysis disabled, the run itself does. The text is the
/// decoder's verdict on the file.
#[test]
fn a_degraded_cache_file_reports_qa403_once_per_run() {
    let (circuit, cut) = workload();
    let path = std::env::temp_dir().join(format!(
        "qcut-integration-qa403-once-{}.qwc",
        std::process::id()
    ));
    for analysis in [AnalysisConfig::default(), AnalysisConfig::disabled()] {
        std::fs::write(&path, b"definitely not a cache file").unwrap();
        let options = ExecutionOptions {
            shots_per_setting: 1000,
            cache: Some(Arc::new(WarmCache::open(CacheConfig::at_path(&path)))),
            analysis,
            ..Default::default()
        };
        let run = CutExecutor::new(&IdealBackend::new(19))
            .run(&circuit, &cut, GoldenPolicy::Disabled, &options)
            .unwrap();
        let degraded: Vec<_> = run
            .report
            .diagnostics
            .iter()
            .filter(|d| d.code == LintCode::CacheDegraded)
            .collect();
        assert_eq!(degraded.len(), 1, "{:?}", run.report.diagnostics);
        assert!(
            degraded[0].message.contains("bad magic"),
            "{}",
            degraded[0].message
        );
    }
    std::fs::remove_file(&path).ok();
}

/// The SIC method stores its upstream and SIC nodes like the eigenstate
/// method stores its own: a cold run leaves one entry per executed job,
/// and a warm rerun executes nothing and reconstructs bit-identically.
#[test]
fn sic_warm_rerun_is_bit_identical_and_executes_nothing() {
    let (circuit, cut) = workload();
    for method in [ReconstructionMethod::Eigenstate, ReconstructionMethod::Sic] {
        let cache = Arc::new(WarmCache::open(CacheConfig::in_memory()));
        let options = ExecutionOptions {
            method,
            ..options_with_cache(Some(cache.clone()))
        };
        let cold = CutExecutor::new(&IdealBackend::new(41))
            .run(&circuit, &cut, GoldenPolicy::Disabled, &options)
            .unwrap();
        assert_eq!(cache.entries(), cold.report.jobs_executed, "{method:?}");
        if method != ReconstructionMethod::Sic {
            continue;
        }
        // 3 upstream settings + 4 SIC preparations.
        assert_eq!(cache.entries(), 7);

        let warm = CutExecutor::new(&IdealBackend::new(42))
            .run(&circuit, &cut, GoldenPolicy::Disabled, &options)
            .unwrap();
        assert_eq!(warm.report.jobs_executed, 0);
        assert_eq!(warm.report.total_shots, 0);
        assert_eq!(warm.report.cache_hits, 7);
        assert_eq!(warm.report.cache_shots_reused, warm.report.shots_requested);
        assert_eq!(
            warm.distribution.values(),
            cold.distribution.values(),
            "warm SIC reconstruction must be bit-identical to the cold run"
        );
    }
}
