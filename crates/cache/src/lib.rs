//! Cross-run warm-start cache for parameter sweeps.
//!
//! Repeated reconstructions — VQE-style sweeps that re-execute nearly
//! identical fragment batches — waste most of their budget re-measuring
//! subcircuits an earlier run already measured and re-simulating prefixes
//! an earlier walk already evolved. This crate provides the two reuse
//! tiers that close that gap:
//!
//! * **Tier 1 — persistent histograms** ([`WarmCache`] over
//!   [`HistogramCache`]): per-node measurement histograms keyed by
//!   `(Circuit::structural_hash, backend fingerprint, shot discipline)`,
//!   held under an LRU/byte-budget eviction policy and persisted in a
//!   versioned, corruption-tolerant on-disk format. The engine seeds
//!   `JobGraph::seed_counts` from these entries, so a warm run executes
//!   only the shot *increment* its budget demands beyond what the cache
//!   already holds.
//! * **Tier 2 — forest fork states** (`ForkStateCache` in `qcut-sim`):
//!   in-memory simulator states keyed by `prefix_hash_chain` links, so a
//!   sweep that varies only late-circuit parameters re-simulates just the
//!   divergent suffixes even across separate `CutExecutor::run` calls.
//!   `IdealBackend::with_state_reuse` attaches it. Every `NoisyBackend`,
//!   the presets (`ibm_5q`, `ibm_7q`, `very_noisy`) included, owns one
//!   that keeps up to 32 density matrices whose prefix it has evolved
//!   twice, so the repeated looks of online golden detection stop
//!   re-evolving theirs. Tier 2 lives next to [`PrefixForest`](qcut_sim::prefix::PrefixForest)
//!   because the states it stores are the simulator's; this crate owns the
//!   configuration and the tier-1 store.
//!
//! Keys never rely on `structural_hash` alone: every lookup confirms
//! instruction-level circuit equality (the workspace-wide hash-collision
//! discipline), and the backend fingerprint keeps e.g. ideal-backend
//! histograms from ever being served to a noisy run.
//!
//! The vendored `serde` is a marker-trait stub, so the on-disk format is
//! hand-rolled: little-endian, versioned magic header, FNV-1a trailing
//! checksum. Any load failure — truncation, corruption, version skew —
//! degrades to a cold start and is reported as a typed warning, never a
//! panic.

#![forbid(unsafe_code)]

pub mod disk;
pub mod histogram;

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, PoisonError};

use qcut_circuit::circuit::Circuit;
use qcut_sim::counts::Counts;
use serde::{Deserialize, Serialize};

pub use disk::CacheFileError;
pub use histogram::{estimated_entry_bytes, HistogramCache};

/// Configuration for the warm-start cache, carried by `ExecutionOptions`.
///
/// The cache is off by default (`ExecutionOptions::cache == None`); a run
/// with no cache is bit-identical to one that predates the cache layer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Where tier-1 histograms persist between processes. `None` keeps the
    /// store in-memory only (still reused across runs sharing the
    /// [`WarmCache`] handle).
    pub path: Option<PathBuf>,
    /// Byte budget for the tier-1 store. When an insertion pushes the
    /// store past the budget, entries are evicted strictly in
    /// least-recently-used order. A budget below a single node's histogram
    /// thrashes (lint QA402).
    pub byte_budget: u64,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            path: None,
            byte_budget: 8 * 1024 * 1024,
        }
    }
}

impl CacheConfig {
    /// In-memory cache with the default byte budget.
    pub fn in_memory() -> Self {
        CacheConfig::default()
    }

    /// Persistent cache at `path` with the default byte budget.
    pub fn at_path(path: impl Into<PathBuf>) -> Self {
        CacheConfig {
            path: Some(path.into()),
            ..CacheConfig::default()
        }
    }

    /// Replaces the byte budget.
    pub fn with_byte_budget(mut self, bytes: u64) -> Self {
        self.byte_budget = bytes;
        self
    }
}

/// The sampling discipline a histogram was produced under. Histograms are
/// only poolable when the backend fingerprint *and* the discipline agree:
/// merging multinomial samples from the exact output distribution with
/// measurements of unknown provenance would silently bias reconstructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ShotDiscipline {
    /// Multinomial sampling from the exact output distribution — what every
    /// workspace simulator backend produces.
    Multinomial,
    /// Measurements from hardware or an unknown sampler. Never pooled with
    /// [`ShotDiscipline::Multinomial`] entries.
    External,
}

impl ShotDiscipline {
    /// Stable integer tag folded into every cache key.
    pub fn tag(self) -> u64 {
        match self {
            ShotDiscipline::Multinomial => 1,
            ShotDiscipline::External => 2,
        }
    }
}

/// A tier-1 cache key. `structural_hash` alone is not sufficient — lookups
/// additionally confirm circuit equality — and histograms from different
/// backends or disciplines must never pool, so both are part of the key.
///
/// The backend *seed* is deliberately not part of the key: histograms drawn
/// with different seeds from the same device model are statistically
/// exchangeable, and keying on the seed would defeat cross-run reuse.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CacheKey {
    /// `Circuit::structural_hash()` of the node's circuit.
    pub structural_hash: u64,
    /// `Backend::cache_fingerprint()` — device identity plus noise
    /// character (see `NoiseModel::fingerprint`).
    pub backend_fingerprint: u64,
    /// [`ShotDiscipline::tag`].
    pub discipline: u64,
}

impl CacheKey {
    /// Builds a key from its three components.
    pub fn new(structural_hash: u64, backend_fingerprint: u64, discipline: ShotDiscipline) -> Self {
        CacheKey {
            structural_hash,
            backend_fingerprint,
            discipline: discipline.tag(),
        }
    }
}

/// Thread-safe handle over the tier-1 histogram store, shared across runs
/// (and, via [`CacheConfig::path`], across processes).
///
/// `ExecutionOptions` carries an `Arc<WarmCache>`; every `CutExecutor::run`
/// seeds its job graph from the store and writes the delivered cumulative
/// histograms back, so a sweep's later points start where earlier points
/// finished.
#[derive(Debug)]
pub struct WarmCache {
    config: CacheConfig,
    inner: Mutex<HistogramCache>,
    /// Set when opening found a file it could not load; drained once into a
    /// run report diagnostic, after which the cache operates cold.
    degraded: Mutex<Option<String>>,
}

impl WarmCache {
    /// Opens a cache. When the config names a path whose file exists, the
    /// store is loaded from it; a file that fails to load (truncated,
    /// corrupt, wrong version) yields a *cold* cache plus a degradation
    /// notice retrievable via [`WarmCache::take_degradation`] — never an
    /// error and never a panic.
    pub fn open(config: CacheConfig) -> WarmCache {
        let mut degraded = None;
        let store = match &config.path {
            Some(path) if path.exists() => match std::fs::read(path) {
                Ok(bytes) => match disk::decode(&bytes, config.byte_budget) {
                    Ok(store) => store,
                    Err(e) => {
                        degraded = Some(format!(
                            "cache file {} unusable ({e}); starting cold",
                            path.display()
                        ));
                        HistogramCache::new(config.byte_budget)
                    }
                },
                Err(e) => {
                    degraded = Some(format!(
                        "cache file {} unreadable ({e}); starting cold",
                        path.display()
                    ));
                    HistogramCache::new(config.byte_budget)
                }
            },
            _ => HistogramCache::new(config.byte_budget),
        };
        WarmCache {
            config,
            inner: Mutex::new(store),
            degraded: Mutex::new(degraded),
        }
    }

    /// The configuration this cache was opened with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Locks the store. A lock poisoned by a panic elsewhere is recovered,
    /// not propagated: no section holding either of this cache's guards
    /// can panic between two of its mutations (they bump counters, move
    /// values, and update the map and the recency index in step), so a
    /// recovered guard always sees a consistent store.
    fn locked(&self) -> MutexGuard<'_, HistogramCache> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The load-degradation notice, if opening fell back to a cold start,
    /// left in place (the analysis gate's `QA403` reads it; a run then
    /// drains it with [`WarmCache::take_degradation`]).
    pub fn degradation(&self) -> Option<String> {
        self.degraded
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Takes the load-degradation notice, if opening fell back to a cold
    /// start. Returns `Some` at most once.
    pub fn take_degradation(&self) -> Option<String> {
        self.degraded
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
    }

    /// Looks up the cumulative histogram for `circuit` under `key`,
    /// confirming instruction-level equality. Touches LRU recency.
    pub fn lookup(&self, key: &CacheKey, circuit: &Circuit) -> Option<Counts> {
        self.locked().lookup(key, circuit).cloned()
    }

    /// Stores (replacing any previous entry for the same key + circuit) the
    /// cumulative histogram a run delivered. Entries hold *cumulative*
    /// data — a warm run's delivered histogram already contains the cached
    /// shots it was seeded with, so storing replaces rather than merges.
    pub fn store(&self, key: &CacheKey, circuit: &Circuit, counts: &Counts) {
        self.locked().store(key, circuit, counts.clone());
    }

    /// Number of entries currently held.
    pub fn entries(&self) -> usize {
        self.locked().len()
    }

    /// Estimated bytes currently held (the on-disk encoded size).
    pub fn bytes_used(&self) -> u64 {
        self.locked().bytes_used()
    }

    /// Writes the store to the configured path (no-op without one). The
    /// write goes through a sibling temp file and an atomic rename so a
    /// crash mid-persist cannot corrupt an existing cache file.
    pub fn persist(&self) -> Result<(), CacheFileError> {
        let Some(path) = &self.config.path else {
            return Ok(());
        };
        let bytes = {
            let store = self.locked();
            disk::encode(&store)
        };
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, &bytes).map_err(|e| CacheFileError::Io(e.to_string()))?;
        std::fs::rename(&tmp, path).map_err(|e| CacheFileError::Io(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcut_circuit::circuit::Circuit;

    fn circuit(theta: f64) -> Circuit {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).ry(theta, 1);
        c
    }

    fn counts(pairs: &[(u64, u64)]) -> Counts {
        Counts::from_pairs(2, pairs.iter().copied())
    }

    #[test]
    fn lookup_confirms_circuit_equality_not_just_the_key() {
        let cache = WarmCache::open(CacheConfig::default());
        let a = circuit(0.1);
        let b = circuit(0.2);
        let key = CacheKey::new(a.structural_hash(), 7, ShotDiscipline::Multinomial);
        cache.store(&key, &a, &counts(&[(0, 5), (3, 5)]));
        assert!(cache.lookup(&key, &a).is_some());
        // Same key struct, different circuit: must miss (collision guard).
        assert!(cache.lookup(&key, &b).is_none());
    }

    #[test]
    fn fingerprint_and_discipline_partition_the_store() {
        let cache = WarmCache::open(CacheConfig::default());
        let c = circuit(0.3);
        let ideal = CacheKey::new(c.structural_hash(), 1, ShotDiscipline::Multinomial);
        let noisy = CacheKey::new(c.structural_hash(), 2, ShotDiscipline::Multinomial);
        let external = CacheKey::new(c.structural_hash(), 1, ShotDiscipline::External);
        cache.store(&ideal, &c, &counts(&[(1, 9)]));
        assert!(cache.lookup(&noisy, &c).is_none());
        assert!(cache.lookup(&external, &c).is_none());
        assert!(cache.lookup(&ideal, &c).is_some());
    }

    #[test]
    fn store_replaces_cumulative_data() {
        let cache = WarmCache::open(CacheConfig::default());
        let c = circuit(0.4);
        let key = CacheKey::new(c.structural_hash(), 1, ShotDiscipline::Multinomial);
        cache.store(&key, &c, &counts(&[(0, 100)]));
        cache.store(&key, &c, &counts(&[(0, 100), (1, 50)]));
        let got = cache.lookup(&key, &c).expect("entry present");
        assert_eq!(got.total(), 150);
        assert_eq!(cache.entries(), 1);
    }

    #[test]
    fn a_poisoned_store_lock_still_serves_lookup_store_and_persist() {
        let path = std::env::temp_dir().join(format!(
            "qcut-cache-test-poisoned-{}.qwc",
            std::process::id()
        ));
        let cache = WarmCache::open(CacheConfig::at_path(&path));
        let c = circuit(0.6);
        let key = CacheKey::new(c.structural_hash(), 1, ShotDiscipline::Multinomial);
        cache.store(&key, &c, &counts(&[(0, 7)]));
        let holder = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = cache.inner.lock();
                panic!("a panic while holding the store lock");
            })
            .join()
        });
        assert!(holder.is_err());
        assert!(cache.inner.is_poisoned());

        assert_eq!(cache.lookup(&key, &c).map(|h| h.total()), Some(7));
        cache.store(&key, &c, &counts(&[(0, 7), (2, 3)]));
        assert_eq!(cache.entries(), 1);
        cache.persist().expect("persist through a poisoned lock");
        let reopened = WarmCache::open(CacheConfig::at_path(&path));
        std::fs::remove_file(&path).ok();
        assert_eq!(reopened.lookup(&key, &c).map(|h| h.total()), Some(10));
    }

    #[test]
    fn missing_file_opens_cold_without_degradation() {
        let cache = WarmCache::open(CacheConfig::at_path(
            std::env::temp_dir().join("qcut-cache-test-does-not-exist.qwc"),
        ));
        assert_eq!(cache.entries(), 0);
        assert!(cache.take_degradation().is_none());
    }
}
