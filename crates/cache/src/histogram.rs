//! Tier-1 in-memory store: per-node histograms under LRU/byte-budget
//! eviction.
//!
//! Entries are keyed by [`CacheKey`] and additionally carry the full
//! circuit, so every hit is confirmed by instruction-level equality — a
//! 64-bit structural hash alone is not trusted anywhere in the workspace.
//! Byte accounting uses the exact on-disk encoded size of each entry
//! (single source of truth with [`crate::disk`]), so a store that fits the
//! budget in memory also fits it on disk.

use std::collections::{BTreeMap, HashMap};

use qcut_circuit::circuit::Circuit;
use qcut_sim::counts::Counts;

use crate::disk;
use crate::CacheKey;

/// One cached histogram: the circuit it was measured from (collision
/// guard), the cumulative counts, and LRU bookkeeping.
pub(crate) struct Slot {
    pub(crate) circuit: Circuit,
    pub(crate) counts: Counts,
    pub(crate) bytes: u64,
    pub(crate) last_used: u64,
}

impl std::fmt::Debug for Slot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Slot")
            .field("shots", &self.counts.total())
            .field("bytes", &self.bytes)
            .field("last_used", &self.last_used)
            .finish()
    }
}

/// The tier-1 histogram store. See the crate docs for the key schema.
///
/// Recency is a logical clock bumped on every hit and insertion; when the
/// byte budget is exceeded, whole entries are evicted strictly in
/// least-recently-used order until the store fits again; a recency index
/// finds each victim in O(log n). An entry larger than the entire budget
/// is itself evicted immediately after insertion — that pathology (a
/// budget below one node's histogram) is what lint QA402 warns about.
#[derive(Debug)]
pub struct HistogramCache {
    byte_budget: u64,
    bytes_used: u64,
    clock: u64,
    map: HashMap<CacheKey, Vec<Slot>>,
    /// Every slot's `last_used` clock, oldest first, mapped to its key.
    /// Each clock value is assigned once, so the index holds exactly one
    /// entry per slot.
    recency: BTreeMap<u64, CacheKey>,
}

impl HistogramCache {
    /// Empty store with the given byte budget.
    pub fn new(byte_budget: u64) -> Self {
        HistogramCache {
            byte_budget,
            bytes_used: 0,
            clock: 0,
            map: HashMap::new(),
            recency: BTreeMap::new(),
        }
    }

    /// Number of entries held.
    pub fn len(&self) -> usize {
        self.recency.len()
    }

    /// True when the store holds nothing.
    pub fn is_empty(&self) -> bool {
        self.recency.is_empty()
    }

    /// Exact encoded bytes currently held.
    pub fn bytes_used(&self) -> u64 {
        self.bytes_used
    }

    /// The eviction budget.
    pub fn byte_budget(&self) -> u64 {
        self.byte_budget
    }

    /// Looks up `circuit` under `key`, confirming circuit equality, and
    /// touches the entry's recency.
    pub fn lookup(&mut self, key: &CacheKey, circuit: &Circuit) -> Option<&Counts> {
        self.clock += 1;
        let clock = self.clock;
        let slots = self.map.get_mut(key)?;
        let slot = slots.iter_mut().find(|s| s.circuit == *circuit)?;
        self.recency.remove(&slot.last_used);
        self.recency.insert(clock, *key);
        slot.last_used = clock;
        Some(&slot.counts)
    }

    /// True when an entry for `(key, circuit)` is held. Leaves recency
    /// untouched.
    pub(crate) fn holds(&self, key: &CacheKey, circuit: &Circuit) -> bool {
        self.map
            .get(key)
            .is_some_and(|slots| slots.iter().any(|s| s.circuit == *circuit))
    }

    /// Inserts (or replaces) the cumulative histogram for `(key, circuit)`,
    /// then evicts least-recently-used entries until the budget holds.
    pub fn store(&mut self, key: &CacheKey, circuit: &Circuit, counts: Counts) {
        self.clock += 1;
        let clock = self.clock;
        let bytes = disk::entry_encoded_len(circuit, counts.iter().count() as u64);
        let slots = self.map.entry(*key).or_default();
        if let Some(slot) = slots.iter_mut().find(|s| s.circuit == *circuit) {
            self.bytes_used = self.bytes_used - slot.bytes + bytes;
            self.recency.remove(&slot.last_used);
            slot.counts = counts;
            slot.bytes = bytes;
            slot.last_used = clock;
        } else {
            slots.push(Slot {
                circuit: circuit.clone(),
                counts,
                bytes,
                last_used: clock,
            });
            self.bytes_used += bytes;
        }
        self.recency.insert(clock, *key);
        self.evict_to_budget();
    }

    /// Evicts the oldest entries until the budget holds. The index's first
    /// key is the minimum of unique clocks, so the victim order is exactly
    /// that of a scan for the smallest `last_used`.
    fn evict_to_budget(&mut self) {
        while self.bytes_used > self.byte_budget {
            let Some((used, key)) = self.recency.pop_first() else {
                return;
            };
            if let Some(slots) = self.map.get_mut(&key) {
                if let Some(idx) = slots.iter().position(|s| s.last_used == used) {
                    let slot = slots.remove(idx);
                    self.bytes_used -= slot.bytes;
                }
                if slots.is_empty() {
                    self.map.remove(&key);
                }
            }
        }
    }

    /// Entries ordered least- to most-recently used — the persistence
    /// order, so a reloaded store replays the same recency ranking.
    pub(crate) fn slots_by_recency(&self) -> Vec<(CacheKey, &Slot)> {
        self.recency
            .iter()
            .filter_map(|(&used, key)| {
                let slots = self.map.get(key)?;
                let slot = slots.iter().find(|s| s.last_used == used)?;
                Some((*key, slot))
            })
            .collect()
    }
}

/// Estimated encoded bytes of one node's histogram entry: the exact disk
/// size assuming the histogram realises `min(shots, 2^width)` distinct
/// outcomes. Used by lint QA402 to detect a thrashing byte budget.
pub fn estimated_entry_bytes(circuit: &Circuit, shots: u64) -> u64 {
    let width = circuit.num_qubits().min(63) as u32;
    let distinct = shots.min(1u64 << width);
    disk::entry_encoded_len(circuit, distinct)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShotDiscipline;

    fn circuit(theta: f64) -> Circuit {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).rz(theta, 0);
        c
    }

    fn key_for(c: &Circuit) -> CacheKey {
        CacheKey::new(c.structural_hash(), 42, ShotDiscipline::Multinomial)
    }

    fn counts(n: u64) -> Counts {
        Counts::from_pairs(2, [(0u64, n), (1, n), (2, n), (3, n)])
    }

    #[test]
    fn lru_evicts_strictly_by_recency_under_a_byte_cap() {
        let a = circuit(0.1);
        let b = circuit(0.2);
        let c = circuit(0.3);
        let one = disk::entry_encoded_len(&a, 4);
        // Budget fits exactly two entries (all three are the same size).
        let mut cache = HistogramCache::new(2 * one);
        cache.store(&key_for(&a), &a, counts(10));
        cache.store(&key_for(&b), &b, counts(10));
        assert_eq!(cache.len(), 2);
        // Touch `a`, making `b` the least recently used.
        assert!(cache.lookup(&key_for(&a), &a).is_some());
        cache.store(&key_for(&c), &c, counts(10));
        assert_eq!(cache.len(), 2);
        assert!(
            cache.lookup(&key_for(&a), &a).is_some(),
            "recently used survives"
        );
        assert!(
            cache.lookup(&key_for(&c), &c).is_some(),
            "new entry survives"
        );
        assert!(
            cache.lookup(&key_for(&b), &b).is_none(),
            "LRU entry evicted"
        );
    }

    #[test]
    fn an_entry_larger_than_the_whole_budget_thrashes_to_empty() {
        let a = circuit(0.5);
        let mut cache = HistogramCache::new(8);
        cache.store(&key_for(&a), &a, counts(10));
        assert!(cache.is_empty(), "oversized entry cannot be retained");
        assert_eq!(cache.bytes_used(), 0);
    }

    #[test]
    fn replacing_an_entry_adjusts_byte_accounting() {
        let a = circuit(0.7);
        let mut cache = HistogramCache::new(u64::MAX);
        cache.store(&key_for(&a), &a, counts(10));
        let before = cache.bytes_used();
        // Fewer distinct outcomes: the entry shrinks.
        cache.store(&key_for(&a), &a, Counts::from_pairs(2, [(0u64, 40)]));
        assert!(cache.bytes_used() < before);
        assert_eq!(cache.len(), 1);
    }

    /// Reference store: the linear-scan eviction the recency index
    /// replaced. Every victim is found by scanning all slots for the
    /// smallest `last_used`, and the persistence order is a sort.
    struct ScanCache {
        byte_budget: u64,
        bytes_used: u64,
        clock: u64,
        map: HashMap<CacheKey, Vec<Slot>>,
    }

    impl ScanCache {
        fn new(byte_budget: u64) -> Self {
            ScanCache {
                byte_budget,
                bytes_used: 0,
                clock: 0,
                map: HashMap::new(),
            }
        }

        fn lookup(&mut self, key: &CacheKey, circuit: &Circuit) -> Option<&Counts> {
            self.clock += 1;
            let clock = self.clock;
            let slot = self
                .map
                .get_mut(key)?
                .iter_mut()
                .find(|s| s.circuit == *circuit)?;
            slot.last_used = clock;
            Some(&slot.counts)
        }

        fn store(&mut self, key: &CacheKey, circuit: &Circuit, counts: Counts) {
            self.clock += 1;
            let bytes = disk::entry_encoded_len(circuit, counts.iter().count() as u64);
            let slots = self.map.entry(*key).or_default();
            if let Some(slot) = slots.iter_mut().find(|s| s.circuit == *circuit) {
                self.bytes_used = self.bytes_used - slot.bytes + bytes;
                slot.counts = counts;
                slot.bytes = bytes;
                slot.last_used = self.clock;
            } else {
                slots.push(Slot {
                    circuit: circuit.clone(),
                    counts,
                    bytes,
                    last_used: self.clock,
                });
                self.bytes_used += bytes;
            }
            while self.bytes_used > self.byte_budget {
                let oldest = self
                    .map
                    .iter()
                    .flat_map(|(k, slots)| slots.iter().map(move |s| (*k, s.last_used)))
                    .min_by_key(|&(_, used)| used);
                let Some((key, used)) = oldest else { return };
                let slots = self.map.get_mut(&key).expect("scanned key is held");
                let idx = slots
                    .iter()
                    .position(|s| s.last_used == used)
                    .expect("scanned slot is held");
                self.bytes_used -= slots.remove(idx).bytes;
                if slots.is_empty() {
                    self.map.remove(&key);
                }
            }
        }

        fn slots_by_recency(&self) -> Vec<(CacheKey, &Slot)> {
            let mut all: Vec<(CacheKey, &Slot)> = self
                .map
                .iter()
                .flat_map(|(k, slots)| slots.iter().map(move |s| (*k, s)))
                .collect();
            all.sort_by_key(|&(_, s)| s.last_used);
            all
        }
    }

    type HeldEntry = (CacheKey, Circuit, Counts, u64, u64);

    fn held(slots: Vec<(CacheKey, &Slot)>) -> Vec<HeldEntry> {
        slots
            .into_iter()
            .map(|(k, s)| (k, s.circuit.clone(), s.counts.clone(), s.bytes, s.last_used))
            .collect()
    }

    /// Circuits of width 2 and 3 (so histogram sizes vary), the last two
    /// stored under one forced key to exercise the multi-slot path.
    fn pool() -> Vec<(CacheKey, Circuit)> {
        let mut out: Vec<(CacheKey, Circuit)> = (0..4)
            .map(|i| {
                let mut c = Circuit::new(2 + i % 2);
                c.h(0).cx(0, 1).ry(0.1 * (i + 1) as f64, 1);
                (key_for(&c), c)
            })
            .collect();
        let forced = CacheKey::new(0xC011_1DED, 42, ShotDiscipline::Multinomial);
        for theta in [0.5, 0.6] {
            out.push((forced, circuit(theta)));
        }
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        /// The recency index evicts, accounts and persists exactly as the
        /// linear scan does, after every lookup, store and replace.
        #[test]
        fn recency_index_matches_the_linear_scan_model(
            budget_entries in 1u64..5,
            ops in proptest::collection::vec((0u8..3, 0usize..6, 1u64..9, 1u64..50), 1..80),
        ) {
            let pool = pool();
            let budget = budget_entries * disk::entry_encoded_len(&pool[0].1, 4);
            let mut fast = HistogramCache::new(budget);
            let mut model = ScanCache::new(budget);
            let mut last = 0;
            for (kind, pick, distinct, base) in ops {
                // Kind 2 replaces the entry the previous operation touched.
                let pick = if kind == 2 { last } else { pick };
                let (key, c) = &pool[pick];
                if kind == 0 {
                    let got = fast.lookup(key, c).cloned();
                    let want = model.lookup(key, c).cloned();
                    proptest::prop_assert_eq!(got, want);
                } else {
                    let width = c.num_qubits();
                    let distinct = distinct.min(1 << width);
                    let counts =
                        Counts::from_pairs(width, (0..distinct).map(|o| (o, base + o)));
                    fast.store(key, c, counts.clone());
                    model.store(key, c, counts);
                }
                last = pick;
                proptest::prop_assert_eq!(fast.bytes_used(), model.bytes_used);
                proptest::prop_assert_eq!(fast.len(), model.slots_by_recency().len());
                proptest::prop_assert_eq!(fast.is_empty(), model.map.is_empty());
                proptest::prop_assert_eq!(
                    held(fast.slots_by_recency()),
                    held(model.slots_by_recency())
                );
            }
        }
    }
}
