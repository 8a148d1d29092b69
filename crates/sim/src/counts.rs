//! Measurement counts and shot sampling.
//!
//! A [`Counts`] is what a backend returns: a histogram of observed
//! bitstrings over a number of shots. Its map is keyed with
//! [`OutcomeHasher`], a seed-free hasher, so lookups and merges are a
//! multiply and a shift, and a histogram built by the same inserts
//! iterates in the same order on every run.
//!
//! Sampling from an exact probability vector draws one uniform per shot
//! and finds its outcome by binary search in a cumulative table
//! ([`CdfTable`]): `O(log dim)` per shot and no map insert. The drawn
//! outcome indices are tallied first, and the histogram is built once,
//! with one insert per distinct outcome.

use qcut_stats::distribution::Distribution;
use rand::Rng;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Seed-free hasher for outcome bitstrings: each written word is mixed in
/// by an xor and a multiply, and `finish` folds the high half into the
/// low one, so keys that differ only in high bits still spread over the
/// buckets. Unlike the standard library's SipHash it has no random seed
/// and no protection against keys chosen to collide. Its keys are
/// outcomes below `2^num_bits` that a simulator drew, or that the warm
/// cache wrote to its own file and reads back.
#[derive(Debug, Clone, Copy, Default)]
pub struct OutcomeHasher(u64);

impl Hasher for OutcomeHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// The [`std::hash::BuildHasher`] of every map keyed by outcomes.
pub type OutcomeBuildHasher = BuildHasherDefault<OutcomeHasher>;

/// Histogram of measured bitstrings.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Counts {
    num_bits: usize,
    map: HashMap<u64, u64, OutcomeBuildHasher>,
    total: u64,
}

impl Counts {
    /// Empty histogram over `num_bits`-bit outcomes.
    pub fn new(num_bits: usize) -> Self {
        Counts::with_capacity(num_bits, 0)
    }

    /// Empty histogram with room for `distinct` outcomes.
    fn with_capacity(num_bits: usize, distinct: usize) -> Self {
        Counts {
            num_bits,
            map: HashMap::with_capacity_and_hasher(distinct, OutcomeBuildHasher::default()),
            total: 0,
        }
    }

    /// Builds from `(bitstring, count)` pairs.
    pub fn from_pairs<I: IntoIterator<Item = (u64, u64)>>(num_bits: usize, pairs: I) -> Self {
        let mut c = Counts::new(num_bits);
        for (bits, n) in pairs {
            c.record_many(bits, n);
        }
        c
    }

    /// Number of bits per outcome.
    #[inline]
    pub fn num_bits(&self) -> usize {
        self.num_bits
    }

    /// Total number of shots recorded.
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Count for one bitstring.
    #[inline]
    pub fn get(&self, bits: u64) -> u64 {
        self.map.get(&bits).copied().unwrap_or(0)
    }

    /// Records one observation.
    pub fn record(&mut self, bits: u64) {
        self.record_many(bits, 1);
    }

    /// Records `n` observations of the same bitstring.
    pub fn record_many(&mut self, bits: u64, n: u64) {
        debug_assert!(
            (bits as usize) < (1usize << self.num_bits),
            "bitstring out of range"
        );
        if n > 0 {
            *self.map.entry(bits).or_insert(0) += n;
            self.total += n;
        }
    }

    /// Merges another histogram (same width).
    pub fn merge(&mut self, other: &Counts) {
        assert_eq!(self.num_bits, other.num_bits, "bit width mismatch");
        for (&bits, &n) in &other.map {
            self.record_many(bits, n);
        }
    }

    /// Empirical probability of one bitstring.
    pub fn probability(&self, bits: u64) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.get(bits) as f64 / self.total as f64
        }
    }

    /// Iterator over observed `(bitstring, count)` pairs. The order is
    /// not sorted, but it is deterministic: histograms built by the same
    /// inserts iterate alike on every run.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.map.iter().map(|(&b, &c)| (b, c))
    }

    /// Converts to an empirical [`Distribution`].
    pub fn to_distribution(&self) -> Distribution {
        Distribution::from_counts(self.num_bits, self.iter())
    }

    /// Marginal counts over the given bit positions (output bit `i` = input
    /// bit `positions[i]`).
    pub fn marginal(&self, positions: &[usize]) -> Counts {
        for &p in positions {
            assert!(p < self.num_bits, "bit position {p} out of range");
        }
        let mut out = Counts::new(positions.len());
        for (&bits, &n) in &self.map {
            let mut key = 0u64;
            for (i, &p) in positions.iter().enumerate() {
                if bits & (1 << p) != 0 {
                    key |= 1 << i;
                }
            }
            out.record_many(key, n);
        }
        out
    }

    /// Splits each outcome into two groups of bit positions, returning
    /// joint counts keyed by `(group_a_bits, group_b_bits)`. Used by
    /// tomography to separate fragment-output bits from cut-qubit bits.
    pub fn split(
        &self,
        group_a: &[usize],
        group_b: &[usize],
    ) -> HashMap<(u64, u64), u64, OutcomeBuildHasher> {
        let mut out = HashMap::default();
        for (&bits, &n) in &self.map {
            let extract = |positions: &[usize]| -> u64 {
                let mut key = 0u64;
                for (i, &p) in positions.iter().enumerate() {
                    if bits & (1 << p) != 0 {
                        key |= 1 << i;
                    }
                }
                key
            };
            *out.entry((extract(group_a), extract(group_b))).or_insert(0) += n;
        }
        out
    }
}

impl fmt::Display for Counts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut entries: Vec<_> = self.map.iter().collect();
        entries.sort_by_key(|(b, _)| **b);
        writeln!(f, "counts ({} shots):", self.total)?;
        for (bits, n) in entries {
            writeln!(f, "  {:0width$b}: {n}", bits, width = self.num_bits)?;
        }
        Ok(())
    }
}

/// Most table entries per shot for which [`CdfTable::sample`] tallies in a
/// dense histogram; above it, zeroing and scanning the histogram costs more
/// than sorting the drawn indices. On a 2-vCPU Xeon, at 10–16 bits, the
/// two break even near 4 entries per shot; at 8, sorting is 25–35% faster,
/// and at 1, the dense tally is 20–35% faster.
const DENSE_TALLY_RATIO: u64 = 4;

/// Precomputed inverse-CDF sampling table over `2^num_bits` outcomes.
///
/// Building the cumulative table is `O(2^n)`. Callers that sample the
/// same distribution repeatedly (the prefix-sharing batch engine: every
/// job ending at the same trie leaf, JobGraph fan-out over one node) build
/// the table once and reuse it across `sample` calls. A call draws one
/// uniform and one binary search per shot, `O(shots · log dim)`, and then
/// builds its [`Counts`] with one insert per distinct outcome, not one per
/// shot. Sampling through a table is bit-identical to [`sample_counts`],
/// which is a build-then-sample wrapper.
#[derive(Debug, Clone)]
pub struct CdfTable {
    num_bits: usize,
    cdf: Vec<f64>,
    mass: f64,
    /// Index of the last outcome with non-zero probability: every draw is
    /// clamped to it, so a draw that rounds up to `mass` (possible when
    /// `mass` is subnormal) still lands on an outcome that can occur.
    last: usize,
}

impl CdfTable {
    /// Builds the cumulative table from a probability vector (length
    /// `2^num_bits`). Tiny negative entries are clamped and draws are
    /// scaled to the actual total mass, tolerating normalisation drift.
    pub fn from_probs(num_bits: usize, probs: &[f64]) -> Self {
        assert_eq!(probs.len(), 1 << num_bits, "probability vector length");
        let mut cdf = Vec::with_capacity(probs.len());
        let mut acc = 0.0f64;
        let mut last = 0;
        for (i, &p) in probs.iter().enumerate() {
            debug_assert!(p >= -1e-9, "negative probability {p}");
            if p > 0.0 {
                last = i;
            }
            acc += p.max(0.0);
            cdf.push(acc);
        }
        let mass = acc;
        assert!(mass > 0.0, "probability vector has no mass");
        CdfTable {
            num_bits,
            cdf,
            mass,
            last,
        }
    }

    /// Bits per outcome.
    #[inline]
    pub fn num_bits(&self) -> usize {
        self.num_bits
    }

    /// Samples `shots` outcomes by inverse-CDF binary search.
    ///
    /// The drawn indices are tallied before any map insert: in a dense
    /// histogram when the table has at most `DENSE_TALLY_RATIO` entries
    /// per shot, and otherwise by sorting the indices and counting runs,
    /// so a wide table sampled for a few shots is never scanned. Both
    /// tallies see the same draws, so the result does not depend on which
    /// one ran.
    pub fn sample<R: Rng + ?Sized>(&self, shots: u64, rng: &mut R) -> Counts {
        let mut draw = || {
            let u: f64 = rng.gen_range(0.0..self.mass);
            // Binary search for the first cdf entry > u.
            self.cdf.partition_point(|&c| c <= u).min(self.last)
        };
        if self.cdf.len() as u64 <= DENSE_TALLY_RATIO.saturating_mul(shots) {
            let mut tally = vec![0u64; self.cdf.len()];
            for _ in 0..shots {
                tally[draw()] += 1;
            }
            let distinct = tally.iter().filter(|&&n| n > 0).count();
            let mut counts = Counts::with_capacity(self.num_bits, distinct);
            for (idx, n) in tally.into_iter().enumerate() {
                counts.record_many(idx as u64, n);
            }
            counts
        } else {
            // Fewer than `len / DENSE_TALLY_RATIO` shots, so this buffer is
            // smaller than the table.
            let mut drawn: Vec<usize> = (0..shots).map(|_| draw()).collect();
            drawn.sort_unstable();
            let runs = || drawn.chunk_by(|a, b| a == b);
            let mut counts = Counts::with_capacity(self.num_bits, runs().count());
            for run in runs() {
                counts.record_many(run[0] as u64, run.len() as u64);
            }
            counts
        }
    }
}

/// Samples `shots` outcomes from a probability vector (length `2^num_bits`)
/// using an inverse-CDF table. One-shot wrapper over [`CdfTable`].
pub fn sample_counts<R: Rng + ?Sized>(
    num_bits: usize,
    probs: &[f64],
    shots: u64,
    rng: &mut R,
) -> Counts {
    CdfTable::from_probs(num_bits, probs).sample(shots, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn record_and_query() {
        let mut c = Counts::new(2);
        c.record(0b01);
        c.record(0b01);
        c.record(0b10);
        assert_eq!(c.total(), 3);
        assert_eq!(c.get(0b01), 2);
        assert_eq!(c.get(0b00), 0);
        assert!((c.probability(0b01) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = Counts::from_pairs(1, vec![(0, 5)]);
        let b = Counts::from_pairs(1, vec![(0, 1), (1, 4)]);
        a.merge(&b);
        assert_eq!(a.get(0), 6);
        assert_eq!(a.get(1), 4);
        assert_eq!(a.total(), 10);
    }

    #[test]
    fn to_distribution_matches_probabilities() {
        let c = Counts::from_pairs(2, vec![(0, 25), (3, 75)]);
        let d = c.to_distribution();
        assert!((d.get(0) - 0.25).abs() < 1e-12);
        assert!((d.get(3) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn marginal_collapses_bits() {
        let c = Counts::from_pairs(3, vec![(0b101, 4), (0b001, 6)]);
        let m = c.marginal(&[0]);
        assert_eq!(m.get(1), 10);
        let m2 = c.marginal(&[2]);
        assert_eq!(m2.get(1), 4);
        assert_eq!(m2.get(0), 6);
    }

    #[test]
    fn split_separates_groups() {
        // bits: [out1, out0 | cut] layout: positions 0 = cut, 1..=2 outputs.
        let c = Counts::from_pairs(3, vec![(0b110, 3), (0b111, 2), (0b000, 5)]);
        let joint = c.split(&[1, 2], &[0]);
        assert_eq!(joint[&(0b11, 0)], 3);
        assert_eq!(joint[&(0b11, 1)], 2);
        assert_eq!(joint[&(0b00, 0)], 5);
    }

    #[test]
    fn sampling_is_unbiased() {
        let mut rng = StdRng::seed_from_u64(1);
        let probs = [0.1, 0.2, 0.3, 0.4];
        let c = sample_counts(2, &probs, 100_000, &mut rng);
        assert_eq!(c.total(), 100_000);
        for (i, &p) in probs.iter().enumerate() {
            let f = c.probability(i as u64);
            assert!((f - p).abs() < 0.01, "outcome {i}: {f} vs {p}");
        }
    }

    #[test]
    fn sampling_point_mass_always_hits() {
        let mut rng = StdRng::seed_from_u64(2);
        let c = sample_counts(1, &[0.0, 1.0], 1000, &mut rng);
        assert_eq!(c.get(1), 1000);
    }

    #[test]
    fn sampling_tolerates_tiny_drift() {
        // Mass 0.999999 — draws are rescaled, no panic, all outcomes valid.
        let mut rng = StdRng::seed_from_u64(3);
        let c = sample_counts(1, &[0.499999, 0.5], 1000, &mut rng);
        assert_eq!(c.total(), 1000);
    }

    #[test]
    #[should_panic(expected = "no mass")]
    fn sampling_rejects_zero_mass() {
        let mut rng = StdRng::seed_from_u64(4);
        sample_counts(1, &[0.0, 0.0], 10, &mut rng);
    }

    #[test]
    fn reused_cdf_table_matches_fresh_sampling() {
        // The reuse contract: a table built once and sampled repeatedly
        // yields exactly what rebuilding it per call would — the identical
        // RNG consumption makes shared-leaf sampling bit-identical.
        let probs = [0.15, 0.35, 0.05, 0.45];
        let table = CdfTable::from_probs(2, &probs);
        assert_eq!(table.num_bits(), 2);
        let mut reused = StdRng::seed_from_u64(9);
        let mut fresh = StdRng::seed_from_u64(9);
        for shots in [1u64, 17, 500] {
            let a = table.sample(shots, &mut reused);
            let b = sample_counts(2, &probs, shots, &mut fresh);
            assert_eq!(a, b);
        }
    }

    /// The per-shot sampler `CdfTable::sample` replaced: one
    /// `partition_point`, clamp and `record` per shot. Kept as the
    /// reference the tallied sampler must reproduce bit for bit.
    fn per_shot_reference<R: Rng + ?Sized>(table: &CdfTable, shots: u64, rng: &mut R) -> Counts {
        let mut counts = Counts::new(table.num_bits);
        for _ in 0..shots {
            let u: f64 = rng.gen_range(0.0..table.mass);
            let idx = table.cdf.partition_point(|&c| c <= u).min(table.last);
            counts.record(idx as u64);
        }
        counts
    }

    /// Total masses the property scales its tables to. The subnormal ones
    /// make `u · mass` round up to `mass` itself, so the draw lands past
    /// the last cumulative entry and only the clamp to the last non-zero
    /// outcome keeps it in range.
    const MASSES: [f64; 5] = [1.0, 1e-3, 750.0, 1e-320, 5e-324];

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(384))]

        /// The tallied sampler equals the per-shot reference on every
        /// width, shot count (both tally branches and the switch between
        /// them), zero-probability runs at either end, unnormalised mass
        /// and single-outcome tables.
        #[test]
        fn tallied_sampling_matches_the_per_shot_reference(
            width in 0usize..13,
            shots in 0u64..3001,
            zeros in (0usize..6, 0usize..6),
            shape in (0usize..2, 0usize..MASSES.len()),
            seed in 0u64..1_000_000,
        ) {
            let len = 1usize << width;
            let mut gen = StdRng::seed_from_u64(seed);
            let lead = zeros.0.min(len - 1);
            let trail = zeros.1.min(len - 1 - lead);
            let (single, mass) = (shape.0 == 1, MASSES[shape.1]);
            let mut probs = vec![0.0f64; len];
            if single {
                probs[gen.gen_range(lead..len - trail)] = mass;
            } else {
                for p in &mut probs[lead..len - trail] {
                    *p = gen.gen::<f64>() * mass;
                }
                if probs.iter().all(|&p| p == 0.0) {
                    probs[lead] = mass;
                }
            }
            let table = CdfTable::from_probs(width, &probs);
            let got = table.sample(shots, &mut StdRng::seed_from_u64(seed ^ 0x5eed));
            let want = per_shot_reference(&table, shots, &mut StdRng::seed_from_u64(seed ^ 0x5eed));
            proptest::prop_assert_eq!(got.total(), shots);
            for (outcome, _) in got.iter() {
                proptest::prop_assert!(probs[outcome as usize] > 0.0, "drew outcome {}", outcome);
            }
            proptest::prop_assert_eq!(got, want, "width {} shots {}", width, shots);
        }
    }

    #[test]
    fn subnormal_mass_never_draws_a_zero_probability_outcome() {
        let table = CdfTable::from_probs(2, &[5e-324, 0.0, 0.0, 0.0]);
        let counts = table.sample(1000, &mut StdRng::seed_from_u64(3));
        assert_eq!(counts.get(0), 1000, "{counts}");
    }

    #[test]
    fn display_orders_bitstrings() {
        let c = Counts::from_pairs(2, vec![(2, 1), (0, 1)]);
        let s = c.to_string();
        let pos0 = s.find("00").unwrap();
        let pos2 = s.find("10").unwrap();
        assert!(pos0 < pos2);
    }
}
