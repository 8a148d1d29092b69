//! Bitstring (quasi-)distributions.
//!
//! Reconstruction from circuit fragments produces *quasi*-distributions:
//! real vectors that sum to ≈1 but may carry small negative entries from
//! shot noise. [`Distribution`] stores raw values and offers the
//! post-processing maps used in the literature (clip-and-renormalise,
//! Euclidean simplex projection).

use serde::{Deserialize, Serialize};
use std::fmt;

/// A real-valued vector indexed by bitstrings of `num_bits` bits.
/// Probabilities for proper distributions; possibly-negative quasi-
/// probabilities for reconstruction outputs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Distribution {
    num_bits: usize,
    values: Vec<f64>,
}

impl Distribution {
    /// The all-zeros distribution on `num_bits` bits.
    pub fn zeros(num_bits: usize) -> Self {
        Distribution {
            num_bits,
            values: vec![0.0; 1 << num_bits],
        }
    }

    /// Wraps a dense value vector; `values.len()` must be `2^num_bits`.
    pub fn from_values(num_bits: usize, values: Vec<f64>) -> Self {
        assert_eq!(values.len(), 1 << num_bits, "length must be 2^num_bits");
        Distribution { num_bits, values }
    }

    /// Builds an empirical distribution from `(bitstring, count)` pairs.
    pub fn from_counts<I: IntoIterator<Item = (u64, u64)>>(num_bits: usize, counts: I) -> Self {
        let mut d = Self::zeros(num_bits);
        let mut total = 0u64;
        let mut acc: Vec<u64> = vec![0; 1 << num_bits];
        for (bits, c) in counts {
            assert!(
                (bits as usize) < (1usize << num_bits),
                "bitstring {bits:#b} out of range for {num_bits} bits"
            );
            acc[bits as usize] += c;
            total += c;
        }
        if total > 0 {
            for (v, c) in d.values.iter_mut().zip(acc) {
                *v = c as f64 / total as f64;
            }
        }
        d
    }

    /// The uniform distribution.
    pub fn uniform(num_bits: usize) -> Self {
        let dim = 1usize << num_bits;
        Distribution {
            num_bits,
            values: vec![1.0 / dim as f64; dim],
        }
    }

    /// A point mass on one bitstring.
    pub fn point_mass(num_bits: usize, bits: u64) -> Self {
        let mut d = Self::zeros(num_bits);
        d.values[bits as usize] = 1.0;
        d
    }

    /// Number of bits.
    #[inline]
    pub fn num_bits(&self) -> usize {
        self.num_bits
    }

    /// Number of outcomes, `2^num_bits`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.values.len()
    }

    /// Value for one bitstring.
    #[inline]
    pub fn get(&self, bits: u64) -> f64 {
        self.values[bits as usize]
    }

    /// Sets the value for one bitstring.
    #[inline]
    pub fn set(&mut self, bits: u64, v: f64) {
        self.values[bits as usize] = v;
    }

    /// Raw values.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable raw values.
    #[inline]
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Sum of all entries.
    pub fn total_mass(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Smallest entry (negative for quasi-distributions).
    pub fn min_value(&self) -> f64 {
        self.values.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// True when all entries are ≥ `-tol` and the mass is within `tol` of 1.
    pub fn is_proper(&self, tol: f64) -> bool {
        self.min_value() >= -tol && (self.total_mass() - 1.0).abs() <= tol
    }

    /// Negative mass `Σ_x max(0, -p(x))` — a standard quasi-distribution
    /// quality metric.
    pub fn negativity(&self) -> f64 {
        self.values.iter().map(|v| (-v).max(0.0)).sum()
    }

    /// Clip negative entries to zero and renormalise. Returns the uniform
    /// distribution if everything clipped to zero.
    pub fn clip_renormalize(&self) -> Distribution {
        let mut out = self.clone();
        out.clip_renormalize_in_place();
        out
    }

    /// [`clip_renormalize`](Self::clip_renormalize) without a copy: the
    /// entries are overwritten.
    pub fn clip_renormalize_in_place(&mut self) {
        // One pass clips and sums. `-0.0` is the start `f64: Sum` uses, so
        // the mass is bit-identical to summing the clipped entries.
        let mut mass = -0.0f64;
        for v in &mut self.values {
            *v = v.max(0.0);
            mass += *v;
        }
        if mass <= 0.0 {
            self.fill_uniform();
            return;
        }
        for v in &mut self.values {
            *v /= mass;
        }
    }

    /// Euclidean projection onto the probability simplex (the
    /// maximum-likelihood-flavoured post-processing of Perlin et al.,
    /// algorithm of Held et al. / Duchi et al.).
    pub fn project_to_simplex(&self) -> Distribution {
        let mut out = self.clone();
        out.project_to_simplex_in_place();
        out
    }

    /// [`project_to_simplex`](Self::project_to_simplex) that overwrites the
    /// entries; only the sorted copy that finds the threshold is allocated.
    pub fn project_to_simplex_in_place(&mut self) {
        let n = self.values.len();
        let mut sorted = self.values.clone();
        sorted.sort_by(|a, b| b.total_cmp(a));
        let mut cum = 0.0;
        let mut theta = 0.0;
        let mut found = false;
        for (i, &v) in sorted.iter().enumerate() {
            cum += v;
            let t = (cum - 1.0) / (i + 1) as f64;
            if i + 1 == n || sorted[i + 1] <= t {
                // check condition v_{i+1} <= t means rho = i+1
                if v > t {
                    theta = t;
                    found = true;
                    break;
                }
            }
        }
        if !found {
            // All mass clipped (pathological input): fall back to uniform.
            self.fill_uniform();
            return;
        }
        for v in &mut self.values {
            *v = (*v - theta).max(0.0);
        }
    }

    /// Overwrites every entry with `1 / dim`, as [`uniform`](Self::uniform).
    fn fill_uniform(&mut self) {
        let p = 1.0 / self.values.len() as f64;
        self.values.fill(p);
    }

    /// Marginal distribution over the given bit positions (in the order
    /// given: output bit `i` = input bit `positions[i]`).
    pub fn marginal(&self, positions: &[usize]) -> Distribution {
        for &p in positions {
            assert!(p < self.num_bits, "bit position {p} out of range");
        }
        let mut out = Distribution::zeros(positions.len());
        for (idx, &v) in self.values.iter().enumerate() {
            let mut key = 0u64;
            for (i, &p) in positions.iter().enumerate() {
                if idx & (1 << p) != 0 {
                    key |= 1 << i;
                }
            }
            out.values[key as usize] += v;
        }
        out
    }

    /// Iterator over `(bitstring, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.values.iter().enumerate().map(|(i, &v)| (i as u64, v))
    }

    /// Most probable outcome `(bitstring, value)`.
    pub fn mode(&self) -> (u64, f64) {
        let (i, v) = self
            .values
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .expect("distribution is non-empty");
        (i as u64, *v)
    }
}

impl fmt::Display for Distribution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "distribution over {} bits:", self.num_bits)?;
        for (bits, v) in self.iter() {
            if v.abs() > 1e-6 {
                writeln!(f, "  {:0width$b}: {v:+.6}", bits, width = self.num_bits)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_counts_normalises() {
        let d = Distribution::from_counts(2, vec![(0, 30), (3, 70)]);
        assert!((d.get(0) - 0.3).abs() < 1e-12);
        assert!((d.get(3) - 0.7).abs() < 1e-12);
        assert!((d.total_mass() - 1.0).abs() < 1e-12);
        assert!(d.is_proper(1e-12));
    }

    #[test]
    fn from_counts_merges_duplicate_keys() {
        let d = Distribution::from_counts(1, vec![(0, 1), (0, 1), (1, 2)]);
        assert!((d.get(0) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_counts_rejects_oversized_bitstring() {
        Distribution::from_counts(1, vec![(2, 1)]);
    }

    #[test]
    fn uniform_and_point_mass() {
        let u = Distribution::uniform(3);
        assert!((u.get(5) - 0.125).abs() < 1e-12);
        let p = Distribution::point_mass(3, 6);
        assert_eq!(p.get(6), 1.0);
        assert_eq!(p.get(0), 0.0);
        assert_eq!(p.mode(), (6, 1.0));
    }

    #[test]
    fn quasi_distribution_metrics() {
        let d = Distribution::from_values(1, vec![1.1, -0.1]);
        assert!((d.total_mass() - 1.0).abs() < 1e-12);
        assert!(!d.is_proper(1e-6));
        assert!((d.negativity() - 0.1).abs() < 1e-12);
        assert_eq!(d.min_value(), -0.1);
    }

    #[test]
    fn clip_renormalize_restores_properness() {
        let d = Distribution::from_values(1, vec![1.1, -0.1]);
        let c = d.clip_renormalize();
        assert!(c.is_proper(1e-12));
        assert_eq!(c.get(0), 1.0);
    }

    #[test]
    fn clip_renormalize_of_all_negative_is_uniform() {
        let d = Distribution::from_values(1, vec![-0.5, -0.5]);
        assert_eq!(d.clip_renormalize(), Distribution::uniform(1));
    }

    #[test]
    fn simplex_projection_is_proper_and_idempotent() {
        let d = Distribution::from_values(2, vec![0.6, -0.2, 0.5, 0.1]);
        let p = d.project_to_simplex();
        assert!(p.is_proper(1e-9), "projection not proper: {p}");
        let pp = p.project_to_simplex();
        for i in 0..4 {
            assert!((p.get(i) - pp.get(i)).abs() < 1e-9, "not idempotent");
        }
    }

    #[test]
    fn simplex_projection_fixes_proper_distributions() {
        let d = Distribution::from_values(2, vec![0.1, 0.2, 0.3, 0.4]);
        let p = d.project_to_simplex();
        for i in 0..4 {
            assert!((p.get(i) - d.get(i)).abs() < 1e-9);
        }
    }

    #[test]
    fn simplex_projection_minimises_distance_vs_clip() {
        // Euclidean projection must be at least as close (in L2) as
        // clip+renormalise.
        let d = Distribution::from_values(2, vec![0.7, -0.3, 0.45, 0.15]);
        let proj = d.project_to_simplex();
        let clip = d.clip_renormalize();
        let l2 = |a: &Distribution| -> f64 {
            a.values()
                .iter()
                .zip(d.values())
                .map(|(x, y)| (x - y) * (x - y))
                .sum()
        };
        assert!(l2(&proj) <= l2(&clip) + 1e-12);
    }

    #[test]
    fn marginal_sums_out_other_bits() {
        // p over 2 bits; marginal on bit 1.
        let d = Distribution::from_values(2, vec![0.1, 0.2, 0.3, 0.4]);
        let m = d.marginal(&[1]);
        assert_eq!(m.num_bits(), 1);
        assert!((m.get(0) - 0.3).abs() < 1e-12); // bits 00 + 01
        assert!((m.get(1) - 0.7).abs() < 1e-12); // bits 10 + 11
    }

    #[test]
    fn marginal_reorders_bits() {
        let mut d = Distribution::zeros(2);
        d.set(0b01, 1.0); // bit0=1, bit1=0
        let m = d.marginal(&[1, 0]); // new bit0 = old bit1, new bit1 = old bit0
        assert_eq!(m.get(0b10), 1.0);
    }

    #[test]
    fn empty_counts_give_zeros() {
        let d = Distribution::from_counts(2, vec![]);
        assert_eq!(d.total_mass(), 0.0);
    }
}
