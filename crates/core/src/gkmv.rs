//! The G-KMV sketch: KMV with a **global hash-value threshold**.
//!
//! Plain KMV wastes budget because a record pair can only use
//! `k = min(k_X, k_Y)` values during estimation (Equation 8): giving a large
//! record a bigger signature does not help a pair involving a small record.
//! The paper's first technique (Section IV-A(2)) fixes this by choosing a
//! single global threshold `τ` and storing, for every record,
//! *all* hash values `≤ τ`:
//!
//! ```text
//! L_X = { h(e) : e ∈ X, h(e) ≤ τ }
//! ```
//!
//! Because every record keeps everything below `τ`, the k-th smallest value
//! of `L_Q ∪ L_X` is guaranteed to be the k-th smallest value of
//! `h(Q ∪ X)` for `k = |L_Q ∪ L_X|` (Theorem 2), so the pair estimator can
//! use this much larger `k` (Equation 24), which strictly reduces variance
//! (Lemma 2) and in expectation beats the uniform-k KMV allocation whenever
//! the element-frequency skew `α1 ≤ 3.4` (Theorem 3).
//!
//! The threshold itself is chosen from the space budget: `τ` is the largest
//! value such that the total number of stored hash values does not exceed
//! the budget `b` ([`GlobalThreshold::from_budget`]).

use serde::{Deserialize, Serialize};

use crate::dataset::{Dataset, ElementId, Record};
use crate::hash::{unit_hash, Hasher64};
use crate::kmv::sorted_intersection_count;

/// The global hash-value threshold `τ` shared by every record's G-KMV sketch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GlobalThreshold {
    /// The threshold as a raw 64-bit hash value (inclusive upper bound).
    pub raw: u64,
}

impl GlobalThreshold {
    /// A threshold that keeps every hash value (useful for exhaustive
    /// sketches and tests).
    pub fn keep_all() -> Self {
        GlobalThreshold { raw: u64::MAX }
    }

    /// The threshold mapped to the unit interval.
    pub fn unit(&self) -> f64 {
        unit_hash(self.raw)
    }

    /// Whether a hash value passes the threshold.
    #[inline]
    pub fn admits(&self, hash: u64) -> bool {
        hash <= self.raw
    }

    /// Chooses the largest `τ` such that the total number of stored hash
    /// values across the dataset is at most `budget` (measured in hash
    /// values, i.e. "elements" in the paper's accounting).
    ///
    /// This is Line 3 of Algorithm 1. The implementation materialises the
    /// hash of every (record, element) incidence and selects the budget-th
    /// smallest with a linear-time selection; if the budget covers every
    /// incidence the threshold saturates at `u64::MAX`.
    pub fn from_budget(dataset: &Dataset, hasher: &Hasher64, budget: usize) -> Self {
        Self::from_budget_excluding(dataset, hasher, budget, |_| false)
    }

    /// Like [`GlobalThreshold::from_budget`] but ignoring elements for which
    /// `excluded` returns true — used by GB-KMV, whose buffered
    /// high-frequency elements are kept exactly and must not consume G-KMV
    /// budget.
    pub fn from_budget_excluding<F>(
        dataset: &Dataset,
        hasher: &Hasher64,
        budget: usize,
        excluded: F,
    ) -> Self
    where
        F: Fn(ElementId) -> bool,
    {
        if budget == 0 {
            return GlobalThreshold { raw: 0 };
        }
        let mut hashes: Vec<u64> = Vec::new();
        for record in dataset.records() {
            for e in record.iter() {
                if !excluded(e) {
                    hashes.push(hasher.hash(e));
                }
            }
        }
        if hashes.is_empty() || budget >= hashes.len() {
            return GlobalThreshold::keep_all();
        }
        // The budget-th smallest hash value (0-indexed budget-1) is the
        // largest admissible threshold: keeping it and everything below uses
        // exactly `budget` slots — unless an element shared by several
        // records ties at the threshold, in which case admitting the tied
        // value would overshoot; step just below it to stay within budget.
        let idx = budget - 1;
        let (_, nth, _) = hashes.select_nth_unstable(idx);
        let mut raw = *nth;
        let admitted = hashes.iter().filter(|&&h| h <= raw).count();
        if admitted > budget {
            raw = raw.saturating_sub(1);
        }
        GlobalThreshold { raw }
    }
}

/// A G-KMV sketch: every hash value of the record that is at most the global
/// threshold, sorted ascending.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct GKmvSketch {
    hashes: Vec<u64>,
    /// True when the threshold admitted every element of the record, in which
    /// case pairwise estimates with another saturated sketch are exact.
    saturated: bool,
}

/// Intermediate quantities of a pairwise G-KMV estimation (Equations 24–25).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GKmvPairEstimate {
    /// `k = |L_Q ∪ L_X|`.
    pub k: usize,
    /// `K∩ = |L_Q ∩ L_X|`.
    pub k_intersection: usize,
    /// The k-th smallest hash value of the union on the unit interval.
    pub u_k: f64,
    /// Estimated `|Q ∪ X|`.
    pub union_estimate: f64,
    /// Estimated `|Q ∩ X|` (Equation 25).
    pub intersection_estimate: f64,
    /// Whether both sketches were saturated, making the estimate exact.
    pub exact: bool,
}

impl GKmvPairEstimate {
    /// Computes the Equation 24–25 estimate from the scalar summaries of a
    /// sketch pair: the two signature lengths, the number of shared hash
    /// values `K∩`, the largest hash value present in either sketch, and
    /// whether *both* sketches are saturated.
    ///
    /// This is the single source of the estimator arithmetic: both
    /// [`GKmvSketch::pair_estimate`] (which derives the parts from two
    /// materialised sketches) and the accumulator-based query engine in
    /// [`crate::index`] (which accumulates `K∩` term-at-a-time over inverted
    /// postings and reads the other parts from the flattened
    /// [`crate::store::SketchStore`]) call it, so the two paths are
    /// bit-identical by construction.
    pub fn from_parts(
        len_a: usize,
        len_b: usize,
        k_intersection: usize,
        max_hash: u64,
        both_saturated: bool,
    ) -> Self {
        let k = len_a + len_b - k_intersection;
        if both_saturated {
            // Both sketches kept everything: the counts are exact.
            return GKmvPairEstimate {
                k,
                k_intersection,
                u_k: 1.0,
                union_estimate: k as f64,
                intersection_estimate: k_intersection as f64,
                exact: true,
            };
        }
        if k == 0 {
            return GKmvPairEstimate {
                k: 0,
                k_intersection: 0,
                u_k: 1.0,
                union_estimate: 0.0,
                intersection_estimate: 0.0,
                exact: false,
            };
        }
        let u_k = unit_hash(max_hash);
        let (union_estimate, intersection_estimate) = if k >= 2 {
            let union = (k as f64 - 1.0) / u_k;
            let inter = (k_intersection as f64 / k as f64) * union;
            (union, inter)
        } else {
            (k as f64, k_intersection as f64)
        };
        GKmvPairEstimate {
            k,
            k_intersection,
            u_k,
            union_estimate,
            intersection_estimate,
            exact: false,
        }
    }
}

impl GKmvSketch {
    /// Builds the G-KMV sketch of a record.
    pub fn from_record(record: &Record, hasher: &Hasher64, threshold: GlobalThreshold) -> Self {
        Self::from_record_excluding(record, hasher, threshold, |_| false)
    }

    /// Builds the G-KMV sketch of a record, skipping elements for which
    /// `excluded` returns true (the buffered elements in GB-KMV).
    pub fn from_record_excluding<F>(
        record: &Record,
        hasher: &Hasher64,
        threshold: GlobalThreshold,
        excluded: F,
    ) -> Self
    where
        F: Fn(ElementId) -> bool,
    {
        Self::from_elements_excluding(record.elements(), hasher, threshold, excluded)
    }

    /// Builds the G-KMV sketch from a borrowed element slice (duplicates are
    /// tolerated — hash values are deduplicated), skipping elements for which
    /// `excluded` returns true. This is the allocation-light path used by
    /// [`crate::index::ContainmentIndex::search`].
    pub fn from_elements_excluding<F>(
        elements: &[ElementId],
        hasher: &Hasher64,
        threshold: GlobalThreshold,
        excluded: F,
    ) -> Self
    where
        F: Fn(ElementId) -> bool,
    {
        let mut hashes = Vec::new();
        let mut admitted_all = true;
        for e in elements.iter().copied() {
            if excluded(e) {
                continue;
            }
            let h = hasher.hash(e);
            if threshold.admits(h) {
                hashes.push(h);
            } else {
                admitted_all = false;
            }
        }
        hashes.sort_unstable();
        hashes.dedup();
        GKmvSketch {
            hashes,
            saturated: admitted_all,
        }
    }

    /// Builds a sketch from raw hash values (for tests and serialisation).
    pub fn from_hashes(mut hashes: Vec<u64>, saturated: bool) -> Self {
        hashes.sort_unstable();
        hashes.dedup();
        GKmvSketch { hashes, saturated }
    }

    /// Number of stored hash values.
    #[inline]
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// Whether the sketch stores no hash values.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    /// Whether the threshold admitted every (non-excluded) element.
    #[inline]
    pub fn is_saturated(&self) -> bool {
        self.saturated
    }

    /// The stored hash values in ascending order.
    #[inline]
    pub fn hashes(&self) -> &[u64] {
        &self.hashes
    }

    /// Pairwise estimation with `k = |L_Q ∪ L_X|` (Equations 24–25).
    pub fn pair_estimate(&self, other: &GKmvSketch) -> GKmvPairEstimate {
        let k_intersection = sorted_intersection_count(&self.hashes, &other.hashes);
        // U(k) is the largest hash value present in either sketch: because
        // both sketches keep *all* values below τ, the k-th smallest value of
        // the union of the sketches is the k-th smallest value of h(Q ∪ X)
        // (Theorem 2).
        let max_hash = self
            .hashes
            .last()
            .copied()
            .unwrap_or(0)
            .max(other.hashes.last().copied().unwrap_or(0));
        GKmvPairEstimate::from_parts(
            self.hashes.len(),
            other.hashes.len(),
            k_intersection,
            max_hash,
            self.saturated && other.saturated,
        )
    }

    /// Estimated intersection size `|Q ∩ X|` (Equation 25).
    pub fn intersection_estimate(&self, other: &GKmvSketch) -> f64 {
        self.pair_estimate(other).intersection_estimate
    }

    /// Estimated containment similarity `C(Q, X)` given the (known) query
    /// size (Equation 26).
    pub fn containment_estimate(&self, other: &GKmvSketch, query_size: usize) -> f64 {
        if query_size == 0 {
            return 0.0;
        }
        self.intersection_estimate(other) / query_size as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{Dataset, Record};
    use crate::hash::Hasher64;

    fn rec(v: &[u32]) -> Record {
        Record::new(v.to_vec())
    }

    fn big_dataset() -> Dataset {
        // 50 records of 200 elements each with heavy overlap.
        Dataset::from_records(
            (0..50u32)
                .map(|i| (i * 20..i * 20 + 200).collect::<Vec<_>>())
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn threshold_respects_budget() {
        let dataset = big_dataset();
        let hasher = Hasher64::new(1);
        let budget = 500;
        let threshold = GlobalThreshold::from_budget(&dataset, &hasher, budget);
        let stored: usize = dataset
            .records()
            .iter()
            .map(|r| {
                r.iter()
                    .filter(|&e| threshold.admits(hasher.hash(e)))
                    .count()
            })
            .sum();
        assert!(stored <= budget, "stored {stored} exceeds budget {budget}");
        // The threshold is maximal: admitting the next larger hash value
        // would exceed the budget. We check it is at least 80% utilised.
        assert!(
            stored * 10 >= budget * 8,
            "budget badly under-utilised: {stored}/{budget}"
        );
    }

    #[test]
    fn huge_budget_saturates_threshold() {
        let dataset = big_dataset();
        let hasher = Hasher64::new(1);
        let threshold = GlobalThreshold::from_budget(&dataset, &hasher, usize::MAX / 2);
        assert_eq!(threshold.raw, u64::MAX);
    }

    #[test]
    fn zero_budget_admits_nothing() {
        let dataset = big_dataset();
        let hasher = Hasher64::new(1);
        let threshold = GlobalThreshold::from_budget(&dataset, &hasher, 0);
        let sketch = GKmvSketch::from_record(dataset.record(0), &hasher, threshold);
        // Only elements hashing to exactly 0 could get through; none do here.
        assert!(sketch.len() <= 1);
    }

    #[test]
    fn excluding_elements_frees_budget() {
        let dataset = big_dataset();
        let hasher = Hasher64::new(1);
        let budget = 500;
        let plain = GlobalThreshold::from_budget(&dataset, &hasher, budget);
        // Exclude half the universe: the same budget now admits a larger τ.
        let excl =
            GlobalThreshold::from_budget_excluding(&dataset, &hasher, budget, |e| e % 2 == 0);
        assert!(excl.raw >= plain.raw);
    }

    #[test]
    fn saturated_sketches_give_exact_counts() {
        let hasher = Hasher64::new(2);
        let threshold = GlobalThreshold::keep_all();
        let q = GKmvSketch::from_record(&rec(&[1, 2, 3, 5, 7, 9]), &hasher, threshold);
        let x = GKmvSketch::from_record(&rec(&[1, 2, 3, 4, 7]), &hasher, threshold);
        let pair = q.pair_estimate(&x);
        assert!(pair.exact);
        assert_eq!(pair.intersection_estimate, 4.0);
        assert_eq!(pair.union_estimate, 7.0);
        assert!((q.containment_estimate(&x, 6) - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn pair_estimate_accuracy_on_large_sets() {
        let hasher = Hasher64::new(3);
        let a = rec(&(0..5000).collect::<Vec<_>>());
        let b = rec(&(2500..7500).collect::<Vec<_>>());
        let dataset = Dataset::from_records(vec![
            (0..5000).collect::<Vec<_>>(),
            (2500..7500).collect::<Vec<_>>(),
        ]);
        // 20% budget.
        let threshold = GlobalThreshold::from_budget(&dataset, &hasher, 2000);
        let sa = GKmvSketch::from_record(&a, &hasher, threshold);
        let sb = GKmvSketch::from_record(&b, &hasher, threshold);
        let est = sa.intersection_estimate(&sb);
        assert!(
            (est - 2500.0).abs() / 2500.0 < 0.25,
            "intersection estimate {est} too far from 2500"
        );
        let union_est = sa.pair_estimate(&sb).union_estimate;
        assert!(
            (union_est - 7500.0).abs() / 7500.0 < 0.25,
            "union estimate {union_est} too far from 7500"
        );
    }

    #[test]
    fn gkmv_uses_larger_k_than_kmv_under_same_budget() {
        // The core claim behind Theorem 3: for the same total budget, the k
        // value available to a record pair is larger with a global threshold
        // than with the uniform ⌊b/m⌋ allocation.
        use crate::kmv::KmvSketch;
        let dataset = big_dataset();
        let hasher = Hasher64::new(4);
        let budget = 1000;
        let per_record_k = budget / dataset.len();
        let threshold = GlobalThreshold::from_budget(&dataset, &hasher, budget);

        let a = dataset.record(0);
        let b = dataset.record(1);
        let kmv_k = KmvSketch::from_record(a, &hasher, per_record_k)
            .pair_estimate(&KmvSketch::from_record(b, &hasher, per_record_k))
            .k;
        let gkmv_k = GKmvSketch::from_record(a, &hasher, threshold)
            .pair_estimate(&GKmvSketch::from_record(b, &hasher, threshold))
            .k;
        assert!(
            gkmv_k >= kmv_k,
            "G-KMV k ({gkmv_k}) should be at least the KMV k ({kmv_k})"
        );
    }

    #[test]
    fn empty_sketches() {
        let a = GKmvSketch::default();
        let b = GKmvSketch::from_hashes(vec![1, 2, 3], false);
        assert_eq!(a.pair_estimate(&b).intersection_estimate, 0.0);
        assert_eq!(a.containment_estimate(&b, 0), 0.0);
        assert!(a.is_empty());
    }

    #[test]
    fn paper_example_4_gkmv_estimate() {
        // Figure 3 / Example 4: with τ = 0.5 the signatures of Q and X1 are
        // {0.10, 0.24, 0.33} and {0.24, 0.33, 0.47}; k = 4, U(k) = 0.47,
        // K∩ = 2 → D̂∩ = 2/4 · 3/0.47 ≈ 3.19 and containment ≈ 0.53.
        // We reproduce the arithmetic by injecting the paper's hash values
        // scaled onto u64.
        fn to_raw(u: f64) -> u64 {
            (u * 1.844_674_407_370_955_2e19) as u64
        }
        let q = GKmvSketch::from_hashes(vec![to_raw(0.10), to_raw(0.24), to_raw(0.33)], false);
        let x1 = GKmvSketch::from_hashes(vec![to_raw(0.24), to_raw(0.33), to_raw(0.47)], false);
        let pair = q.pair_estimate(&x1);
        assert_eq!(pair.k, 4);
        assert_eq!(pair.k_intersection, 2);
        assert!((pair.u_k - 0.47).abs() < 1e-6);
        assert!((pair.intersection_estimate - 3.19).abs() < 0.02);
        let containment = pair.intersection_estimate / 6.0;
        assert!((containment - 0.53).abs() < 0.01);
    }
}
