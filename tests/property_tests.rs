//! Property-based tests (proptest) for the core invariants of the sketches
//! and the search pipeline.
//!
//! These complement the unit tests with randomised inputs: arbitrary record
//! contents, arbitrary budgets and thresholds. Each property encodes an
//! invariant the paper's correctness arguments rely on (Theorem 2's validity
//! of the G-KMV union, unbiasedness bounds, no-false-negatives of the exact
//! prefix filter, agreement between the accelerated and the scan search).

use proptest::collection::vec;
use proptest::prelude::*;

use gbkmv::core::dataset::{Dataset, Record};
use gbkmv::core::gkmv::{GKmvSketch, GlobalThreshold};
use gbkmv::core::hash::Hasher64;
use gbkmv::core::index::{ContainmentIndex, GbKmvConfig, GbKmvIndex};
use gbkmv::core::kmv::{intersection_variance, KmvSketch};
use gbkmv::core::sim::{containment, jaccard, SimilarityTransform};
use gbkmv::exact::brute::BruteForceIndex;
use gbkmv::exact::ppjoin::PpJoinIndex;

/// Strategy: a record as a set of element ids drawn from a smallish universe
/// so records overlap frequently.
fn record_strategy(max_universe: u32, max_len: usize) -> impl Strategy<Value = Vec<u32>> {
    vec(0..max_universe, 1..max_len)
}

/// Strategy: a small dataset of such records.
fn dataset_strategy(records: usize) -> impl Strategy<Value = Vec<Vec<u32>>> {
    vec(record_strategy(600, 80), 2..records)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn kmv_distinct_estimate_is_exact_for_small_records(elements in record_strategy(10_000, 60)) {
        // A record with at most 60 elements fits a k=64 sketch entirely, so
        // the estimate must equal the exact distinct count.
        let record = Record::new(elements);
        let sketch = KmvSketch::from_record(&record, &Hasher64::new(1), 64);
        prop_assert!(sketch.is_exhaustive());
        prop_assert_eq!(sketch.distinct_estimate() as usize, record.len());
    }

    #[test]
    fn kmv_union_sketch_is_subset_of_inputs(a in record_strategy(500, 60), b in record_strategy(500, 60)) {
        let hasher = Hasher64::new(2);
        let sa = KmvSketch::from_record(&Record::new(a), &hasher, 16);
        let sb = KmvSketch::from_record(&Record::new(b), &hasher, 16);
        let union = sa.union_with(&sb);
        prop_assert!(union.len() <= 16);
        for &h in union.hashes() {
            prop_assert!(sa.hashes().contains(&h) || sb.hashes().contains(&h));
        }
    }

    #[test]
    fn gkmv_saturated_pair_estimates_are_exact(a in record_strategy(400, 60), b in record_strategy(400, 60)) {
        // With τ = keep-all, the G-KMV pair estimate equals the exact
        // intersection and union sizes (the degenerate case of Theorem 2).
        let hasher = Hasher64::new(3);
        let ra = Record::new(a);
        let rb = Record::new(b);
        let sa = GKmvSketch::from_record(&ra, &hasher, GlobalThreshold::keep_all());
        let sb = GKmvSketch::from_record(&rb, &hasher, GlobalThreshold::keep_all());
        let pair = sa.pair_estimate(&sb);
        prop_assert_eq!(pair.k_intersection, ra.intersection_size(&rb));
        prop_assert_eq!(pair.k, ra.union_size(&rb));
        prop_assert!((pair.intersection_estimate - ra.intersection_size(&rb) as f64).abs() < 1e-9);
    }

    #[test]
    fn gkmv_k_is_never_smaller_than_either_sketch(a in record_strategy(400, 60), b in record_strategy(400, 60)) {
        // k = |L_Q ∪ L_X| ≥ max(|L_Q|, |L_X|): the quantity Theorem 3's
        // advantage over plain KMV rests on.
        let hasher = Hasher64::new(4);
        let threshold = GlobalThreshold { raw: u64::MAX / 3 };
        let sa = GKmvSketch::from_record(&Record::new(a), &hasher, threshold);
        let sb = GKmvSketch::from_record(&Record::new(b), &hasher, threshold);
        let pair = sa.pair_estimate(&sb);
        prop_assert!(pair.k >= sa.len().max(sb.len()));
        prop_assert!(pair.k_intersection <= sa.len().min(sb.len()));
    }

    #[test]
    fn containment_and_jaccard_relations_hold(a in record_strategy(300, 60), b in record_strategy(300, 60)) {
        let ra = Record::new(a);
        let rb = Record::new(b);
        let c = containment(&ra, &rb);
        let j = jaccard(&ra, &rb);
        prop_assert!((0.0..=1.0).contains(&c));
        prop_assert!((0.0..=1.0).contains(&j));
        // Containment is at least the Jaccard similarity (|Q| ≤ |Q ∪ X|).
        prop_assert!(c + 1e-12 >= j);
        // The Equation-12 transform maps the true Jaccard to the true
        // containment when fed the true record size.
        if !ra.is_empty() {
            let transform = SimilarityTransform::new(rb.len(), ra.len());
            prop_assert!((transform.jaccard_to_containment(j) - c).abs() < 1e-9);
        }
    }

    #[test]
    fn variance_formula_is_monotone_in_k(
        d_inter in 1.0f64..500.0,
        extra in 0.0f64..500.0,
        k in 3.0f64..200.0,
    ) {
        // Lemma 2: variance decreases as k grows.
        let d_union = d_inter + extra;
        let v1 = intersection_variance(d_inter, d_union, k);
        let v2 = intersection_variance(d_inter, d_union, k + 10.0);
        prop_assert!(v2 <= v1 + 1e-9);
    }

    #[test]
    fn ppjoin_has_no_false_negatives(records in dataset_strategy(25), t in 0.1f64..1.0) {
        let dataset = Dataset::from_records(records);
        let brute = BruteForceIndex::build(&dataset);
        let ppjoin = PpJoinIndex::build(&dataset);
        // Use the first record as the query.
        let query = dataset.record(0).clone();
        let truth = brute.ground_truth(&query, t);
        let answer: Vec<usize> = ppjoin
            .search(query.elements(), t)
            .iter()
            .map(|h| h.record_id)
            .collect();
        for id in truth {
            prop_assert!(answer.contains(&id), "ppjoin missed record {id} at t={t}");
        }
    }

    #[test]
    fn gbkmv_filtered_search_matches_scan(records in dataset_strategy(30), t in 0.2f64..0.9) {
        let dataset = Dataset::from_records(records);
        let filtered = GbKmvIndex::build(&dataset, GbKmvConfig::with_space_fraction(0.5));
        let query = dataset.record(dataset.len() / 2).clone();
        let mut a: Vec<usize> = filtered
            .search(query.elements(), t)
            .iter()
            .map(|h| h.record_id)
            .collect();
        let mut b: Vec<usize> = filtered
            .search_scan(&query, t)
            .iter()
            .map(|h| h.record_id)
            .collect();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn gbkmv_full_budget_search_is_exact(records in dataset_strategy(25), t in 0.2f64..0.9) {
        // With a budget covering the whole dataset every sketch is
        // saturated, so the approximate search must return exactly the
        // ground truth.
        let dataset = Dataset::from_records(records);
        let index = GbKmvIndex::build(&dataset, GbKmvConfig::with_space_fraction(2.0));
        let brute = BruteForceIndex::build(&dataset);
        let query = dataset.record(0).clone();
        let mut answer: Vec<usize> = index
            .search(query.elements(), t)
            .iter()
            .map(|h| h.record_id)
            .collect();
        let mut truth = brute.ground_truth(&query, t);
        answer.sort_unstable();
        truth.sort_unstable();
        prop_assert_eq!(answer, truth);
    }

    #[test]
    fn estimated_containment_is_bounded(records in dataset_strategy(20)) {
        let dataset = Dataset::from_records(records);
        let index = GbKmvIndex::build(&dataset, GbKmvConfig::with_space_fraction(0.4));
        let query = dataset.record(0);
        for rid in 0..dataset.len() {
            let est = index.estimate_containment(query, rid);
            prop_assert!(est >= 0.0);
            // The estimator divides an intersection estimate by |Q|; the
            // estimate can exceed 1 slightly through estimation error but
            // must stay within a sane bound.
            prop_assert!(est <= 3.0, "estimate {est} absurdly large");
        }
    }
}
