//! Workload definitions, seeded input generation and exact ground truth.
//!
//! Nothing here is timed: inputs and ground truth are produced before any
//! measured phase starts.

use std::path::Path;

use gbkmv_core::dataset::{Dataset, Record, RecordId};
use gbkmv_core::index::SearchHit;
use gbkmv_datagen::queries::QueryWorkload;
use gbkmv_datagen::synthetic::{SyntheticConfig, SyntheticStream};
use gbkmv_exact::brute::BruteForceIndex;
use gbkmv_exact::freqset::FrequentSetIndex;

/// Containment threshold `t*` of every workload.
pub const T_STAR: f64 = 0.5;
/// Space budget of every workload, as a fraction of element occurrences.
pub const SPACE_FRACTION: f64 = 0.10;
/// Records in each workload's dataset.
pub const RECORDS: usize = 100_000;
/// Distinct queries sampled from the indexed records. The timed loop makes
/// passes over them, so each query is timed several times.
pub const QUERY_POOL: usize = 1_000;
/// Leading queries of the pool scored against exact ground truth.
pub const ACCURACY_QUERIES: usize = 1_000;
/// Leading queries of the pool checked hit-for-hit against the scan.
pub const SCAN_CHECK_QUERIES: usize = 24;
/// Queries answered by both exact oracles to cross-check them.
pub const ORACLE_CROSS_CHECK: usize = 4;
/// Share of the dataset the serve workload builds; the rest is ingested.
pub const SERVE_BASE_FRACTION: f64 = 0.9;
/// Held-out records the search workload's writer submits.
pub const SEARCH_INGEST_POOL: usize = 10_000;
/// Records per `submit_batch` call of the writer (B).
pub const INGEST_BATCH: usize = 16;
/// Writer flushes between two in-place delta checkpoints (K).
pub const FLUSHES_PER_CHECKPOINT: usize = 8;

/// A named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Storage shards of the built index.
    pub shards: usize,
    /// Search workload: `Some(flushes)`, query passes over the pool
    /// alternate with ingest slices of that many flushes. Serve workload:
    /// `None`, one reader and one writer run concurrently.
    pub flushes_per_slice: Option<usize>,
}

impl Workload {
    /// Whether a reader and a writer run concurrently (`skewed_serve`).
    pub fn concurrent(&self) -> bool {
        self.flushes_per_slice.is_none()
    }
}

/// Zipf-skewed data at the paper's operating point, seeded by `seed`.
pub fn synthetic(seed: u64) -> SyntheticConfig {
    SyntheticConfig {
        num_records: RECORDS,
        universe_size: 20_000,
        alpha_element_freq: 1.1,
        alpha_record_size: 3.0,
        min_record_len: 10,
        max_record_len: 500,
        seed,
    }
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["skewed_search", "skewed_serve"];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    let w = match name {
        "skewed_search" => Workload {
            name: "skewed_search",
            shards: 1,
            flushes_per_slice: Some(64),
        },
        "skewed_serve" => Workload {
            name: "skewed_serve",
            shards: 4,
            flushes_per_slice: None,
        },
        _ => return None,
    };
    Some(w)
}

/// The generated inputs of one run.
#[derive(Debug)]
pub struct Inputs {
    /// Records the index (or the service's seed index) is built over.
    pub base: Dataset,
    /// Records the writer submits, cycled in order.
    pub ingest: Vec<Record>,
    /// Query pool: records sampled from `base`.
    pub queries: Vec<Record>,
}

impl Inputs {
    /// Generates the workload's inputs from `seed`.
    pub fn generate(w: &Workload, seed: u64) -> Self {
        let mut config = synthetic(seed);
        let base_len = if w.concurrent() {
            (config.num_records as f64 * SERVE_BASE_FRACTION) as usize
        } else {
            config.num_records += SEARCH_INGEST_POOL;
            RECORDS
        };
        let mut records: Vec<Record> = SyntheticStream::new(config).collect();
        let ingest = records.split_off(base_len);
        let base = Dataset::from_records(records);
        let queries =
            QueryWorkload::sample_from_dataset(&base, QUERY_POOL, seed ^ 0x9e37_79b9).queries;
        Inputs {
            base,
            ingest,
            queries,
        }
    }
}

fn sorted_ids(hits: Vec<SearchHit>) -> Vec<RecordId> {
    let mut v: Vec<RecordId> = hits.into_iter().map(|h| h.record_id).collect();
    v.sort_unstable();
    v
}

/// Exact ground truth of `queries` over `dataset` from the `gbkmv-exact`
/// brute-force oracle, on all available cores (two on the reference host).
pub fn ground_truth(dataset: &Dataset, queries: &[Record]) -> Vec<Vec<RecordId>> {
    let oracle = BruteForceIndex::build(dataset);
    gbkmv_core::parallel::par_map(queries, 0, |q| sorted_ids(oracle.search_record(q, T_STAR)))
}

/// Answers the first [`ORACLE_CROSS_CHECK`] queries with brute force and
/// with `FrequentSetIndex`, and reports any disagreement.
pub fn cross_check_oracles(dataset: &Dataset, queries: &[Record]) -> Result<(), String> {
    let sample = &queries[..ORACLE_CROSS_CHECK.min(queries.len())];
    let brute = ground_truth(dataset, sample);
    let freqset = FrequentSetIndex::build(dataset);
    for (i, (q, expected)) in sample.iter().zip(&brute).enumerate() {
        let got = sorted_ids(freqset.search_record(q, T_STAR));
        if &got != expected {
            return Err(format!(
                "exact oracles disagree on query {i}: brute force {} hits, FrequentSet {}",
                expected.len(),
                got.len()
            ));
        }
    }
    Ok(())
}

/// Ground truth read from `cache` when it was written for the same
/// `fingerprint`, otherwise computed and written there. Ground truth
/// depends only on the data and the seed, so a repeated seed skips the
/// oracle; a missing or stale file is recomputed, never trusted.
pub fn cached_ground_truth(
    cache: &Path,
    fingerprint: &str,
    compute: impl FnOnce() -> Vec<Vec<RecordId>>,
) -> (Vec<Vec<RecordId>>, bool) {
    if let Some(truth) = read_truth(cache, fingerprint) {
        return (truth, true);
    }
    let truth = compute();
    // A cache that cannot be written only costs the next run time.
    let _ = write_truth(cache, fingerprint, &truth);
    (truth, false)
}

fn read_truth(path: &Path, fingerprint: &str) -> Option<Vec<Vec<RecordId>>> {
    let text = std::fs::read_to_string(path).ok()?;
    // The end marker proves the writer finished.
    let body = text.strip_suffix("end\n")?;
    let mut lines = body.lines();
    if lines.next()? != fingerprint {
        return None;
    }
    lines
        .map(|line| line.split_whitespace().map(|t| t.parse().ok()).collect())
        .collect()
}

fn write_truth(path: &Path, fingerprint: &str, truth: &[Vec<RecordId>]) -> std::io::Result<()> {
    let mut text = format!("{fingerprint}\n");
    for ids in truth {
        let line: Vec<String> = ids.iter().map(ToString::to_string).collect();
        text.push_str(&line.join(" "));
        text.push('\n');
    }
    text.push_str("end\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let tmp = path.with_extension(format!("tmp{}", std::process::id()));
    std::fs::write(&tmp, text)?;
    std::fs::rename(tmp, path)
}

/// Mean per-query precision and recall and the mean F1, as
/// `AccuracySummary::from_counts` computes them.
pub fn accuracy(truth: &[Vec<RecordId>], answers: &[Vec<RecordId>]) -> (f64, f64, f64) {
    use gbkmv_eval::metrics::{AccuracySummary, ConfusionCounts};
    let counts: Vec<ConfusionCounts> = truth
        .iter()
        .zip(answers)
        .map(|(t, a)| ConfusionCounts::from_sets(t, a))
        .collect();
    let s = AccuracySummary::from_counts(&counts);
    (s.precision, s.recall, s.f1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_workload_resolves() {
        for name in WORKLOADS {
            assert_eq!(workload(name).expect("listed").name, *name);
        }
        assert!(workload("nope").is_none());
    }

    #[test]
    fn truth_cache_round_trips_and_rejects_stale_files() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.bench_out")
            .join(format!("test-truth-{}", std::process::id()));
        let path = dir.join("t.txt");
        let truth = vec![vec![1, 5, 9], vec![], vec![2]];
        let (got, hit) = cached_ground_truth(&path, "fp1", || truth.clone());
        assert_eq!((got, hit), (truth.clone(), false));
        let (got, hit) = cached_ground_truth(&path, "fp1", || unreachable!());
        assert_eq!((got, hit), (truth.clone(), true));
        let (got, hit) = cached_ground_truth(&path, "fp2", || vec![vec![7]]);
        assert_eq!((got, hit), (vec![vec![7]], false));
        std::fs::write(&path, "fp2\n7\n").expect("truncate");
        let (_, hit) = cached_ground_truth(&path, "fp2", || vec![vec![7]]);
        assert!(!hit, "a file without its end marker is recomputed");
        std::fs::remove_dir_all(dir).expect("clean up");
    }

    #[test]
    fn accuracy_averages_per_query_scores() {
        let truth = vec![vec![1, 2], vec![3]];
        let answers = vec![vec![1, 2], vec![3, 4]];
        let (p, r, f1) = accuracy(&truth, &answers);
        assert_eq!(p, 0.75);
        assert_eq!(r, 1.0);
        assert!((f1 - (1.0 + 2.0 / 3.0) / 2.0).abs() < 1e-12);
    }
}
