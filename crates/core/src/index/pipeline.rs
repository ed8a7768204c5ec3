//! The staged query pipeline: **prune → candidates → finish → rank**.
//!
//! [`QueryPipeline`] owns the per-stage state (the epoch-stamped
//! [`QueryScratch`] of the candidate stage) and composes the stage modules
//! into the thresholded and top-k searches; the batch path runs one
//! pipeline per worker thread over its query slab.
//!
//! Stage composition for a thresholded search, per shard:
//!
//! 1. **prune** ([`crate::index::prune`]) — one binary search over the
//!    size-ordered slots gives the live prefix `0..live`; smaller records
//!    cannot reach the overlap threshold. The same stage derives the
//!    signature minting prefix for step 2 (unless the index was built with
//!    [`GbKmvConfig::prefix_filter`](crate::index::GbKmvConfig::prefix_filter)
//!    off).
//! 2. **candidates** ([`crate::index::candidates`]) — walk the query's
//!    signature and buffer postings, each truncated at `live`: the rarest
//!    `minting` hashes (df-ordered) and the buffer bits mint candidates,
//!    the frequent remainder accumulates lookup-only.
//! 3. **finish** ([`crate::index::finish`]) — O(1) Equation-27 estimate per
//!    surviving candidate.
//! 4. **rank** ([`crate::index::rank`]) — collect qualifying hits, sort by
//!    ascending global record id (or keep the best `k` in a bounded heap).

use crate::dataset::ElementId;
use crate::index::candidates::{self, QuerySketchView};
use crate::index::finish;
use crate::index::prune;
use crate::index::rank::{ThresholdCollector, TopK};
use crate::index::reference;
use crate::index::sharded::Shard;
use crate::index::{GbKmvIndex, SearchHit};
use crate::scratch::QueryScratch;
use crate::sim::OverlapThreshold;

/// A reusable query executor: the staged pipeline plus its per-stage state.
///
/// Query loops create one pipeline (per thread) and reuse it, paying zero
/// allocation per query after the first; the convenience entry points on
/// [`GbKmvIndex`] use a thread-local pipeline instead. Every stage decision
/// comes from the index searched (its config and storage), so one pipeline
/// serves any number of indexes.
#[derive(Debug, Default)]
pub struct QueryPipeline {
    scratch: QueryScratch,
}

impl QueryPipeline {
    /// An empty pipeline; its scratch grows to the largest shard searched.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes of reusable per-query scratch this pipeline has grown so far.
    /// The scratch is sized to the largest shard it has queried and then
    /// reused, so after one warm pass this is the pipeline's steady-state
    /// footprint — the throughput bench reports it alongside the index's
    /// [`mem_usage`](GbKmvIndex::mem_usage) breakdown.
    #[must_use]
    pub fn scratch_bytes(&self) -> usize {
        self.scratch.mem_bytes()
    }

    /// Thresholded containment search over a borrowed element slice
    /// (canonicalised if not sorted/deduplicated), equivalent to
    /// [`ContainmentIndex::search`](crate::index::ContainmentIndex::search).
    pub fn search(
        &mut self,
        index: &GbKmvIndex,
        query: &[ElementId],
        t_star: f64,
    ) -> Vec<SearchHit> {
        crate::index::with_canonical_query(query, |q| self.search_sorted(index, q, t_star))
    }

    /// [`QueryPipeline::search`] for a slice known to be sorted and
    /// deduplicated (every [`crate::dataset::Record`]'s invariant).
    pub fn search_sorted(
        &mut self,
        index: &GbKmvIndex,
        query: &[ElementId],
        t_star: f64,
    ) -> Vec<SearchHit> {
        filtered_sorted(index, query, t_star, &mut self.scratch)
    }

    /// Top-k containment search, equivalent to [`GbKmvIndex::search_topk`].
    pub fn topk(&mut self, index: &GbKmvIndex, query: &[ElementId], k: usize) -> Vec<SearchHit> {
        crate::index::with_canonical_query(query, |q| topk_sorted(index, q, k, &mut self.scratch))
    }
}

/// Thresholded search, composed from the four stages (sorted query slice).
///
/// Falls back to the reference scan when the threshold is (effectively)
/// zero: every record then qualifies, including ones sharing no posting
/// with the query.
fn filtered_sorted(
    index: &GbKmvIndex,
    query: &[ElementId],
    t_star: f64,
    scratch: &mut QueryScratch,
) -> Vec<SearchHit> {
    let q = query.len();
    let threshold = OverlapThreshold::new(q, t_star);
    if threshold.raw <= 1e-9 {
        return reference::scan_sorted(index, query, t_star);
    }
    let q_sketch = index.sketcher.sketch_elements(query);
    let view = QuerySketchView::new(&q_sketch);
    let minting = prune::minting_hashes(&view, threshold, index.config.use_prefix_filter);

    let mut collector = ThresholdCollector::default();
    for shard in index.sharded.shards() {
        let live = prune::live_slots(shard, threshold);
        if live == 0 {
            // Every record in the shard is smaller than the required
            // overlap; nothing to traverse.
            continue;
        }
        candidates::accumulate(shard, &view, live, minting, scratch);
        finish_shard(shard, &view, threshold, q, scratch, &mut collector);
    }
    collector.into_sorted()
}

/// Finishes one shard's accumulated candidates, pushing the qualifying hits
/// into `out`. A function of its own so `shard` arrives as a reference
/// argument, which lets the compiler keep the store's fields in registers
/// across the `out.push` calls instead of reloading them per candidate.
fn finish_shard(
    shard: &Shard,
    view: &QuerySketchView<'_>,
    threshold: OverlapThreshold,
    query_len: usize,
    scratch: &QueryScratch,
    out: &mut ThresholdCollector,
) {
    let store = shard.store();
    for &slot in scratch.candidates() {
        let overlap = finish::accumulated_overlap(store, view, scratch, slot);
        if let Some(hit) = finish::hit_if_qualifies(
            shard.global_id(slot as usize),
            overlap,
            query_len,
            threshold.raw,
        ) {
            out.push(hit);
        }
    }
}

/// Top-k search: candidates (no pruning or prefix filtering — ranking has
/// no overlap threshold, so every touched candidate competes and every hash
/// mints) → finish → bounded-heap rank.
fn topk_sorted(
    index: &GbKmvIndex,
    query: &[ElementId],
    k: usize,
    scratch: &mut QueryScratch,
) -> Vec<SearchHit> {
    if k == 0 || query.is_empty() {
        return Vec::new();
    }
    let q = query.len();
    let q_sketch = index.sketcher.sketch_elements(query);
    let view = QuerySketchView::new(&q_sketch);

    let mut topk = TopK::new(k);
    for shard in index.sharded.shards() {
        let store = shard.store();
        candidates::accumulate(shard, &view, shard.len(), view.hashes.len(), scratch);
        for &slot in scratch.candidates() {
            let overlap = finish::accumulated_overlap(store, &view, scratch, slot);
            topk.consider(shard.global_id(slot as usize), overlap, q);
        }
    }
    topk.into_hits()
}
