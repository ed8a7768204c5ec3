//! One benchmark run: set-up, the timed phase, correctness checks and the
//! metrics they yield.
//!
//! Every call into the library goes through its public API, wrapped in a
//! [`Tracer`] span named `layer.call`. The end-to-end metrics come from
//! runs with the tracer disabled; a traced run measures its timed phase
//! twice, untraced and then traced, so the tracing overhead is reported
//! from one process.
//!
//! The host this benchmark was tuned on (a 2-vCPU VM) runs slower for
//! seconds to minutes at a time under its neighbours' load. The
//! [`speed`](crate::speed) probe measures that slowdown through each phase,
//! and the end-to-end timings of set-up and of the timed phase are reported
//! at the nominal host's speed.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gbkmv_core::cost::choose_buffer_size;
use gbkmv_core::dataset::{Dataset, ElementId, Record, RecordId};
use gbkmv_core::hash::Hasher64;
use gbkmv_core::index::{ContainmentIndex, GbKmvConfig, GbKmvIndex, SearchHit};
use gbkmv_core::mem::MemUsage;
use gbkmv_core::persist::DeltaStats;
use gbkmv_core::service::ContainmentService;
use gbkmv_core::stats::DatasetStats;
use gbkmv_core::GbKmvSketcher;

use crate::alloc;
use crate::data::{
    self, Inputs, Workload, ACCURACY_QUERIES, FLUSHES_PER_CHECKPOINT, INGEST_BATCH, QUERY_POOL,
    SCAN_CHECK_QUERIES, T_STAR,
};
use crate::metrics::{Metrics, LAYERS};
use crate::speed::{Speed, SpeedProbe};
use crate::stats::{median, relative_iqr, Latencies};
use crate::trace::{self, Span, Tracer};

/// Builds timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Queries the scratch probe runs on a fresh thread.
const SCRATCH_PROBE_QUERIES: usize = 100;
/// Nominal per-core L2 size the index footprint is compared against.
const L2_BYTES: f64 = 2.0 * 1024.0 * 1024.0;
/// Speed probe samples taken between two set-up reps; each rep is scaled
/// by the samples just before and just after it.
const PROBE_REPS: usize = 4;
/// Queries between two speed probe samples of the query client; on
/// `skewed_search` the writer also takes one before each flush.
const PROBE_EVERY: u64 = 8;

/// Command-line parameters of one run.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a run hands back to `main`.
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
}

/// Operation counts behind `ok_rate`, `attempted` and `failed`.
#[derive(Debug, Default, Clone, Copy)]
struct Ops {
    attempted: u64,
    failed: u64,
}

impl Ops {
    fn record<T, E>(&mut self, r: &Result<T, E>) {
        self.attempted += 1;
        self.failed += u64::from(r.is_err());
    }

    fn add(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// One closed-loop query client's measurements.
#[derive(Debug, Default)]
struct ReaderLog {
    /// Every completed query's latency, µs.
    latencies_us: Vec<f64>,
    completed: u64,
    hits: usize,
    /// Time spent inside the query loop, speed probes excluded.
    busy: Duration,
}

impl ReaderLog {
    fn record(&mut self, latency_us: f64, hits: usize) {
        self.latencies_us.push(latency_us);
        self.completed += 1;
        self.hits += hits;
    }

    fn latencies(&self) -> Latencies {
        Latencies::new(self.latencies_us.clone())
    }

    /// Completed queries over the loop's time.
    fn qps(&self) -> f64 {
        self.completed as f64 / self.busy.as_secs_f64()
    }
}

/// One `submit_batch` + `flush` round of the writer.
#[derive(Debug, Clone, Copy)]
struct Batch {
    records: usize,
    submit_us: f64,
    queue_wait_ms: f64,
    flush_ms: f64,
    visible_ms: f64,
}

/// The writer's measurements.
#[derive(Debug, Default)]
struct WriterLog {
    batches: Vec<Batch>,
    checkpoints_ms: Vec<f64>,
    deltas: Vec<DeltaStats>,
    shared_bytes: Vec<f64>,
    pending_max: usize,
    ops: Ops,
    /// Time spent inside the writer loop.
    wall: Duration,
    /// A flush that published a different batch than was submitted.
    mismatch: Option<String>,
}

impl WriterLog {
    fn published(&self) -> usize {
        self.batches.iter().map(|b| b.records).sum()
    }

    /// Records published per second of writer time.
    fn ingest_rps(&self) -> f64 {
        self.published() as f64 / self.wall.as_secs_f64()
    }

    /// Every batch's visibility latency, ms.
    fn visible(&self) -> Latencies {
        Latencies::new(self.batches.iter().map(|b| b.visible_ms).collect())
    }
}

/// The writer's position in the ingest pool plus every record it has had
/// acknowledged, in publication order (the replay check re-inserts them).
struct IngestStream<'a> {
    pool: &'a [Record],
    next: usize,
    acknowledged: Vec<usize>,
}

impl<'a> IngestStream<'a> {
    fn new(pool: &'a [Record]) -> Self {
        IngestStream {
            pool,
            next: 0,
            acknowledged: Vec::new(),
        }
    }

    /// The next batch, wrapping around the pool (a resubmitted record is a
    /// new record with the same elements).
    fn take(&mut self, n: usize) -> (Vec<usize>, Vec<Record>) {
        let ids: Vec<usize> = (0..n).map(|k| (self.next + k) % self.pool.len()).collect();
        self.next = (self.next + n) % self.pool.len();
        let records = ids.iter().map(|&i| self.pool[i].clone()).collect();
        (ids, records)
    }

    fn records(&self) -> impl Iterator<Item = &Record> + '_ {
        self.acknowledged.iter().map(|&i| &self.pool[i])
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn hit_ids(hits: &[SearchHit]) -> Vec<RecordId> {
    hits.iter().map(|h| h.record_id).collect()
}

/// Hit lists equal bit for bit: ids, estimated overlaps and containments.
fn same_hits(a: &[SearchHit], b: &[SearchHit]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.record_id == y.record_id
                && x.estimated_overlap.to_bits() == y.estimated_overlap.to_bits()
                && x.estimated_containment.to_bits() == y.estimated_containment.to_bits()
        })
}

fn check(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

/// Scratch directory of this process inside the checkout, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(root: &Path) -> Result<Self, String> {
        let dir = root.join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs one workload and returns its metrics. `Err` means a correctness
/// check failed (or the run could not set up its files).
pub fn run(args: Args, out_dir: &Path) -> Result<Outcome, String> {
    let w = args.workload;
    let epoch = Instant::now();
    let mut spans: Vec<Vec<Span>> = Vec::new();
    let mut m = Metrics::default();
    let mut ops = Ops::default();
    let scratch = Scratch::new(out_dir)?;
    let ckpt = scratch.0.join("index.arena");

    // ---- Inputs and ground truth (untimed) ------------------------------
    let inputs = Inputs::generate(&w, args.seed);
    let base = &inputs.base;
    let queries = &inputs.queries;
    let acc_queries = &queries[..ACCURACY_QUERIES];
    let mut t = Tracer::new(args.trace, 0, epoch);
    t.span("eval.oracle_cross_check", 0, |_| {
        data::cross_check_oracles(base, queries)
    })?;
    // The serve workload's truth depends on what the writer ingested, so
    // it is computed after the timed phase.
    let search_truth = (!w.concurrent()).then(|| {
        let fingerprint = format!(
            "opbench-truth v1 {:?} pool={QUERY_POOL} queries={ACCURACY_QUERIES} t*={T_STAR}",
            data::synthetic(args.seed),
        );
        let path = out_dir.join(format!("truth-{}-{}.txt", w.name, args.seed));
        let (truth, cached) = t.span("eval.ground_truth", 0, |_| {
            data::cached_ground_truth(&path, &fingerprint, || {
                data::ground_truth(base, acc_queries)
            })
        });
        println!(
            "# ground truth: {} queries by brute force{}",
            truth.len(),
            if cached { " (cached)" } else { "" }
        );
        truth
    });

    // ---- Set-up (timed) and what it built (untimed) ------------------------
    let (index, mut full_checkpoint_ms) = set_up(&args, &mut t, base, &ckpt, &mut ops, &mut m)?;
    let built_usage = describe(&w, &mut t, base, &index, &mut m);
    if let Some(truth) = &search_truth {
        // Also warms the caches before the timed phase.
        score(&mut t, &mut m, truth, acc_queries, "index.search", |q| {
            ContainmentIndex::search(&index, q, T_STAR)
        });
    }
    for (i, q) in queries[..SCAN_CHECK_QUERIES].iter().enumerate() {
        let fast = ContainmentIndex::search(&index, q.elements(), T_STAR);
        let scan = index.search_scan(q, T_STAR);
        check(same_hits(&fast, &scan), || {
            format!(
                "query {i}: search returned {} hits, search_scan {}",
                fast.len(),
                scan.len()
            )
        })?;
    }
    if args.trace {
        scratch_probe(&mut m, &index, &queries[..SCRATCH_PROBE_QUERIES]);
        bypass_probe(&w, &mut t, &mut m, base, queries);
        // Timed as a standalone call: `search` sketches the query again
        // internally, inside the index.search spans.
        let sketch_us: Vec<f64> = queries
            .iter()
            .enumerate()
            .map(|(i, q)| {
                let start = Instant::now();
                t.span("gbkmv.sketch_query", i as u64, |_| {
                    black_box(index.sketch_query(q));
                });
                us(start.elapsed())
            })
            .collect();
        m.set(
            "gbkmv.sketch_query_p50_us",
            Latencies::new(sketch_us).at(0.5),
        );
    }

    // ---- Timed phase ------------------------------------------------------
    let service = ContainmentService::new(index.clone());
    if !w.concurrent() {
        // The writer's delta checkpoints patch this first image.
        let c0 = Instant::now();
        let r = t.span("persist.checkpoint", 0, |_| {
            service.checkpoint(&ckpt, false)
        });
        full_checkpoint_ms.push(ms(c0.elapsed()));
        ops.record(&r);
        r.map_err(|e| format!("full checkpoint failed: {e}"))?;
    }
    if args.trace {
        m.set("persist.full_checkpoint_ms", median(&full_checkpoint_ms));
    }
    spans.push(t.into_spans());

    let mut stream = IngestStream::new(&inputs.ingest);
    let mut probe = SpeedProbe::default();
    let mut phase = |seconds: f64, tracers: Option<&mut (Tracer, Tracer)>| {
        let mut ctx = Phase {
            w: &w,
            index: &index,
            service: &service,
            queries,
            stream: &mut stream,
            ckpt: &ckpt,
            epoch,
        };
        ctx.run(seconds, tracers, &mut probe)
    };
    let (untraced, traced) = if args.trace {
        let a = phase(args.seconds / 2.0, None);
        let mut tr = (Tracer::new(true, 0, epoch), Tracer::new(true, 1, epoch));
        let b = phase(args.seconds / 2.0, Some(&mut tr));
        (a, Some((b, vec![tr.0.into_spans(), tr.1.into_spans()])))
    } else {
        (phase(args.seconds, None), None)
    };
    let logs = std::iter::once(&untraced).chain(traced.as_ref().map(|(b, _)| b));
    for (reader, writer, _) in logs {
        // `search` has no error path: every query attempted completed.
        ops.attempted += reader.completed;
        ops.add(writer.ops);
        if let Some(e) = &writer.mismatch {
            return Err(e.clone());
        }
    }
    let (reader, writer, speed) = &untraced;
    report_timed(&mut m, reader, writer, *speed);

    // ---- Quiesce and check (untimed) ---------------------------------------
    let mut t = Tracer::new(args.trace, 0, epoch);
    let (snapshot, open_ms) = verify_final(
        &mut t,
        &service,
        &index,
        &stream,
        &queries[..SCAN_CHECK_QUERIES],
        &ckpt,
        &mut ops,
    )?;
    let arena_bytes = std::fs::metadata(&ckpt).map(|f| f.len()).unwrap_or(0);

    // The serve workload is scored on its final, grown snapshot.
    if w.concurrent() {
        let grown_data = Dataset::from_records(
            base.records()
                .iter()
                .chain(stream.records())
                .cloned()
                .collect::<Vec<_>>(),
        );
        let truth = t.span("eval.ground_truth", 0, |_| {
            data::ground_truth(&grown_data, acc_queries)
        });
        score(&mut t, &mut m, &truth, acc_queries, "service.search", |q| {
            ContainmentService::search(&service, q, T_STAR)
        });
    }

    // index_bytes: as built for the search workload, after the final
    // flush for the serve workload.
    let usage = if w.concurrent() {
        t.span("mem.usage", 1, |_| snapshot.mem_usage())
    } else {
        built_usage
    };
    m.set("index_bytes", usage.total_bytes() as f64);
    m.set(
        "ok_rate",
        1.0 - ops.failed as f64 / ops.attempted.max(1) as f64,
    );
    spans.push(t.into_spans());

    if let Some((tr, timed_spans)) = &traced {
        set_mem_metrics(&mut m, &usage);
        m.set("persist.open_ms", open_ms);
        m.set("persist.arena_bytes", arena_bytes as f64);
        m.set("service.generations", service.generation() as f64);
        spans.extend(timed_spans.iter().cloned());
        traced_metrics(&mut m, &w, &spans, timed_spans, tr, &untraced);
        let path = out_dir.join(format!("trace-{}-{}.jsonl", w.name, args.seed));
        std::fs::write(&path, trace::to_json_lines(&spans))
            .map_err(|e| format!("cannot write {path:?}: {e}"))?;
        println!("# spans written to {}", path.display());
    }

    Ok(Outcome {
        metrics: m,
        attempted: ops.attempted,
        failed: ops.failed,
    })
}

/// The library defaults at the workload's space budget and shard count.
fn config(w: &Workload) -> GbKmvConfig {
    GbKmvConfig::with_space_fraction(data::SPACE_FRACTION).shards(w.shards)
}

/// Builds the index [`SETUP_REPS`] times and records `setup_s` (plus, for
/// the serve workload, the first full checkpoint of each build). A traced
/// run also times the layers the build is made of. Returns the last build
/// and the full checkpoints' durations.
fn set_up(
    args: &Args,
    t: &mut Tracer,
    base: &Dataset,
    ckpt: &Path,
    ops: &mut Ops,
    m: &mut Metrics,
) -> Result<(GbKmvIndex, Vec<f64>), String> {
    let w = &args.workload;
    let config = config(w);
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut layer_ms: [Vec<f64>; 4] = Default::default();
    let mut full_checkpoint_ms = Vec::new();
    let mut index = None;
    let mut probe = SpeedProbe::default();
    let mut raw_s = Vec::with_capacity(SETUP_REPS);
    let mut factors = Vec::with_capacity(SETUP_REPS);
    probe.sample(PROBE_REPS);
    for rep in 0..SETUP_REPS as u64 {
        let start = Instant::now();
        let built = if args.trace {
            // The layers one by one, then the build that repeats them
            // internally: stats, cost and sketching are timed here as
            // standalone calls, and index.build includes its own copies.
            let s0 = Instant::now();
            let stats = t.span("stats.compute", rep, |_| DatasetStats::compute(base));
            let s1 = Instant::now();
            let budget = config.resolve_budget(stats.total_elements);
            let r = t.span("cost.choose", rep, |_| choose_buffer_size(&stats, budget));
            let s2 = Instant::now();
            let sketches = t.span("gbkmv.sketch_dataset", rep, |_| {
                let hasher = Hasher64::new(config.hash_seed);
                let sketcher = GbKmvSketcher::build(base, &stats, hasher, r, budget);
                sketcher.sketch_dataset_threads(base, config.threads)
            });
            let s3 = Instant::now();
            drop(black_box(sketches));
            let s4 = Instant::now();
            let built = t.span("index.build", rep, |_| {
                GbKmvIndex::build_with_stats(base, &stats, config)
            });
            let s5 = Instant::now();
            check(built.summary().buffer_size == r, || {
                format!(
                    "cost::choose_buffer_size picked r = {r}, the build used {}",
                    built.summary().buffer_size
                )
            })?;
            for (v, d) in layer_ms
                .iter_mut()
                .zip([s1 - s0, s2 - s1, s3 - s2, s5 - s4])
            {
                v.push(ms(d));
            }
            built
        } else {
            GbKmvIndex::build(base, config)
        };
        if w.concurrent() {
            // The serve workload's set-up includes its first full checkpoint.
            let service = ContainmentService::new(built.clone());
            let c0 = Instant::now();
            let r = t.span("persist.checkpoint", rep, |_| {
                service.checkpoint(ckpt, false)
            });
            full_checkpoint_ms.push(ms(c0.elapsed()));
            ops.record(&r);
            r.map_err(|e| format!("full checkpoint failed: {e}"))?;
        }
        let took = start.elapsed().as_secs_f64();
        probe.sample(PROBE_REPS);
        let speed = probe.recent(2 * PROBE_REPS);
        raw_s.push(took);
        factors.push(speed.factor);
        setup_s.push(speed.time(took));
        index = Some(built);
    }
    m.set("setup_s", median(&setup_s));
    println!(
        "# setup_s reps as measured: {raw_s:.4?}, host slowdowns {factors:.3?}, at nominal speed {setup_s:.4?} (IQR/median {:.3})",
        relative_iqr(&setup_s).unwrap_or(0.0),
    );
    if args.trace {
        let names = [
            "stats.compute_ms",
            "cost.choose_ms",
            "gbkmv.sketch_dataset_ms",
            "index.build_ms",
        ];
        for (name, v) in names.into_iter().zip(&layer_ms) {
            m.set(name, median(v));
        }
    }
    let index = index.expect("at least one set-up rep");
    Ok((index, full_checkpoint_ms))
}

/// Prints the workload's observed properties (every run), warns when the
/// cost model's choice contradicts the workload's premise, and returns the
/// built index's memory breakdown.
fn describe(
    w: &Workload,
    t: &mut Tracer,
    base: &Dataset,
    index: &GbKmvIndex,
    m: &mut Metrics,
) -> MemUsage {
    let summary = index.summary();
    let stats = DatasetStats::compute(base);
    let usage = t.span("mem.usage", 0, |_| index.mem_usage());
    println!(
        "# properties: records={} occurrences={} universe={} distinct={} avg_len={:.1} r={} tau={:.6} index_bytes={} ({:.2}x a 2 MiB L2) bitmap_blocks={}",
        base.len(),
        stats.total_elements,
        base.universe_size(),
        stats.num_distinct_elements,
        stats.avg_record_len,
        summary.buffer_size,
        summary.tau,
        usage.total_bytes(),
        usage.total_bytes() as f64 / L2_BYTES,
        index.bitmap_blocks(),
    );
    if summary.buffer_size == 0 {
        println!(
            "# WARNING: {} is meant to run with a buffer, but the cost model chose r = 0",
            w.name
        );
    }
    m.set("cost.buffer_r", summary.buffer_size as f64);
    m.set("cost.tau", summary.tau);
    m.set("index.bitmap_blocks", index.bitmap_blocks() as f64);
    usage
}

/// Answers `queries` through `search` (each call in a `span_name` span)
/// and scores the answers against `truth`: `f1`, `eval.precision`,
/// `eval.recall`.
fn score(
    t: &mut Tracer,
    m: &mut Metrics,
    truth: &[Vec<RecordId>],
    queries: &[Record],
    span_name: &'static str,
    search: impl Fn(&[ElementId]) -> Vec<SearchHit>,
) {
    let answers: Vec<Vec<RecordId>> = t.span("eval.accuracy", 0, |t| {
        queries
            .iter()
            .enumerate()
            .map(|(i, q)| t.span(span_name, i as u64, |_| hit_ids(&search(q.elements()))))
            .collect()
    });
    let (p, r, f1) = t.span("eval.f1", 0, |_| data::accuracy(truth, &answers));
    let avg_truth = truth.iter().map(Vec::len).sum::<usize>() as f64 / truth.len() as f64;
    println!(
        "# accuracy over {} queries: avg |ground truth| = {avg_truth:.2}, precision {p:.4}, recall {r:.4}, F1 {f1:.4}",
        truth.len()
    );
    m.set("f1", f1);
    m.set("eval.precision", p);
    m.set("eval.recall", r);
}

/// The end-to-end query and ingest metrics of the untraced timed phase,
/// at the nominal host's speed.
fn report_timed(m: &mut Metrics, reader: &ReaderLog, writer: &WriterLog, speed: Speed) {
    let latencies = reader.latencies();
    let visible = writer.visible();
    for (name, raw, nominal) in [
        ("query_qps", reader.qps(), speed.rate(reader.qps())),
        (
            "query_p50_us",
            latencies.at(0.5),
            speed.time(latencies.at(0.5)),
        ),
        (
            "query_p95_us",
            latencies.at(0.95),
            speed.time(latencies.at(0.95)),
        ),
        (
            "ingest_rps",
            writer.ingest_rps(),
            speed.rate(writer.ingest_rps()),
        ),
        (
            "visible_p50_ms",
            visible.at(0.5),
            speed.time(visible.at(0.5)),
        ),
        (
            "visible_p95_ms",
            visible.at(0.95),
            speed.time(visible.at(0.95)),
        ),
    ] {
        m.set(name, nominal);
        println!("# {name}: {raw:.4} as measured, {nominal:.4} at nominal speed");
    }
    println!(
        "# timed phase: host slowdown {:.3} over {} probes",
        speed.factor, speed.samples
    );
    println!(
        "# queries: {} completed in {:.2}s, {:.1} passes over a pool of {}; latency percentiles over {} samples ({} beyond p95)",
        reader.completed,
        reader.busy.as_secs_f64(),
        reader.completed as f64 / QUERY_POOL as f64,
        QUERY_POOL,
        latencies.count(),
        latencies.beyond(0.95),
    );
    println!(
        "# ingest: {} records in {} batches of {} over {:.2}s, {} delta checkpoints ({} visibility samples beyond p95)",
        writer.published(),
        writer.batches.len(),
        INGEST_BATCH,
        writer.wall.as_secs_f64(),
        writer.checkpoints_ms.len(),
        visible.beyond(0.95),
    );
}

/// The checks on the final service: it holds every acknowledged record,
/// answers like the seed index grown by the same inserts one at a time,
/// and a flushed checkpoint of it reopens with the same records and
/// answers. The check queries are `queries` plus as many ingested records.
/// Returns the final snapshot and the reopen's duration in ms.
fn verify_final(
    t: &mut Tracer,
    service: &ContainmentService,
    seed: &GbKmvIndex,
    stream: &IngestStream<'_>,
    queries: &[Record],
    ckpt: &Path,
    ops: &mut Ops,
) -> Result<(Arc<GbKmvIndex>, f64), String> {
    let leftover = t.span("service.flush", 0, |_| service.flush());
    check(leftover == 0, || {
        format!("{leftover} records were still queued after the writer stopped")
    })?;
    let snapshot = t.span("service.snapshot", 0, |_| service.snapshot());
    let expected = seed.num_records() + stream.acknowledged.len();
    check(snapshot.num_records() == expected, || {
        format!(
            "service holds {} records, {} were acknowledged on top of {}",
            snapshot.num_records(),
            stream.acknowledged.len(),
            seed.num_records()
        )
    })?;
    let check_queries: Vec<&Record> = queries
        .iter()
        .chain(stream.records().take(queries.len()))
        .collect();
    let agree = |what: &str, a: &dyn ContainmentIndex, b: &dyn ContainmentIndex| {
        for (i, q) in check_queries.iter().enumerate() {
            let (x, y) = (
                a.search(q.elements(), T_STAR),
                b.search(q.elements(), T_STAR),
            );
            check(same_hits(&x, &y), || {
                format!(
                    "check query {i}: {what} returned {} and {} hits",
                    x.len(),
                    y.len()
                )
            })?;
        }
        Ok::<(), String>(())
    };

    let mut grown = seed.clone();
    for record in stream.records() {
        grown.insert(record);
    }
    agree("the service and the grown seed index", service, &grown)?;
    drop(grown);

    let r = t.span("persist.checkpoint", 1, |_| service.checkpoint(ckpt, true));
    ops.record(&r);
    let report = r.map_err(|e| format!("final checkpoint failed: {e}"))?;
    check(
        report.pending == 0 && report.records as usize == expected,
        || format!("final checkpoint wrote {report:?}, expected {expected} records"),
    )?;
    let open_start = Instant::now();
    let r = t.span("persist.open", 0, |_| GbKmvIndex::open(ckpt));
    let open_ms = ms(open_start.elapsed());
    ops.record(&r);
    let reopened = r.map_err(|e| format!("reopening the final checkpoint failed: {e}"))?;
    check(reopened.num_records() == expected, || {
        format!(
            "reopened index holds {} records, expected {expected}",
            reopened.num_records()
        )
    })?;
    agree(
        "the final snapshot and the reopened index",
        &*snapshot,
        &reopened,
    )?;
    Ok((snapshot, open_ms))
}

fn set_mem_metrics(m: &mut Metrics, usage: &MemUsage) {
    for (name, v) in [
        ("mem.hash_arena_bytes", usage.hash_arena_bytes),
        ("mem.hash_offsets_bytes", usage.hash_offsets_bytes),
        ("mem.buffer_arena_bytes", usage.buffer_arena_bytes),
        ("mem.meta_bytes", usage.meta_bytes),
        ("mem.permutation_bytes", usage.permutation_bytes),
        ("mem.hash_df_bytes", usage.hash_df_bytes),
        ("mem.postings_packed_bytes", usage.postings_packed_bytes),
        (
            "mem.posting_block_meta_bytes",
            usage.posting_block_meta_bytes,
        ),
    ] {
        m.set(name, v as f64);
    }
}

/// Bytes the query scratch retains and allocations per query, measured on
/// a fresh thread while every other thread of the run is idle: the bytes
/// the thread still holds once its results are dropped belong to the
/// library's thread-local query pipeline. The allocator counts only for
/// the duration of the probe.
fn scratch_probe(m: &mut Metrics, index: &GbKmvIndex, queries: &[Record]) {
    let run_all = || {
        for q in queries {
            drop(black_box(ContainmentIndex::search(
                index,
                q.elements(),
                T_STAR,
            )));
        }
    };
    let (retained, allocs) = std::thread::scope(|s| {
        s.spawn(|| {
            alloc::set_counting(true);
            let before = alloc::live_bytes();
            run_all();
            let retained = (alloc::live_bytes() - before).max(0);
            let a0 = alloc::allocations();
            run_all();
            let allocs = alloc::allocations() - a0;
            alloc::set_counting(false);
            (retained, allocs)
        })
        .join()
        .expect("scratch probe thread panicked")
    });
    m.set("index.scratch_bytes", retained as f64);
    m.set(
        "index.allocs_per_query",
        allocs as f64 / queries.len() as f64,
    );
}

/// The pool queries against the same records indexed with
/// `buffer_size(0)` (G-KMV): the buffer-bypass reference, which a buffer
/// optimisation should leave unchanged. Two passes over the pool.
fn bypass_probe(w: &Workload, t: &mut Tracer, m: &mut Metrics, base: &Dataset, queries: &[Record]) {
    let index = GbKmvIndex::build(base, config(w).buffer_size(0));
    let mut latencies_us = Vec::with_capacity(2 * queries.len());
    for pass in 0..2 {
        for (i, q) in queries.iter().enumerate() {
            let start = Instant::now();
            t.span("index.search_r0", (pass * queries.len() + i) as u64, |_| {
                black_box(ContainmentIndex::search(&index, q.elements(), T_STAR))
            });
            latencies_us.push(us(start.elapsed()));
        }
    }
    m.set(
        "index.search_r0_p50_us",
        Latencies::new(latencies_us).at(0.5),
    );
}

/// The timed phase's inputs.
struct Phase<'a, 'p> {
    w: &'a Workload,
    index: &'a GbKmvIndex,
    service: &'a ContainmentService,
    queries: &'a [Record],
    stream: &'a mut IngestStream<'p>,
    ckpt: &'a Path,
    epoch: Instant,
}

impl Phase<'_, '_> {
    /// Measures for `seconds`. The search workload alternates a query pass
    /// over the pool (one closed-loop client) with an ingest slice (one
    /// writer, alone) until the time is up; the serve workload runs one
    /// reader and one writer concurrently. Either way the writer grows the
    /// one service. `tracers` (main thread, reader thread) turns tracing on.
    /// The query client samples `probe` between its queries; its probes are
    /// timed outside the query and loop times.
    fn run(
        &mut self,
        seconds: f64,
        tracers: Option<&mut (Tracer, Tracer)>,
        probe: &mut SpeedProbe,
    ) -> (ReaderLog, WriterLog, Speed) {
        let mut off = (
            Tracer::new(false, 0, self.epoch),
            Tracer::new(false, 1, self.epoch),
        );
        let (main_t, reader_t) = match tracers {
            Some(tr) => (&mut tr.0, &mut tr.1),
            None => (&mut off.0, &mut off.1),
        };
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let mut reader = ReaderLog::default();
        let mut writer = WriterLog::default();
        match self.w.flushes_per_slice {
            None => {
                let (queries, service) = (self.queries, self.service);
                std::thread::scope(|s| {
                    let handle = s.spawn(|| {
                        let start = Instant::now();
                        let mut probing = Duration::ZERO;
                        let mut i = 0u64;
                        while Instant::now() < deadline {
                            if i.is_multiple_of(PROBE_EVERY) {
                                probing += probe.sample(1);
                            }
                            let q = i as usize % queries.len();
                            // A probe snapshot outside the timed query,
                            // made in both halves of a traced run so they
                            // do the same library work; its spans give
                            // service.snapshot_p99_us.
                            reader_t.span("service.snapshot", i, |_| drop(service.snapshot()));
                            time_query(reader_t, &mut reader, i, |t| {
                                t.span("service.search", i, |_| {
                                    ContainmentService::search(
                                        service,
                                        queries[q].elements(),
                                        T_STAR,
                                    )
                                })
                            });
                            i += 1;
                        }
                        reader.busy = start.elapsed() - probing;
                    });
                    let start = Instant::now();
                    let mut step = 0;
                    while Instant::now() < deadline && writer.mismatch.is_none() {
                        self.write_step(main_t, service, step, &mut writer);
                        step += 1;
                    }
                    writer.wall = start.elapsed();
                    handle.join().expect("reader thread panicked");
                });
            }
            Some(flushes) => {
                let pool = self.queries.len();
                let mut id = 0u64;
                let mut step = 0;
                loop {
                    // Each pass starts at a different query, so no query
                    // always runs first after an ingest slice has evicted
                    // the caches.
                    let first = (id as usize / pool) * (pool * 5 / 8) % pool;
                    let start = Instant::now();
                    let mut probing = Duration::ZERO;
                    for q in (first..pool).chain(0..first) {
                        if id.is_multiple_of(PROBE_EVERY) {
                            probing += probe.sample(1);
                        }
                        time_query(main_t, &mut reader, id, |t| {
                            t.span("index.search", id, |_| {
                                ContainmentIndex::search(
                                    self.index,
                                    self.queries[q].elements(),
                                    T_STAR,
                                )
                            })
                        });
                        id += 1;
                    }
                    reader.busy += start.elapsed() - probing;

                    let start = Instant::now();
                    let mut probing = Duration::ZERO;
                    for _ in 0..flushes {
                        probing += probe.sample(1);
                        self.write_step(main_t, self.service, step, &mut writer);
                        step += 1;
                    }
                    writer.wall += start.elapsed() - probing;
                    if Instant::now() >= deadline || writer.mismatch.is_some() {
                        break;
                    }
                }
            }
        }
        (reader, writer, probe.take())
    }

    /// One closed-loop writer step: submit a batch, flush it, and, every
    /// [`FLUSHES_PER_CHECKPOINT`] steps, checkpoint in place. Batches are
    /// smaller than the library's default `ingest_batch` (64), so each one
    /// is published by this flush, never by an automatic one inside
    /// `submit_batch`.
    fn write_step(
        &mut self,
        t: &mut Tracer,
        service: &ContainmentService,
        step: usize,
        log: &mut WriterLog,
    ) {
        let id = log.batches.len() as u64;
        let (ids, records) = self.stream.take(INGEST_BATCH);
        let checkpoint = (step + 1).is_multiple_of(FLUSHES_PER_CHECKPOINT);
        // The traced run compares the generations around each checkpoint
        // step's flush, so the sharing measurement stays off most steps.
        let before = (t.enabled() && checkpoint).then(|| service.snapshot());
        t.span("bench.batch", id, |t| {
            let t0 = Instant::now();
            let submitted = t.span("service.submit_batch", id, |_| {
                service.submit_batch(records)
            });
            let t1 = Instant::now();
            log.ops.record(&submitted);
            log.pending_max = log.pending_max.max(service.pending());
            let t2 = Instant::now();
            let flushed = t.span("service.flush", id, |_| service.flush());
            let t3 = Instant::now();
            log.ops.attempted += 1;
            if let Ok(n) = submitted {
                if flushed != n {
                    log.mismatch = Some(format!(
                        "batch {id}: submitted {n} records, the flush published {flushed}"
                    ));
                }
                self.stream.acknowledged.extend(&ids);
                log.batches.push(Batch {
                    records: n,
                    submit_us: us(t1 - t0),
                    queue_wait_ms: ms(t2 - t0),
                    flush_ms: ms(t3 - t2),
                    visible_ms: ms(t3 - t0),
                });
            }
            if let Some(before) = before {
                let after = service.snapshot();
                let shared = t.span("mem.usage_shared", id, |_| {
                    GbKmvIndex::mem_usage_shared([&*before, &*after])
                });
                log.shared_bytes.push(shared.shared_bytes as f64);
            }
            if checkpoint {
                let c0 = Instant::now();
                let r = t.span("persist.checkpoint_delta", id, |_| {
                    service.checkpoint_delta(self.ckpt, self.ckpt, false)
                });
                log.checkpoints_ms.push(ms(c0.elapsed()));
                log.ops.record(&r);
                if let Ok(report) = r {
                    log.deltas.extend(report.delta);
                }
            }
        });
    }
}

/// Runs and times one query under a `bench.query` span.
fn time_query(
    t: &mut Tracer,
    log: &mut ReaderLog,
    id: u64,
    search: impl FnOnce(&mut Tracer) -> Vec<SearchHit>,
) {
    let t0 = Instant::now();
    let hits = t.span("bench.query", id, search);
    let latency = us(t0.elapsed());
    log.record(latency, black_box(hits).len());
}

/// Per-layer metrics of the traced half of a traced run.
fn traced_metrics(
    m: &mut Metrics,
    w: &Workload,
    spans: &[Vec<Span>],
    timed: &[Vec<Span>],
    (reader, writer, speed): &(ReaderLog, WriterLog, Speed),
    (untraced_reader, untraced_writer, untraced_speed): &(ReaderLog, WriterLog, Speed),
) {
    // The serve reader's searches go through the service (snapshot, then
    // the index search); its snapshot wait is reported on its own.
    let search_span = if w.concurrent() {
        "service.search"
    } else {
        "index.search"
    };
    let search = Latencies::new(trace::durations_us(timed, search_span));
    m.set("index.search_p50_us", search.at(0.5));
    m.set("index.search_p99_us", search.at(0.99));
    m.set(
        "index.hits_per_query",
        reader.hits as f64 / reader.completed.max(1) as f64,
    );
    let snapshot = Latencies::new(trace::durations_us(timed, "service.snapshot"));
    m.set("service.snapshot_p99_us", snapshot.at(0.99));

    let batches = &writer.batches;
    let pick = |f: fn(&Batch) -> f64| Latencies::new(batches.iter().map(f).collect());
    m.set("service.submit_p50_us", pick(|b| b.submit_us).at(0.5));
    m.set(
        "service.queue_wait_p50_ms",
        pick(|b| b.queue_wait_ms).at(0.5),
    );
    let flush = pick(|b| b.flush_ms);
    m.set("service.flush_p50_ms", flush.at(0.5));
    m.set("service.flush_p99_ms", flush.at(0.99));
    m.set("service.pending_max", writer.pending_max as f64);
    m.set("mem.shared_bytes", median(&writer.shared_bytes));

    m.set("persist.checkpoint_p50_ms", median(&writer.checkpoints_ms));
    let deltas = writer.deltas.len().max(1) as f64;
    let sum = |f: fn(&DeltaStats) -> usize| writer.deltas.iter().map(f).sum::<usize>() as f64;
    m.set("persist.reused_shards", sum(|d| d.reused_shards) / deltas);
    m.set(
        "persist.rewritten_shards",
        sum(|d| d.rewritten_shards) / deltas,
    );
    m.set("persist.fallbacks", sum(|d| usize::from(d.fallback)));

    let self_ms = trace::self_time_by_layer(spans);
    for layer in LAYERS {
        m.set(
            &format!("self.{layer}_ms"),
            self_ms.get(*layer).copied().unwrap_or(0.0),
        );
    }
    m.set(
        "trace.spans",
        spans.iter().map(Vec::len).sum::<usize>() as f64,
    );
    // Both halves at the nominal host's speed, so the host's drift between
    // them is not counted as overhead.
    let qps_off = untraced_speed.rate(untraced_reader.qps());
    let qps_on = speed.rate(reader.qps());
    let overhead_pct = (qps_off / qps_on - 1.0) * 100.0;
    m.set("trace.overhead_pct", overhead_pct);
    let ingest_off = untraced_speed.rate(untraced_writer.ingest_rps());
    let ingest_on = speed.rate(writer.ingest_rps());
    println!(
        "# tracing overhead at nominal speed: query_qps {qps_off:.1} untraced vs {qps_on:.1} traced ({overhead_pct:+.1}%), ingest_rps {ingest_off:.1} vs {ingest_on:.1} ({:+.1}%)",
        (ingest_off / ingest_on - 1.0) * 100.0,
    );
    println!("# self time by layer (ms): {self_ms:?}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reader_keeps_every_completed_query() {
        let mut log = ReaderLog::default();
        for latency in [100.0, 300.0, 500.0, 700.0] {
            log.record(latency, 1);
        }
        log.busy = Duration::from_millis(2);
        assert_eq!(log.latencies().count(), 4);
        assert_eq!(log.latencies().at(0.5), 300.0);
        assert_eq!(log.latencies().at(0.99), 700.0);
        assert_eq!(log.qps(), 4.0 / 2e-3);
    }
}
