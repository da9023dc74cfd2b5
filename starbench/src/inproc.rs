//! The in-process workloads: one `StarEngine` in this process.

use crate::layers::{self, delta};
use crate::metrics::{Report, END_TO_END, PER_LAYER};
use crate::procfs;
use crate::spans::SpanRecorder;
use crate::stats::{median, MIN_P99_SAMPLES};
use star_common::stats::LatencyHistogram;
use star_common::ClusterConfig;
use star_core::{StarEngine, Workload};
use star_workloads::{TpccConfig, TpccWorkload, YcsbConfig, YcsbWorkload};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Engine time before the first traced pass, so that caches fill and the
/// phase plan adapts to the observed mix.
const WARMUP: Duration = Duration::from_secs(1);
/// Committed txns before the first measured window of an end-to-end run.
/// Peak RSS is read after them: a fixed amount of work, so the reading does
/// not follow the host's speed, that still covers execution, replication,
/// the commit queue and the WAL.
const WARMUP_TXNS: u64 = 20_000;
/// The warm-up runs `run_for` in slices this long until [`WARMUP_TXNS`] are
/// in, and fails the run if that takes longer than [`WARMUP_LIMIT`].
const WARMUP_SLICE: Duration = Duration::from_millis(20);
const WARMUP_LIMIT: Duration = Duration::from_secs(60);
/// Length of one measured window; `txn_per_s` is the median over windows.
const WINDOW: Duration = Duration::from_secs(1);
/// Set-ups per end-to-end run; `setup_s` is the fastest. The first set-up
/// in a process faults in fresh pages and takes 1.3-1.7 times as long as
/// the later ones, and the host slows single set-ups at random, so the
/// fastest of several is the steadiest reading of the set-up work itself.
const SETUP_REPS: usize = 7;
/// Iterations of the stepped pass (two fences each, so its fence
/// percentiles rest on 1,200 samples).
const STEPPED_ITERATIONS: u64 = 600;

/// The transaction mix of an in-process workload.
#[derive(Debug, Clone)]
pub enum Mix {
    /// YCSB.
    Ycsb(YcsbConfig),
    /// TPC-C NewOrder and Payment.
    Tpcc(TpccConfig),
}

/// An in-process workload: cluster shape, mix and pass sizes.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    /// Cluster configuration (its seed is the run's `--seed`).
    pub config: ClusterConfig,
    /// Transaction mix.
    pub mix: Mix,
    /// Stepped pass: attempts per partition and per master worker in each
    /// iteration, chosen so that the pass reproduces the mix's share of
    /// cross-partition txns.
    pub stepped_txns: (u64, u64),
}

impl Spec {
    /// `ycsb-x10`: YCSB, 10 ops, 90% reads, uniform keys, 10%
    /// cross-partition, on 1 full and 1 partial replica without a WAL.
    pub fn ycsb_x10(seed: u64) -> Spec {
        let config = ClusterConfig::builder()
            .nodes(2)
            .full_replicas(1)
            .workers_per_node(1)
            .partitions(2)
            .iteration(Duration::from_millis(10))
            .network_latency(Duration::from_micros(50))
            .seed(seed)
            .build()
            .expect("ycsb-x10 configuration is valid");
        let mix = Mix::Ycsb(YcsbConfig {
            partitions: 2,
            rows_per_partition: 50_000,
            ops_per_transaction: 10,
            read_fraction: 0.9,
            zipf_theta: 0.0,
            cross_partition_fraction: 0.10,
        });
        // 2 partitions x 90 single-partition attempts : 20 cross = 10%.
        Spec { name: "ycsb-x10", config, mix, stepped_txns: (90, 20) }
    }

    /// `tpcc-x50-wal`: TPC-C NewOrder and Payment at standard scale on 2
    /// warehouses, 50% cross-partition, 2 workers per node, group-commit WAL.
    pub fn tpcc_x50_wal(seed: u64) -> Spec {
        let config = ClusterConfig::builder()
            .nodes(2)
            .full_replicas(1)
            .workers_per_node(2)
            .partitions(2)
            .iteration(Duration::from_millis(10))
            .network_latency(Duration::from_micros(50))
            .disk_logging(true)
            .seed(seed)
            .build()
            .expect("tpcc-x50-wal configuration is valid");
        let mix = Mix::Tpcc(TpccConfig {
            warehouses: 2,
            districts_per_warehouse: 10,
            customers_per_district: 3_000,
            items: 100_000,
            cross_partition_fraction: 0.5,
            ..TpccConfig::default()
        });
        // 2 partitions x 20 attempts : 2 master workers x 20 attempts = 50%.
        Spec { name: "tpcc-x50-wal", config, mix, stepped_txns: (20, 20) }
    }

    /// A fresh workload instance.
    pub fn workload(&self) -> Arc<dyn Workload> {
        match &self.mix {
            Mix::Ycsb(c) => Arc::new(YcsbWorkload::new(c.clone())),
            Mix::Tpcc(c) => Arc::new(TpccWorkload::new(c.clone())),
        }
    }

    /// Builds and loads an engine, returning it with its set-up time.
    pub fn setup(&self) -> Result<(StarEngine, Duration), String> {
        let start = Instant::now();
        let engine = StarEngine::new(self.config.clone(), self.workload())
            .map_err(|e| format!("{}: engine construction: {e}", self.name))?;
        Ok((engine, start.elapsed()))
    }

    /// The run's fixed facts as JSON fields: cluster shape, table sizes and
    /// WAL mode.
    pub fn describe(&self) -> String {
        let c = &self.config;
        let tables = match &self.mix {
            Mix::Ycsb(y) => format!(
                "\"ycsb\": {{\"rows_per_partition\": {}, \"ops_per_txn\": {}, \
                 \"read_frac\": {}, \"zipf_theta\": {}, \"cross_partition_frac\": {}}}",
                y.rows_per_partition,
                y.ops_per_transaction,
                y.read_fraction,
                y.zipf_theta,
                y.cross_partition_fraction
            ),
            Mix::Tpcc(t) => format!(
                "\"tpcc\": {{\"warehouses\": {}, \"districts_per_warehouse\": {}, \
                 \"customers_per_district\": {}, \"items\": {}, \"cross_partition_frac\": {}}}",
                t.warehouses,
                t.districts_per_warehouse,
                t.customers_per_district,
                t.items,
                t.cross_partition_fraction
            ),
        };
        format!(
            "\"cluster\": {{\"nodes\": {}, \"full_replicas\": {}, \"partitions\": {}, \
             \"workers_per_node\": {}, \"iteration_ms\": {}, \"network_latency_us\": {}}}, \
             {tables}, \"wal\": \"{}\"",
            c.num_nodes,
            c.full_replicas,
            c.partitions,
            c.workers_per_node,
            c.iteration.as_millis(),
            c.network_latency.as_micros(),
            if c.disk_logging { "group-commit-fsync" } else { "off" }
        )
    }
}

/// Checks replica consistency after a window; a divergence is reported by
/// name and makes the run incorrect.
fn check_consistency(engine: &StarEngine, what: &str, report: &mut Report) {
    let start = Instant::now();
    engine.quiesce();
    match engine.verify_replica_consistency() {
        Ok(()) => eprintln!("replicas consistent after {what} ({:.2?} to check)", start.elapsed()),
        Err(e) => {
            eprintln!("MISMATCH replica-consistency ({what}): {e}");
            report.correct = false;
        }
    }
}

/// The end-to-end run: set up `SETUP_REPS` times, warm up for
/// `WARMUP_TXNS` committed txns, read peak RSS, measure `seconds` in
/// back-to-back windows of `run_for`, and close with a consistency check.
pub fn end_to_end(spec: &Spec, seconds: f64) -> Result<Report, String> {
    let mut report = Report { correct: true, ..Report::default() };
    let mut setup_times = Vec::with_capacity(SETUP_REPS);
    let mut engine = None;
    for _ in 0..SETUP_REPS {
        // The previous engine is dropped first, so that peak RSS is one
        // engine's.
        drop(engine.take());
        let (built, took) = spec.setup()?;
        setup_times.push(took.as_secs_f64());
        engine = Some(built);
    }
    let mut engine = engine.expect("SETUP_REPS > 0");
    eprintln!("set-up times (s): {setup_times:?}");

    let (mut warm, start) = (0, Instant::now());
    while warm < WARMUP_TXNS {
        if start.elapsed() > WARMUP_LIMIT {
            return Err(format!("warm-up: {warm} txns committed in {WARMUP_LIMIT:?}"));
        }
        let run = engine.run_for(WARMUP_SLICE);
        report.attempted += run.counters.committed + run.counters.aborted;
        report.attempted += run.counters.user_aborted;
        warm += run.counters.committed;
    }
    let rss = procfs::status(None)?.peak_rss_mb();

    let windows = (seconds / WINDOW.as_secs_f64()).ceil().max(1.0) as usize;
    let (mut tps, mut latency) = (Vec::with_capacity(windows), LatencyHistogram::new());
    for i in 0..windows {
        let run = engine.run_for(WINDOW);
        let c = &run.counters;
        report.attempted += c.committed + c.aborted + c.user_aborted;
        tps.push(c.committed as f64 / run.duration.as_secs_f64());
        eprintln!(
            "window {i}: {:.0} txn/s, p50 {} us, p99 {} us, {} CC aborts",
            tps[i],
            run.latency.p50().as_micros(),
            run.latency.p99().as_micros(),
            c.aborted
        );
        latency.merge(&run.latency);
    }
    check_consistency(&engine, "the measured windows", &mut report);

    let samples = latency.count();
    if (samples as usize) < MIN_P99_SAMPLES {
        return Err(format!("{samples} latency samples, a p99 needs at least {MIN_P99_SAMPLES}"));
    }
    let windows = Some(windows as u64);
    report.add(&END_TO_END, "txn_per_s", median(&tps).expect("windows > 0"), windows);
    report.add(&END_TO_END, "commit_p50_us", latency.p50().as_micros() as f64, Some(samples));
    report.add(&END_TO_END, "commit_p99_us", latency.p99().as_micros() as f64, Some(samples));
    let setups = Some(setup_times.len() as u64);
    let fastest = setup_times.iter().copied().fold(f64::INFINITY, f64::min);
    report.add(&END_TO_END, "setup_s", fastest, setups);
    report.add(&END_TO_END, "peak_rss_mb", rss, None);
    Ok(report)
}

/// The in-process layers of a traced run: storage probe, stepped pass and
/// threaded pass on one engine, closed by a consistency check. The
/// threaded pass alternates untraced windows of `seconds / 6` with traced
/// windows twice as long.
pub fn layer_metrics(
    spec: &Spec,
    engine: &mut StarEngine,
    seconds: f64,
    spans: &mut SpanRecorder,
    report: &mut Report,
) -> Result<(), String> {
    let (get_ns, batches) = layers::storage_probe(engine, spec.config.seed, 4_000, 64)?;
    let before = engine.counters().snapshot();
    let stepped = layers::stepped_pass(
        engine,
        spec.stepped_txns.0,
        spec.stepped_txns.1,
        STEPPED_ITERATIONS,
        spans,
    )?;
    engine.run_for(WARMUP);
    let untraced = Duration::from_secs_f64(seconds / 6.0);
    let threaded = layers::threaded_pass(engine, untraced, 2 * untraced, 3, spans)?;
    check_consistency(engine, "the stepped and threaded passes", report);
    let c = delta(&before, &engine.counters().snapshot());
    report.attempted += c.committed + c.aborted + c.user_aborted;

    let fences = Some(stepped.fence_us.count as u64);
    let iterations = Some(threaded.iteration_us.count as u64);
    let steps = Some(stepped.partitioned + stepped.single_master);
    report.add(&PER_LAYER, "core.iteration_us.p50", threaded.iteration_us.p50, iterations);
    report.add(&PER_LAYER, "core.iteration_us.p99", threaded.iteration_us.p99, iterations);
    report.add(&PER_LAYER, "core.tracing_overhead_frac", threaded.tracing_overhead_frac, None);
    let p = stepped.partitioned_us_per_txn;
    report.add(&PER_LAYER, "core.partitioned_phase_us_per_txn", p, Some(stepped.partitioned));
    let s = stepped.single_master_us_per_txn;
    let sm = Some(stepped.single_master);
    report.add(&PER_LAYER, "core.single_master_phase_us_per_txn", s, sm);
    report.add(&PER_LAYER, "core.fence_us.p50", stepped.fence_us.p50, fences);
    report.add(&PER_LAYER, "core.fence_us.p99", stepped.fence_us.p99, fences);
    report.add(&PER_LAYER, "replication.fence_us_per_kb", stepped.fence_us_per_kb, steps);
    report.add(&PER_LAYER, "wal.flush_us_per_epoch", stepped.wal_flush_us_per_epoch, fences);
    let r = stepped.replication_bytes_per_txn;
    report.add(&PER_LAYER, "replication.bytes_per_txn", r, steps);
    report.add(&PER_LAYER, "wal.bytes_per_txn", stepped.wal_bytes_per_txn, steps);
    report.add(&PER_LAYER, "occ.abort_frac", threaded.abort_frac, None);
    report.add(&PER_LAYER, "storage.get_ns.p50", get_ns, Some(batches as u64));
    report.add(&PER_LAYER, "proc.cpu_us_per_txn", threaded.cpu_us_per_txn, None);
    report.add(&PER_LAYER, "proc.vol_ctxsw_per_txn", threaded.vol_ctxsw_per_txn, None);
    report.add(&PER_LAYER, "proc.invol_ctxsw_per_s", threaded.invol_ctxsw_per_s, None);
    Ok(())
}
