//! Per-layer passes over an in-process engine, timed from outside through
//! its public functions.
//!
//! * [`stepped_pass`]: the deterministic stepped phases, with a span around
//!   each `run_*_phase_stepped`, `fence()` and `quiesce()` call. `fence()`
//!   applies every shipped entry synchronously, so its span is the replica
//!   apply; the `quiesce()` after each fence runs that epoch's deferred WAL
//!   flush and fsync.
//! * [`threaded_pass`]: untraced `run_for` windows alternating with windows
//!   of `run_iteration()` calls (the executor `run_for` uses), each call in
//!   a span.
//! * [`storage_probe`]: `Database::get` on node 0's full replica.

use crate::procfs;
use crate::spans::SpanRecorder;
use crate::stats::{percentile, Summary, MIN_P99_SAMPLES};
use star_common::stats::CounterSnapshot;
use star_core::StarEngine;
use star_replication::DrainMode;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// What the stepped pass measured.
#[derive(Debug, Clone)]
pub struct Stepped {
    /// Partitioned-phase wall time per committed partitioned txn, in µs.
    pub partitioned_us_per_txn: f64,
    /// Single-master-phase wall time per committed single-master txn, in µs.
    pub single_master_us_per_txn: f64,
    /// `fence()` durations, in µs.
    pub fence_us: Summary,
    /// Fence time per KiB of replication shipped, in µs.
    pub fence_us_per_kb: f64,
    /// Mean `quiesce()` time per epoch, in µs.
    pub wal_flush_us_per_epoch: f64,
    /// Replication bytes per committed txn (exact).
    pub replication_bytes_per_txn: f64,
    /// WAL bytes per committed txn (exact).
    pub wal_bytes_per_txn: f64,
    /// Committed partitioned txns.
    pub partitioned: u64,
    /// Committed single-master txns.
    pub single_master: u64,
}

/// Runs `iterations` stepped iterations of `partitioned_txns` attempts per
/// partition and `single_master_txns` attempts per master worker.
pub fn stepped_pass(
    engine: &mut StarEngine,
    partitioned_txns: u64,
    single_master_txns: u64,
    iterations: u64,
    spans: &mut SpanRecorder,
) -> Result<Stepped, String> {
    let before = engine.counters().snapshot();
    let first = spans.spans().len();
    let (mut partitioned, mut single_master) = (0u64, 0u64);
    for i in 0..iterations {
        let it = spans.open("core.iteration_stepped", None, i);
        partitioned += spans.time("core.partitioned_phase", Some(it), i, || {
            engine.run_partitioned_phase_stepped(partitioned_txns)
        });
        spans.time("core.fence", Some(it), i, || engine.fence());
        spans.time("wal.quiesce", Some(it), i, || engine.quiesce());
        single_master += spans.time("core.single_master_phase", Some(it), i, || {
            engine.run_single_master_phase_stepped(single_master_txns)
        });
        spans.time("core.fence", Some(it), i, || engine.fence());
        spans.time("wal.quiesce", Some(it), i, || engine.quiesce());
        spans.close(it);
    }
    let window = delta(&before, &engine.counters().snapshot());
    let committed = partitioned + single_master;
    if partitioned == 0 || single_master == 0 || window.committed != committed {
        return Err(format!(
            "stepped pass: {partitioned} partitioned + {single_master} single-master commits, \
             counters say {}",
            window.committed
        ));
    }
    let ours = &spans.spans()[first..];
    let total_us = |name: &str| -> f64 {
        ours.iter().filter(|s| s.name == name).map(|s| s.duration().as_secs_f64() * 1e6).sum()
    };
    let fences: Vec<f64> = ours
        .iter()
        .filter(|s| s.name == "core.fence")
        .map(|s| s.duration().as_secs_f64() * 1e6)
        .collect();
    Ok(Stepped {
        partitioned_us_per_txn: total_us("core.partitioned_phase") / partitioned as f64,
        single_master_us_per_txn: total_us("core.single_master_phase") / single_master as f64,
        fence_us: Summary::of("core.fence_us", &fences)?,
        fence_us_per_kb: total_us("core.fence") / (window.replication_bytes as f64 / 1024.0),
        wal_flush_us_per_epoch: total_us("wal.quiesce") / (2 * iterations) as f64,
        replication_bytes_per_txn: window.replication_bytes as f64 / committed as f64,
        wal_bytes_per_txn: window.wal_bytes as f64 / committed as f64,
        partitioned,
        single_master,
    })
}

/// The most traced time the threaded pass spends waiting for enough
/// samples.
const MAX_TRACED_WINDOW: Duration = Duration::from_secs(60);

/// What the threaded pass measured.
#[derive(Debug, Clone)]
pub struct Threaded {
    /// `run_iteration()` durations, in µs.
    pub iteration_us: Summary,
    /// 1 - traced / untraced throughput.
    pub tracing_overhead_frac: f64,
    /// CC aborts / (commits + CC aborts) in the traced window.
    pub abort_frac: f64,
    /// Process CPU per committed txn, in µs.
    pub cpu_us_per_txn: f64,
    /// Voluntary context switches per committed txn.
    pub vol_ctxsw_per_txn: f64,
    /// Involuntary context switches per second.
    pub invol_ctxsw_per_s: f64,
}

/// Alternates `pairs` untraced `run_for` windows of length `untraced` with
/// windows of traced `run_iteration()` calls of length `traced` (the commit
/// drain on its background worker, as `run_for` has it); alternating
/// cancels the drift of throughput over a run, so both kinds of window see
/// the same database. Further traced windows follow while they hold fewer
/// than [`MIN_P99_SAMPLES`] iterations, up to `MAX_TRACED_WINDOW` of
/// traced time. The tracing overhead compares the paired windows only.
pub fn threaded_pass(
    engine: &mut StarEngine,
    untraced: Duration,
    traced: Duration,
    pairs: u32,
    spans: &mut SpanRecorder,
) -> Result<Threaded, String> {
    let (mut untraced_committed, mut untraced_secs) = (0u64, 0.0);
    let (mut paired_committed, mut paired_secs) = (0u64, 0.0);
    let (mut counts, mut traced_secs) = (CounterSnapshot::default(), 0.0);
    let (mut cpu, mut voluntary, mut involuntary) = (Duration::ZERO, 0u64, 0u64);
    let mut iterations: Vec<f64> = Vec::new();
    let mut window = 0;
    while window < pairs
        || (iterations.len() < MIN_P99_SAMPLES && traced_secs < MAX_TRACED_WINDOW.as_secs_f64())
    {
        if window < pairs {
            let reference = engine.run_for(untraced);
            untraced_committed += reference.counters.committed;
            untraced_secs += reference.duration.as_secs_f64();
        }

        let prior = engine.drain_mode();
        engine.set_drain_mode(DrainMode::Background);
        let before = engine.counters().snapshot();
        let cpu_before = procfs::stat(None)?.cpu();
        let switches_before = procfs::self_switches()?;
        let first = spans.spans().len();
        let start = Instant::now();
        let mut i = iterations.len() as u64;
        while start.elapsed() < traced {
            spans.time("core.iteration", None, i, || engine.run_iteration());
            i += 1;
        }
        // Switching back completes the pending drains, as `run_for` does
        // before it stops its clock.
        engine.set_drain_mode(prior);
        let secs = start.elapsed().as_secs_f64();
        cpu += procfs::stat(None)?.cpu().saturating_sub(cpu_before);
        let switches = procfs::self_switches()?;
        voluntary += switches.voluntary - switches_before.voluntary;
        involuntary += switches.involuntary - switches_before.involuntary;
        let d = delta(&before, &engine.counters().snapshot());
        counts.committed += d.committed;
        counts.aborted += d.aborted;
        traced_secs += secs;
        if window < pairs {
            paired_committed += d.committed;
            paired_secs += secs;
        }
        iterations.extend(spans.spans()[first..].iter().map(|s| s.duration().as_secs_f64() * 1e6));
        window += 1;
    }
    if counts.committed == 0 || untraced_committed == 0 {
        return Err("threaded pass committed nothing".to_string());
    }
    let committed = counts.committed as f64;
    let untraced_tps = untraced_committed as f64 / untraced_secs;
    Ok(Threaded {
        iteration_us: Summary::of("core.iteration_us", &iterations)?,
        tracing_overhead_frac: 1.0 - (paired_committed as f64 / paired_secs) / untraced_tps,
        abort_frac: counts.aborted as f64 / (counts.committed + counts.aborted) as f64,
        cpu_us_per_txn: cpu.as_secs_f64() * 1e6 / committed,
        vol_ctxsw_per_txn: voluntary as f64 / committed,
        invol_ctxsw_per_s: involuntary as f64 / traced_secs,
    })
}

/// Median ns per `Database::get` on node 0's replica, over `batches`
/// batches of `batch` seeded lookups. Returns `(p50 ns, batches)`.
pub fn storage_probe(
    engine: &StarEngine,
    seed: u64,
    batches: usize,
    batch: usize,
) -> Result<(f64, usize), String> {
    let db = &engine.cluster().nodes()[0].db;
    let mut keys = Vec::new();
    db.for_each_record(|table, partition, key, _| keys.push((table, partition, key)));
    if keys.is_empty() {
        return Err("node 0 holds no records".to_string());
    }
    keys.sort_unstable();
    let mut rng = SplitMix64(seed ^ 0x5354_4152_4245_4e43);
    let mut per_get = Vec::with_capacity(batches);
    for _ in 0..batches {
        let picks: Vec<_> =
            (0..batch).map(|_| keys[(rng.next_u64() % keys.len() as u64) as usize]).collect();
        let start = Instant::now();
        for &(table, partition, key) in &picks {
            let record = db.get(table, partition, key).map_err(|e| format!("get: {e}"))?;
            black_box(record);
        }
        per_get.push(start.elapsed().as_secs_f64() * 1e9 / batch as f64);
    }
    per_get.sort_by(f64::total_cmp);
    Ok((percentile(&per_get, 50.0).expect("batches > 0"), per_get.len()))
}

/// The counters accumulated between two snapshots.
pub fn delta(before: &CounterSnapshot, after: &CounterSnapshot) -> CounterSnapshot {
    CounterSnapshot {
        committed: after.committed - before.committed,
        aborted: after.aborted - before.aborted,
        user_aborted: after.user_aborted - before.user_aborted,
        replication_bytes: after.replication_bytes - before.replication_bytes,
        coordination_bytes: after.coordination_bytes - before.coordination_bytes,
        fences: after.fences - before.fences,
        fence_time_us: after.fence_time_us - before.fence_time_us,
        wal_bytes: after.wal_bytes - before.wal_bytes,
        execution_us: after.execution_us - before.execution_us,
        replication_flush_us: after.replication_flush_us - before.replication_flush_us,
        wal_fsync_us: after.wal_fsync_us - before.wal_fsync_us,
        lock_or_validate_us: after.lock_or_validate_us - before.lock_or_validate_us,
    }
}

/// A small seeded generator for the storage probe's keys.
struct SplitMix64(u64);

impl SplitMix64 {
    /// The next value.
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}
