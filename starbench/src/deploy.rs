//! The wire layers: one client connection drives a three-node TCP cluster
//! in a closed loop of `Run` requests, and the result is checked against
//! the stepped in-process twin. Every traced run measures them.

use crate::cluster::Cluster;
use crate::metrics::{Report, PER_LAYER};
use crate::spans::SpanRecorder;
use crate::stats::Summary;
use star_client::Client;
use star_common::ClusterConfig;
use star_core::StarEngine;
use star_proto::{AdminQuery, Request, Response};
use star_serverd::{replica_digest, Bootstrap};
use star_workloads::YcsbConfig;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Iterations per `Run` request.
const ITERATIONS: u32 = 1;
/// Partitioned-phase attempts per partition in each iteration.
const PARTITIONED_TXNS: u64 = 50;
/// Single-master-phase attempts per master worker in each iteration.
const SINGLE_MASTER_TXNS: u64 = 10;
/// `Run` requests before the measured window (connections open, caches
/// fill).
const WARMUP_RUNS: u64 = 20;
/// `Ping` requests per node in the traced run.
const PINGS_PER_NODE: usize = 700;
/// The longest the warm-up may take.
const WARMUP_LIMIT: Duration = Duration::from_secs(60);

/// The cluster the wire layers are measured on: 1 full and 2 partial replicas, 6
/// partitions of 10k rows, YCSB 10 ops, 90% reads, 10% cross-partition.
/// Addresses are placeholders; each boot fills in kernel-assigned ones.
pub fn bootstrap(seed: u64) -> Bootstrap {
    let config = ClusterConfig::builder()
        .nodes(3)
        .full_replicas(1)
        .workers_per_node(1)
        .partitions(6)
        .network_latency(Duration::ZERO)
        .seed(seed)
        .build()
        .expect("wire cluster configuration is valid");
    let workload = YcsbConfig {
        partitions: 6,
        rows_per_partition: 10_000,
        ops_per_transaction: 10,
        read_fraction: 0.9,
        zipf_theta: 0.0,
        cross_partition_fraction: 0.10,
    };
    let addrs = (0..3).map(|n| format!("127.0.0.1:{}", n + 1)).collect();
    Bootstrap { config, addrs, workload }
}

/// The run's fixed facts as JSON fields.
pub fn describe(boot: &Bootstrap) -> String {
    let (c, w) = (&boot.config, &boot.workload);
    format!(
        "\"cluster\": {{\"nodes\": {}, \"full_replicas\": {}, \"partitions\": {}, \
         \"workers_per_node\": {}, \"transport\": \"tcp-localhost\"}}, \
         \"ycsb\": {{\"rows_per_partition\": {}, \"ops_per_txn\": {}, \"read_frac\": {}, \
         \"cross_partition_frac\": {}}}, \"request\": {{\"iterations\": {ITERATIONS}, \
         \"partitioned_txns\": {PARTITIONED_TXNS}, \"single_master_txns\": \
         {SINGLE_MASTER_TXNS}}}, \"wal\": \"off\"",
        c.num_nodes,
        c.full_replicas,
        c.partitions,
        c.workers_per_node,
        w.rows_per_partition,
        w.ops_per_transaction,
        w.read_fraction,
        w.cross_partition_fraction
    )
}

/// Counts of a closed loop of `Run` requests.
#[derive(Debug, Default)]
struct Loop {
    runs: u64,
    committed: u64,
    epochs: u64,
    rtt_us: Vec<f64>,
    elapsed: Duration,
}

/// Sends `Run` requests one after another until `window` has passed or
/// `max_runs` requests were sent. An errored request ends the loop.
fn run_loop(
    client: &mut Client,
    window: Duration,
    max_runs: u64,
    mut spans: Option<&mut SpanRecorder>,
) -> Result<Loop, String> {
    let mut out = Loop::default();
    let start = Instant::now();
    while out.runs < max_runs && start.elapsed() < window {
        let span = spans.as_mut().map(|s| s.open("client.run", None, out.runs));
        let sent = Instant::now();
        let answer = client.request(Request::Run {
            iterations: ITERATIONS,
            partitioned_txns: PARTITIONED_TXNS,
            single_master_txns: SINGLE_MASTER_TXNS,
        });
        let rtt = sent.elapsed();
        if let (Some(s), Some(id)) = (spans.as_mut(), span) {
            s.close(id);
        }
        out.runs += 1;
        match answer {
            Ok(Response::RunDone { committed, epochs }) => {
                out.committed += committed;
                out.epochs += u64::from(epochs);
                out.rtt_us.push(rtt.as_secs_f64() * 1e6);
            }
            Ok(other) => return Err(format!("Run request {} answered {other:?}", out.runs)),
            Err(e) => return Err(format!("Run request {} failed: {e}", out.runs)),
        }
    }
    out.elapsed = start.elapsed();
    Ok(out)
}

/// Replays `iterations` stepped iterations on the in-process twin and
/// compares every node's replica digest and the committed count with it.
/// Returns the twin's committed txns per second.
fn check_against_twin(
    cluster: &Cluster,
    iterations: u64,
    wire_committed: u64,
    report: &mut Report,
) -> Result<f64, String> {
    let boot = &cluster.boot;
    let mut twin = StarEngine::new(boot.config.clone(), Arc::new(boot.ycsb()))
        .map_err(|e| format!("twin engine: {e}"))?;
    let start = Instant::now();
    for _ in 0..iterations {
        twin.run_iteration_stepped(PARTITIONED_TXNS, SINGLE_MASTER_TXNS);
    }
    twin.quiesce();
    let twin_secs = start.elapsed().as_secs_f64();
    let twin_committed = twin.counters().snapshot().committed;
    if twin_committed != wire_committed {
        eprintln!(
            "MISMATCH committed-count: wire committed {wire_committed}, \
             twin committed {twin_committed} over {iterations} iterations"
        );
        report.correct = false;
    }
    for node in 0..cluster.len() {
        let mut admin = cluster.connect(node)?;
        let wire = match admin.request(Request::Admin(AdminQuery::ReplicaDigest)) {
            Ok(Response::Digest { records, digest }) => (records, digest),
            Ok(other) => return Err(format!("node {node}: ReplicaDigest answered {other:?}")),
            Err(e) => return Err(format!("node {node}: ReplicaDigest failed: {e}")),
        };
        let expected = replica_digest(&twin.cluster().nodes()[node].db);
        if wire != expected {
            eprintln!(
                "MISMATCH replica-digest node {node}: wire (records {}, digest {:#018x}), \
                 twin (records {}, digest {:#018x})",
                wire.0, wire.1, expected.0, expected.1
            );
            report.correct = false;
        }
    }
    Ok(twin_committed as f64 / twin_secs)
}

/// Counts a failed request and passes its error on.
fn fail(report: &mut Report, error: String) -> String {
    report.failed += 1;
    error
}

/// Boots a cluster, counting the attempt in `report`; a boot failure is a
/// failed request.
fn boot(exe: &Path, seed: u64, logs: &Path, report: &mut Report) -> Result<Cluster, String> {
    report.attempted += 1;
    Cluster::boot(exe, &bootstrap(seed), logs).map_err(|e| fail(report, e))
}

/// Warms a freshly booted cluster up, returning the client and the warm-up
/// loop's counts.
fn warm_up(cluster: &Cluster, report: &mut Report) -> Result<(Client, Loop), String> {
    let master = cluster.boot.config.master_node();
    let mut client = cluster.connect(master)?;
    let warm =
        run_loop(&mut client, WARMUP_LIMIT, WARMUP_RUNS, None).map_err(|e| fail(report, e))?;
    report.attempted += warm.runs;
    Ok((client, warm))
}

/// The wire layers of a traced run: `Ping` round trips, then a closed loop
/// of `seconds` with the nodes' CPU and context switches read around it,
/// and the twin check (timed, for `serverd.wire_over_twin`).
pub fn layer_metrics(
    exe: &Path,
    seed: u64,
    seconds: f64,
    logs: &Path,
    spans: &mut SpanRecorder,
    report: &mut Report,
) -> Result<(), String> {
    let mut cluster = boot(exe, seed, logs, report)?;
    let (mut client, warm) = warm_up(&cluster, report)?;

    let mut pings = Vec::new();
    for node in 0..cluster.len() {
        let mut conn = cluster.connect(node)?;
        for _ in 0..PINGS_PER_NODE {
            let sent = Instant::now();
            match conn.request(Request::Ping) {
                Ok(Response::Pong) => pings.push(sent.elapsed().as_secs_f64() * 1e6),
                other => return Err(format!("node {node}: Ping answered {other:?}")),
            }
        }
    }
    let ping = Summary::of("proto.ping_rtt_us", &pings)?;

    let cpu_before = cluster.cpu()?;
    let switches_before = cluster.switches()?;
    let window = Duration::from_secs_f64(seconds);
    let measured =
        run_loop(&mut client, window, u64::MAX, Some(spans)).map_err(|e| fail(report, e))?;
    let cpu = cluster.cpu()?.saturating_sub(cpu_before);
    let switches = cluster.switches()?;
    report.attempted += measured.runs;
    let iterations = (warm.runs + measured.runs) * u64::from(ITERATIONS);
    let twin_tps =
        check_against_twin(&cluster, iterations, warm.committed + measured.committed, report)?;
    drop(client);
    cluster.shutdown()?;

    let committed = measured.committed as f64;
    let wire_tps = committed / measured.elapsed.as_secs_f64();
    let pings = Some(ping.count as u64);
    report.add(&PER_LAYER, "proto.ping_rtt_us.p50", ping.p50, pings);
    report.add(&PER_LAYER, "proto.ping_rtt_us.p99", ping.p99, pings);
    report.add(&PER_LAYER, "serverd.cpu_us_per_txn", cpu.as_secs_f64() * 1e6 / committed, None);
    let vol = (switches.voluntary - switches_before.voluntary) as f64 / measured.epochs as f64;
    report.add(&PER_LAYER, "serverd.vol_ctxsw_per_epoch", vol, Some(measured.epochs));
    report.add(&PER_LAYER, "serverd.wire_over_twin", wire_tps / twin_tps, None);
    Ok(())
}
