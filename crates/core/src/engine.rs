//! The phase-switching execution engine.
//!
//! [`StarEngine`] drives a [`StarCluster`] through alternating partitioned
//! and single-master phases separated by replication fences, exactly as in
//! Figure 5 of the paper:
//!
//! 1. derive `τp` and `τs` from the iteration time, the cross-partition
//!    fraction and the measured phase throughputs (Equations 1–2);
//! 2. run the partitioned phase: one worker per partition executes
//!    single-partition transactions with no concurrency control, replicating
//!    committed writes asynchronously (operation replication under the hybrid
//!    strategy);
//! 3. replication fence: every healthy replica applies all outstanding
//!    writes, failures are detected, the epoch is advanced;
//! 4. run the single-master phase: worker threads on the designated master
//!    (a full replica) execute cross-partition transactions under the Silo
//!    OCC protocol, replicating committed writes as full rows (value
//!    replication);
//! 5. another replication fence.
//!
//! Transactions are only released to clients at the fence that closes their
//! epoch, so commit latency is dominated by the iteration time — this is the
//! epoch-based group commit the latency table (Figure 12) reports.

use crate::cluster::StarCluster;
use crate::exec::{
    run_master_worker, run_partition_worker, run_workers, Budget, MasterWorkerState,
    PartitionWorkerState, PhaseEnv, WorkerOutcome,
};
use crate::failure::FailureCase;
use crate::history::HistoryRecorder;
use crate::phase::PhasePlan;
use crate::protocol::{self, ProtocolState};
use crate::workload::Workload;
use parking_lot::Mutex;
use star_common::stats::{LatencyHistogram, RunCounters, RunReport};
use star_common::{ClusterConfig, Epoch, Error, NodeId, PartitionId, ReplicationMode, Result};
use star_replication::{CommitQueue, DrainMode, EncodedEntry, EpochDrain, WalWriter};
use star_storage::Database;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Distinguishes the WAL directories of engines built inside the same
/// process (tests and the chaos harness construct many engines in parallel;
/// sharing one directory would interleave their logs).
static WAL_INSTANCE: AtomicU64 = AtomicU64::new(0);

/// Re-export of the replication mode used to configure synchronous vs
/// asynchronous replication in the single-master phase (`SYNC STAR` vs
/// `STAR` in Figure 15(a)).
pub type SyncReplication = ReplicationMode;

pub use crate::protocol::MasterElection;

/// How a memory-to-memory recovery is interrupted mid-copy (the chaos
/// harness's recovery-path fault injection; see
/// [`StarEngine::recover_node_interrupted`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RecoveryFault {
    /// The node serving the copy crashes mid-stream; the fence detects it
    /// like any other crash.
    SourceCrash,
    /// The recovering node crashes again before the copy completes; it
    /// simply stays down.
    TargetCrash,
    /// The link carrying the recovery state is cut mid-copy; both nodes
    /// survive but the recovery aborts (heal the link before retrying).
    LinkCut,
}

/// What an interrupted recovery managed to do before the fault fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InterruptedRecovery {
    /// The node that was serving the aborted copy.
    pub source: NodeId,
    /// Records copied before the interruption (a partial prefix; safe to
    /// leave in place because the copy is idempotent under the Thomas write
    /// rule and a later successful recovery re-copies everything).
    pub records_copied: usize,
}

/// What the phase after a replication fence will read, which decides how
/// much of the fence's replication traffic must be applied synchronously.
///
/// Only the records the next phase touches need their replicas current at
/// the fence; every other apply can drain asynchronously while the next
/// phase executes (the pipelined group commit). A partitioned phase reads
/// each partition only on its effective primary; a single-master phase reads
/// everything, but only on the master.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NextPhase {
    /// The next phase executes on the partitions' effective primaries.
    Partitioned,
    /// The next phase executes on the elected master.
    SingleMaster,
    /// The caller gave no hint (the public [`StarEngine::fence`]): every
    /// apply is synchronous, which is always safe.
    Unknown,
}

/// Result of one timed phase execution.
struct PhaseResult {
    committed: u64,
    elapsed: Duration,
    /// Commit instants of sampled transactions (latency is closed at the next
    /// fence).
    samples: Vec<Instant>,
}

impl PhaseResult {
    fn new(outcomes: Vec<WorkerOutcome>, elapsed: Duration) -> Self {
        let mut result = PhaseResult { committed: 0, elapsed, samples: Vec::new() };
        for mut outcome in outcomes {
            result.committed += outcome.committed;
            result.samples.append(&mut outcome.samples);
        }
        result
    }
}

/// Total commits of a phase's workers.
fn committed(outcomes: &[WorkerOutcome]) -> u64 {
    outcomes.iter().map(|o| o.committed).sum()
}

/// The STAR engine.
pub struct StarEngine {
    cluster: StarCluster,
    workload: Arc<dyn Workload>,
    plan: PhasePlan,
    /// Epochs, the detected failure picture and the election log.
    protocol: ProtocolState,
    counters: Arc<RunCounters>,
    latency: LatencyHistogram,
    partition_workers: Vec<PartitionWorkerState>,
    master_workers: Vec<MasterWorkerState>,
    /// For each currently failed node, the last epoch that had committed when
    /// its failure was detected; used to discard its in-flight writes when it
    /// recovers.
    failed_at_committed_epoch: Vec<Option<Epoch>>,
    wal: Option<Vec<Arc<Mutex<WalWriter>>>>,
    /// Directory holding the per-node WAL files when disk logging is on.
    wal_dir: Option<PathBuf>,
    /// Optional committed-history recorder (chaos harness).
    history: Option<Arc<HistoryRecorder>>,
    /// Epochs that were discarded by an epoch revert, in detection order.
    reverted_epochs: Vec<Epoch>,
    /// Completion-tracked queue for the asynchronous tail of each epoch's
    /// group commit (deferred replica applies and WAL flushes).
    commit_queue: CommitQueue,
    /// Which phase the most recent fence's deferred applies are safe to
    /// overlap with ([`NextPhase::Unknown`] = no deferred applies pending).
    drain_safe_for: NextPhase,
    /// The report of the most recent `run_for` window, replayed by
    /// [`Engine::report`](crate::engine_api::Engine::report).
    last_report: Option<RunReport>,
}

impl std::fmt::Debug for StarEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StarEngine")
            .field("epoch", &self.protocol.epoch())
            .field("nodes", &self.cluster.nodes().len())
            .field("failed", &self.protocol.failed())
            .finish()
    }
}

impl Drop for StarEngine {
    fn drop(&mut self) {
        // Complete any in-flight epoch drain first: pending jobs hold Arcs
        // to the WAL writers and replica databases, and flushing into files
        // that are about to be unlinked would be wasted work.
        self.commit_queue.quiesce();
        // The per-engine WAL directory models this cluster's disks; once the
        // engine is gone nothing can read it back (wal_paths() borrows the
        // engine), so remove it rather than leaking one directory per engine
        // into the temp dir — chaos sweeps construct thousands of engines.
        // Writers are closed first: a crashed-then-never-recovered node's
        // WAL still holds an open handle with unflushed bytes (fences skip
        // failed nodes), and unlinking files that are still open is
        // platform-dependent — dropping the writers first makes the cleanup
        // unconditional.
        self.wal = None;
        if let Some(dir) = self.wal_dir.take() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

impl StarEngine {
    /// Builds the engine: constructs the cluster and loads the workload into
    /// every replica.
    pub fn new(config: ClusterConfig, workload: Arc<dyn Workload>) -> Result<Self> {
        let cluster = StarCluster::build(&config, workload.as_ref())?;
        let partition_workers =
            (0..config.partitions).map(|p| PartitionWorkerState::new(&config, p)).collect();
        let master_workers =
            (0..config.workers_per_node).map(|w| MasterWorkerState::new(&config, w)).collect();
        let (wal, wal_dir) = if config.disk_logging {
            let dir = std::env::temp_dir().join(format!(
                "star-wal-{}-{}",
                std::process::id(),
                WAL_INSTANCE.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&dir)
                .map_err(|e| Error::Durability(format!("cannot create WAL dir: {e}")))?;
            let writers = (0..config.num_nodes)
                .map(|n| {
                    let path = dir.join(format!("node-{n}.wal"));
                    WalWriter::open(path).map(|w| Arc::new(Mutex::new(w)))
                })
                .collect::<Result<Vec<_>>>();
            let writers = match writers {
                Ok(writers) => writers,
                Err(e) => {
                    // No engine will ever own the directory we just created,
                    // so its Drop cannot clean it up — do it here or the
                    // half-initialised directory leaks.
                    let _ = std::fs::remove_dir_all(&dir);
                    return Err(e);
                }
            };
            (Some(writers), Some(dir))
        } else {
            (None, None)
        };
        let plan = PhasePlan::new(workload.mix().cross_partition_fraction);
        let failed_at_committed_epoch = vec![None; config.num_nodes];
        let counters = Arc::new(RunCounters::new());
        // Deferred by default: drains are pumped at deterministic points (the
        // next fence, or a quiesce), which keeps the stepped drivers and the
        // chaos corpus bit-reproducible. The timed path switches to
        // Background for the duration of `run_for`.
        let commit_queue = CommitQueue::new(DrainMode::Deferred, Arc::clone(&counters));
        Ok(StarEngine {
            cluster,
            workload,
            plan,
            protocol: ProtocolState::new(&config),
            counters,
            latency: LatencyHistogram::new(),
            partition_workers,
            master_workers,
            failed_at_committed_epoch,
            wal,
            wal_dir,
            history: None,
            reverted_epochs: Vec::new(),
            commit_queue,
            drain_safe_for: NextPhase::Unknown,
            last_report: None,
        })
    }

    /// Completes the pending epoch drain unless its deferred applies were
    /// chosen for exactly the phase about to run. Called on entry to every
    /// phase: a fence hint can mispredict (the failure picture or the plan
    /// changed), and running a phase over replicas whose applies were
    /// deferred *for a different reader* would serve stale records.
    fn ensure_drain_safe(&mut self, phase: NextPhase) {
        if self.drain_safe_for != phase && self.drain_safe_for != NextPhase::Unknown {
            self.commit_queue.wait_for(self.protocol.last_committed());
            self.drain_safe_for = NextPhase::Unknown;
        }
    }

    /// How the asynchronous tail of each group commit is executed. See
    /// [`DrainMode`]; the default is [`DrainMode::Deferred`].
    pub fn drain_mode(&self) -> DrainMode {
        self.commit_queue.mode()
    }

    /// Switches the commit-drain mode. Pending drains complete first, so the
    /// switch can never reorder or lose an epoch's tail.
    pub fn set_drain_mode(&mut self, mode: DrainMode) {
        self.commit_queue.set_mode(mode);
    }

    /// Completes every outstanding epoch drain. After this returns, all
    /// replica copies reflect every committed epoch and all WAL buffers have
    /// been flushed — required before inspecting replicas or WAL files
    /// directly.
    pub fn quiesce(&self) {
        self.commit_queue.quiesce();
    }

    /// Epochs whose commit drains are still queued behind the fence
    /// (tests and debugging).
    pub fn pending_drains(&self) -> Vec<Epoch> {
        self.commit_queue.pending_epochs()
    }

    /// The underlying cluster (replicas, network).
    pub fn cluster(&self) -> &StarCluster {
        &self.cluster
    }

    /// The current global epoch.
    pub fn epoch(&self) -> Epoch {
        self.protocol.epoch()
    }

    /// The shared run counters.
    pub fn counters(&self) -> &RunCounters {
        &self.counters
    }

    /// The last epoch that was closed by a replication fence (the newest
    /// epoch whose transactions have been released to clients).
    pub fn last_committed_epoch(&self) -> Epoch {
        self.protocol.last_committed()
    }

    /// Attaches a committed-history recorder. Every subsequently committed
    /// transaction is recorded (with its observed read versions and installed
    /// rows) and finalized or discarded at the fence closing its epoch.
    pub fn set_history_recorder(&mut self, recorder: Arc<HistoryRecorder>) {
        self.history = Some(recorder);
    }

    /// The attached history recorder, if any.
    pub fn history_recorder(&self) -> Option<&Arc<HistoryRecorder>> {
        self.history.as_ref()
    }

    /// Epochs that were discarded by an epoch revert (failure detection at a
    /// fence), in detection order. Disk recovery uses this to skip WAL
    /// entries from epochs that never group-committed.
    pub fn reverted_epochs(&self) -> &[Epoch] {
        &self.reverted_epochs
    }

    /// The directory holding this engine's per-node WAL files, when disk
    /// logging is enabled. Quiesces pending epoch drains first so the files
    /// on disk reflect every committed epoch.
    pub fn wal_dir(&self) -> Option<&Path> {
        self.commit_queue.quiesce();
        self.wal_dir.as_deref()
    }

    /// The per-node WAL file paths (index = node id), when disk logging is
    /// enabled. Quiesces pending epoch drains first (see
    /// [`wal_dir`](Self::wal_dir)): callers read or truncate these files, and
    /// a deferred WAL flush landing afterwards would corrupt the experiment.
    pub fn wal_paths(&self) -> Vec<PathBuf> {
        self.commit_queue.quiesce();
        match &self.wal_dir {
            Some(dir) => (0..self.cluster.config().num_nodes)
                .map(|n| dir.join(format!("node-{n}.wal")))
                .collect(),
            None => Vec::new(),
        }
    }

    /// The current failure classification of the cluster.
    ///
    /// The engine maintains one failure flag per configured node, so the
    /// classification itself cannot fail; the `Result` propagates the typed
    /// [`crate::failure::FailureVectorMismatch`] contract of
    /// [`FailureCase::classify`] instead of panicking on it.
    pub fn failure_case(&self) -> Result<FailureCase> {
        FailureCase::classify(self.cluster.config(), self.protocol.failed())
            .map_err(|e| Error::Config(e.to_string()))
    }

    /// Marks a node as failed in the simulated network. The failure is
    /// *detected* (and the database reverted to the last committed epoch) at
    /// the next replication fence, mirroring the paper's coordinator-driven
    /// detection.
    pub fn inject_failure(&mut self, node: NodeId) {
        self.cluster.network().fail_node(node);
    }

    /// Which nodes are currently known (detected) to be failed.
    pub fn failed_nodes(&self) -> Vec<NodeId> {
        (0..self.cluster.config().num_nodes).filter(|&n| self.protocol.is_failed(n)).collect()
    }

    /// The node currently acting as the designated master: the winner of the
    /// most recent election (held at every replication fence, after failure
    /// detection). `None` while no healthy full replica exists.
    pub fn current_master(&self) -> Option<NodeId> {
        self.protocol.master()
    }

    /// Generation of the current master election. Bumps exactly when the
    /// elected master changes (including to/from `None`), so a re-election
    /// storm is visible as a strictly increasing generation sequence.
    pub fn master_generation(&self) -> u64 {
        self.protocol.elections().generation()
    }

    /// The full election log, in order. Index 0 is the initial appointment
    /// at engine construction; later entries record fence-time re-elections.
    pub fn elections(&self) -> &[MasterElection] {
        self.protocol.elections().entries()
    }

    /// The effective primary node of a partition (see
    /// [`protocol::effective_primary`]).
    pub fn effective_primary(&self, partition: PartitionId) -> Option<NodeId> {
        protocol::effective_primary(self.cluster.config(), self.protocol.failed(), partition)
    }

    /// Whether the partitioned phase can run in the current failure picture.
    fn partitioned_available(&self) -> bool {
        self.failure_case().map(|c| c.available()).unwrap_or(false)
    }

    /// The execution environment of a phase worker on `node`.
    fn env(&self, node: NodeId) -> PhaseEnv<'_> {
        let member = &self.cluster.nodes()[node];
        PhaseEnv {
            config: self.cluster.config(),
            node,
            epoch: self.protocol.epoch(),
            db: &member.db,
            transport: member.endpoint.as_ref(),
            workload: self.workload.as_ref(),
            counters: &self.counters,
            wal: self.wal.as_ref().map(|w| w[node].as_ref()),
            history: self.history.as_deref(),
        }
    }

    /// Runs the engine for (at least) `duration`, returning a report with the
    /// throughput, latency distribution and traffic counters of the window.
    pub fn run_for(&mut self, duration: Duration) -> RunReport {
        // Timed runs drain each epoch's commit tail on a background worker so
        // it overlaps the next phase's execution; the prior mode (Deferred by
        // default, deterministic) is restored — and pending drains completed
        // — before returning, so callers can inspect replicas right away.
        let prior_mode = self.commit_queue.mode();
        self.commit_queue.set_mode(DrainMode::Background);
        let start = Instant::now();
        let before = self.counters.snapshot();
        while start.elapsed() < duration {
            self.run_iteration();
        }
        self.commit_queue.set_mode(prior_mode);
        let elapsed = start.elapsed();
        let after = self.counters.snapshot();
        let mut window = after;
        window.committed -= before.committed;
        window.aborted -= before.aborted;
        window.user_aborted -= before.user_aborted;
        window.replication_bytes -= before.replication_bytes;
        window.coordination_bytes -= before.coordination_bytes;
        window.fences -= before.fences;
        window.fence_time_us -= before.fence_time_us;
        window.wal_bytes -= before.wal_bytes;
        window.execution_us -= before.execution_us;
        window.replication_flush_us -= before.replication_flush_us;
        window.wal_fsync_us -= before.wal_fsync_us;
        window.lock_or_validate_us -= before.lock_or_validate_us;
        let report = RunReport::new(
            "STAR",
            self.workload.name(),
            self.workload.mix().percentage(),
            elapsed,
            window,
            std::mem::take(&mut self.latency),
        );
        self.last_report = Some(report.clone());
        report
    }

    /// Executes exactly one iteration (partitioned phase, fence,
    /// single-master phase, fence). Exposed for tests and for the
    /// phase-overhead benchmark.
    pub fn run_iteration(&mut self) {
        // Adapt the iteration length to the observed commit mix: at low
        // cross-partition ratios the fences are nearly free (almost all
        // replication drains behind them), so shorter iterations cut the
        // group-commit latency without costing throughput.
        let iteration = self.plan.adaptive_iteration(self.cluster.config().iteration);
        let (tau_p, tau_s) = self.plan.split(iteration);

        let partitioned = if !tau_p.is_zero() && self.partitioned_available() {
            Some(self.run_partitioned_phase(tau_p))
        } else {
            None
        };
        // The fence hint anticipates which phase runs next so the fence can
        // defer every replica apply that phase will not read. A mispredicted
        // hint (the failure picture changed at the fence) is caught by the
        // phases themselves: they complete a drain deferred for a different
        // phase before touching any replica (`ensure_drain_safe`).
        let next = if !tau_s.is_zero() && self.current_master().is_some() {
            NextPhase::SingleMaster
        } else {
            NextPhase::Partitioned
        };
        let fence_end = self.replication_fence(next);
        if let Some(result) = &partitioned {
            self.counters.add_execution(result.elapsed);
            self.plan.observe_partitioned(result.committed, result.elapsed);
            self.close_latency_samples(&result.samples, fence_end);
        }

        let single_master = if !tau_s.is_zero() && self.current_master().is_some() {
            Some(self.run_single_master_phase(tau_s))
        } else {
            None
        };
        let next = if tau_s >= iteration && self.current_master().is_some() {
            // A pure cross-partition plan starts the next iteration with the
            // single-master phase again.
            NextPhase::SingleMaster
        } else {
            NextPhase::Partitioned
        };
        let fence_end = self.replication_fence(next);
        if let Some(result) = &single_master {
            self.counters.add_execution(result.elapsed);
            self.plan.observe_single_master(result.committed, result.elapsed);
            self.close_latency_samples(&result.samples, fence_end);
        }
        self.plan.observe_mix(
            partitioned.as_ref().map_or(0, |r| r.committed),
            single_master.as_ref().map_or(0, |r| r.committed),
        );
    }

    fn close_latency_samples(&mut self, samples: &[Instant], fence_end: Instant) {
        for &commit_instant in samples {
            self.latency.record(fence_end.saturating_duration_since(commit_instant));
        }
    }

    /// Runs the partitioned phase for `tau_p`: one thread per partition.
    fn run_partitioned_phase(&mut self, tau_p: Duration) -> PhaseResult {
        let mut start = Instant::now();
        let outcomes = self.partitioned_phase(|| {
            start = Instant::now();
            Budget::Deadline(start + tau_p)
        });
        PhaseResult::new(outcomes, start.elapsed())
    }

    /// Runs the single-master phase for `tau_s`: one thread per master
    /// worker.
    fn run_single_master_phase(&mut self, tau_s: Duration) -> PhaseResult {
        let mut start = Instant::now();
        let outcomes = self.single_master_phase(|| {
            start = Instant::now();
            Budget::Deadline(start + tau_s)
        });
        PhaseResult::new(outcomes, start.elapsed())
    }

    /// The partitioned phase under the budget `budget` returns: each
    /// partition's worker runs on the partition's effective primary and
    /// replicates to its healthy holders. The budget is taken only after
    /// the drain check, so a drain wait never eats into a timed phase.
    fn partitioned_phase(&mut self, budget: impl FnOnce() -> Budget) -> Vec<WorkerOutcome> {
        self.ensure_drain_safe(NextPhase::Partitioned);
        let budget = budget();
        let mut workers = std::mem::take(&mut self.partition_workers);
        let (config, failed) = (self.cluster.config(), self.protocol.failed());
        let jobs: Vec<_> = workers
            .iter_mut()
            .enumerate()
            .filter_map(|(partition, state)| {
                let primary = protocol::effective_primary(config, failed, partition)?;
                let targets = protocol::replica_targets(config, failed, primary, partition);
                Some((self.env(primary), partition, targets, state))
            })
            .collect();
        let outcomes = run_workers(budget, jobs, |(env, partition, targets, state)| {
            run_partition_worker(budget, &env, partition, &targets, state)
        });
        self.partition_workers = workers;
        outcomes
    }

    /// The single-master phase under the budget `budget` returns, on the
    /// elected master (see [`partitioned_phase`](Self::partitioned_phase)).
    fn single_master_phase(&mut self, budget: impl FnOnce() -> Budget) -> Vec<WorkerOutcome> {
        let Some(master) = self.current_master() else {
            return Vec::new();
        };
        self.ensure_drain_safe(NextPhase::SingleMaster);
        let budget = budget();
        let healthy = protocol::healthy_peers(self.protocol.failed(), master);
        let mut workers = std::mem::take(&mut self.master_workers);
        let env = self.env(master);
        let outcomes =
            run_workers(budget, workers.iter_mut().enumerate().collect(), |(w, state)| {
                run_master_worker(budget, &env, w, &healthy, state)
            });
        self.master_workers = workers;
        outcomes
    }

    /// Deterministic, single-threaded variant of the partitioned phase: each
    /// partition's worker executes exactly `txns_per_partition` transaction
    /// attempts, in partition order, instead of racing a wall-clock deadline.
    ///
    /// Because partitioned-phase workers touch disjoint partitions, running
    /// them sequentially is semantically identical to the threaded phase —
    /// but the committed history, the replication message sequence and every
    /// fault-plane decision become pure functions of the configuration seed.
    /// This is what the chaos harness's "identical seed ⇒ identical history"
    /// contract rests on. Returns the number of committed transactions.
    pub fn run_partitioned_phase_stepped(&mut self, txns_per_partition: u64) -> u64 {
        if txns_per_partition == 0 || !self.partitioned_available() {
            return 0;
        }
        committed(&self.partitioned_phase(|| Budget::Attempts(txns_per_partition)))
    }

    /// Deterministic, single-threaded variant of the single-master phase:
    /// each master worker executes exactly `txns_per_worker` transaction
    /// attempts, in worker order. With a single configured master worker the
    /// OCC commit never aborts on contention, so the committed stream is a
    /// pure function of the seed (see
    /// [`run_partitioned_phase_stepped`](Self::run_partitioned_phase_stepped)).
    /// Returns the number of committed transactions.
    pub fn run_single_master_phase_stepped(&mut self, txns_per_worker: u64) -> u64 {
        if txns_per_worker == 0 {
            return 0;
        }
        committed(&self.single_master_phase(|| Budget::Attempts(txns_per_worker)))
    }

    /// One fully deterministic iteration: stepped partitioned phase, fence,
    /// stepped single-master phase, fence. The transaction counts replace the
    /// `τp` / `τs` wall-clock split of [`run_iteration`](Self::run_iteration).
    pub fn run_iteration_stepped(&mut self, partitioned_txns: u64, single_master_txns: u64) {
        self.run_partitioned_phase_stepped(partitioned_txns);
        // Same fence hints as `run_iteration`, so the stepped driver
        // exercises the pipelined (deferred-apply) fence path — in
        // `DrainMode::Deferred` the drains are pumped at the next fence,
        // keeping the whole iteration deterministic.
        let next = if single_master_txns > 0 && self.current_master().is_some() {
            NextPhase::SingleMaster
        } else {
            NextPhase::Partitioned
        };
        let _ = self.replication_fence(next);
        self.run_single_master_phase_stepped(single_master_txns);
        let _ = self.replication_fence(NextPhase::Partitioned);
    }

    /// Executes a replication fence: complete the previous epoch's pending
    /// drain, detect failures, apply the outstanding replication the *next*
    /// phase will read, package the rest (plus the WAL flush) into an
    /// [`EpochDrain`] that runs behind the fence, advance the epoch. Returns
    /// the instant the fence completed (the group-commit point of the epoch
    /// that just closed).
    ///
    /// The commit *decision* is entirely synchronous — failure detection,
    /// the epoch revert, the election, history finalization and the latency
    /// release all happen here, exactly as without pipelining. Only the
    /// mechanical tail is deferred, and only the slice of it the next phase
    /// provably does not read (`next` picks that slice).
    fn replication_fence(&mut self, next: NextPhase) -> Instant {
        // star-lint: allow(determinism::instant-now) -- fence-duration telemetry only; no control flow or recorded history depends on it
        let start = Instant::now();

        // Pipelining step 1: the previous epoch's drain must fully land
        // before this fence reasons about replica state (reverts, applies,
        // recoveries all assume replicas reflect every committed epoch).
        self.commit_queue.wait_for(self.protocol.last_committed());
        self.drain_safe_for = NextPhase::Unknown;

        // Failure detection: the coordinator notices nodes that stopped
        // responding. Newly failed nodes trigger an epoch revert on every
        // healthy replica (Figure 6) before the fence proceeds, and the
        // master is re-elected over the new failure picture: a crashed
        // coordinator is replaced by the next healthy full replica, and a
        // recovered lower-id full replica takes the role back.
        let network = self.cluster.network();
        let now_failed: Vec<bool> = (0..self.cluster.config().num_nodes)
            .map(|n| self.protocol.is_failed(n) || network.is_failed(n))
            .collect();
        let decision = self.protocol.fence(&now_failed);
        for &n in &decision.newly_failed {
            self.failed_at_committed_epoch[n] = Some(decision.revert_to);
        }
        if decision.reverting {
            for (n, node) in self.cluster.nodes().iter().enumerate() {
                if !self.protocol.is_failed(n) {
                    node.db.revert_to_epoch(decision.revert_to);
                }
            }
        }

        // Release any messages held back by reorder faults: the fence's
        // contract is that every *sent* message is either applied now or
        // discarded with its epoch, never silently stuck in flight.
        for node in self.cluster.nodes() {
            node.endpoint.flush_stash();
        }

        // Drain outstanding replication streams on every healthy node,
        // keeping only the batches the fence admits (no failed senders, and
        // nothing from an epoch being discarded).
        //
        // Each surviving entry is applied *now* only if the next phase reads
        // the target copy: on the elected master before a single-master
        // phase, on the partition's effective primary before a partitioned
        // phase. Everything else is deferred into the epoch's drain job and
        // applied while the next phase runs. (After a partitioned epoch at
        // 0% cross-partition traffic no entry targets its own primary, so
        // the fence applies nothing synchronously at all.)
        let master = self.current_master();
        // star-lint: allow(determinism::instant-now) -- apply-time telemetry for the replication-flush latency slice only
        let apply_start = Instant::now();
        let mut deferred: Vec<(Arc<Database>, Vec<EncodedEntry>)> = Vec::new();
        for (n, node) in self.cluster.nodes().iter().enumerate() {
            if self.protocol.is_failed(n) {
                continue;
            }
            let mut deferred_entries: Vec<EncodedEntry> = Vec::new();
            for envelope in node.endpoint.drain() {
                if !self.protocol.admits(envelope.from, envelope.payload.epoch, &decision) {
                    continue;
                }
                for entry in envelope.payload.entries {
                    if !node.db.holds(entry.partition()) {
                        continue;
                    }
                    let read_by_next_phase = match next {
                        NextPhase::Unknown => true,
                        NextPhase::SingleMaster => master == Some(n),
                        NextPhase::Partitioned => {
                            self.effective_primary(entry.partition()) == Some(n)
                        }
                    };
                    if read_by_next_phase {
                        let _ = entry.apply(&node.db);
                    } else {
                        deferred_entries.push(entry);
                    }
                }
            }
            if !deferred_entries.is_empty() {
                deferred.push((Arc::clone(&node.db), deferred_entries));
            }
        }
        self.counters.add_replication_flush(apply_start.elapsed());

        // Epoch commit: no per-record work at all. Advancing the last
        // committed epoch (the protocol fence above did) is what retires the
        // epoch's version stashes — `revert_to_epoch`'s gate skips any record whose current
        // epoch has committed, and the first write of a later epoch replaces
        // the stash with its own pre-image. (An eager fence-time GC here
        // used to walk every record of every replica, which dominated the
        // fence at short iterations.) Only the WAL flush is deferred into
        // the drain.
        let mut wal_flushes = Vec::new();
        if let Some(wal) = &self.wal {
            for (n, writer) in wal.iter().enumerate() {
                if !self.protocol.is_failed(n) {
                    wal_flushes.push(Arc::clone(writer));
                }
            }
        }
        let epoch = decision.closed_epoch;
        if decision.reverting {
            // The epoch's transactions were never released to clients: they
            // are discarded from every replica above, so they must vanish
            // from the recorded history too.
            self.reverted_epochs.push(epoch);
        }
        if let Some(history) = &self.history {
            history.finalize_epoch(epoch, !decision.reverting);
        }
        let drain = EpochDrain { epoch, applies: deferred, wal_flushes };
        if !drain.is_empty() {
            self.commit_queue.submit(drain);
        }
        self.drain_safe_for = next;
        // star-lint: allow(determinism::instant-now) -- group-commit timestamp feeds latency telemetry, not simulation state
        let end = Instant::now();
        self.counters.add_fence(end - start);
        end
    }

    /// Runs one replication fence: detects failures, applies outstanding
    /// replication on every healthy replica and advances the epoch. This is
    /// the fence `run_iteration` executes twice per iteration, exposed so the
    /// chaos driver can compose phases and fences explicitly. Without a
    /// next-phase hint every replica apply is synchronous (always safe); the
    /// WAL flush still drains behind the fence.
    pub fn fence(&mut self) {
        let _ = self.replication_fence(NextPhase::Unknown);
    }

    /// Whether a memory-to-memory recovery of `node` is currently possible:
    /// every partition the node holds must have at least one *other* healthy
    /// replica to copy from. When several replicas of a partition died
    /// together, this is what decides which of them can rejoin first — the
    /// schedule synthesizer and the chaos driver consult it before
    /// scheduling overlapping recoveries.
    pub fn can_recover(&self, node: NodeId) -> bool {
        protocol::can_recover(self.cluster.config(), self.protocol.failed(), node)
    }

    /// The first steps of every recovery of `node`: complete pending epoch
    /// drains (the copy reads healthy replicas directly, and a drain landing
    /// on a source after the copy would leave the node permanently behind),
    /// check that the node exists and can be recovered, and discard its
    /// inbox. Returns the node's replica, or `None` when the node is healthy
    /// and there is nothing to do.
    fn begin_recovery(&self, node: NodeId) -> Result<Option<Arc<Database>>> {
        self.commit_queue.quiesce();
        let Some(target) = self.cluster.node(node) else {
            return Err(Error::Config(format!("no such node {node}")));
        };
        if !self.protocol.is_failed(node) {
            return Ok(None);
        }
        if !self.can_recover(node) {
            return Err(Error::Config(format!(
                "node {node}: no healthy replica holds every partition it needs; recover \
                 another replica first or recover from disk"
            )));
        }
        // Everything still queued at this node's endpoint was addressed to
        // the crashed process and died with it — in particular replication
        // batches of epochs the cluster reverted after the crash (fences skip
        // failed nodes, so their queues are never drained while down).
        // Applying them after rejoining would resurrect discarded writes;
        // the copy from healthy replicas supplies the current state.
        drop(target.endpoint.drain());
        Ok(Some(Arc::clone(&target.db)))
    }

    /// Copies every record of `partition` from its recovery source (see
    /// [`protocol::recovery_source`]) into `target` under the Thomas write
    /// rule. Returns the source and the number of records that were fresher
    /// than the target's.
    fn copy_from_source(
        &self,
        node: NodeId,
        partition: PartitionId,
        target: &Database,
    ) -> Result<(NodeId, usize)> {
        let failed = self.protocol.failed();
        let source = protocol::recovery_source(self.cluster.config(), failed, node, partition);
        // `can_recover` held a moment ago, but recovery must never be a
        // crash site: a missing source is a typed error, not a panic.
        let Some((source, source_node)) = source.and_then(|s| self.cluster.node(s).map(|n| (s, n)))
        else {
            return Err(Error::Config(format!(
                "node {node}: no healthy replica holds partition {partition}; recover from disk \
                 instead"
            )));
        };
        let mut copied = 0usize;
        source_node.db.for_each_record(|table, p, key, rec| {
            if p != partition {
                return;
            }
            let read = rec.read();
            if target.apply_value_write(table, p, key, read.row, read.tid).unwrap_or(false) {
                copied += 1;
            }
        });
        Ok((source, copied))
    }

    /// Recovers a previously failed node: the node copies the partitions it
    /// holds from healthy replicas (preferring a full replica), is healed in
    /// the network and rejoins the cluster. Corresponds to the per-node
    /// recovery path shared by Cases 1–3.
    ///
    /// Source availability is checked for *every* held partition before any
    /// data moves, so an impossible recovery (all other replicas of some
    /// partition dead — the Case-4 situation that needs disk recovery
    /// instead) fails atomically: the node stays down, its pre-crash state
    /// untouched, and a later recovery attempt — e.g. after another replica
    /// rejoined — can still succeed.
    pub fn recover_node(&mut self, node: NodeId) -> Result<usize> {
        let Some(target_db) = self.begin_recovery(node)? else {
            return Ok(0);
        };
        // The failed node's replica may still contain writes from the epoch
        // that was in flight when it crashed; that epoch was discarded by the
        // rest of the cluster (Figure 6), so discard it here too before
        // catching up.
        if let Some(committed) = self.failed_at_committed_epoch.get_mut(node).and_then(Option::take)
        {
            target_db.revert_to_epoch(committed);
        }
        let mut copied = 0usize;
        for partition in target_db.held_partitions() {
            copied += self.copy_from_source(node, partition, &target_db)?.1;
        }
        self.cluster.network().heal_node(node);
        self.protocol.mark_recovered(node);
        Ok(copied)
    }

    /// Starts a recovery of `node` and injects `fault` mid-copy: the first
    /// held partition is copied from its source, then the fault fires and
    /// the recovery **aborts** — the node stays down, the network is not
    /// healed, and the engine's failure bookkeeping is untouched. This is
    /// the chaos harness's recovery-path fault injection: the paper's
    /// catch-up protocol must survive its own interruption.
    ///
    /// The partial copy is harmless: the failure marker is kept (not
    /// consumed), so a later successful [`Self::recover_node`] first reverts
    /// the target back to its crash-time committed epoch — discarding any
    /// in-flight versions an aborted mid-epoch copy may have picked up from
    /// the source, even if the cluster later reverted that epoch — and then
    /// re-copies everything under original TIDs (Thomas write rule). The
    /// interruption's side effects are exactly those of the fault itself:
    ///
    /// * [`RecoveryFault::SourceCrash`] — the source node is marked failed
    ///   in the network (detected, like any crash, at the next fence);
    /// * [`RecoveryFault::TargetCrash`] — no additional effect (the
    ///   recovering node was already down and stays down);
    /// * [`RecoveryFault::LinkCut`] — the `source ↔ node` link is cut and
    ///   stays cut until a scheduled heal.
    ///
    /// Preconditions mirror [`Self::recover_node`]: recovering a healthy
    /// node is a no-op (`Ok` with zero records), an infeasible recovery
    /// (no healthy source) is a typed error.
    pub fn recover_node_interrupted(
        &mut self,
        node: NodeId,
        fault: RecoveryFault,
    ) -> Result<InterruptedRecovery> {
        let Some(target_db) = self.begin_recovery(node)? else {
            return Ok(InterruptedRecovery { source: node, records_copied: 0 });
        };
        // Peek — do NOT consume — the revert marker: an interruption can
        // land mid-epoch, in which case the partial copy below includes the
        // source's *in-flight* versions. If that epoch later reverts, the
        // down node keeps the copies (it does not participate in fences),
        // and the Thomas write rule would block the committed rows from
        // overwriting them on retry. Keeping the marker makes the retried
        // `recover_node` revert the target again, discarding anything this
        // aborted copy resurrected before re-copying.
        if let Some(committed) = self.failed_at_committed_epoch.get(node).copied().flatten() {
            target_db.revert_to_epoch(committed);
        }
        let partition = target_db
            .held_partitions()
            .into_iter()
            .next()
            .ok_or_else(|| Error::Config(format!("node {node} holds no partitions")))?;
        let (source, records_copied) = self.copy_from_source(node, partition, &target_db)?;
        match fault {
            RecoveryFault::SourceCrash => self.cluster.network().fail_node(source),
            RecoveryFault::TargetCrash => {}
            RecoveryFault::LinkCut => self.cluster.network().cut_link(source, node),
        }
        Ok(InterruptedRecovery { source, records_copied })
    }

    /// Checks that every pair of healthy replicas agrees on the contents of
    /// the partitions they both hold. Intended for tests: run some load, then
    /// assert consistency after a fence.
    pub fn verify_replica_consistency(&self) -> Result<()> {
        use std::collections::BTreeMap;
        // Replicas with a pending epoch drain legitimately lag; complete it
        // before comparing copies.
        self.commit_queue.quiesce();
        let config = self.cluster.config();
        type Snapshot = BTreeMap<(u32, usize, u64), (star_common::Tid, star_common::Row)>;
        let snapshots: Vec<Option<Snapshot>> = self
            .cluster
            .nodes()
            .iter()
            .enumerate()
            .map(|(n, node)| {
                if self.protocol.is_failed(n) {
                    return None;
                }
                let mut map = BTreeMap::new();
                node.db.for_each_record(|table, partition, key, rec| {
                    let read = rec.read();
                    map.insert((table, partition, key), (read.tid, read.row));
                });
                Some(map)
            })
            .collect();
        for partition in 0..config.partitions {
            let holders: Vec<usize> = (0..config.num_nodes)
                .filter(|&n| {
                    !self.protocol.is_failed(n) && self.cluster.nodes()[n].db.holds(partition)
                })
                .collect();
            let Some(&reference) = holders.first() else { continue };
            let reference_map = snapshots[reference].as_ref().unwrap();
            for &other in &holders[1..] {
                let other_map = snapshots[other].as_ref().unwrap();
                for ((table, p, key), (tid, row)) in reference_map {
                    if *p != partition {
                        continue;
                    }
                    match other_map.get(&(*table, *p, *key)) {
                        Some((other_tid, other_row)) if other_tid == tid && other_row == row => {}
                        Some((other_tid, _)) => {
                            return Err(Error::Config(format!(
                                "replica divergence: node {other} has tid {other_tid} for \
                                 ({table},{p},{key}) but node {reference} has {tid}"
                            )));
                        }
                        None => {
                            return Err(Error::Config(format!(
                                "replica divergence: node {other} is missing ({table},{p},{key})"
                            )));
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

impl crate::engine_api::Engine for StarEngine {
    fn name(&self) -> String {
        "STAR".to_string()
    }

    fn run_for(&mut self, duration: Duration) -> RunReport {
        StarEngine::run_for(self, duration)
    }

    fn counters(&self) -> &RunCounters {
        StarEngine::counters(self)
    }

    fn report(&self) -> RunReport {
        match &self.last_report {
            Some(report) => report.clone(),
            None => RunReport::new(
                "STAR",
                self.workload.name(),
                self.workload.mix().percentage(),
                Duration::ZERO,
                self.counters.snapshot(),
                LatencyHistogram::new(),
            ),
        }
    }

    fn set_history_recorder(&mut self, recorder: Arc<HistoryRecorder>) {
        StarEngine::set_history_recorder(self, recorder)
    }

    fn wal_paths(&self) -> Vec<PathBuf> {
        StarEngine::wal_paths(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{kv_key, KvWorkload};

    fn small_config() -> ClusterConfig {
        ClusterConfig {
            num_nodes: 4,
            full_replicas: 1,
            workers_per_node: 2,
            partitions: 4,
            // Factor 3 keeps a partial-partial backup per partition, so the
            // failure-case tests below can lose one partial without losing
            // partial coverage.
            replication_factor: 3,
            iteration: Duration::from_millis(5),
            network_latency: Duration::from_micros(10),
            ..ClusterConfig::default()
        }
    }

    fn workload(cross_fraction: f64) -> Arc<KvWorkload> {
        Arc::new(KvWorkload {
            partitions: 4,
            rows_per_partition: 32,
            cross_partition_fraction: cross_fraction,
        })
    }

    #[test]
    fn engine_commits_transactions_and_advances_epochs() {
        let mut engine = StarEngine::new(small_config(), workload(0.1)).unwrap();
        assert_eq!(engine.epoch(), 1);
        let report = engine.run_for(Duration::from_millis(30));
        assert!(report.counters.committed > 0, "no transactions committed");
        assert!(engine.epoch() > 1, "epoch did not advance");
        assert!(report.throughput > 0.0);
        assert_eq!(report.engine, "STAR");
        assert_eq!(report.workload, "kv");
    }

    #[test]
    fn replicas_converge_after_a_fence() {
        let mut engine = StarEngine::new(small_config(), workload(0.2)).unwrap();
        engine.run_for(Duration::from_millis(30));
        engine.verify_replica_consistency().expect("replicas diverged");
    }

    #[test]
    fn replication_traffic_is_accounted() {
        let mut engine = StarEngine::new(small_config(), workload(0.1)).unwrap();
        let report = engine.run_for(Duration::from_millis(20));
        assert!(report.counters.replication_bytes > 0);
        assert!(report.counters.fences >= 2);
        // The simulated network saw actual messages.
        assert!(engine.cluster().network().stats().bytes() > 0);
    }

    #[test]
    fn pure_single_partition_workload_skips_single_master_phase() {
        let mut engine = StarEngine::new(small_config(), workload(0.0)).unwrap();
        let report = engine.run_for(Duration::from_millis(20));
        assert!(report.counters.committed > 0);
        engine.verify_replica_consistency().unwrap();
    }

    #[test]
    fn pure_cross_partition_workload_runs_only_on_master() {
        let mut engine = StarEngine::new(small_config(), workload(1.0)).unwrap();
        let report = engine.run_for(Duration::from_millis(20));
        assert!(report.counters.committed > 0);
        engine.verify_replica_consistency().unwrap();
    }

    #[test]
    fn failure_is_detected_at_the_fence_and_classified() {
        let mut engine = StarEngine::new(small_config(), workload(0.1)).unwrap();
        engine.run_for(Duration::from_millis(10));
        assert_eq!(engine.failure_case().unwrap(), FailureCase::NoFailure);
        engine.inject_failure(2);
        // Detection happens at the next fence.
        engine.run_iteration();
        assert!(engine.failed_nodes().contains(&2));
        assert_eq!(engine.failure_case().unwrap(), FailureCase::FullAndPartialRemain);
        // The system keeps committing transactions (Case 1).
        let report = engine.run_for(Duration::from_millis(20));
        assert!(report.counters.committed > 0);
        engine.verify_replica_consistency().unwrap();
    }

    #[test]
    fn master_failure_disables_phase_switching_until_recovery() {
        let mut engine = StarEngine::new(small_config(), workload(0.5)).unwrap();
        engine.run_for(Duration::from_millis(10));
        engine.inject_failure(0);
        engine.run_iteration();
        assert_eq!(engine.failure_case().unwrap(), FailureCase::OnlyPartialRemains);
        assert_eq!(engine.current_master(), None);
        // Single-partition work still proceeds on the partial replicas.
        let report = engine.run_for(Duration::from_millis(20));
        assert!(report.counters.committed > 0);
    }

    #[test]
    fn failed_node_recovers_and_rejoins() {
        let mut engine = StarEngine::new(small_config(), workload(0.2)).unwrap();
        engine.run_for(Duration::from_millis(15));
        engine.inject_failure(1);
        engine.run_iteration();
        assert!(engine.failed_nodes().contains(&1));
        // More work happens while node 1 is down.
        engine.run_for(Duration::from_millis(15));
        let copied = engine.recover_node(1).unwrap();
        assert!(copied > 0, "recovery should copy missed writes");
        assert!(engine.failed_nodes().is_empty());
        // After another fence-closed window, all replicas agree again.
        engine.run_for(Duration::from_millis(15));
        engine.verify_replica_consistency().unwrap();
    }

    #[test]
    fn recover_node_is_a_noop_for_healthy_nodes() {
        let mut engine = StarEngine::new(small_config(), workload(0.1)).unwrap();
        assert_eq!(engine.recover_node(2).unwrap(), 0);
        assert!(engine.recover_node(99).is_err());
    }

    #[test]
    fn overlapping_crashes_recover_in_dependency_order() {
        // Nodes 0 (full) and 1 hold partition 0 between them; crashing both
        // makes node 0 unrecoverable from memory until node 1 is back. The
        // failed recovery must be atomic (node 0 stays down, untouched) and
        // the same call must succeed once node 1 has rejoined.
        let mut engine = StarEngine::new(small_config(), workload(0.2)).unwrap();
        engine.run_for(Duration::from_millis(10));
        engine.inject_failure(0);
        engine.inject_failure(1);
        engine.run_iteration();
        assert_eq!(engine.failed_nodes(), vec![0, 1]);
        // Partition 0 is held only by nodes 0 and 1, so with both down
        // neither has a memory source — the mutual-dependency deadlock that
        // needs disk recovery (Case 4). Both attempts must fail atomically.
        let config = engine.cluster().config().clone();
        let p0_holders: Vec<usize> =
            (0..config.num_nodes).filter(|&n| config.node_stores_partition(n, 0)).collect();
        assert_eq!(p0_holders, vec![0, 1]);
        assert!(!engine.can_recover(0), "partition 0 has no healthy source");
        assert!(!engine.can_recover(1), "p0's only other holder (node 0) is down too");
        assert!(engine.recover_node(0).is_err(), "recovery without a source must fail");
        assert!(engine.failed_nodes().contains(&0), "failed recovery must leave the node down");
        assert!(engine.recover_node(1).is_err());
        // The engine must survive the unavailable state: fences keep running
        // and detection stays consistent.
        engine.run_iteration();
        assert_eq!(engine.failed_nodes(), vec![0, 1]);
        // Node 2 (holds p1: {0,1,2} and p2: {0,2,3}) crashed on top would
        // still be recoverable through node 3? No — p1's other holders are
        // both down, so overlapping a third crash makes it stuck too.
        engine.inject_failure(2);
        engine.run_iteration();
        assert!(!engine.can_recover(2));
    }

    #[test]
    fn majority_of_a_partitions_replicas_die_and_recover() {
        // Partition 1 is held by nodes 0, 1 and 2. Crash 1 and 2 (a majority
        // of its replicas) in overlapping windows, then recover them in
        // sequence; the cluster must keep committing throughout and converge
        // afterwards.
        let mut engine = StarEngine::new(small_config(), workload(0.2)).unwrap();
        engine.run_for(Duration::from_millis(10));
        engine.inject_failure(1);
        engine.run_iteration();
        engine.inject_failure(2);
        engine.run_iteration();
        assert_eq!(engine.failed_nodes(), vec![1, 2]);
        let report = engine.run_for(Duration::from_millis(15));
        assert!(report.counters.committed > 0, "the survivors must keep committing");
        assert!(engine.can_recover(1), "node 0 still covers everything node 1 holds");
        let copied = engine.recover_node(1).unwrap();
        assert!(copied > 0);
        engine.run_for(Duration::from_millis(10));
        let copied = engine.recover_node(2).unwrap();
        assert!(copied > 0);
        assert!(engine.failed_nodes().is_empty());
        engine.run_for(Duration::from_millis(10));
        engine.verify_replica_consistency().unwrap();
    }

    #[test]
    fn wal_dir_is_removed_even_for_crashed_never_recovered_nodes() {
        // Crashed nodes' WAL writers are skipped by every later fence, so
        // they still hold open handles and unflushed bytes when the engine
        // dies. The Drop impl must close the writers *before* unlinking the
        // directory, and the directory must be gone afterwards — chaos
        // sweeps construct thousands of engines and a leak per crashed node
        // fills the temp dir.
        let mut config = small_config();
        config.disk_logging = true;
        let dir = {
            let mut engine = StarEngine::new(config, workload(0.2)).unwrap();
            let dir = engine.wal_dir().expect("disk logging must create a WAL dir").to_path_buf();
            assert!(dir.exists());
            engine.run_for(Duration::from_millis(10));
            engine.inject_failure(1);
            engine.run_iteration();
            // More commits while node 1 is down leave its WAL buffer with
            // bytes no fence will ever flush.
            engine.run_for(Duration::from_millis(10));
            assert!(engine.failed_nodes().contains(&1));
            dir
        };
        assert!(!dir.exists(), "engine drop must remove the per-engine WAL dir");
    }

    #[test]
    fn master_reelection_is_deterministic_and_generation_stamped() {
        // Two full replicas: killing the coordinator mid-epoch hands the
        // role to node 1 at the next fence; recovering node 0 hands it back.
        let mut config = small_config();
        config.full_replicas = 2;
        let mut engine = StarEngine::new(config, workload(0.5)).unwrap();
        assert_eq!(engine.current_master(), Some(0));
        assert_eq!(engine.master_generation(), 0);
        engine.run_for(Duration::from_millis(10));
        assert_eq!(engine.master_generation(), 0, "no failure, no re-election");

        engine.inject_failure(0);
        engine.run_iteration();
        assert_eq!(engine.current_master(), Some(1), "next healthy full replica must win");
        assert_eq!(engine.master_generation(), 1);
        let election = *engine.elections().last().unwrap();
        assert_eq!(election.master, Some(1));
        assert_eq!(election.generation, 1);

        // The cluster keeps committing under the new master.
        let report = engine.run_for(Duration::from_millis(15));
        assert!(report.counters.committed > 0);
        engine.recover_node(0).unwrap();
        engine.run_iteration();
        assert_eq!(engine.current_master(), Some(0), "the lowest-id full replica takes back over");
        assert_eq!(engine.master_generation(), 2);
        // The log is an audit trail: initial appointment plus two changes.
        let masters: Vec<Option<NodeId>> = engine.elections().iter().map(|e| e.master).collect();
        assert_eq!(masters, vec![Some(0), Some(1), Some(0)]);
    }

    #[test]
    fn losing_every_full_replica_elects_nobody() {
        let mut config = small_config();
        config.full_replicas = 2;
        let mut engine = StarEngine::new(config, workload(0.3)).unwrap();
        engine.run_for(Duration::from_millis(10));
        engine.inject_failure(0);
        engine.inject_failure(1);
        engine.run_iteration();
        assert_eq!(engine.current_master(), None);
        assert_eq!(engine.elections().last().unwrap().master, None);
        let generation = engine.master_generation();
        // Idle fences must not re-run the election.
        engine.run_iteration();
        assert_eq!(engine.master_generation(), generation);
    }

    #[test]
    fn interrupted_recovery_leaves_the_node_down_and_is_retryable() {
        let mut engine = StarEngine::new(small_config(), workload(0.2)).unwrap();
        engine.run_for(Duration::from_millis(15));
        engine.inject_failure(2);
        engine.run_iteration();
        engine.run_for(Duration::from_millis(10));

        // Target crashes again mid-copy: nothing else changes.
        let aborted = engine.recover_node_interrupted(2, RecoveryFault::TargetCrash).unwrap();
        assert!(aborted.records_copied > 0, "a partial prefix must have been copied");
        assert!(engine.failed_nodes().contains(&2), "the node must stay down");
        engine.run_iteration();

        // The retried full recovery succeeds and the cluster converges.
        engine.recover_node(2).unwrap();
        assert!(engine.failed_nodes().is_empty());
        engine.run_for(Duration::from_millis(10));
        engine.verify_replica_consistency().unwrap();
    }

    #[test]
    fn source_crash_mid_recovery_is_detected_at_the_next_fence() {
        let mut engine = StarEngine::new(small_config(), workload(0.2)).unwrap();
        engine.run_for(Duration::from_millis(15));
        engine.inject_failure(2);
        engine.run_iteration();
        let aborted = engine.recover_node_interrupted(2, RecoveryFault::SourceCrash).unwrap();
        // The source died serving the copy; the next fence detects it and
        // the cluster reverts the in-flight epoch like any other crash.
        engine.run_iteration();
        assert!(engine.failed_nodes().contains(&aborted.source));
        assert!(engine.failed_nodes().contains(&2));
        // With the source down too, node 2's recovery may now be infeasible;
        // recover the source first, then node 2.
        engine.recover_node(aborted.source).unwrap();
        engine.run_iteration();
        engine.recover_node(2).unwrap();
        engine.run_for(Duration::from_millis(10));
        engine.verify_replica_consistency().unwrap();
    }

    #[test]
    fn link_cut_mid_recovery_stays_cut_until_healed() {
        let mut engine = StarEngine::new(small_config(), workload(0.2)).unwrap();
        engine.run_for(Duration::from_millis(10));
        engine.inject_failure(2);
        engine.run_iteration();
        let aborted = engine.recover_node_interrupted(2, RecoveryFault::LinkCut).unwrap();
        assert!(engine.cluster().network().is_link_cut(aborted.source, 2));
        engine.cluster().network().heal_link(aborted.source, 2);
        engine.recover_node(2).unwrap();
        engine.run_for(Duration::from_millis(10));
        engine.verify_replica_consistency().unwrap();
    }

    #[test]
    fn interrupted_mid_epoch_recovery_does_not_resurrect_reverted_writes() {
        // Regression test: an interruption can land mid-epoch, so the
        // partial copy includes the source's *in-flight* versions. If that
        // epoch then reverts (another node dies before the fence), the down
        // node keeps the copies — it takes no part in fences — and a
        // marker-consuming retry would let the Thomas write rule pin the
        // resurrected rows forever. The retried recovery must revert the
        // target again before re-copying. A large keyspace and idle
        // post-revert iterations keep the resurrected keys from being
        // rewritten (and thereby masked) afterwards.
        // The full replica (node 0) is down, so partition 0 is re-mastered
        // onto node 1 — whose db therefore carries *in-flight* versions
        // mid-phase. Interrupting node 0's recovery mid-epoch copies them.
        let wl = Arc::new(KvWorkload {
            partitions: 4,
            rows_per_partition: 2048,
            cross_partition_fraction: 0.2,
        });
        let mut engine = StarEngine::new(small_config(), wl).unwrap();
        engine.run_iteration_stepped(64, 16);
        engine.inject_failure(0);
        engine.run_iteration_stepped(16, 0);
        // An epoch with plenty of in-flight writes on the re-mastered
        // primary, then the aborted copy from it, then a crash that makes
        // the fence revert the whole epoch.
        engine.run_partitioned_phase_stepped(64);
        let aborted = engine.recover_node_interrupted(0, RecoveryFault::TargetCrash).unwrap();
        assert_eq!(aborted.source, 1, "p0 re-mastered onto node 1, the copy source");
        engine.inject_failure(2);
        engine.fence();
        engine.run_single_master_phase_stepped(0);
        engine.fence();
        engine.recover_node(2).unwrap();
        engine.run_iteration_stepped(0, 0);
        engine.recover_node(0).unwrap();
        engine.run_iteration_stepped(0, 0);
        engine.verify_replica_consistency().unwrap();
    }

    #[test]
    fn interrupting_a_healthy_or_unrecoverable_node_mirrors_recover_node() {
        let mut engine = StarEngine::new(small_config(), workload(0.2)).unwrap();
        // Healthy node: no-op.
        let noop = engine.recover_node_interrupted(2, RecoveryFault::TargetCrash).unwrap();
        assert_eq!(noop.records_copied, 0);
        assert!(engine.recover_node_interrupted(99, RecoveryFault::TargetCrash).is_err());
        // Unrecoverable node (no healthy source): typed error, node stays
        // down, untouched.
        engine.inject_failure(0);
        engine.inject_failure(1);
        engine.run_iteration();
        assert!(engine.recover_node_interrupted(0, RecoveryFault::LinkCut).is_err());
        assert!(engine.failed_nodes().contains(&0));
    }

    #[test]
    fn effective_primary_fails_over_to_a_holder() {
        let mut engine = StarEngine::new(small_config(), workload(0.1)).unwrap();
        assert_eq!(engine.effective_primary(1), Some(1));
        engine.inject_failure(1);
        engine.run_iteration();
        let fallback = engine.effective_primary(1).unwrap();
        assert_ne!(fallback, 1);
        assert!(engine.cluster().config().node_stores_partition(fallback, 1));
    }

    #[test]
    fn disk_logging_writes_wal_bytes() {
        let mut config = small_config();
        config.disk_logging = true;
        let mut engine = StarEngine::new(config, workload(0.1)).unwrap();
        let report = engine.run_for(Duration::from_millis(20));
        assert!(report.counters.wal_bytes > 0);
    }

    #[test]
    fn sync_replication_mode_still_converges() {
        let mut config = small_config();
        config.replication_mode = ReplicationMode::Sync;
        let mut engine = StarEngine::new(config, workload(0.5)).unwrap();
        let report = engine.run_for(Duration::from_millis(20));
        assert!(report.counters.committed > 0);
        engine.verify_replica_consistency().unwrap();
    }

    #[test]
    fn crash_during_async_drain_reverts_only_the_inflight_epoch() {
        // Pipelined group commit keeps two epochs in flight: epoch N's
        // deferred replica applies drain while epoch N+1 executes. A crash
        // landing in that window must revert exactly the in-flight epoch —
        // epoch N group-committed at its fence (its transactions were
        // released to clients), so the fence first completes N's drain and
        // only then discards N+1.
        use crate::history::HistoryRecorder;
        let wl = Arc::new(KvWorkload {
            partitions: 4,
            rows_per_partition: 64,
            cross_partition_fraction: 0.3,
        });
        let mut engine = StarEngine::new(small_config(), wl).unwrap();
        let history = Arc::new(HistoryRecorder::new());
        engine.set_history_recorder(Arc::clone(&history));

        // Epochs 1 and 2 commit; the fence closing epoch 2 defers the
        // replica applies the upcoming partitioned phase will not read.
        engine.run_iteration_stepped(8, 4);
        let committed_before = history.committed_len();
        assert!(committed_before > 0);
        assert_eq!(
            engine.pending_drains(),
            vec![2],
            "epoch 2's drain must still be queued behind the fence"
        );

        // Epoch 3 executes while epoch 2 drains; the crash lands in exactly
        // that window.
        engine.run_partitioned_phase_stepped(8);
        engine.inject_failure(2);
        assert_eq!(engine.pending_drains(), vec![2], "the crash must land mid-drain");
        engine.fence();

        // Epoch 2 survived: its drain completed before the revert, and its
        // records stay in the committed history. Epoch 3 vanished entirely.
        assert_eq!(engine.reverted_epochs(), &[3]);
        assert_eq!(history.reverted_epochs(), vec![3]);
        assert_eq!(history.committed_len(), committed_before);
        assert!(engine.pending_drains().is_empty());
        engine.verify_replica_consistency().unwrap();

        // The surviving replicas carry exactly the committed transactions:
        // every KvRmw increments two counters by one, so the master's
        // counter total must equal twice the committed-history length.
        let master_db = &engine.cluster().master().unwrap().db;
        let mut total = 0u64;
        for p in 0..4usize {
            for offset in 0..64 {
                let rec = master_db.get(0, p, kv_key(p, offset)).unwrap();
                total += rec.read().row.field(0).unwrap().as_u64().unwrap();
            }
        }
        assert_eq!(total, 2 * committed_before as u64, "epoch 3 writes must be gone");
    }

    #[test]
    fn pipelined_stepped_runs_are_deterministic() {
        // The two-deep epoch window must not cost reproducibility: two
        // stepped runs over the same seed, with drains pumped at fences,
        // must produce bit-identical committed histories.
        use crate::history::HistoryRecorder;
        let run = || {
            let mut engine = StarEngine::new(small_config(), workload(0.3)).unwrap();
            let history = Arc::new(HistoryRecorder::new());
            engine.set_history_recorder(Arc::clone(&history));
            for _ in 0..5 {
                engine.run_iteration_stepped(8, 4);
            }
            engine.quiesce();
            history.fingerprint()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn serializability_smoke_total_increments_equal_commits() {
        // Every KvRmw increments two counters by one; after a fence the sum
        // of all counters on the master replica must equal twice the number
        // of committed transactions (minus nothing, since there are no user
        // aborts in this workload).
        let config = ClusterConfig {
            num_nodes: 2,
            full_replicas: 1,
            workers_per_node: 2,
            partitions: 2,
            iteration: Duration::from_millis(5),
            network_latency: Duration::from_micros(10),
            ..ClusterConfig::default()
        };
        let wl = Arc::new(KvWorkload {
            partitions: 2,
            rows_per_partition: 16,
            cross_partition_fraction: 0.3,
        });
        let mut engine = StarEngine::new(config, wl.clone()).unwrap();
        let report = engine.run_for(Duration::from_millis(40));
        let master_db = &engine.cluster().master().unwrap().db;
        let mut total = 0u64;
        for p in 0..2usize {
            for offset in 0..wl.rows_per_partition {
                let rec = master_db.get(0, p, kv_key(p, offset)).unwrap();
                total += rec.read().row.field(0).unwrap().as_u64().unwrap();
            }
        }
        assert_eq!(total, report.counters.committed * 2);
    }
}
