//! The shared phase executor.
//!
//! Exactly one implementation exists of "run a partitioned-phase worker" and
//! "run a single-master-phase worker" ([`run_partition_worker`],
//! [`run_master_worker`]), and the in-process [`StarEngine`](crate::StarEngine)
//! (threaded and stepped drivers) and the TCP deployment (`star-serverd`) all
//! call it; only the [`Budget`] differs. Replication goes through
//! [`Transport`], the seam implemented by the deterministic
//! in-memory endpoint and by the real TCP mesh alike — so when the
//! transport-parity harness asserts byte-identical committed histories
//! between wire and simulation, the engine logic is shared by construction
//! and any divergence is the transport's.
//!
//! Worker state (TID generator + seeded RNG) is also constructed here, from
//! the one canonical seed-derivation formula: partition worker `p` draws from
//! `rng_seed_base() ^ 0x5747 ^ p`, master worker `w` from
//! `rng_seed_base() ^ 0xCA11 ^ w`. Identical configuration ⇒ identical
//! transaction streams, on every backend.

use crate::history::{CommittedTxn, HistoryRecorder, MASTER_EXECUTOR_OFFSET};
use crate::messages::ReplicationBatch;
use crate::workload::Workload;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use star_common::stats::RunCounters;
use star_common::{
    ClusterConfig, Epoch, Error, NodeId, PartitionId, ReplicationMode, Tid, TidGenerator,
};
use star_net::{Message as _, Transport};
use star_occ::{
    commit_partitioned, commit_single_master, CommitOutput, ReadSet, TxnCtx, WriteEntry,
};
use star_replication::{
    build_log_entries, EncodedEntry, ExecutionPhase, LogEntry, Payload, WalWriter,
};
use star_storage::Database;
use std::time::Instant;

/// Sampling rate for commit-latency measurements: one in `LATENCY_SAMPLE`
/// commits of a timed phase records its commit instant; latency is measured
/// to the fence that closes the epoch.
const LATENCY_SAMPLE: u64 = 8;

/// How long a phase worker runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Budget {
    /// Until the instant passes, always attempting at least one transaction
    /// so a loaded host cannot starve a worker out of a short phase. Timed
    /// workers stage their replication per target ([`ReplicationStage`]) and
    /// sample commit instants for the latency histogram.
    Deadline(Instant),
    /// Exactly this many transaction attempts, with one replication send per
    /// committed transaction: the deterministic budget of the stepped
    /// drivers and the TCP deployment, whose committed streams and message
    /// sequences must be pure functions of the seed.
    Attempts(u64),
}

impl Budget {
    fn allows(self, attempts: u64) -> bool {
        match self {
            Budget::Deadline(deadline) => attempts == 0 || Instant::now() < deadline,
            Budget::Attempts(limit) => attempts < limit,
        }
    }

    fn is_timed(self) -> bool {
        matches!(self, Budget::Deadline(_))
    }
}

/// Where a phase worker runs and what it touches: everything but its own
/// seeded state.
#[derive(Clone, Copy)]
pub struct PhaseEnv<'a> {
    /// The cluster configuration.
    pub config: &'a ClusterConfig,
    /// The node executing (a partition's effective primary, or the master).
    pub node: NodeId,
    /// The epoch being executed.
    pub epoch: Epoch,
    /// The executing node's replica.
    pub db: &'a Database,
    /// The executing node's replication transport.
    pub transport: &'a dyn Transport<ReplicationBatch>,
    /// The workload generating transactions.
    pub workload: &'a dyn Workload,
    /// Counters for commits, aborts and traffic.
    pub counters: &'a RunCounters,
    /// The executing node's WAL, when disk logging is on.
    pub wal: Option<&'a Mutex<WalWriter>>,
    /// The committed-history recorder, when attached.
    pub history: Option<&'a HistoryRecorder>,
}

/// What one phase worker did.
#[derive(Debug, Default)]
pub struct WorkerOutcome {
    /// Committed transactions.
    pub committed: u64,
    /// Commit instants of sampled transactions (timed budgets only).
    pub samples: Vec<Instant>,
}

/// Runs one worker per job under `budget`. A deadline runs the workers on
/// scoped threads, concurrently; an attempt count runs them one after
/// another, in job order, on the calling thread.
pub(crate) fn run_workers<J: Send>(
    budget: Budget,
    jobs: Vec<J>,
    work: impl Fn(J) -> WorkerOutcome + Sync,
) -> Vec<WorkerOutcome> {
    if !budget.is_timed() {
        return jobs.into_iter().map(work).collect();
    }
    let work = &work;
    std::thread::scope(|scope| {
        let handles: Vec<_> = jobs.into_iter().map(|job| scope.spawn(move || work(job))).collect();
        handles.into_iter().map(|handle| handle.join().expect("phase worker panicked")).collect()
    })
}

/// The phase-worker loop: attempts transactions until `budget` runs out,
/// sampling commit instants and flushing the replication stage of a timed
/// budget.
fn run_worker(
    budget: Budget,
    env: &PhaseEnv<'_>,
    mut attempt: impl FnMut(Option<&mut ReplicationStage>) -> bool,
) -> WorkerOutcome {
    // Each timed worker stages its replication traffic in its own buffers
    // and merges at the end of the phase: no shared lock, no
    // per-transaction fan-out.
    let mut stage =
        budget.is_timed().then(|| ReplicationStage::new(env.node, env.epoch, env.config.num_nodes));
    let mut outcome = WorkerOutcome::default();
    let mut attempts = 0u64;
    while budget.allows(attempts) {
        attempts += 1;
        if attempt(stage.as_mut()) {
            outcome.committed += 1;
            if budget.is_timed() && outcome.committed % LATENCY_SAMPLE == 0 {
                outcome.samples.push(Instant::now());
            }
        }
        if let Some(stage) = &mut stage {
            stage.flush_if_full(env.transport, env.counters);
        }
    }
    if let Some(stage) = &mut stage {
        stage.flush(env.transport, env.counters);
    }
    outcome
}

/// Runs `partition`'s worker on its effective primary `env.node`,
/// replicating to `targets`.
pub fn run_partition_worker(
    budget: Budget,
    env: &PhaseEnv<'_>,
    partition: PartitionId,
    targets: &[NodeId],
    state: &mut PartitionWorkerState,
) -> WorkerOutcome {
    run_worker(budget, env, |stage| run_one_partitioned_txn(env, partition, targets, state, stage))
}

/// Runs master worker `worker_id` on the master `env.node`, replicating to
/// the `healthy` peers that hold each written partition.
pub fn run_master_worker(
    budget: Budget,
    env: &PhaseEnv<'_>,
    worker_id: usize,
    healthy: &[NodeId],
    state: &mut MasterWorkerState,
) -> WorkerOutcome {
    run_worker(budget, env, |stage| run_one_master_txn(env, worker_id, healthy, state, stage))
}

/// Per-worker staging of replication traffic.
///
/// Committed entries accumulate in thread-local per-target buffers and are
/// flushed as one merged batch per target, so each worker pays the transport
/// fan-out cost (channel enqueue, fault-plane roll, stats update) once per
/// flush instead of once per transaction — the contention point behind the
/// 2→4 thread throughput collapse. Only [`Budget::Deadline`] workers stage;
/// attempt-budgeted workers (the stepped drivers and the TCP deployment) keep
/// per-transaction batches, preserving the chaos corpus's
/// message-granularity determinism (per-send fault rolls, highest-TID
/// corrupt targeting).
///
/// Entries for one partition stay in commit stream order within a worker's
/// buffers, and partitioned-phase partitions are single-writer, so operation
/// replication's in-order apply requirement is untouched.
#[derive(Debug)]
pub struct ReplicationStage {
    from_node: NodeId,
    epoch: Epoch,
    per_target: Vec<Vec<EncodedEntry>>,
}

/// A staged target buffer flushes once it holds this many entries, bounding
/// staged memory and the size of any one fence-drained batch.
pub const STAGE_FLUSH_ENTRIES: usize = 1024;

impl ReplicationStage {
    /// An empty stage for a worker on `from_node` executing `epoch`.
    pub fn new(from_node: NodeId, epoch: Epoch, num_nodes: usize) -> Self {
        ReplicationStage { from_node, epoch, per_target: vec![Vec::new(); num_nodes] }
    }

    fn push(&mut self, target: NodeId, entry: EncodedEntry) {
        if let Some(buffer) = self.per_target.get_mut(target) {
            buffer.push(entry);
        }
    }

    /// Flushes every target buffer that grew past [`STAGE_FLUSH_ENTRIES`].
    /// Workers call this once per transaction; the common case is a length
    /// check per target and nothing else.
    pub fn flush_if_full(
        &mut self,
        transport: &dyn Transport<ReplicationBatch>,
        counters: &RunCounters,
    ) {
        for target in 0..self.per_target.len() {
            if self.per_target[target].len() >= STAGE_FLUSH_ENTRIES {
                self.flush_target(target, transport, counters);
            }
        }
    }

    /// Flushes everything still staged. Must run before the worker exits its
    /// phase loop: the fence drains endpoints after the phase joins, and the
    /// fence's contract is that every entry the phase produced has been sent.
    pub fn flush(&mut self, transport: &dyn Transport<ReplicationBatch>, counters: &RunCounters) {
        for target in 0..self.per_target.len() {
            self.flush_target(target, transport, counters);
        }
    }

    fn flush_target(
        &mut self,
        target: NodeId,
        transport: &dyn Transport<ReplicationBatch>,
        counters: &RunCounters,
    ) {
        if self.per_target[target].is_empty() {
            return;
        }
        let batch = ReplicationBatch {
            from_node: self.from_node,
            epoch: self.epoch,
            entries: std::mem::take(&mut self.per_target[target]),
        };
        counters.add_replication_bytes(batch.wire_size() as u64);
        let _ = transport.send(target, batch);
    }
}

/// Per-partition worker state that survives across iterations.
pub struct PartitionWorkerState {
    pub(crate) tid_gen: TidGenerator,
    pub(crate) rng: StdRng,
}

impl PartitionWorkerState {
    /// State for the worker owning `partition`, seeded by the canonical
    /// formula shared by every backend.
    pub fn new(config: &ClusterConfig, partition: PartitionId) -> Self {
        PartitionWorkerState {
            tid_gen: TidGenerator::new(),
            rng: StdRng::seed_from_u64(config.rng_seed_base() ^ 0x5747_u64 ^ (partition as u64)),
        }
    }

    /// Advances this worker's RNG past `attempts` transaction generations
    /// without executing anything, by generating and discarding the same
    /// procedures [`run_one_partitioned_txn`] would have drawn.
    ///
    /// A node taking over a partition mid-run (primary failover, or a
    /// restarted process rejoining) must resume the partition's transaction
    /// stream exactly where the previous executor left it. Each attempt —
    /// committed or aborted — consumes exactly one workload generation, so
    /// replaying the generations is a faithful fast-forward. The TID
    /// generator needs no transfer: failover only happens across an epoch
    /// fence, the epoch always advances, and TIDs are epoch-major, so a
    /// fresh generator's `Tid::new(epoch, 1)` matches what a carried-over
    /// generator would produce.
    pub fn fast_forward(&mut self, workload: &dyn Workload, partition: PartitionId, attempts: u64) {
        for _ in 0..attempts {
            let _ = workload.single_partition_transaction(&mut self.rng, partition);
        }
    }
}

/// Per-master-worker state that survives across iterations.
pub struct MasterWorkerState {
    pub(crate) tid_gen: TidGenerator,
    pub(crate) rng: StdRng,
}

impl MasterWorkerState {
    /// State for master worker `worker`, seeded by the canonical formula
    /// shared by every backend.
    pub fn new(config: &ClusterConfig, worker: usize) -> Self {
        MasterWorkerState {
            tid_gen: TidGenerator::new(),
            rng: StdRng::seed_from_u64(config.rng_seed_base() ^ 0xCA11_u64 ^ (worker as u64)),
        }
    }

    /// Advances this master worker's RNG past `attempts` transaction
    /// generations without executing anything — the single-master twin of
    /// [`PartitionWorkerState::fast_forward`], used when a re-elected master
    /// must resume worker `worker_id`'s cross-partition stream where the
    /// previous master's worker left it. Each attempt draws one home
    /// partition and one workload generation, exactly as
    /// [`run_one_master_txn`] does.
    pub fn fast_forward(
        &mut self,
        workload: &dyn Workload,
        worker_id: usize,
        partitions: usize,
        attempts: u64,
    ) {
        use rand::Rng;
        for _ in 0..attempts {
            let home = (self.rng.gen::<usize>() ^ worker_id) % partitions;
            let _ = workload.cross_partition_transaction(&mut self.rng, home);
        }
    }
}

/// Logs a committed write set to a worker's WAL, as full rows (Section 5).
pub fn append_writes_to_wal(
    wal: &Mutex<WalWriter>,
    write_set: &[WriteEntry],
    tid: Tid,
    counters: &RunCounters,
) {
    let mut wal = wal.lock();
    for w in write_set {
        let entry = LogEntry {
            table: w.table,
            partition: w.partition,
            key: w.key,
            tid,
            payload: Payload::Value(w.row.clone()),
        };
        let _ = wal.append_value(&entry);
        counters.add_wal_bytes(entry.wire_size() as u64);
    }
}

/// Counts a failed execution as a user abort or a concurrency-control abort.
fn count_abort(error: &Error, counters: &RunCounters) {
    match error {
        Error::Abort(star_common::AbortReason::User) => counters.add_user_abort(),
        _ => counters.add_abort(),
    }
}

/// What every committed transaction does before its WAL append: record it
/// in the history (when attached), then replicate each write to those of
/// `targets` that hold the written partition — staged, or as one batch per
/// target. Entries are encoded once; the per-target filter routes on the
/// mirrored partition header, so no payload is cloned or re-encoded.
fn record_and_replicate(
    env: &PhaseEnv<'_>,
    phase: ExecutionPhase,
    executor: u64,
    reads: Option<ReadSet>,
    output: &CommitOutput,
    targets: &[NodeId],
    mut stage: Option<&mut ReplicationStage>,
) {
    let (tid, writes) = (output.tid, &output.write_set);
    if let Some(history) = env.history {
        let reads = reads.as_deref().unwrap_or(&[]);
        history.record(CommittedTxn::from_sets(env.epoch, phase, executor, tid, reads, writes));
    }
    let entries = build_log_entries(writes, tid, env.config.replication_strategy, phase);
    if entries.is_empty() {
        return;
    }
    let encoded = EncodedEntry::encode_all(entries);
    for &target in targets {
        let relevant =
            encoded.iter().filter(|e| env.config.node_stores_partition(target, e.partition()));
        match stage.as_deref_mut() {
            Some(stage) => relevant.for_each(|e| stage.push(target, e.clone())),
            None => {
                let entries: Vec<EncodedEntry> = relevant.cloned().collect();
                if entries.is_empty() {
                    continue;
                }
                let batch = ReplicationBatch { from_node: env.node, epoch: env.epoch, entries };
                env.counters.add_replication_bytes(batch.wire_size() as u64);
                let _ = env.transport.send(target, batch);
            }
        }
    }
}

/// Executes one single-partition transaction on `partition`'s effective
/// primary `env.node`: generate → execute → lock-free commit → record →
/// replicate to `targets` → WAL. Returns `true` if the transaction committed.
fn run_one_partitioned_txn(
    env: &PhaseEnv<'_>,
    partition: PartitionId,
    targets: &[NodeId],
    state: &mut PartitionWorkerState,
    stage: Option<&mut ReplicationStage>,
) -> bool {
    let PhaseEnv { db, workload, counters, wal, history, epoch, .. } = *env;
    let proc = workload.single_partition_transaction(&mut state.rng, partition);
    let mut ctx = TxnCtx::new_single_threaded(db);
    if let Err(error) = proc.execute(&mut ctx) {
        count_abort(&error, counters);
        return false;
    }
    let (read_set, write_set) = ctx.into_sets();
    let recorded_reads = history.map(|_| read_set.clone());
    let Ok(output) = commit_partitioned(db, read_set, write_set, epoch, &mut state.tid_gen) else {
        counters.add_abort();
        return false;
    };
    let executor = partition as u64;
    let phase = ExecutionPhase::Partitioned;
    record_and_replicate(env, phase, executor, recorded_reads, &output, targets, stage);
    if let Some(wal) = wal {
        append_writes_to_wal(wal, &output.write_set, output.tid, counters);
    }
    counters.add_commit();
    true
}

/// Executes one cross-partition transaction on the master `env.node` under
/// Silo OCC: generate → execute → validate/commit → record → replicate the
/// relevant entries to every `healthy` peer → (optionally) wait out
/// synchronous replication → WAL. Returns `true` on commit.
fn run_one_master_txn(
    env: &PhaseEnv<'_>,
    worker_id: usize,
    healthy: &[NodeId],
    state: &mut MasterWorkerState,
    stage: Option<&mut ReplicationStage>,
) -> bool {
    let PhaseEnv { config, db, workload, counters, wal, history, epoch, .. } = *env;
    use rand::Rng;
    let home = (state.rng.gen::<usize>() ^ worker_id) % config.partitions;
    let proc = workload.cross_partition_transaction(&mut state.rng, home);
    let mut ctx = TxnCtx::new(db);
    if let Err(error) = proc.execute(&mut ctx) {
        count_abort(&error, counters);
        return false;
    }
    let (read_set, write_set) = ctx.into_sets();
    let recorded_reads = history.map(|_| read_set.clone());
    // The Silo OCC validate-and-install step is the only lock-or-validate
    // work STAR does (the partitioned phase commits lock-free), so its time
    // is metered for the latency-source breakdown.
    let validate_start = Instant::now();
    let commit = commit_single_master(db, read_set, write_set, epoch, &mut state.tid_gen);
    counters.add_lock_or_validate(validate_start.elapsed());
    let output = match commit {
        Ok(output) => output,
        Err(_) => {
            counters.add_abort();
            return false;
        }
    };
    let executor = MASTER_EXECUTOR_OFFSET + worker_id as u64;
    let phase = ExecutionPhase::SingleMaster;
    record_and_replicate(env, phase, executor, recorded_reads, &output, healthy, stage);
    if config.replication_mode == ReplicationMode::Sync && !healthy.is_empty() {
        // Synchronous replication: the write locks are held for a round trip
        // to the replicas before the transaction can release them.
        std::thread::sleep(config.network_latency * 2);
    }
    if let Some(wal) = wal {
        append_writes_to_wal(wal, &output.write_set, output.tid, counters);
    }
    counters.add_commit();
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::KvWorkload;
    use rand::RngCore;
    use star_net::SendError;
    use star_storage::DatabaseBuilder;

    fn config() -> ClusterConfig {
        ClusterConfig::builder()
            .nodes(2)
            .full_replicas(1)
            .workers_per_node(2)
            .seed(7)
            .build()
            .expect("valid test config")
    }

    /// A transport that accepts and discards everything, for driving the
    /// execution paths without a cluster.
    struct NullTransport;

    impl Transport<ReplicationBatch> for NullTransport {
        fn node(&self) -> usize {
            0
        }

        fn num_nodes(&self) -> usize {
            1
        }

        fn send(&self, _to: usize, _payload: ReplicationBatch) -> Result<(), SendError> {
            Ok(())
        }
    }

    fn kv_db(workload: &KvWorkload) -> Database {
        let mut builder = DatabaseBuilder::new(workload.partitions);
        for spec in workload.catalog() {
            builder = builder.table(spec);
        }
        let db = builder.build();
        for p in 0..workload.partitions {
            workload.load_partition(&db, p);
        }
        db
    }

    fn env<'a>(
        config: &'a ClusterConfig,
        db: &'a Database,
        workload: &'a KvWorkload,
        counters: &'a RunCounters,
    ) -> PhaseEnv<'a> {
        PhaseEnv {
            config,
            node: 0,
            epoch: 1,
            db,
            transport: &NullTransport,
            workload,
            counters,
            wal: None,
            history: None,
        }
    }

    #[test]
    fn partition_fast_forward_matches_really_executed_attempts() {
        let config = config();
        let workload =
            KvWorkload { partitions: 2, rows_per_partition: 16, cross_partition_fraction: 0.3 };
        let db = kv_db(&workload);
        let counters = RunCounters::new();

        // One worker really executes `n` attempts; its twin only
        // fast-forwards. Their RNG streams must be in lockstep afterwards.
        let n = 7u64;
        let mut executed = PartitionWorkerState::new(&config, 0);
        for _ in 0..n {
            run_one_partitioned_txn(
                &env(&config, &db, &workload, &counters),
                0,
                &[],
                &mut executed,
                None,
            );
        }
        let mut forwarded = PartitionWorkerState::new(&config, 0);
        forwarded.fast_forward(&workload, 0, n);
        assert_eq!(executed.rng.next_u64(), forwarded.rng.next_u64());
    }

    #[test]
    fn master_fast_forward_matches_really_executed_attempts() {
        let config = config();
        let workload =
            KvWorkload { partitions: 2, rows_per_partition: 16, cross_partition_fraction: 0.3 };
        let db = kv_db(&workload);
        let counters = RunCounters::new();

        let n = 7u64;
        let mut executed = MasterWorkerState::new(&config, 1);
        for _ in 0..n {
            run_one_master_txn(
                &env(&config, &db, &workload, &counters),
                1,
                &[],
                &mut executed,
                None,
            );
        }
        let mut forwarded = MasterWorkerState::new(&config, 1);
        forwarded.fast_forward(&workload, 1, config.partitions, n);
        assert_eq!(executed.rng.next_u64(), forwarded.rng.next_u64());
    }

    #[test]
    fn fresh_tid_generator_matches_carried_one_across_an_epoch_boundary() {
        // The fast-forward contract deliberately skips the TID generator:
        // failover always lands past an epoch fence, and TIDs are
        // epoch-major, so a fresh generator's first TID in the new epoch
        // equals what the old generator would have produced.
        let mut carried = TidGenerator::new();
        for _ in 0..5 {
            carried.generate(3, Tid::ZERO);
        }
        let mut fresh = TidGenerator::new();
        assert_eq!(carried.generate(4, Tid::ZERO), fresh.generate(4, Tid::ZERO));
        // And with an observed record TID from the older epoch in play the
        // epoch-major ordering still lets the fresh generator win.
        let observed = Tid::new(3, 900);
        let mut fresh2 = TidGenerator::new();
        assert_eq!(Tid::new(5, 1), fresh2.generate(5, observed));
    }

    #[test]
    fn worker_seeds_are_per_index_and_reproducible() {
        let config = config();
        let mut a = PartitionWorkerState::new(&config, 0);
        let mut a2 = PartitionWorkerState::new(&config, 0);
        let mut b = PartitionWorkerState::new(&config, 1);
        let (xa, xa2, xb) = (a.rng.next_u64(), a2.rng.next_u64(), b.rng.next_u64());
        assert_eq!(xa, xa2, "same partition, same seed, same stream");
        assert_ne!(xa, xb, "distinct partitions draw distinct streams");
    }

    #[test]
    fn master_and_partition_streams_differ() {
        let config = config();
        let mut p = PartitionWorkerState::new(&config, 0);
        let mut m = MasterWorkerState::new(&config, 0);
        assert_ne!(p.rng.next_u64(), m.rng.next_u64());
    }
}
