//! STAR's replication-protocol rules, each written exactly once.
//!
//! Every shell that runs STAR — the in-process [`StarEngine`](crate::StarEngine),
//! a `star-serverd` node, the wire-chaos supervisor and the chaos schedule
//! synthesizer — calls these functions instead of restating them, so the
//! shells cannot disagree about:
//!
//! * the **fence** (Figures 5–6): detect newly failed nodes, revert the epoch
//!   a crash interrupted, hold the election, commit the epoch and advance
//!   ([`ProtocolState::fence`]), and which queued replication batches survive
//!   it ([`ProtocolState::admits`]);
//! * the **election**: the designated master is the lowest-id healthy full
//!   replica ([`elect`]), logged with a generation that bumps only when the
//!   winner changes ([`ElectionLog`]);
//! * **failover routing** (Case 3): a dead primary's partition is re-mastered
//!   onto the lowest-id healthy holder ([`effective_primary`]), and writes
//!   replicate to the healthy holders only ([`replica_targets`],
//!   [`healthy_peers`]);
//! * the **recovery source**: a recovering node copies each partition it
//!   holds from the lowest-id other healthy holder ([`recovery_source`]), and
//!   can rejoin from memory only when every such partition has one
//!   ([`can_recover`]).
//!
//! Failure pictures are per-node flags indexed by node id; an id outside the
//! slice counts as failed, so it can never serve a phase, win an election or
//! source a recovery.

use star_common::{ClusterConfig, Epoch, NodeId, PartitionId};

/// One master (re-)election, recorded at the fence that held it.
///
/// Elections are deterministic: the winner is always the lowest-id healthy
/// full replica (or `None` when no full replica survives — Case 2/4), and
/// they only happen at replication fences, where failure detection has just
/// run. Identical seed ⇒ identical election log, which is what lets the
/// chaos harness assert a *deterministic* new master after a coordinator
/// crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MasterElection {
    /// The epoch whose fence held the election (0 for the initial
    /// appointment).
    pub epoch: Epoch,
    /// The elected master, or `None` if no healthy full replica remained.
    pub master: Option<NodeId>,
    /// Monotonically increasing election generation (0 = initial
    /// appointment); bumps exactly when the elected master changes.
    pub generation: u64,
}

/// Whether `node` is healthy in the failure picture `failed`.
fn healthy(failed: &[bool], node: NodeId) -> bool {
    failed.get(node) == Some(&false)
}

/// The partitions `node` stores under the configured layout, ascending.
pub fn held_partitions(
    config: &ClusterConfig,
    node: NodeId,
) -> impl Iterator<Item = PartitionId> + '_ {
    (0..config.partitions).filter(move |&p| config.node_stores_partition(node, p))
}

/// The master election rule: the lowest-id healthy full replica, or `None`
/// when every full replica is down.
pub fn elect(config: &ClusterConfig, failed: &[bool]) -> Option<NodeId> {
    (0..config.full_replicas).find(|&n| healthy(failed, n))
}

/// The node executing `partition` in the partitioned phase: its configured
/// primary while healthy, otherwise the lowest-id healthy node holding the
/// partition (re-mastering, Case 3). `None` when no holder survives.
pub fn effective_primary(
    config: &ClusterConfig,
    failed: &[bool],
    partition: PartitionId,
) -> Option<NodeId> {
    let primary = config.partition_primary(partition);
    if healthy(failed, primary) {
        return Some(primary);
    }
    (0..config.num_nodes)
        .find(|&n| healthy(failed, n) && config.node_stores_partition(n, partition))
}

/// The healthy nodes other than `from` that hold `partition`: where a
/// partitioned-phase commit on `from` replicates its writes.
pub fn replica_targets(
    config: &ClusterConfig,
    failed: &[bool],
    from: NodeId,
    partition: PartitionId,
) -> Vec<NodeId> {
    (0..config.num_nodes)
        .filter(|&n| n != from && healthy(failed, n) && config.node_stores_partition(n, partition))
        .collect()
}

/// Every healthy node other than `node`: where the master ships its
/// single-master commits (each entry then goes only to the peers holding
/// its partition).
pub fn healthy_peers(failed: &[bool], node: NodeId) -> Vec<NodeId> {
    (0..failed.len()).filter(|&n| n != node && healthy(failed, n)).collect()
}

/// The node a recovering `node` copies `partition` from: the lowest-id other
/// healthy node holding it, or `None` when no such node survives.
pub fn recovery_source(
    config: &ClusterConfig,
    failed: &[bool],
    node: NodeId,
    partition: PartitionId,
) -> Option<NodeId> {
    (0..config.num_nodes)
        .find(|&n| n != node && healthy(failed, n) && config.node_stores_partition(n, partition))
}

/// The node an interrupted recovery of `node` was copying from: the copy
/// streams the node's first held partition, from that partition's
/// [`recovery_source`]. `None` when the node holds nothing or no source
/// survives.
pub fn interrupted_recovery_source(
    config: &ClusterConfig,
    failed: &[bool],
    node: NodeId,
) -> Option<NodeId> {
    let first = held_partitions(config, node).next()?;
    recovery_source(config, failed, node, first)
}

/// Whether a memory-to-memory recovery of `node` is possible: it exists and
/// every partition it holds has a [`recovery_source`]. When several replicas
/// of a partition died together, this decides which of them can rejoin
/// first; when it fails for every down holder, only disk recovery (Case 4)
/// remains.
pub fn can_recover(config: &ClusterConfig, failed: &[bool], node: NodeId) -> bool {
    node < config.num_nodes
        && held_partitions(config, node).all(|p| recovery_source(config, failed, node, p).is_some())
}

/// The election log: the initial appointment, then one entry per change of
/// master. Never empty.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElectionLog {
    entries: Vec<MasterElection>,
}

impl ElectionLog {
    /// A log holding only the initial appointment: the election over a fully
    /// healthy cluster, at epoch 0, generation 0.
    pub fn new(config: &ClusterConfig) -> Self {
        let master = elect(config, &vec![false; config.num_nodes]);
        ElectionLog { entries: vec![MasterElection { epoch: 0, master, generation: 0 }] }
    }

    /// Rebuilds a log from its entries (a restarted node adopting the
    /// cluster's log); `None` for an empty list.
    pub fn from_entries(entries: Vec<MasterElection>) -> Option<Self> {
        (!entries.is_empty()).then_some(ElectionLog { entries })
    }

    /// Every election, in order; index 0 is the initial appointment.
    pub fn entries(&self) -> &[MasterElection] {
        &self.entries
    }

    /// The most recently elected master.
    pub fn current(&self) -> Option<NodeId> {
        self.entries.last().and_then(|e| e.master)
    }

    /// The generation of the most recent election.
    pub fn generation(&self) -> u64 {
        self.entries.last().map_or(0, |e| e.generation)
    }

    /// Records the winner of the election held at `epoch`'s fence; a new
    /// entry appears only when the winner differs from the current master.
    fn record(&mut self, epoch: Epoch, winner: Option<NodeId>) {
        if winner != self.current() {
            let generation = self.generation() + 1;
            self.entries.push(MasterElection { epoch, master: winner, generation });
        }
    }
}

/// What one replication fence decided.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FenceDecision {
    /// The epoch the fence closed.
    pub closed_epoch: Epoch,
    /// Whether a node failed inside `closed_epoch`, which discards the epoch
    /// cluster-wide (Figure 6).
    pub reverting: bool,
    /// The last committed epoch before this fence: what a revert restores.
    pub revert_to: Epoch,
    /// The nodes this fence found newly failed, ascending.
    pub newly_failed: Vec<NodeId>,
}

/// One node's (or one supervisor's) view of the protocol: the epoch, the
/// last committed epoch, the failure picture and the election log.
#[derive(Debug, Clone)]
pub struct ProtocolState {
    config: ClusterConfig,
    epoch: Epoch,
    last_committed: Epoch,
    failed: Vec<bool>,
    elections: ElectionLog,
}

impl ProtocolState {
    /// The state of a freshly started cluster: epoch 1 executing, nothing
    /// committed, every node healthy, the initial master appointed.
    pub fn new(config: &ClusterConfig) -> Self {
        ProtocolState {
            config: config.clone(),
            epoch: 1,
            last_committed: 0,
            failed: vec![false; config.num_nodes],
            elections: ElectionLog::new(config),
        }
    }

    /// Adopts the cluster's state wholesale (a restarted node rejoining).
    pub fn rejoin(
        &mut self,
        epoch: Epoch,
        last_committed: Epoch,
        failed: Vec<bool>,
        elections: ElectionLog,
    ) {
        self.epoch = epoch;
        self.last_committed = last_committed;
        self.failed = failed;
        self.elections = elections;
    }

    /// The epoch currently executing.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// The newest epoch closed by a fence.
    pub fn last_committed(&self) -> Epoch {
        self.last_committed
    }

    /// The failure picture as of the last fence (or recovery).
    pub fn failed(&self) -> &[bool] {
        &self.failed
    }

    /// Whether `node` is failed; unknown ids count as failed.
    pub fn is_failed(&self, node: NodeId) -> bool {
        !healthy(&self.failed, node)
    }

    /// The election log.
    pub fn elections(&self) -> &ElectionLog {
        &self.elections
    }

    /// The acting master: the most recent election's winner while healthy.
    pub fn master(&self) -> Option<NodeId> {
        self.elections.current().filter(|&m| !self.is_failed(m))
    }

    /// Marks a recovered `node` healthy again.
    pub fn mark_recovered(&mut self, node: NodeId) {
        if let Some(flag) = self.failed.get_mut(node) {
            *flag = false;
        }
    }

    /// Runs the fence's decision for the current epoch given the failure
    /// picture `now_failed` (indexed by node id): a node failed now but not
    /// before failed inside this epoch, so the epoch reverts; the election
    /// re-runs over the new picture; the epoch commits (even a reverted one —
    /// the revert already discarded its records and the next epoch builds on
    /// the surviving state) and the next one begins.
    pub fn fence(&mut self, now_failed: &[bool]) -> FenceDecision {
        let newly_failed: Vec<NodeId> = (0..self.failed.len())
            .filter(|&n| now_failed.get(n) == Some(&true) && healthy(&self.failed, n))
            .collect();
        for (n, flag) in self.failed.iter_mut().enumerate() {
            *flag = now_failed.get(n) == Some(&true);
        }
        self.elections.record(self.epoch, elect(&self.config, &self.failed));
        let decision = FenceDecision {
            closed_epoch: self.epoch,
            reverting: !newly_failed.is_empty(),
            revert_to: self.last_committed,
            newly_failed,
        };
        self.last_committed = self.epoch;
        self.epoch += 1;
        decision
    }

    /// The fence's batch filter: a replication batch shipped by `from` during
    /// `batch_epoch` is applied unless its sender is failed, or the fence is
    /// reverting and the batch belongs to the discarded epoch (applying it
    /// would resurrect writes the primaries just reverted).
    pub fn admits(&self, from: NodeId, batch_epoch: Epoch, decision: &FenceDecision) -> bool {
        let discarded = decision.reverting && batch_epoch > decision.revert_to;
        !self.is_failed(from) && !discarded
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::build_replica;
    use crate::testing::KvWorkload;

    /// The cluster shapes the failure-classification tests use: the
    /// miniature Figure-7 cluster, its f = 1 and f = 4 variants, a single
    /// node, and every (nodes, f) pair up to nine nodes.
    fn shapes() -> Vec<ClusterConfig> {
        let shape = |nodes: usize, f: usize, partitions: usize| {
            let mut c = ClusterConfig::with_nodes(nodes);
            c.full_replicas = f;
            c.partitions = partitions;
            c
        };
        let mut shapes = vec![shape(4, 2, 4), shape(4, 1, 4), shape(4, 4, 4), shape(1, 1, 2)];
        for nodes in 2..10 {
            for f in 1..nodes {
                shapes.push(shape(nodes, f, nodes * 3));
            }
        }
        shapes
    }

    /// Every failure vector of `config`'s cluster.
    fn failure_vectors(config: &ClusterConfig) -> impl Iterator<Item = Vec<bool>> + '_ {
        (0u32..1 << config.num_nodes)
            .map(|mask| (0..config.num_nodes).map(|n| mask & (1 << n) != 0).collect())
    }

    #[test]
    fn effective_primary_is_a_healthy_holder_and_prefers_the_configured_primary() {
        for config in shapes() {
            for failed in failure_vectors(&config) {
                for p in 0..config.partitions {
                    let chosen = effective_primary(&config, &failed, p);
                    let primary = config.partition_primary(p);
                    if !failed[primary] {
                        assert_eq!(chosen, Some(primary), "{config:?} {failed:?} p{p}");
                    }
                    match chosen {
                        Some(n) => {
                            assert!(!failed[n] && config.node_stores_partition(n, p));
                        }
                        None => assert!((0..config.num_nodes)
                            .all(|n| failed[n] || !config.node_stores_partition(n, p))),
                    }
                }
            }
        }
    }

    #[test]
    fn elect_picks_the_lowest_id_healthy_full_replica() {
        for config in shapes() {
            for failed in failure_vectors(&config) {
                let expected = (0..config.num_nodes)
                    .filter(|&n| config.is_full_replica(n) && !failed[n])
                    .min();
                assert_eq!(elect(&config, &failed), expected, "{config:?} {failed:?}");
            }
        }
    }

    #[test]
    fn recovery_sources_are_healthy_others_and_decide_can_recover() {
        for config in shapes() {
            for failed in failure_vectors(&config) {
                for node in 0..config.num_nodes {
                    let mut every_held_has_source = true;
                    for p in held_partitions(&config, node) {
                        match recovery_source(&config, &failed, node, p) {
                            Some(s) => {
                                assert_ne!(s, node);
                                assert!(!failed[s] && config.node_stores_partition(s, p));
                            }
                            None => every_held_has_source = false,
                        }
                    }
                    assert_eq!(can_recover(&config, &failed, node), every_held_has_source);
                }
                assert!(!can_recover(&config, &failed, config.num_nodes));
            }
        }
    }

    #[test]
    fn configured_layout_matches_the_built_replicas() {
        for config in shapes() {
            let workload = KvWorkload {
                partitions: config.partitions,
                rows_per_partition: 1,
                cross_partition_fraction: 0.0,
            };
            for node in 0..config.num_nodes {
                let db = build_replica(&config, &workload, node);
                for p in 0..config.partitions {
                    assert_eq!(config.node_stores_partition(node, p), db.holds(p));
                }
            }
        }
    }

    #[test]
    fn fence_reverts_on_new_failures_and_logs_only_changes() {
        let mut config = ClusterConfig::with_nodes(4);
        config.full_replicas = 2;
        let mut state = ProtocolState::new(&config);
        assert_eq!(state.master(), Some(0));

        let quiet = state.fence(&[false; 4]);
        assert_eq!((quiet.closed_epoch, quiet.reverting, quiet.revert_to), (1, false, 0));
        assert_eq!(state.elections().entries().len(), 1, "no change, no entry");

        let crash = state.fence(&[true, false, false, false]);
        assert_eq!((crash.closed_epoch, crash.reverting, crash.revert_to), (2, true, 1));
        assert_eq!(crash.newly_failed, vec![0]);
        assert_eq!(state.master(), Some(1));
        assert_eq!(state.elections().generation(), 1);
        assert!(!state.admits(0, 1, &crash), "failed sender");
        assert!(!state.admits(1, 2, &crash), "batch of the reverted epoch");
        assert!(state.admits(1, 1, &crash));

        let still_down = state.fence(&[true, false, false, false]);
        assert!(!still_down.reverting, "a known failure does not revert again");
        state.mark_recovered(0);
        state.fence(&[false; 4]);
        assert_eq!(state.master(), Some(0));
        let masters: Vec<_> = state.elections().entries().iter().map(|e| e.master).collect();
        assert_eq!(masters, vec![Some(0), Some(1), Some(0)]);
        assert_eq!((state.epoch(), state.last_committed()), (5, 4));
    }
}
