//! Deterministic fault injection for the simulated cluster.
//!
//! A [`FaultPlan`] describes *which* faults a cluster experiences — node
//! crashes after their Nth scan, transient per-scan errors that clear
//! after a recovery window, and slow nodes whose scans cost a latency
//! multiplier. Every decision is a pure function of `(plan seed, node,
//! per-node operation index)` — never wall clock, never a global RNG —
//! so two runs of the same workload against the same plan observe the
//! same faults in the same places, regardless of executor thread count
//! (the executor opens a query's scans — the step that consumes an
//! operation, [`StorageCluster::open_scan`](crate::StorageCluster::open_scan)
//! — on its coordinator thread in node order, retries included, so
//! per-node op indices are schedule-independent).
//!
//! The runtime half, `FaultState`, holds the per-node operation
//! counters and crash latches. It lives on the
//! [`StorageCluster`](crate::StorageCluster) behind an `Arc`, so clones
//! of a cluster share one fault timeline (mirroring how clones share no
//! other mutable state: faults are an experiment-harness concern, not
//! part of the persistent cluster image).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::partition::NodeId;

/// SplitMix64 finalizer: the workspace idiom for deterministic derived
/// randomness (cf. `trace_id_for_query` in sea-telemetry).
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform in `[0, 1)` derived from `(seed, node, op)`.
fn unit(seed: u64, node: NodeId, op: u64) -> f64 {
    let h = splitmix(seed ^ splitmix(node as u64).wrapping_add(splitmix(op)));
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// A seeded description of the faults to inject into a cluster.
///
/// Install with
/// [`StorageCluster::set_fault_plan`](crate::StorageCluster::set_fault_plan);
/// remove with
/// [`StorageCluster::clear_fault_plan`](crate::StorageCluster::clear_fault_plan).
/// With no plan installed the cluster behaves exactly as before this
/// module existed — the fault path is a no-op.
///
/// # Examples
///
/// ```
/// use sea_storage::FaultPlan;
///
/// let plan = FaultPlan::new(42)
///     .with_transient(0.05, 2) // 5% of scans start a 2-op outage
///     .with_crash(1, 10)       // node 1 dies after its 10th scan
///     .with_slow_node(2, 3.0); // node 2's scans cost 3x
/// assert_eq!(plan.seed, 42);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed all fault decisions derive from.
    pub seed: u64,
    /// Probability that a given per-node scan operation *starts* a
    /// transient outage episode.
    pub transient_rate: f64,
    /// Length of a transient episode in operations: once an op starts an
    /// episode, that op and the next `transient_recovery − 1` ops on the
    /// same node also fail. Retries consume ops, so a caller retrying at
    /// least `transient_recovery` times rides out any single episode.
    pub transient_recovery: u32,
    /// `(node, op)` pairs: the node's primary crashes once its per-node
    /// operation counter reaches `op`, and stays down until the plan is
    /// replaced or cleared. A crash at op 0 is down from installation.
    pub crashes: Vec<(NodeId, u64)>,
    /// `(node, multiplier)` pairs: every scan served for that partition
    /// charges its simulated cost scaled by the multiplier.
    pub slow_nodes: Vec<(NodeId, f64)>,
}

impl FaultPlan {
    /// A plan with the given seed and no faults; compose with the
    /// `with_*` builders.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            transient_rate: 0.0,
            transient_recovery: 1,
            crashes: Vec::new(),
            slow_nodes: Vec::new(),
        }
    }

    /// Adds transient per-scan faults: each op starts an episode with
    /// probability `rate`; an episode makes `recovery` consecutive ops
    /// fail (minimum 1).
    #[must_use]
    pub fn with_transient(mut self, rate: f64, recovery: u32) -> Self {
        self.transient_rate = rate.clamp(0.0, 1.0);
        self.transient_recovery = recovery.max(1);
        self
    }

    /// Crashes `node`'s primary once its operation counter reaches `op`.
    #[must_use]
    pub fn with_crash(mut self, node: NodeId, op: u64) -> Self {
        self.crashes.push((node, op));
        self
    }

    /// Makes every scan of partition `node` cost `multiplier`× the
    /// normal simulated cost.
    #[must_use]
    pub fn with_slow_node(mut self, node: NodeId, multiplier: f64) -> Self {
        self.slow_nodes.push((node, multiplier.max(1.0)));
        self
    }

    /// Whether operation `op` on `node` hits a transient episode: true
    /// iff any of the `transient_recovery` most recent ops (including
    /// `op` itself) started an episode. Pure in `(seed, node, op)`.
    pub fn transient_hit(&self, node: NodeId, op: u64) -> bool {
        if self.transient_rate <= 0.0 {
            return false;
        }
        let window = u64::from(self.transient_recovery.max(1));
        (op.saturating_sub(window - 1)..=op).any(|j| unit(self.seed, node, j) < self.transient_rate)
    }

    /// The latency multiplier for `node` (1.0 when not listed).
    fn slow_multiplier(&self, node: NodeId) -> f64 {
        self.slow_nodes
            .iter()
            .find(|(n, _)| *n == node)
            .map_or(1.0, |(_, m)| *m)
    }

    fn crash_op(&self, node: NodeId) -> Option<u64> {
        self.crashes
            .iter()
            .find(|(n, _)| *n == node)
            .map(|(_, op)| *op)
    }
}

/// What the fault layer decided about one scan attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum FaultDecision {
    /// Serve the scan, charging cost scaled by the multiplier.
    Proceed(f64),
    /// Fail this attempt with [`SeaError::Transient`](sea_common::SeaError).
    Transient,
}

/// Runtime fault state: the installed plan plus per-node operation
/// counters and crash latches. Shared (`Arc`) across cluster clones.
#[derive(Debug)]
pub(crate) struct FaultState {
    plan: FaultPlan,
    ops: Vec<AtomicU64>,
    crashed: Vec<AtomicBool>,
}

impl FaultState {
    /// Installs `plan` over `n_nodes` partitions. A crash scheduled at
    /// op 0 is latched here, so the node is down on every path — gated
    /// or not — before its first scan; a crash naming a node outside the
    /// cluster is ignored.
    pub(crate) fn new(plan: FaultPlan, n_nodes: usize) -> Self {
        let crashed = (0..n_nodes)
            .map(|node| AtomicBool::new(plan.crash_op(node) == Some(0)))
            .collect();
        FaultState {
            plan,
            ops: (0..n_nodes).map(|_| AtomicU64::new(0)).collect(),
            crashed,
        }
    }

    /// Whether the plan has crashed `node`'s primary.
    pub(crate) fn crashed(&self, node: NodeId) -> bool {
        self.crashed
            .get(node)
            .is_some_and(|c| c.load(Ordering::Relaxed))
    }

    /// Registers one scan attempt against partition `node` and decides
    /// its fate. Crash latches flip *before* the serving-copy lookup, so
    /// the very operation that crashes a node already fails over; a
    /// latch never clears.
    pub(crate) fn on_scan(&self, node: NodeId) -> FaultDecision {
        let Some(counter) = self.ops.get(node) else {
            return FaultDecision::Proceed(1.0);
        };
        let op = counter.fetch_add(1, Ordering::Relaxed);
        if self.plan.crash_op(node).is_some_and(|at| op >= at) {
            self.crashed[node].store(true, Ordering::Relaxed);
        }
        if self.plan.transient_hit(node, op) {
            return FaultDecision::Transient;
        }
        FaultDecision::Proceed(self.plan.slow_multiplier(node))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_pure_in_seed_node_op() {
        let plan = FaultPlan::new(7).with_transient(0.3, 2);
        for node in 0..4 {
            for op in 0..200 {
                assert_eq!(
                    plan.transient_hit(node, op),
                    plan.transient_hit(node, op),
                    "node {node} op {op}"
                );
            }
        }
        // A different seed produces a different fault pattern.
        let other = FaultPlan::new(8).with_transient(0.3, 2);
        let a: Vec<bool> = (0..500).map(|op| plan.transient_hit(0, op)).collect();
        let b: Vec<bool> = (0..500).map(|op| other.transient_hit(0, op)).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn episodes_last_the_recovery_window() {
        let plan = FaultPlan::new(11).with_transient(0.05, 3);
        // Find an op that starts an episode and check the window holds.
        let start = (0..10_000)
            .find(|&op| unit(plan.seed, 0, op) < plan.transient_rate)
            .expect("some op starts an episode at 5%");
        for j in start..start + 3 {
            assert!(plan.transient_hit(0, j), "op {j} inside the episode");
        }
    }

    #[test]
    fn zero_rate_never_faults() {
        let plan = FaultPlan::new(3);
        assert!((0..1000).all(|op| !plan.transient_hit(0, op)));
        assert_eq!(plan.slow_multiplier(0), 1.0);
    }

    #[test]
    fn crash_latch_fires_at_its_op_and_stays() {
        let state = FaultState::new(FaultPlan::new(1).with_crash(2, 3), 4);
        for _ in 0..3 {
            assert_eq!(state.on_scan(2), FaultDecision::Proceed(1.0));
            assert!(!state.crashed(2));
        }
        state.on_scan(2); // op 3: the crash trigger
        assert!(state.crashed(2));
        state.on_scan(2);
        assert!(state.crashed(2));
    }

    #[test]
    fn slow_multiplier_applies_to_listed_nodes_only() {
        let plan = FaultPlan::new(0).with_slow_node(1, 4.0);
        assert_eq!(plan.slow_multiplier(1), 4.0);
        assert_eq!(plan.slow_multiplier(0), 1.0);
    }
}
