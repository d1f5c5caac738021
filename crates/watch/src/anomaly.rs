//! Deterministic EWMA anomaly detection over per-node scan cost.
//!
//! Each storage node gets an exponentially-weighted baseline of its
//! simulated scan cost. Two kinds of suspicion are raised:
//!
//! - **Drift** — a node's latest sample sits far above its *own*
//!   baseline (z-score over the EWMA variance). Catches nodes that
//!   were healthy and then degraded, e.g. retry/backoff storms from an
//!   injected transient-fault burst.
//! - **Straggler** — a node's baseline sits far above the *fleet
//!   median* baseline. Catches nodes that were slow from the first
//!   sample (an injected `with_slow_node` multiplier), which their own
//!   z-score can never see because their variance converges to zero
//!   around the slow mean.
//!
//! There is no RNG and no wall clock anywhere: inputs are simulated
//! costs in node-index order (the executor replays telemetry on the
//! coordinator thread), so the suspicion stream is bit-identical at
//! any `SEA_EXEC_THREADS`. Suspicions latch: a node is flagged once
//! per kind, with a repeat counter instead of duplicate records, so
//! E21 can score precision/recall against the injected `FaultPlan`
//! ground truth.

use std::collections::{BTreeMap, VecDeque};

use serde::Serialize;

// The detector's tuning, fixed for every hub: E21's precision/recall
// against the injected fault plans is scored at these values.

/// EWMA smoothing factor: the weight of the newest sample.
const ALPHA: f64 = 0.3;
/// Z-score above which a sample counts as drift from the node's own
/// baseline.
const Z_THRESHOLD: f64 = 4.0;
/// A node whose level exceeds `STRAGGLER_RATIO ×` the fleet median
/// level is a straggler.
const STRAGGLER_RATIO: f64 = 1.6;
/// Samples a node must absorb before it can be judged (and before it
/// participates in the fleet median).
const WARMUP: u32 = 3;

/// Which rule flagged the node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum SuspicionKind {
    /// Sample far above the node's own EWMA baseline.
    Drift,
    /// Baseline far above the fleet median baseline.
    Straggler,
}

impl SuspicionKind {
    /// Stable lowercase label used in `node.suspect` event fields.
    pub fn label(self) -> &'static str {
        match self {
            SuspicionKind::Drift => "drift",
            SuspicionKind::Straggler => "straggler",
        }
    }
}

/// A latched suspicion for one (node, kind) pair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Suspicion {
    /// Storage node index.
    pub node: u64,
    /// Rule that fired.
    pub kind: SuspicionKind,
    /// Simulated time of the first firing.
    pub first_flagged_us: f64,
    /// Evidence score at first firing: z-score for drift, baseline /
    /// fleet-median ratio for stragglers.
    pub score: f64,
    /// Further samples that re-confirmed the suspicion.
    pub repeats: u64,
}

/// Recent raw samples retained per node for the robust straggler
/// comparison.
const ROBUST_WINDOW: usize = 9;

/// Per-node state: EWMA baseline (drift) + recent raw samples
/// (straggler). The EWMA reacts fast but is outlier-sensitive; the
/// straggler comparison instead uses the *minimum* of a short raw
/// window. A slow-node multiplier scales every sample, so even the
/// node's fastest recent scan stays high — while retry/backoff noise
/// is additive and intermittent, so one clean sample in the window
/// restores a healthy node's level. Retry storms therefore cannot
/// impersonate a persistently slow node.
#[derive(Debug, Clone)]
struct NodeBaseline {
    mean: f64,
    var: f64,
    samples: u32,
    recent: VecDeque<f64>,
}

impl NodeBaseline {
    fn warmed(&self) -> bool {
        self.samples >= WARMUP
    }

    /// Minimum of the retained raw samples (0 when empty): the node's
    /// best-case recent cost.
    fn robust_level(&self) -> f64 {
        if self.recent.is_empty() {
            return 0.0;
        }
        self.recent.iter().copied().fold(f64::INFINITY, f64::min)
    }
}

/// Median of an iterator of floats (0 when empty).
fn median(values: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// The detector: per-node baselines plus latched suspicions.
#[derive(Debug, Default)]
pub struct AnomalyDetector {
    nodes: BTreeMap<u64, NodeBaseline>,
    /// Latched suspicions keyed by (node, kind-is-straggler) for
    /// deterministic ordering.
    suspicions: BTreeMap<(u64, bool), Suspicion>,
}

impl AnomalyDetector {
    /// A detector with no node seen yet.
    pub fn new() -> Self {
        AnomalyDetector::default()
    }

    /// Median of warmed-node robust levels (`None` until at least three
    /// nodes are warmed — a median of one or two nodes says nothing
    /// about who is the outlier).
    fn fleet_median(&self) -> Option<f64> {
        let levels: Vec<f64> = self
            .nodes
            .values()
            .filter(|b| b.warmed())
            .map(NodeBaseline::robust_level)
            .collect();
        if levels.len() < 3 {
            return None;
        }
        Some(median(levels.into_iter()))
    }

    fn latch(
        &mut self,
        node: u64,
        kind: SuspicionKind,
        now_us: f64,
        score: f64,
    ) -> Option<Suspicion> {
        let key = (node, matches!(kind, SuspicionKind::Straggler));
        match self.suspicions.get_mut(&key) {
            Some(existing) => {
                existing.repeats += 1;
                None
            }
            None => {
                let s = Suspicion {
                    node,
                    kind,
                    first_flagged_us: now_us,
                    score,
                    repeats: 0,
                };
                self.suspicions.insert(key, s);
                Some(s)
            }
        }
    }

    /// Feeds one scan-cost sample for `node` at simulated time
    /// `now_us`. Returns newly latched suspicions (empty for repeats
    /// and healthy samples), drift before straggler.
    pub fn observe(&mut self, node: u64, now_us: f64, cost_us: f64) -> Vec<Suspicion> {
        let mut fresh = Vec::new();
        let (mean0, var0, samples0) = self
            .nodes
            .get(&node)
            .map_or((cost_us, 0.0, 0), |b| (b.mean, b.var, b.samples));
        // Judge drift against the baseline *before* folding the sample
        // in, so a single huge spike is compared to the healthy past.
        let sd = var0.sqrt().max(0.01 * mean0.abs() + 1e-6);
        let mut winsorized = false;
        let mut cost_eff = cost_us;
        if samples0 >= WARMUP {
            let z = (cost_us - mean0) / sd;
            if z >= Z_THRESHOLD {
                if let Some(s) = self.latch(node, SuspicionKind::Drift, now_us, z) {
                    fresh.push(s);
                }
                // Winsorize: fold a clamped value into the EWMA so one
                // retry-storm spike cannot jerk the baseline up, and
                // decay (rather than inflate) the variance — feeding an
                // outlier's deviation into the variance widens the
                // clamp after every spike until the gate is useless.
                winsorized = true;
                cost_eff = mean0 + Z_THRESHOLD * sd;
            }
        }
        let a = ALPHA;
        let d = cost_eff - mean0;
        let entry = self.nodes.entry(node).or_insert_with(|| NodeBaseline {
            mean: cost_us,
            var: 0.0,
            samples: 0,
            recent: VecDeque::with_capacity(ROBUST_WINDOW + 1),
        });
        entry.mean = mean0 + a * d;
        entry.var = if winsorized {
            (1.0 - a) * var0
        } else {
            (1.0 - a) * (var0 + a * d * d)
        };
        entry.samples = samples0.saturating_add(1);
        // The raw (unclamped) sample feeds the robust window: the
        // median shrugs off outliers by construction.
        entry.recent.push_back(cost_us);
        if entry.recent.len() > ROBUST_WINDOW {
            entry.recent.pop_front();
        }

        // Straggler check: this node's median level vs the fleet's.
        if samples0.saturating_add(1) >= WARMUP {
            let level = self.nodes[&node].robust_level();
            if let Some(fleet) = self.fleet_median() {
                if fleet > 0.0 {
                    let ratio = level / fleet;
                    if ratio >= STRAGGLER_RATIO {
                        if let Some(s) = self.latch(node, SuspicionKind::Straggler, now_us, ratio) {
                            fresh.push(s);
                        }
                    }
                }
            }
        }
        fresh
    }

    /// All latched suspicions in deterministic (node, kind) order.
    pub fn suspicions(&self) -> Vec<Suspicion> {
        self.suspicions.values().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed_fleet(det: &mut AnomalyDetector, rounds: u32, slow_node: u64, slow_mult: f64) {
        for r in 0..rounds {
            let now = r as f64 * 1_000.0;
            for node in 0..8u64 {
                let base = 100.0 + node as f64; // slight per-node spread
                let cost = if node == slow_node {
                    base * slow_mult
                } else {
                    base
                };
                det.observe(node, now, cost);
            }
        }
    }

    #[test]
    fn steady_fleet_raises_nothing() {
        let mut det = AnomalyDetector::new();
        feed_fleet(&mut det, 20, 99, 1.0); // no slow node
        assert!(det.suspicions().is_empty());
    }

    #[test]
    fn slow_from_start_node_is_flagged_as_straggler() {
        let mut det = AnomalyDetector::new();
        feed_fleet(&mut det, 10, 1, 2.0);
        let sus = det.suspicions();
        assert_eq!(sus.len(), 1, "exactly the slow node: {sus:?}");
        assert_eq!(sus[0].node, 1);
        assert_eq!(sus[0].kind, SuspicionKind::Straggler);
        assert!(sus[0].score >= 1.6, "ratio {}", sus[0].score);
        // Flagged as soon as warmup allows: warmup=3 means the 4th
        // round (now = 3000) is the earliest possible.
        assert_eq!(sus[0].first_flagged_us, 3_000.0);
        assert!(sus[0].repeats > 0, "later rounds re-confirm");
    }

    #[test]
    fn sudden_spike_is_flagged_as_drift_once() {
        let mut det = AnomalyDetector::new();
        // Healthy history for node 0.
        for r in 0..6 {
            det.observe(0, r as f64 * 1_000.0, 100.0);
            det.observe(1, r as f64 * 1_000.0, 100.0);
            det.observe(2, r as f64 * 1_000.0, 100.0);
        }
        // Spike: 100 → 1000 is z ≈ (900)/(1 + ...) huge.
        let fresh = det.observe(0, 6_000.0, 1_000.0);
        assert_eq!(fresh.len(), 1);
        assert_eq!(fresh[0].kind, SuspicionKind::Drift);
        assert_eq!(fresh[0].node, 0);
        // A second spike only bumps the repeat counter.
        let again = det.observe(0, 7_000.0, 1_000.0);
        assert!(again.iter().all(|s| s.kind != SuspicionKind::Drift));
        let drift = det
            .suspicions()
            .into_iter()
            .find(|s| s.kind == SuspicionKind::Drift)
            .unwrap();
        assert_eq!(drift.first_flagged_us, 6_000.0);
        assert!(drift.repeats >= 1);
    }

    #[test]
    fn observation_order_is_irrelevant_to_latched_set() {
        let mut a = AnomalyDetector::new();
        let mut b = AnomalyDetector::new();
        feed_fleet(&mut a, 10, 2, 2.0);
        feed_fleet(&mut b, 10, 2, 2.0);
        assert_eq!(a.suspicions(), b.suspicions());
        let baselines = |d: &AnomalyDetector| -> Vec<(u64, f64, u32)> {
            d.nodes
                .iter()
                .map(|(n, b)| (*n, b.mean, b.samples))
                .collect()
        };
        assert_eq!(baselines(&a), baselines(&b));
    }
}
