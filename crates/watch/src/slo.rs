//! Per-tenant SLOs with multi-window error-budget burn-rate alerting.
//!
//! An [`SloPolicy`] declares what a *good* request is — answered within
//! a simulated-latency objective, with at least the availability
//! objective's `answered_fraction`. Every policy allows 1% of the
//! traffic to be bad (the error budget). The [`SloTracker`] folds each
//! ledgered request into per-window good/bad counts over 1-second
//! windows of the simulated clock and evaluates the classic fast/slow
//! burn-rate pair: an alert raises when the budget is burning at least
//! 14.4× over the last [`FAST_WINDOWS`] windows (is it happening
//! *now*?) AND at least 6× over the last [`SLOW_WINDOWS`] windows (is it
//! *sustained*?), and clears when either recovers. Transitions are
//! returned to the caller (the `sea-service` front door records them as
//! `watch.alert` events) and appended to the shared [`AlertLog`].
//!
//! Everything is keyed on simulated time, so the alert stream is
//! bit-identical at any host thread count.

use std::collections::VecDeque;

use parking_lot::Mutex;
use serde::Serialize;

/// Number of trailing windows the fast (page-worthy, "burning right
/// now") burn rate is evaluated over.
pub const FAST_WINDOWS: u64 = 5;
/// Number of trailing windows the slow (sustained) burn rate is
/// evaluated over; also the tracker's retention bound.
pub const SLOW_WINDOWS: u64 = 60;
/// Fraction of requests allowed to be bad: a 99% SLO.
const ERROR_BUDGET: f64 = 0.01;
/// Width of one SLO window, simulated µs.
const WINDOW_US: f64 = 1_000_000.0;
/// Burn-rate threshold over the last [`FAST_WINDOWS`] windows.
const FAST_BURN_THRESHOLD: f64 = 14.4;
/// Burn-rate threshold over the last [`SLOW_WINDOWS`] windows.
const SLOW_BURN_THRESHOLD: f64 = 6.0;

/// What a tenant is promised. When to alert on breaking it is fixed: a
/// 1% error budget, 1-second windows and the 14.4×/6× burn thresholds
/// of the standard multi-window alerting recipe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloPolicy {
    /// A request answered slower than this (simulated µs) is bad.
    pub latency_objective_us: f64,
    /// A request answering less than this `answered_fraction` is bad.
    pub availability_objective: f64,
}

impl SloPolicy {
    /// A policy with the given objectives.
    pub fn new(latency_objective_us: f64, availability_objective: f64) -> Self {
        SloPolicy {
            latency_objective_us,
            availability_objective,
        }
    }

    /// Is a request with this outcome good under the policy?
    /// `answered = false` (execution failure) is always bad; admission
    /// rejections are policy decisions and should not be fed in at all.
    fn is_good(&self, answered: bool, wall_us: f64, answered_fraction: f64) -> bool {
        answered
            && wall_us <= self.latency_objective_us
            && answered_fraction >= self.availability_objective
    }
}

/// One good/bad tally for one SLO window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WindowTally {
    index: u64,
    good: u64,
    bad: u64,
}

/// A burn-rate alert transition (raised or cleared).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlertTransition {
    /// `true` = the alert just raised, `false` = it just cleared.
    pub raised: bool,
    /// Burn rate over the last [`FAST_WINDOWS`] windows at transition.
    pub fast_burn: f64,
    /// Burn rate over the last [`SLOW_WINDOWS`] windows at transition.
    pub slow_burn: f64,
}

/// Point-in-time SLO accounting for one tenant.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SloStatus {
    /// Lifetime good requests.
    pub good: u64,
    /// Lifetime bad requests.
    pub bad: u64,
    /// Lifetime fraction of the 1% error budget consumed:
    /// `bad / (total · 0.01)`; 1.0 = budget exactly spent.
    pub budget_burn: f64,
    /// Current burn rate over the last [`FAST_WINDOWS`] windows.
    pub fast_burn: f64,
    /// Current burn rate over the last [`SLOW_WINDOWS`] windows.
    pub slow_burn: f64,
    /// Whether the burn-rate alert is currently raised.
    pub alerting: bool,
}

/// Folds one tenant's request outcomes into windowed good/bad counts
/// and evaluates the fast/slow burn-rate pair on every record.
#[derive(Debug, Clone)]
pub struct SloTracker {
    policy: SloPolicy,
    /// Trailing window tallies, oldest first, bounded to
    /// [`SLOW_WINDOWS`] entries (empty windows take no slot).
    windows: VecDeque<WindowTally>,
    total_good: u64,
    total_bad: u64,
    alerting: bool,
    last_fast: f64,
    last_slow: f64,
}

impl SloTracker {
    /// A fresh tracker for `policy`.
    pub fn new(policy: SloPolicy) -> Self {
        SloTracker {
            policy,
            windows: VecDeque::new(),
            total_good: 0,
            total_bad: 0,
            alerting: false,
            last_fast: 0.0,
            last_slow: 0.0,
        }
    }

    /// Burn rate over the trailing `span` windows ending at
    /// `current_index`: observed bad fraction divided by the error
    /// budget (0 with no traffic in range).
    fn burn_over(&self, span: u64, current_index: u64) -> f64 {
        let cutoff = current_index.saturating_sub(span - 1);
        let (mut good, mut bad) = (0u64, 0u64);
        for w in &self.windows {
            if w.index >= cutoff {
                good += w.good;
                bad += w.bad;
            }
        }
        let total = good + bad;
        if total == 0 {
            return 0.0;
        }
        bad as f64 / total as f64 / ERROR_BUDGET
    }

    /// Records one request outcome at simulated time `now_us` and
    /// re-evaluates the alert pair. Returns `Some` when the alert state
    /// transitioned. Feed only served requests (answered or failed);
    /// admission rejections are not SLO traffic.
    pub fn record(
        &mut self,
        now_us: f64,
        answered: bool,
        wall_us: f64,
        answered_fraction: f64,
    ) -> Option<AlertTransition> {
        let good = self.policy.is_good(answered, wall_us, answered_fraction);
        if good {
            self.total_good += 1;
        } else {
            self.total_bad += 1;
        }
        let index = (now_us / WINDOW_US).floor().max(0.0) as u64;
        match self.windows.back_mut() {
            Some(last) if last.index == index => {
                if good {
                    last.good += 1;
                } else {
                    last.bad += 1;
                }
            }
            _ => {
                self.windows.push_back(WindowTally {
                    index,
                    good: u64::from(good),
                    bad: u64::from(!good),
                });
                if self.windows.len() > SLOW_WINDOWS as usize {
                    self.windows.pop_front();
                }
            }
        }
        self.last_fast = self.burn_over(FAST_WINDOWS, index);
        self.last_slow = self.burn_over(SLOW_WINDOWS, index);
        let firing = self.last_fast >= FAST_BURN_THRESHOLD && self.last_slow >= SLOW_BURN_THRESHOLD;
        if firing != self.alerting {
            self.alerting = firing;
            return Some(AlertTransition {
                raised: firing,
                fast_burn: self.last_fast,
                slow_burn: self.last_slow,
            });
        }
        None
    }

    /// Current accounting.
    pub fn status(&self) -> SloStatus {
        let total = self.total_good + self.total_bad;
        let budget_burn = if total == 0 {
            0.0
        } else {
            self.total_bad as f64 / total as f64 / ERROR_BUDGET
        };
        SloStatus {
            good: self.total_good,
            bad: self.total_bad,
            budget_burn,
            fast_burn: self.last_fast,
            slow_burn: self.last_slow,
            alerting: self.alerting,
        }
    }
}

/// One row of the append-only alert log.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AlertRecord {
    /// Append order (0-based).
    pub seq: u64,
    /// Simulated time of the transition.
    pub sim_time_us: f64,
    /// Tenant whose SLO transitioned.
    pub tenant: String,
    /// `true` = raised, `false` = cleared.
    pub raised: bool,
    /// Fast burn rate at transition (last [`FAST_WINDOWS`] windows).
    pub fast_burn: f64,
    /// Slow burn rate at transition (last [`SLOW_WINDOWS`] windows).
    pub slow_burn: f64,
    /// Windows in the fast evaluation span.
    pub fast_windows: u64,
    /// Windows in the slow evaluation span.
    pub slow_windows: u64,
}

/// Append-only, thread-safe log of alert transitions; the `--watch-out`
/// sidecar serializes its snapshot.
#[derive(Debug, Default)]
pub struct AlertLog {
    rows: Mutex<Vec<AlertRecord>>,
}

impl AlertLog {
    /// Appends `record`, assigning its `seq`; returns the assigned seq.
    pub fn append(&self, mut record: AlertRecord) -> u64 {
        let mut rows = self.rows.lock();
        let seq = rows.len() as u64;
        record.seq = seq;
        rows.push(record);
        seq
    }

    /// Number of rows appended.
    pub fn len(&self) -> usize {
        self.rows.lock().len()
    }

    /// Whether no alert has been recorded.
    pub fn is_empty(&self) -> bool {
        self.rows.lock().is_empty()
    }

    /// An owned copy of every row, in append order.
    pub fn snapshot(&self) -> Vec<AlertRecord> {
        self.rows.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> SloPolicy {
        SloPolicy::new(100.0, 1.0)
    }

    /// Feeds `n` requests into window `w`, `bad_every`-th one bad
    /// (0 = all good, 1 = all bad), and returns the transitions.
    fn feed(t: &mut SloTracker, w: u64, n: u64, bad_every: u64) -> Vec<AlertTransition> {
        (1..=n)
            .filter_map(|i| {
                let bad = bad_every > 0 && i % bad_every == 0;
                let now = w as f64 * WINDOW_US + i as f64;
                t.record(now, true, if bad { 500.0 } else { 50.0 }, 1.0)
            })
            .collect()
    }

    #[test]
    fn goodness_combines_latency_availability_and_success() {
        let p = policy();
        assert!(p.is_good(true, 99.0, 1.0));
        assert!(!p.is_good(true, 101.0, 1.0), "latency objective");
        assert!(!p.is_good(true, 50.0, 0.9), "availability objective");
        assert!(!p.is_good(false, 0.0, 1.0), "failures are bad");
    }

    #[test]
    fn a_fast_only_spike_stays_quiet() {
        let mut t = SloTracker::new(policy());
        for w in 0..SLOW_WINDOWS {
            assert!(feed(&mut t, w, 100, 0).is_empty());
        }
        // One all-bad window: the last five windows burn at 20×, the
        // last sixty at 1.7×.
        assert!(feed(&mut t, SLOW_WINDOWS, 100, 1).is_empty());
        let s = t.status();
        assert!(s.fast_burn >= FAST_BURN_THRESHOLD, "{s:?}");
        assert!(s.slow_burn < SLOW_BURN_THRESHOLD, "{s:?}");
        assert!(!s.alerting);
    }

    #[test]
    fn slow_only_residue_stays_quiet() {
        let mut t = SloTracker::new(policy());
        // Every tenth request bad, for longer than the slow span: a
        // steady 10× burn, over the slow threshold and under the fast.
        for w in 0..SLOW_WINDOWS + 10 {
            assert!(feed(&mut t, w, 100, 10).is_empty());
        }
        let s = t.status();
        assert!(s.fast_burn < FAST_BURN_THRESHOLD, "{s:?}");
        assert!(s.slow_burn >= SLOW_BURN_THRESHOLD, "{s:?}");
        assert!(!s.alerting);
        assert!((s.budget_burn - 10.0).abs() < 1e-9, "{s:?}");
    }

    #[test]
    fn alert_raises_on_sustained_burn_and_clears_on_recovery() {
        let mut t = SloTracker::new(policy());
        for w in 0..SLOW_WINDOWS {
            assert!(feed(&mut t, w, 100, 10).is_empty());
        }
        let raised = feed(&mut t, SLOW_WINDOWS, 50, 1);
        assert_eq!(raised.len(), 1, "{raised:?}");
        let up = raised[0];
        assert!(up.raised);
        assert!(up.fast_burn >= FAST_BURN_THRESHOLD && up.slow_burn >= SLOW_BURN_THRESHOLD);
        assert!(t.status().alerting);
        // Healthy windows: the fast span forgets the spike first.
        let mut cleared = Vec::new();
        for w in SLOW_WINDOWS + 1..=SLOW_WINDOWS + FAST_WINDOWS {
            cleared.extend(feed(&mut t, w, 100, 0));
        }
        assert_eq!(cleared.len(), 1, "{cleared:?}");
        let down = cleared[0];
        assert!(!down.raised);
        assert!(down.fast_burn < FAST_BURN_THRESHOLD);
        let s = t.status();
        assert!(!s.alerting);
        assert_eq!(s.good + s.bad, 100 * (SLOW_WINDOWS + FAST_WINDOWS) + 50);
    }

    #[test]
    fn burn_ignores_windows_outside_the_span() {
        let mut t = SloTracker::new(policy());
        // Window 0: all bad.
        for _ in 0..5 {
            t.record(0.0, false, 0.0, 1.0);
        }
        // Windows 10..15: all good; by window 15 the fast span (11..=15)
        // no longer sees window 0.
        for w in 10..=15 {
            t.record(w as f64 * WINDOW_US, true, 50.0, 1.0);
        }
        let s = t.status();
        assert_eq!(s.fast_burn, 0.0, "bad window fell out of fast span");
        assert!(s.slow_burn > 0.0, "slow span still remembers");
    }

    #[test]
    fn alert_log_assigns_sequential_seqs() {
        let log = AlertLog::default();
        assert!(log.is_empty());
        let rec = AlertRecord {
            seq: 999,
            sim_time_us: 1.0,
            tenant: "gold".into(),
            raised: true,
            fast_burn: 3.0,
            slow_burn: 2.5,
            fast_windows: FAST_WINDOWS,
            slow_windows: SLOW_WINDOWS,
        };
        assert_eq!(log.append(rec.clone()), 0);
        assert_eq!(log.append(rec), 1);
        let rows = log.snapshot();
        assert_eq!(rows.len(), 2);
        assert_eq!((rows[0].seq, rows[1].seq), (0, 1));
    }
}
