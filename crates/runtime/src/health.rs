//! Graceful degradation: per-version health tracking with a demotion
//! ladder down to a safe serial fallback.
//!
//! Tuned version tables describe how versions behaved *during tuning*; a
//! production run can diverge badly — a version may start crashing (a
//! co-loaded library, a kernel regression) or run far slower than its
//! tuned prediction (co-running jobs, thermal throttling). The
//! [`DegradingSelector`] wraps a base [`SelectionPolicy`] and tracks each
//! version's health: consecutive failures and an EWMA of the
//! observed-vs-predicted latency ratio. When a version breaches the
//! [`HealthPolicy`], it is demoted out of the selectable set and the base
//! policy picks among the survivors — effectively stepping down the
//! region's non-dominated ladder. When every version is demoted, the
//! selector engages a safe serial fallback (the fewest-threads version)
//! so the region keeps making progress. Each transition emits a
//! [`RuntimeEvent`] through the monitor's event stream.

use crate::monitor::{DemotionReason, RuntimeEvent};
use crate::select::{SelectionContext, SelectionPolicy, VersionMeta};
use parking_lot::Mutex;
use std::time::Duration;

/// Thresholds governing demotion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthPolicy {
    /// Demote after this many invocation failures in a row.
    pub max_consecutive_failures: u32,
    /// Demote when the smoothed observed/predicted latency ratio exceeds
    /// this factor.
    pub latency_ratio_limit: f64,
    /// Latency demotion needs at least this many successful observations
    /// first (a single cold-cache outlier must not kill a version).
    pub min_samples: u64,
    /// EWMA smoothing factor for the latency ratio, in `(0, 1]`.
    pub ewma_alpha: f64,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        HealthPolicy {
            max_consecutive_failures: 3,
            latency_ratio_limit: 4.0,
            min_samples: 3,
            ewma_alpha: 0.3,
        }
    }
}

/// Observed health of one code version.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VersionHealth {
    /// Failures since the last success.
    pub consecutive_failures: u32,
    /// EWMA of observed latency / tuned prediction (1.0 = as tuned).
    pub latency_ratio: f64,
    /// Successful observations incorporated so far.
    pub samples: u64,
    /// Whether the version is currently demoted.
    pub demoted: bool,
}

impl Default for VersionHealth {
    fn default() -> Self {
        VersionHealth {
            consecutive_failures: 0,
            latency_ratio: 1.0,
            samples: 0,
            demoted: false,
        }
    }
}

#[derive(Debug)]
struct HealthState {
    health: Vec<VersionHealth>,
    fallback_announced: bool,
    events: Vec<RuntimeEvent>,
}

/// A fault-aware selector wrapping a base [`SelectionPolicy`] with the
/// demotion ladder described in the module docs.
#[derive(Debug)]
pub struct DegradingSelector {
    region: String,
    table: Vec<VersionMeta>,
    base: SelectionPolicy,
    policy: HealthPolicy,
    state: Mutex<HealthState>,
    obs: moat_obs::Obs,
}

impl DegradingSelector {
    /// Selector for `region`'s version `table`, applying `base` among the
    /// healthy versions under the given health `policy`.
    pub fn new(
        region: impl Into<String>,
        table: Vec<VersionMeta>,
        base: SelectionPolicy,
        policy: HealthPolicy,
    ) -> Self {
        assert!(policy.ewma_alpha > 0.0 && policy.ewma_alpha <= 1.0);
        let n = table.len();
        DegradingSelector {
            region: region.into(),
            table,
            base,
            policy,
            state: Mutex::new(HealthState {
                health: vec![VersionHealth::default(); n],
                fallback_announced: false,
                events: Vec::new(),
            }),
            obs: moat_obs::Obs::default(),
        }
    }

    /// Report selections and health transitions on `obs`. Untraced by
    /// default.
    pub fn with_obs(mut self, obs: moat_obs::Obs) -> Self {
        self.obs = obs;
        self
    }

    /// The region this selector serves.
    pub fn region(&self) -> &str {
        &self.region
    }

    /// The version table this selector picks from.
    pub fn table(&self) -> &[VersionMeta] {
        &self.table
    }

    /// Index of the safe serial fallback: the fewest-threads version
    /// (fastest on a tie). `None` only for an empty table.
    pub fn fallback_index(&self) -> Option<usize> {
        (0..self.table.len()).min_by(|&a, &b| {
            self.table[a]
                .threads
                .cmp(&self.table[b].threads)
                .then_with(|| self.table[a].objectives[0].total_cmp(&self.table[b].objectives[0]))
        })
    }

    /// Pick a version for one invocation: the base policy applied to the
    /// non-demoted versions. With every version demoted, the safe serial
    /// fallback serves (announced once via [`RuntimeEvent::FallbackEngaged`]).
    /// `None` only for an empty table.
    pub fn select(&self, ctx: &SelectionContext) -> Option<usize> {
        let mut state = self.state.lock();
        let healthy: Vec<usize> = (0..self.table.len())
            .filter(|&i| !state.health[i].demoted)
            .collect();
        if healthy.is_empty() {
            let fallback = self.fallback_index()?;
            if !state.fallback_announced {
                state.fallback_announced = true;
                let ev = RuntimeEvent::FallbackEngaged {
                    region: self.region.clone(),
                    version: fallback,
                };
                self.obs.emit(|| ev.to_obs());
                state.events.push(ev);
            }
            self.observe_selection(fallback);
            return Some(fallback);
        }
        let sub: Vec<VersionMeta> = healthy.iter().map(|&i| self.table[i].clone()).collect();
        let picked = self.base.select(&sub, ctx).map(|si| healthy[si]);
        if let Some(idx) = picked {
            self.observe_selection(idx);
        }
        picked
    }

    /// Record a per-invocation version pick in the observability stream.
    fn observe_selection(&self, idx: usize) {
        self.obs.emit(|| moat_obs::Event::VersionSelected {
            region: self.region.clone(),
            version: idx as u64,
        });
    }

    /// Record a successful invocation of version `idx` taking `elapsed`.
    /// Resets the failure streak and folds the latency-vs-prediction
    /// ratio into the EWMA; a sustained breach demotes the version.
    pub fn record_success(&self, idx: usize, elapsed: Duration) {
        let predicted = self.table[idx].objectives[0];
        let ratio = if predicted > 0.0 {
            elapsed.as_secs_f64() / predicted
        } else {
            1.0
        };
        let mut state = self.state.lock();
        let h = &mut state.health[idx];
        h.consecutive_failures = 0;
        h.latency_ratio = if h.samples == 0 {
            ratio
        } else {
            (1.0 - self.policy.ewma_alpha) * h.latency_ratio + self.policy.ewma_alpha * ratio
        };
        h.samples += 1;
        if !h.demoted
            && h.samples >= self.policy.min_samples
            && h.latency_ratio > self.policy.latency_ratio_limit
        {
            h.demoted = true;
            let ev = RuntimeEvent::VersionDemoted {
                region: self.region.clone(),
                version: idx,
                reason: DemotionReason::LatencyBreach,
            };
            self.obs.emit(|| ev.to_obs());
            state.events.push(ev);
        }
    }

    /// Record a failed invocation of version `idx`; a streak of
    /// [`max_consecutive_failures`](HealthPolicy::max_consecutive_failures)
    /// demotes the version.
    pub fn record_failure(&self, idx: usize) {
        let mut state = self.state.lock();
        let h = &mut state.health[idx];
        h.consecutive_failures += 1;
        if !h.demoted && h.consecutive_failures >= self.policy.max_consecutive_failures {
            h.demoted = true;
            let ev = RuntimeEvent::VersionDemoted {
                region: self.region.clone(),
                version: idx,
                reason: DemotionReason::ConsecutiveFailures,
            };
            self.obs.emit(|| ev.to_obs());
            state.events.push(ev);
        }
    }

    /// Manually restore a demoted version (e.g. after an operator fixed
    /// the environment), clearing its health record.
    pub fn restore(&self, idx: usize) {
        let mut state = self.state.lock();
        if state.health[idx].demoted {
            state.health[idx] = VersionHealth::default();
            state.fallback_announced = false;
            let ev = RuntimeEvent::VersionRestored {
                region: self.region.clone(),
                version: idx,
            };
            self.obs.emit(|| ev.to_obs());
            state.events.push(ev);
        }
    }

    /// Current health of version `idx`.
    pub fn health(&self, idx: usize) -> VersionHealth {
        self.state.lock().health[idx]
    }

    /// Drain the accumulated degradation events, oldest first.
    pub fn take_events(&self) -> Vec<RuntimeEvent> {
        std::mem::take(&mut self.state.lock().events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small ladder: faster versions use more threads.
    fn table() -> Vec<VersionMeta> {
        vec![
            VersionMeta {
                objectives: vec![0.100, 0.100],
                threads: 1,
                label: "serial".into(),
                backend: None,
            },
            VersionMeta {
                objectives: vec![0.020, 0.160],
                threads: 8,
                label: "t8".into(),
                backend: None,
            },
            VersionMeta {
                objectives: vec![0.010, 0.320],
                threads: 32,
                label: "t32".into(),
                backend: None,
            },
        ]
    }

    fn selector() -> DegradingSelector {
        DegradingSelector::new(
            "mm",
            table(),
            SelectionPolicy::FastestTime,
            HealthPolicy::default(),
        )
    }

    #[test]
    fn healthy_table_follows_base_policy() {
        let sel = selector();
        assert_eq!(sel.select(&SelectionContext::default()), Some(2));
        assert!(sel.take_events().is_empty());
    }

    #[test]
    fn consecutive_failures_demote_down_the_ladder() {
        let sel = selector();
        let ctx = SelectionContext::default();
        for _ in 0..3 {
            sel.record_failure(2);
        }
        assert!(sel.health(2).demoted);
        assert_eq!(sel.select(&ctx), Some(1), "next non-dominated version");
        let events = sel.take_events();
        assert_eq!(
            events,
            vec![RuntimeEvent::VersionDemoted {
                region: "mm".into(),
                version: 2,
                reason: DemotionReason::ConsecutiveFailures,
            }]
        );
    }

    #[test]
    fn a_success_resets_the_failure_streak() {
        let sel = selector();
        sel.record_failure(2);
        sel.record_failure(2);
        sel.record_success(2, Duration::from_millis(10));
        sel.record_failure(2);
        assert!(!sel.health(2).demoted, "streak was broken by the success");
    }

    #[test]
    fn sustained_latency_breach_demotes() {
        let sel = DegradingSelector::new(
            "mm",
            table(),
            SelectionPolicy::FastestTime,
            HealthPolicy {
                ewma_alpha: 1.0,
                ..HealthPolicy::default()
            },
        );
        // Version 2 predicts 10ms but delivers 100ms (ratio 10 > 4).
        sel.record_success(2, Duration::from_millis(100));
        sel.record_success(2, Duration::from_millis(100));
        assert!(!sel.health(2).demoted, "below min_samples");
        sel.record_success(2, Duration::from_millis(100));
        assert!(sel.health(2).demoted);
        assert_eq!(sel.select(&SelectionContext::default()), Some(1));
        assert_eq!(
            sel.take_events(),
            vec![RuntimeEvent::VersionDemoted {
                region: "mm".into(),
                version: 2,
                reason: DemotionReason::LatencyBreach,
            }]
        );
    }

    #[test]
    fn on_track_versions_survive_latency_tracking() {
        let sel = selector();
        for _ in 0..10 {
            sel.record_success(2, Duration::from_millis(10));
        }
        assert!(!sel.health(2).demoted);
        assert!((sel.health(2).latency_ratio - 1.0).abs() < 1e-9);
    }

    #[test]
    fn full_demotion_engages_serial_fallback_once() {
        let sel = selector();
        let ctx = SelectionContext::default();
        for v in 0..3 {
            for _ in 0..3 {
                sel.record_failure(v);
            }
        }
        assert_eq!(sel.select(&ctx), Some(0), "fewest-threads fallback");
        assert_eq!(sel.select(&ctx), Some(0));
        let events = sel.take_events();
        assert_eq!(events.len(), 4, "3 demotions + 1 fallback announcement");
        assert_eq!(
            events[3],
            RuntimeEvent::FallbackEngaged {
                region: "mm".into(),
                version: 0,
            }
        );
    }

    #[test]
    fn restore_reenables_a_version() {
        let sel = selector();
        for _ in 0..3 {
            sel.record_failure(2);
        }
        assert_eq!(sel.select(&SelectionContext::default()), Some(1));
        sel.restore(2);
        assert!(!sel.health(2).demoted);
        assert_eq!(sel.select(&SelectionContext::default()), Some(2));
        let events = sel.take_events();
        assert_eq!(
            events[1],
            RuntimeEvent::VersionRestored {
                region: "mm".into(),
                version: 2,
            }
        );
        // Restoring a healthy version is a no-op.
        sel.restore(2);
        assert!(sel.take_events().is_empty());
    }

    #[test]
    fn empty_table_selects_none() {
        let sel = DegradingSelector::new(
            "mm",
            Vec::new(),
            SelectionPolicy::FastestTime,
            HealthPolicy::default(),
        );
        assert_eq!(sel.select(&SelectionContext::default()), None);
    }
}
