//! Process-wide registry of multi-versioned regions.
//!
//! The multi-versioning backend produces one version table per tuned
//! region; at run time the program needs to find "the versions of region
//! X" and pick one per invocation. [`VersionRegistry`] is that lookup: it
//! maps region names to their [`VersionMeta`] tables and applies a
//! per-region (or default) [`SelectionPolicy`]. Tables typically come from
//! the embedded version table or from a tuning archive
//! (`moat_multiversion::VersionTable::from_archive`) through
//! `VersionTable::runtime_meta` — this crate only sees the runtime
//! metadata, keeping the dependency arrow pointing compiler → runtime.

use crate::health::{DegradingSelector, HealthPolicy};
use crate::select::{SelectionContext, SelectionPolicy, VersionMeta};
use std::collections::BTreeMap;

/// Registry of version tables for the regions of one program.
#[derive(Debug, Clone)]
pub struct VersionRegistry {
    tables: BTreeMap<String, Vec<VersionMeta>>,
    policies: BTreeMap<String, SelectionPolicy>,
    default_policy: SelectionPolicy,
    obs: moat_obs::Obs,
}

impl Default for VersionRegistry {
    fn default() -> Self {
        VersionRegistry::new(SelectionPolicy::FastestTime)
    }
}

impl VersionRegistry {
    /// Empty registry with a default selection policy.
    pub fn new(default_policy: SelectionPolicy) -> Self {
        VersionRegistry {
            tables: BTreeMap::new(),
            policies: BTreeMap::new(),
            default_policy,
            obs: moat_obs::Obs::default(),
        }
    }

    /// Report every selection on `obs`; selectors handed out by
    /// [`degrading`](Self::degrading) inherit it. Untraced by default.
    pub fn with_obs(mut self, obs: moat_obs::Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Install (or replace) a region's version table.
    pub fn register(&mut self, region: impl Into<String>, table: Vec<VersionMeta>) {
        self.tables.insert(region.into(), table);
    }

    /// Override the selection policy for one region (others keep the
    /// default).
    pub fn set_policy(&mut self, region: impl Into<String>, policy: SelectionPolicy) {
        self.policies.insert(region.into(), policy);
    }

    /// The registered version table of a region.
    pub fn table(&self, region: &str) -> Option<&[VersionMeta]> {
        self.tables.get(region).map(Vec::as_slice)
    }

    /// Registered region names, sorted.
    pub fn regions(&self) -> Vec<&str> {
        self.tables.keys().map(String::as_str).collect()
    }

    /// Number of registered regions.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True when no region is registered.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// The policy that governs a region.
    pub fn policy_for(&self, region: &str) -> &SelectionPolicy {
        self.policies.get(region).unwrap_or(&self.default_policy)
    }

    /// Pick a version for one invocation of `region`: the region's policy
    /// (or the default) applied to its table. `None` when the region is
    /// unknown or its table is empty.
    pub fn select(&self, region: &str, ctx: &SelectionContext) -> Option<(usize, &VersionMeta)> {
        let table = self.tables.get(region)?;
        let idx = self.policy_for(region).select(table, ctx)?;
        self.obs.emit(|| moat_obs::Event::VersionSelected {
            region: region.to_string(),
            version: idx as u64,
        });
        // Mixed-backend tables additionally record *which backend's*
        // version won; single-backend tables stay trace-identical.
        if let Some(backend) = &table[idx].backend {
            self.obs.emit(|| moat_obs::Event::BackendSelected {
                region: region.to_string(),
                version: idx as u64,
                backend: backend.clone(),
            });
        }
        Some((idx, &table[idx]))
    }

    /// A fault-aware [`DegradingSelector`] for `region`, seeded with its
    /// table and governing policy. `None` when the region is unknown.
    pub fn degrading(&self, region: &str, health: HealthPolicy) -> Option<DegradingSelector> {
        let table = self.tables.get(region)?;
        Some(
            DegradingSelector::new(
                region,
                table.clone(),
                self.policy_for(region).clone(),
                health,
            )
            .with_obs(self.obs.clone()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Vec<VersionMeta> {
        vec![
            VersionMeta {
                objectives: vec![100.0, 100.0],
                threads: 1,
                label: "t1".into(),
                backend: None,
            },
            VersionMeta {
                objectives: vec![10.0, 110.0],
                threads: 10,
                label: "t10".into(),
                backend: None,
            },
            VersionMeta {
                objectives: vec![4.0, 160.0],
                threads: 40,
                label: "t40".into(),
                backend: None,
            },
        ]
    }

    #[test]
    fn register_and_select_with_default_policy() {
        let mut reg = VersionRegistry::default();
        assert!(reg.is_empty());
        reg.register("mm", table());
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.regions(), vec!["mm"]);
        assert_eq!(reg.table("mm").unwrap().len(), 3);

        let (idx, meta) = reg.select("mm", &SelectionContext::default()).unwrap();
        assert_eq!((idx, meta.threads), (2, 40), "FastestTime default");
        assert!(reg
            .select("unknown", &SelectionContext::default())
            .is_none());
    }

    #[test]
    fn per_region_policy_overrides_default() {
        let mut reg = VersionRegistry::default();
        reg.register("mm", table());
        reg.register("jacobi", table());
        reg.set_policy("mm", SelectionPolicy::LowestResources);

        let ctx = SelectionContext::default();
        assert_eq!(reg.select("mm", &ctx).unwrap().0, 0);
        assert_eq!(reg.select("jacobi", &ctx).unwrap().0, 2, "default kept");
        assert_eq!(reg.policy_for("mm"), &SelectionPolicy::LowestResources);
    }

    #[test]
    fn context_flows_through_to_the_policy() {
        let mut reg = VersionRegistry::new(SelectionPolicy::FitThreads);
        reg.register("mm", table());
        let ctx = SelectionContext {
            available_threads: Some(10),
        };
        assert_eq!(reg.select("mm", &ctx).unwrap().1.threads, 10);
    }

    #[test]
    fn empty_table_selects_none() {
        let mut reg = VersionRegistry::default();
        reg.register("mm", Vec::new());
        assert!(reg.select("mm", &SelectionContext::default()).is_none());
    }

    #[test]
    fn degrading_selector_inherits_region_policy() {
        let obs = moat_obs::Obs::new(moat_obs::TimestampMode::Logical);
        let mut reg = VersionRegistry::default().with_obs(obs.clone());
        reg.register("mm", table());
        reg.set_policy("mm", SelectionPolicy::LowestResources);
        assert!(reg.degrading("unknown", HealthPolicy::default()).is_none());

        let sel = reg.degrading("mm", HealthPolicy::default()).unwrap();
        assert_eq!(sel.region(), "mm");
        assert_eq!(sel.select(&SelectionContext::default()), Some(0));
        // Demote the pick: the selector steps down to the next version.
        for _ in 0..3 {
            sel.record_failure(0);
        }
        assert_eq!(sel.select(&SelectionContext::default()), Some(1));
        // The selector reports on the registry's handle, in clock order.
        let kinds: Vec<_> = obs.drain().iter().map(|r| r.event.kind()).collect();
        assert_eq!(
            kinds,
            ["version_selected", "version_demoted", "version_selected"]
        );
    }
}
