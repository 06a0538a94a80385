//! Native in-process multi-versioned regions.
//!
//! The Rust-side equivalent of the generated C of [`crate::codegen`]: a
//! region whose versions are closures over real kernel implementations,
//! dispatched through the runtime's selection policies and recorded in
//! execution statistics — the full step (6) of the paper's architecture.

use crate::table::VersionTable;
use moat_runtime::{measure, RegionStats, SelectionContext, SelectionPolicy, VersionMeta};

/// One specialized implementation of a region: a closure mutating the
/// kernel's data `D`.
pub type VersionImpl<'a, D> = Box<dyn Fn(&mut D) + Sync + 'a>;

/// A multi-versioned region over a mutable context `D` (the kernel's
/// data).
pub struct NativeRegion<'a, D> {
    /// Region name (from the version table; observability label).
    pub region: String,
    /// Version metadata (one entry per implementation).
    pub meta: Vec<VersionMeta>,
    /// Specialized implementations, index-aligned with `meta`.
    pub impls: Vec<VersionImpl<'a, D>>,
    /// Execution statistics.
    pub stats: RegionStats,
    obs: moat_obs::Obs,
}

impl<'a, D> NativeRegion<'a, D> {
    /// Build a region from a version table and its implementations.
    pub fn new(table: &VersionTable, impls: Vec<VersionImpl<'a, D>>) -> Self {
        assert_eq!(
            table.len(),
            impls.len(),
            "one implementation per table version required"
        );
        NativeRegion {
            region: table.region.clone(),
            meta: table.runtime_meta(),
            impls,
            stats: RegionStats::new(),
            obs: moat_obs::Obs::default(),
        }
    }

    /// Report every version pick on `obs`. Untraced by default.
    pub fn with_obs(mut self, obs: moat_obs::Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Invoke the region: the policy selects a version, the version runs on
    /// `data`, the invocation is recorded. Returns the selected version
    /// index (`None` for an empty table).
    pub fn invoke(
        &self,
        policy: &SelectionPolicy,
        ctx: &SelectionContext,
        data: &mut D,
    ) -> Option<usize> {
        let idx = policy.select(&self.meta, ctx)?;
        self.obs.emit(|| moat_obs::Event::VersionSelected {
            region: self.region.clone(),
            version: idx as u64,
        });
        let ((), elapsed) = measure(|| (self.impls[idx])(data));
        self.stats.record(idx, elapsed);
        Some(idx)
    }

    /// Number of versions.
    pub fn len(&self) -> usize {
        self.impls.len()
    }

    /// True if the region has no versions.
    pub fn is_empty(&self) -> bool {
        self.impls.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moat_core::pareto::{ParetoFront, Point};
    use moat_ir::{ParamDecl, ParamDomain, Skeleton};

    fn region() -> (VersionTable, NativeRegion<'static, Vec<u32>>) {
        let sk = Skeleton::new(
            "s",
            vec![ParamDecl::new(
                "threads",
                ParamDomain::Choice(vec![1, 2, 4]),
            )],
            vec![],
        );
        let front = ParetoFront::from_points(vec![
            Point::new(vec![1], vec![4.0, 4.0]),
            Point::new(vec![2], vec![2.0, 5.0]),
            Point::new(vec![4], vec![1.0, 7.0]),
        ]);
        let table =
            VersionTable::from_front("r", &sk, &front, vec!["t".into(), "r".into()], Some(0));
        let impls: Vec<VersionImpl<Vec<u32>>> = (0..3)
            .map(|i| Box::new(move |d: &mut Vec<u32>| d.push(i as u32)) as VersionImpl<Vec<u32>>)
            .collect();
        let native = NativeRegion::new(&table, impls);
        (table, native)
    }

    #[test]
    fn invoke_selects_and_records() {
        let obs = moat_obs::Obs::new(moat_obs::TimestampMode::Logical);
        let region = region().1.with_obs(obs.clone());
        let mut data = Vec::new();
        let ctx = SelectionContext::default();
        let fastest = region.invoke(&SelectionPolicy::FastestTime, &ctx, &mut data);
        assert_eq!(fastest, Some(0), "table is sorted fastest-first");
        let cheapest = region.invoke(&SelectionPolicy::LowestResources, &ctx, &mut data);
        assert_eq!(cheapest, Some(2));
        assert_eq!(data, vec![0, 2]);
        assert_eq!(region.stats.invocations(), 2);
        let picks: Vec<_> = obs.drain().into_iter().map(|r| r.event).collect();
        let pick = |version| moat_obs::Event::VersionSelected {
            region: "r".into(),
            version,
        };
        assert_eq!(picks, [pick(0), pick(2)]);
    }

    #[test]
    fn fit_threads_uses_context() {
        let (_, region) = region();
        let mut data = Vec::new();
        let ctx = SelectionContext {
            available_threads: Some(2),
        };
        let idx = region
            .invoke(&SelectionPolicy::FitThreads, &ctx, &mut data)
            .unwrap();
        assert_eq!(region.meta[idx].threads, 2);
    }

    #[test]
    #[should_panic(expected = "one implementation per table version")]
    fn arity_mismatch_panics() {
        let (table, _) = region();
        let impls: Vec<VersionImpl<Vec<u32>>> = vec![];
        let _ = NativeRegion::new(&table, impls);
    }
}
