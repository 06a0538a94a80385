//! Backend identity, provenance and the product-space evaluator.
//!
//! The paper tunes one fixed code-generation path per region; follow-up
//! systems (ComPar, MCompiler) showed larger wins come from searching
//! *across* alternative backends — different compilers, loop orders,
//! emitted source variants — per region. This module promotes the backend
//! to a first-class tunable axis:
//!
//! * [`BackendId`] names one evaluation path (kind + variant descriptor),
//! * [`Provenance`] ties a measurement to the backend *and* the machine
//!   fingerprint it was taken on, so results from different backends or
//!   hosts are never silently conflated, and
//! * [`BackendSet`] fans one logical configuration space out across
//!   registered backends by appending a `backend` choice dimension, so any
//!   [`Tuner`](crate::tuner::Tuner) explores the product space
//!   `config × backend` under the existing budget and caching machinery.
//!
//! Provenance is deliberately optional everywhere it is stored (fronts,
//! archives, version tables): single-backend runs carry `None` and
//! serialize byte-identically to the pre-provenance format.

use crate::evaluate::{Evaluator, ObjVec};
use crate::pareto::{ParetoFront, Point};
use crate::space::{Config, Domain, ParamSpace};
use serde::{DeError, Deserialize, Serialize, Value};

/// Name of the configuration dimension [`BackendSet::space`] appends.
pub const BACKEND_PARAM: &str = "backend";

/// The kind of evaluation path a backend represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BackendKind {
    /// The analytic machine model (no execution).
    Analytic,
    /// A native in-process kernel implementation.
    Native,
    /// An emitted source variant (e.g. `codegen_export` output).
    Source,
}

impl BackendKind {
    /// Stable lowercase name (used in rendered ids and JSON).
    pub fn as_str(&self) -> &'static str {
        match self {
            BackendKind::Analytic => "analytic",
            BackendKind::Native => "native",
            BackendKind::Source => "source",
        }
    }

    /// Parse a lowercase kind name.
    pub fn parse(s: &str) -> Option<BackendKind> {
        match s {
            "analytic" => Some(BackendKind::Analytic),
            "native" => Some(BackendKind::Native),
            "source" => Some(BackendKind::Source),
            _ => None,
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Identity of one backend: kind plus a variant descriptor such as a loop
/// order or unroll factor (`native:ikj-u4`). Rendering is stable and
/// round-trips through [`BackendId::parse`]; the JSON form is exactly that
/// rendered string.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BackendId {
    /// Evaluation-path kind.
    pub kind: BackendKind,
    /// Variant descriptor (loop order, unroll factor, emitted file stem…).
    pub variant: String,
}

impl BackendId {
    /// Create an id.
    pub fn new(kind: BackendKind, variant: impl Into<String>) -> Self {
        BackendId {
            kind,
            variant: variant.into(),
        }
    }

    /// Parse the `kind:variant` rendering produced by [`Display`].
    ///
    /// [`Display`]: std::fmt::Display
    pub fn parse(s: &str) -> Option<BackendId> {
        let (kind, variant) = s.split_once(':')?;
        Some(BackendId::new(BackendKind::parse(kind)?, variant))
    }
}

impl std::fmt::Display for BackendId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.kind, self.variant)
    }
}

// Serialized as the rendered `kind:variant` string — compact, stable and
// human-readable in archives and version tables.
impl Serialize for BackendId {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for BackendId {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let s = v
            .as_str()
            .ok_or_else(|| DeError::custom("BackendId: expected string"))?;
        BackendId::parse(s).ok_or_else(|| DeError::custom(format!("BackendId: malformed id `{s}`")))
    }
}

/// Where a measurement came from: the backend that produced it and the
/// fingerprint of the machine it was measured on (0 for machine-independent
/// analytic models).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Provenance {
    /// The backend that produced the measurement.
    pub backend: BackendId,
    /// Stable fingerprint of the machine the measurement was taken on.
    pub machine_fingerprint: u64,
}

impl Provenance {
    /// Create a provenance tag.
    pub fn new(backend: BackendId, machine_fingerprint: u64) -> Self {
        Provenance {
            backend,
            machine_fingerprint,
        }
    }

    /// Provenance for an analytic model variant (no machine dependence).
    pub fn analytic(variant: impl Into<String>) -> Self {
        Provenance::new(BackendId::new(BackendKind::Analytic, variant), 0)
    }
}

impl std::fmt::Display for Provenance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}@{:016x}", self.backend, self.machine_fingerprint)
    }
}

// Hand-written so the field order is fixed (byte-stable serialization).
impl Serialize for Provenance {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("backend".to_string(), self.backend.to_value()),
            (
                "machine_fingerprint".to_string(),
                self.machine_fingerprint.to_value(),
            ),
        ])
    }
}

impl Deserialize for Provenance {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let m = v
            .as_map()
            .ok_or_else(|| DeError::custom("Provenance: expected map"))?;
        Ok(Provenance {
            backend: serde::from_field(m, "backend")?,
            machine_fingerprint: serde::from_field(m, "machine_fingerprint")?,
        })
    }
}

/// An evaluator that fans one logical configuration out across registered
/// backends.
///
/// [`BackendSet::space`] appends one `backend` choice dimension to the base
/// space; [`Evaluator::evaluate`] strips it again and dispatches the inner
/// configuration to the selected backend. Tuners thus explore
/// `config × backend` with no knowledge that the last dimension is special,
/// and every layer of budget accounting, caching and batch parallelism
/// applies unchanged.
pub struct BackendSet<'a> {
    entries: Vec<(Provenance, &'a dyn Evaluator)>,
    num_objectives: usize,
}

impl Default for BackendSet<'_> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'a> BackendSet<'a> {
    /// Empty set.
    pub fn new() -> Self {
        BackendSet {
            entries: Vec::new(),
            num_objectives: 0,
        }
    }

    /// Register a backend. Panics if its objective arity disagrees with
    /// previously registered backends or its [`BackendId`] duplicates one
    /// already present (two entries with the same identity would make
    /// provenance meaningless).
    pub fn register(&mut self, provenance: Provenance, evaluator: &'a dyn Evaluator) {
        if self.entries.is_empty() {
            self.num_objectives = evaluator.num_objectives();
        } else {
            assert_eq!(
                evaluator.num_objectives(),
                self.num_objectives,
                "backend {} objective arity mismatch",
                provenance.backend
            );
        }
        assert!(
            !self
                .entries
                .iter()
                .any(|(p, _)| p.backend == provenance.backend),
            "duplicate backend id {}",
            provenance.backend
        );
        self.entries.push((provenance, evaluator));
    }

    /// Number of registered backends.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no backend is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Provenance of the backend at `idx`.
    pub fn provenance(&self, idx: usize) -> Option<&Provenance> {
        self.entries.get(idx).map(|(p, _)| p)
    }

    /// The product space: `base` plus a trailing `backend` choice
    /// dimension with one value per registered backend.
    pub fn space(&self, base: &ParamSpace) -> ParamSpace {
        assert!(!self.entries.is_empty(), "no backends registered");
        let mut names = base.names.clone();
        names.push(BACKEND_PARAM.to_string());
        let mut domains = base.domains.clone();
        domains.push(Domain::Choice((0..self.entries.len() as i64).collect()));
        ParamSpace::new(names, domains)
    }

    /// Split a product-space configuration into `(backend index, inner
    /// configuration)`. `None` if the backend coordinate is out of range.
    pub fn decode<'c>(&self, cfg: &'c [i64]) -> Option<(usize, &'c [i64])> {
        let (&b, inner) = cfg.split_last()?;
        if b < 0 || b as usize >= self.entries.len() {
            return None;
        }
        Some((b as usize, inner))
    }

    /// Provenance of the backend a product-space configuration selects.
    pub fn provenance_of(&self, cfg: &[i64]) -> Option<&Provenance> {
        let (idx, _) = self.decode(cfg)?;
        self.provenance(idx)
    }

    /// Project a front tuned over the product space back onto the base
    /// space: the trailing `backend` coordinate is stripped from every
    /// configuration and recorded as the point's [`Provenance`] instead.
    ///
    /// Objectives are untouched, so dominance relations — and hence front
    /// membership and order — are preserved exactly. Points whose backend
    /// coordinate is out of range (e.g. a front from a different backend
    /// roster) are dropped.
    pub fn annotate_front(&self, front: &ParetoFront) -> ParetoFront {
        ParetoFront::from_points(front.points().iter().filter_map(|p| {
            let (idx, inner) = self.decode(&p.config)?;
            Some(Point::with_provenance(
                inner.to_vec(),
                p.objectives.clone(),
                self.provenance(idx)?.clone(),
            ))
        }))
    }
}

impl Evaluator for BackendSet<'_> {
    fn num_objectives(&self) -> usize {
        self.num_objectives
    }

    fn evaluate(&self, cfg: &Config) -> Option<ObjVec> {
        let (idx, inner) = self.decode(cfg)?;
        self.entries[idx].1.evaluate(&inner.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fixed(Vec<f64>);
    impl Evaluator for Fixed {
        fn num_objectives(&self) -> usize {
            self.0.len()
        }
        fn evaluate(&self, cfg: &Config) -> Option<ObjVec> {
            if cfg.iter().any(|&x| x < 0) {
                return None;
            }
            Some(self.0.iter().map(|o| o + cfg[0] as f64).collect())
        }
    }

    fn base() -> ParamSpace {
        ParamSpace::new(vec!["x".into()], vec![Domain::Range { lo: 0, hi: 10 }])
    }

    #[test]
    fn id_rendering_round_trips() {
        let id = BackendId::new(BackendKind::Native, "ikj-u4");
        assert_eq!(id.to_string(), "native:ikj-u4");
        assert_eq!(BackendId::parse("native:ikj-u4"), Some(id));
        assert_eq!(BackendId::parse("nope:x"), None);
        assert_eq!(BackendId::parse("analytic"), None);
    }

    #[test]
    fn provenance_display_stable() {
        let p = Provenance::new(BackendId::new(BackendKind::Analytic, "model"), 0xabcd);
        assert_eq!(p.to_string(), "analytic:model@000000000000abcd");
    }

    #[test]
    fn set_appends_backend_dimension() {
        let a = Fixed(vec![1.0, 2.0]);
        let b = Fixed(vec![3.0, 4.0]);
        let mut set = BackendSet::new();
        set.register(Provenance::analytic("a"), &a);
        set.register(Provenance::analytic("b"), &b);
        let space = set.space(&base());
        assert_eq!(space.dims(), 2);
        assert_eq!(space.names[1], BACKEND_PARAM);
        assert_eq!(space.domains[1], Domain::Choice(vec![0, 1]));
    }

    #[test]
    fn set_dispatches_by_trailing_coordinate() {
        let a = Fixed(vec![1.0, 2.0]);
        let b = Fixed(vec![3.0, 4.0]);
        let mut set = BackendSet::new();
        set.register(Provenance::analytic("a"), &a);
        set.register(Provenance::analytic("b"), &b);
        assert_eq!(set.evaluate(&vec![5, 0]), Some(vec![6.0, 7.0]));
        assert_eq!(set.evaluate(&vec![5, 1]), Some(vec![8.0, 9.0]));
        assert_eq!(set.evaluate(&vec![5, 2]), None, "out-of-range backend");
        assert_eq!(
            set.provenance_of(&[5, 1]).unwrap().backend.variant,
            "b".to_string()
        );
    }

    #[test]
    fn annotate_front_strips_dim_and_tags_provenance() {
        let a = Fixed(vec![1.0, 6.0]);
        let b = Fixed(vec![3.0, 2.0]);
        let mut set = BackendSet::new();
        set.register(Provenance::analytic("a"), &a);
        set.register(Provenance::analytic("b"), &b);
        // Both points are mutually non-dominated: one per backend.
        let product = ParetoFront::from_points(vec![
            Point::new(vec![0, 0], vec![1.0, 6.0]),
            Point::new(vec![0, 1], vec![3.0, 2.0]),
        ]);
        let annotated = set.annotate_front(&product);
        assert_eq!(annotated.len(), 2);
        for (p, variant) in annotated.points().iter().zip(["a", "b"]) {
            assert_eq!(p.config, vec![0], "backend coordinate stripped");
            assert_eq!(
                p.provenance.as_ref().unwrap().backend.variant,
                variant.to_string()
            );
        }
    }

    #[test]
    #[should_panic(expected = "duplicate backend id")]
    fn set_rejects_duplicate_ids() {
        let a = Fixed(vec![1.0]);
        let b = Fixed(vec![2.0]);
        let mut set = BackendSet::new();
        set.register(Provenance::analytic("a"), &a);
        set.register(Provenance::analytic("a"), &b);
    }

    #[test]
    #[should_panic(expected = "objective arity mismatch")]
    fn set_rejects_arity_mismatch() {
        let a = Fixed(vec![1.0, 2.0]);
        let b = Fixed(vec![2.0]);
        let mut set = BackendSet::new();
        set.register(Provenance::analytic("a"), &a);
        set.register(Provenance::analytic("b"), &b);
    }
}
