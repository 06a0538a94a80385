//! Transformation skeletons: parameterized transformation sequences.
//!
//! A [`Skeleton`] describes a *generic* sequence of code transformations
//! with unbound parameters for its tunable properties (tile sizes, thread
//! counts, unroll factors). The optimizer explores assignments of these
//! parameters; [`Skeleton::instantiate`] turns one assignment into a
//! concrete code [`Variant`] that can be costed (on the machine model) or
//! executed (via a native kernel binding).

use crate::nest::LoopNest;
use crate::shape::{with_loops, ShapeWalk, VariantShape};
use crate::transform::{self, TransformError};
use serde::{Deserialize, Serialize};

/// Stable 64-bit FNV-1a hasher. Unlike `std::hash`, the digest is defined by
/// this crate alone — independent of platform, Rust version and process — so
/// it can serve as a persistent content-address (archive keys).
struct SigHasher(u64);

impl SigHasher {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Self {
        SigHasher(Self::OFFSET)
    }

    fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
        self
    }

    fn str(&mut self, s: &str) -> &mut Self {
        // Length-prefix so ("ab","c") and ("a","bc") hash differently.
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    fn i64(&mut self, v: i64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Value of a tuning parameter. All parameter kinds (tile sizes, thread
/// counts, unroll factors) are modeled uniformly as integers, exactly as the
/// paper's configurations do.
pub type ParamValue = i64;

/// Domain of one tuning parameter.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ParamDomain {
    /// Integers in `lo..=hi`.
    IntRange {
        /// Inclusive lower bound.
        lo: i64,
        /// Inclusive upper bound.
        hi: i64,
    },
    /// An explicit, ordered list of admissible values (e.g. thread counts).
    Choice(Vec<i64>),
}

impl ParamDomain {
    /// True if `v` is admissible.
    pub fn contains(&self, v: i64) -> bool {
        match self {
            ParamDomain::IntRange { lo, hi } => (*lo..=*hi).contains(&v),
            ParamDomain::Choice(vals) => vals.contains(&v),
        }
    }

    /// The admissible value closest to `v` (ties resolved downwards).
    pub fn nearest(&self, v: i64) -> i64 {
        match self {
            ParamDomain::IntRange { lo, hi } => v.clamp(*lo, *hi),
            ParamDomain::Choice(vals) => *vals
                .iter()
                .min_by_key(|&&x| ((x - v).abs(), x))
                .expect("empty choice domain"),
        }
    }

    /// Lower and upper extremes of the domain.
    pub fn extremes(&self) -> (i64, i64) {
        match self {
            ParamDomain::IntRange { lo, hi } => (*lo, *hi),
            ParamDomain::Choice(vals) => (
                *vals.iter().min().expect("empty choice domain"),
                *vals.iter().max().expect("empty choice domain"),
            ),
        }
    }
}

/// Declaration of one tuning parameter.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParamDecl {
    /// Name for reports and code generation (e.g. `"tile_i"`).
    pub name: String,
    /// Admissible values.
    pub domain: ParamDomain,
}

impl ParamDecl {
    /// Create a declaration.
    pub fn new(name: impl Into<String>, domain: ParamDomain) -> Self {
        ParamDecl {
            name: name.into(),
            domain,
        }
    }
}

/// One step in a transformation skeleton. Parameter references are indices
/// into [`Skeleton::params`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Step {
    /// Tile the outermost `band` loops using the given size parameters.
    Tile {
        /// Width of the tiled band.
        band: usize,
        /// One parameter index per band loop.
        size_params: Vec<usize>,
    },
    /// Collapse the outermost `count` loops before parallelization — the
    /// paper applies this to mitigate load imbalance from large tiles.
    Collapse {
        /// Number of loops to collapse.
        count: usize,
    },
    /// Parallelize the (collapsed) outermost loop with a tunable number of
    /// threads.
    Parallelize {
        /// Parameter index holding the thread count.
        threads_param: usize,
    },
    /// Unroll the innermost loop by a tunable factor (affects backend code
    /// generation and the ILP term of the cost model; semantics-neutral).
    Unroll {
        /// Parameter index holding the unroll factor.
        factor_param: usize,
    },
}

/// A concrete code variant produced by instantiating a skeleton.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Variant {
    /// The transformed loop nest.
    pub nest: LoopNest,
    /// Worker threads executing the variant (1 if not parallelized).
    pub threads: usize,
    /// Innermost unroll factor (1 = no unrolling).
    pub unroll: u32,
    /// The parameter assignment that produced this variant.
    pub values: Vec<ParamValue>,
}

/// A parameterized transformation sequence.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Skeleton {
    /// Skeleton name (regions may offer several alternative skeletons).
    pub name: String,
    /// Tunable parameters.
    pub params: Vec<ParamDecl>,
    /// Transformation steps applied in order.
    pub steps: Vec<Step>,
}

impl Skeleton {
    /// Create a skeleton.
    pub fn new(name: impl Into<String>, params: Vec<ParamDecl>, steps: Vec<Step>) -> Self {
        Skeleton {
            name: name.into(),
            params,
            steps,
        }
    }

    /// Index of the first parameter whose value is out of domain (`Err` on
    /// an arity mismatch).
    fn first_out_of_domain(&self, values: &[ParamValue]) -> Result<Option<usize>, ()> {
        if values.len() != self.params.len() {
            return Err(());
        }
        Ok(self
            .params
            .iter()
            .zip(values)
            .position(|(p, &v)| !p.domain.contains(v)))
    }

    /// Validate a parameter assignment against the declared domains.
    pub fn check_values(&self, values: &[ParamValue]) -> Result<(), TransformError> {
        match self.first_out_of_domain(values) {
            Ok(None) => Ok(()),
            Ok(Some(i)) => Err(TransformError(format!(
                "value {} out of domain for parameter {}",
                values[i], self.params[i].name
            ))),
            Err(()) => Err(TransformError(format!(
                "skeleton {} expects {} parameters, got {}",
                self.name,
                self.params.len(),
                values.len()
            ))),
        }
    }

    /// Clamp an arbitrary assignment to the nearest admissible one.
    pub fn nearest_values(&self, values: &[ParamValue]) -> Vec<ParamValue> {
        self.params
            .iter()
            .zip(values)
            .map(|(p, &v)| p.domain.nearest(v))
            .collect()
    }

    /// Instantiate the skeleton on `nest` with the given parameter values.
    pub fn instantiate(
        &self,
        nest: &LoopNest,
        values: &[ParamValue],
    ) -> Result<Variant, TransformError> {
        self.check_values(values)?;
        let mut cur = nest.clone();
        let mut threads = 1usize;
        let mut unroll = 1u32;
        let mut pending_collapse = 1usize;
        for step in &self.steps {
            match step {
                Step::Tile { band, size_params } => {
                    let sizes: Vec<u64> = size_params
                        .iter()
                        .map(|&p| values[p].max(1) as u64)
                        .collect();
                    cur = transform::tile(&cur, *band, &sizes)?;
                }
                Step::Collapse { count } => {
                    pending_collapse = (*count).max(1);
                }
                Step::Parallelize { threads_param } => {
                    threads = values[*threads_param].max(1) as usize;
                    cur = transform::collapse_and_parallelize(&cur, pending_collapse, threads)?;
                }
                Step::Unroll { factor_param } => {
                    unroll = values[*factor_param].max(1) as u32;
                }
            }
        }
        Ok(Variant {
            nest: cur,
            threads,
            unroll,
            values: values.to_vec(),
        })
    }

    /// Hand the [shape](crate::shape) of the variant that
    /// [`instantiate`](Self::instantiate) would build to `f`, without
    /// building it: no loop names, no bound expressions, no clone of the
    /// body, and no heap allocation for nests up to 16 loops deep after
    /// tiling. Returns `None` exactly where `instantiate` returns an error.
    pub fn with_shape<R>(
        &self,
        nest: &LoopNest,
        values: &[ParamValue],
        f: impl FnOnce(&VariantShape<'_>) -> R,
    ) -> Option<R> {
        if self.first_out_of_domain(values) != Ok(None) {
            return None;
        }
        // Deepest nest the walk reaches. A band the walk would reject is
        // rejected here, before its width sizes a buffer.
        let mut depth = nest.depth();
        let mut structural = false;
        for step in &self.steps {
            match step {
                Step::Tile { band, .. } => {
                    if *band == 0 || *band > depth {
                        return None;
                    }
                    depth += band;
                    structural = true;
                }
                Step::Parallelize { .. } => structural = true,
                Step::Collapse { .. } | Step::Unroll { .. } => {}
            }
        }
        // Every structural transformation validates its result, which is
        // valid exactly when the nest it started from was.
        if structural && nest.validate().is_err() {
            return None;
        }
        with_loops(depth, |buf| {
            let mut walk = ShapeWalk::new(nest, buf);
            let mut threads = 1usize;
            let mut unroll = 1u32;
            let mut pending_collapse = 1usize;
            for step in &self.steps {
                match step {
                    Step::Tile { band, size_params } => {
                        let sizes = size_params.iter().map(|&p| values[p].max(1) as u64);
                        walk.tile(*band, sizes)?;
                    }
                    Step::Collapse { count } => pending_collapse = (*count).max(1),
                    Step::Parallelize { threads_param } => {
                        threads = values[*threads_param].max(1) as usize;
                        walk.collapse_and_parallelize(pending_collapse, threads)?;
                    }
                    Step::Unroll { factor_param } => {
                        unroll = values[*factor_param].max(1) as u32;
                    }
                }
            }
            Some(f(&VariantShape {
                nest: walk.finish(),
                threads,
                unroll,
            }))
        })
    }

    /// Stable 64-bit signature of the skeleton's *structure*: its name,
    /// parameter declarations (names and domains) and transformation steps.
    ///
    /// The digest is platform- and process-independent (FNV-1a over a
    /// canonical encoding), so it is safe to persist — the tuning archive
    /// uses it as one component of its content-address. Any change to the
    /// transformation sequence or the tunable parameters yields a new
    /// signature and therefore a new archive key.
    pub fn signature(&self) -> u64 {
        let mut h = SigHasher::new();
        h.str("skeleton").str(&self.name);
        h.u64(self.params.len() as u64);
        for p in &self.params {
            h.str(&p.name);
            match &p.domain {
                ParamDomain::IntRange { lo, hi } => {
                    h.str("range").i64(*lo).i64(*hi);
                }
                ParamDomain::Choice(vals) => {
                    h.str("choice").u64(vals.len() as u64);
                    for &v in vals {
                        h.i64(v);
                    }
                }
            }
        }
        h.u64(self.steps.len() as u64);
        for step in &self.steps {
            match step {
                Step::Tile { band, size_params } => {
                    h.str("tile")
                        .u64(*band as u64)
                        .u64(size_params.len() as u64);
                    for &p in size_params {
                        h.u64(p as u64);
                    }
                }
                Step::Collapse { count } => {
                    h.str("collapse").u64(*count as u64);
                }
                Step::Parallelize { threads_param } => {
                    h.str("parallelize").u64(*threads_param as u64);
                }
                Step::Unroll { factor_param } => {
                    h.str("unroll").u64(*factor_param as u64);
                }
            }
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{Access, ArrayId};
    use crate::expr::VarId;
    use crate::nest::{Loop, LoopNest, Stmt};

    fn mm(n: i64) -> LoopNest {
        let (i, j, k) = (VarId(0), VarId(1), VarId(2));
        let (c, a, b) = (ArrayId(0), ArrayId(1), ArrayId(2));
        LoopNest::new(
            vec![
                Loop::plain(i, "i", 0, n),
                Loop::plain(j, "j", 0, n),
                Loop::plain(k, "k", 0, n),
            ],
            vec![Stmt::new(
                vec![
                    Access::read(c, vec![i.into(), j.into()]),
                    Access::write(c, vec![i.into(), j.into()]),
                    Access::read(a, vec![i.into(), k.into()]),
                    Access::read(b, vec![k.into(), j.into()]),
                ],
                2,
            )],
        )
    }

    fn mm_skeleton(n: i64, threads: Vec<i64>) -> Skeleton {
        Skeleton::new(
            "tile3-collapse2-parallel",
            vec![
                ParamDecl::new("tile_i", ParamDomain::IntRange { lo: 1, hi: n / 2 }),
                ParamDecl::new("tile_j", ParamDomain::IntRange { lo: 1, hi: n / 2 }),
                ParamDecl::new("tile_k", ParamDomain::IntRange { lo: 1, hi: n / 2 }),
                ParamDecl::new("threads", ParamDomain::Choice(threads)),
            ],
            vec![
                Step::Tile {
                    band: 3,
                    size_params: vec![0, 1, 2],
                },
                Step::Collapse { count: 2 },
                Step::Parallelize { threads_param: 3 },
            ],
        )
    }

    #[test]
    fn instantiate_full_pipeline() {
        let sk = mm_skeleton(64, vec![1, 5, 10, 20, 40]);
        let v = sk.instantiate(&mm(64), &[16, 8, 32, 10]).unwrap();
        assert_eq!(v.threads, 10);
        assert_eq!(v.nest.depth(), 6);
        let p = v.nest.parallel.unwrap();
        assert_eq!(p.collapsed, 2);
        assert_eq!(p.threads, 10);
        // Tile loops: 64/16=4 and 64/8=8 → 32 parallel iterations.
        assert_eq!(transform::parallel_iterations(&v.nest), Some(32));
        assert_eq!(v.values, vec![16, 8, 32, 10]);
    }

    #[test]
    fn instantiate_rejects_out_of_domain() {
        let sk = mm_skeleton(64, vec![1, 2, 4]);
        assert!(sk.instantiate(&mm(64), &[16, 8, 32, 3]).is_err());
        assert!(sk.instantiate(&mm(64), &[0, 8, 32, 2]).is_err());
        assert!(sk.instantiate(&mm(64), &[16, 8, 32]).is_err());
    }

    #[test]
    fn nearest_values_projects_into_domain() {
        let sk = mm_skeleton(64, vec![1, 2, 4, 8]);
        let near = sk.nearest_values(&[-5, 100, 16, 5]);
        assert_eq!(near, vec![1, 32, 16, 4]);
        sk.check_values(&near).unwrap();
    }

    #[test]
    fn domain_nearest_choice_prefers_closest() {
        let d = ParamDomain::Choice(vec![1, 5, 10, 20, 40]);
        assert_eq!(d.nearest(7), 5); // tie 5/10 resolves downwards
        assert_eq!(d.nearest(8), 10);
        assert_eq!(d.nearest(-3), 1);
        assert_eq!(d.nearest(100), 40);
    }

    #[test]
    fn signature_is_stable_and_structure_sensitive() {
        let sk = mm_skeleton(64, vec![1, 2, 4, 8]);
        // Deterministic across calls (and, by construction, across runs).
        assert_eq!(sk.signature(), sk.signature());
        // Any structural change moves the signature.
        let mut renamed = sk.clone();
        renamed.name = "other".into();
        assert_ne!(sk.signature(), renamed.signature());
        let mut wider = sk.clone();
        wider.params[0].domain = ParamDomain::IntRange { lo: 1, hi: 64 };
        assert_ne!(sk.signature(), wider.signature());
        let mut restep = sk.clone();
        restep.steps.push(Step::Unroll { factor_param: 0 });
        assert_ne!(sk.signature(), restep.signature());
        // Equal structure ⇒ equal signature.
        assert_eq!(
            sk.signature(),
            mm_skeleton(64, vec![1, 2, 4, 8]).signature()
        );
    }

    #[test]
    fn unroll_step_sets_factor() {
        let sk = Skeleton::new(
            "unroll-only",
            vec![ParamDecl::new(
                "factor",
                ParamDomain::Choice(vec![1, 2, 4, 8]),
            )],
            vec![Step::Unroll { factor_param: 0 }],
        );
        let v = sk.instantiate(&mm(8), &[4]).unwrap();
        assert_eq!(v.unroll, 4);
        assert_eq!(v.threads, 1);
    }
}
