//! Archive-trained regression surrogate and candidate screening.
//!
//! The paper's central cost metric is `E`, the number of *real* objective
//! evaluations. The archive accumulated across tuning runs is a corpus of
//! `(configuration → objectives)` measurements; this module closes the
//! loop: a cheap engineered-feature regression model is trained from those
//! records (and refined online from every fresh measurement) and used to
//! *screen* candidate batches — only the surrogate's top-ranked fraction
//! (plus a seeded-deterministic ε-fraction of exploratory picks) is
//! forwarded to the expensive evaluator. Screened-away configurations are
//! never evaluated and **never consume evaluation budget**.
//!
//! Three layers:
//!
//! * [`FeatureSource`] — turns a [`Config`] into a normalized feature
//!   vector. [`SpaceFeatures`] is the domain-agnostic default (per-dimension
//!   linear + log position inside the parameter box); the `moat` facade
//!   provides an engineered source with working-set/cache ratios, trip
//!   counts, parallel grain and unroll/backend tags.
//! * [`Surrogate`] — a ridge-regression / k-NN blend over the feature
//!   space, one output per objective. The model state is a pure function of
//!   the *set* of observed samples (canonically ordered, order-independent
//!   accumulation), so rebuilding it from an evaluation-cache snapshot —
//!   which is how [`TuningSession::with_surrogate`] primes it — is exact.
//! * [`SurrogateScreen`] — the screening policy: the batch-level top-k
//!   screen driven by [`TuningSession`], the one place a surrogate screens.
//!
//! Determinism: screening decisions are made on the session control thread
//! before any evaluation is dispatched, exploration picks depend only on
//! `(seed, config)`, and model updates are applied in batch order — so
//! screened runs are bit-identical across `BatchEval` thread counts, and a
//! disabled surrogate leaves the session on its exact pre-existing code
//! path.
//!
//! [`TuningSession`]: crate::tuner::TuningSession
//! [`TuningSession::with_surrogate`]: crate::tuner::TuningSession::with_surrogate

use crate::evaluate::ObjVec;
use crate::space::{Config, ParamSpace};
use std::collections::HashMap;

/// Extracts a fixed-width feature vector from a configuration.
///
/// Implementations must be pure: the same configuration always yields the
/// same features. Feature values should be roughly normalized (order of
/// magnitude ≈ 1) — the surrogate applies no internal feature scaling.
pub trait FeatureSource: Send + Sync {
    /// Number of features produced per configuration.
    fn dims(&self) -> usize;

    /// Write the features of `cfg` into `out` (`out.len() == self.dims()`).
    fn features_into(&self, cfg: &Config, out: &mut [f64]);

    /// The features of one configuration as a fresh vector.
    fn features(&self, cfg: &Config) -> Vec<f64> {
        let mut out = vec![0.0; self.dims()];
        self.features_into(cfg, &mut out);
        out
    }

    /// Extract features for a whole batch in one pass into a single flat
    /// row-major allocation (`configs.len() × dims()`), avoiding the
    /// per-configuration allocation of repeated [`features`](Self::features)
    /// calls.
    fn features_batch(&self, configs: &[Config]) -> Vec<f64> {
        let d = self.dims();
        let mut flat = vec![0.0; configs.len() * d];
        for (cfg, row) in configs.iter().zip(flat.chunks_mut(d.max(1))) {
            self.features_into(cfg, row);
        }
        flat
    }
}

/// The domain-agnostic default feature source: for every space dimension,
/// the linear position inside the parameter box and the log-scale position
/// (both in `[0, 1]`). Captures "small vs large tile" structure without
/// knowing what the parameters mean.
#[derive(Debug, Clone)]
pub struct SpaceFeatures {
    bounds: Vec<(i64, i64)>,
    /// Per-dimension `1 / span` and `1 / log2(span + 1)`, precomputed:
    /// feature extraction sits on the per-batch hot path and must not
    /// re-derive constants per configuration.
    scale: Vec<(f64, f64)>,
}

impl SpaceFeatures {
    /// Feature source for `space` (2 features per dimension).
    pub fn new(space: &ParamSpace) -> Self {
        let bounds = space.full_box();
        let scale = bounds
            .iter()
            .map(|&(lo, hi)| {
                (
                    1.0 / (hi - lo).max(1) as f64,
                    1.0 / (((hi - lo + 1).max(2)) as f64).log2(),
                )
            })
            .collect();
        SpaceFeatures { bounds, scale }
    }
}

impl FeatureSource for SpaceFeatures {
    fn dims(&self) -> usize {
        2 * self.bounds.len()
    }

    fn features_into(&self, cfg: &Config, out: &mut [f64]) {
        for (i, (&(lo, hi), &(inv_span, inv_log))) in
            self.bounds.iter().zip(&self.scale).enumerate()
        {
            let v = cfg.get(i).copied().unwrap_or(lo).clamp(lo, hi);
            out[2 * i] = (v - lo) as f64 * inv_span;
            out[2 * i + 1] = ((v - lo + 1) as f64).log2() * inv_log;
        }
    }
}

/// Canonical total order over samples: feature vector lexicographically
/// (`total_cmp`), then objectives. Keeping the canonical index sorted
/// under this order makes the model a pure function of the sample *set*.
/// Operates on raw row slices so duplicate probes allocate nothing.
fn sample_cmp_parts(
    a_feats: &[f64],
    a_objs: &[f64],
    feats: &[f64],
    objs: &[f64],
) -> std::cmp::Ordering {
    // Manual early-exit loops: this comparator runs O(log n) times per
    // observation on the per-batch hot path, and nearly every comparison
    // is decided on the first feature.
    for (x, y) in a_feats.iter().zip(feats) {
        let o = x.total_cmp(y);
        if o.is_ne() {
            return o;
        }
    }
    for (x, y) in a_objs.iter().zip(objs) {
        let o = x.total_cmp(y);
        if o.is_ne() {
            return o;
        }
    }
    std::cmp::Ordering::Equal
}

/// Solved model state, recomputed from the sorted sample store whenever it
/// changes (so floating-point accumulation order never depends on
/// observation order).
#[derive(Debug, Clone)]
struct Fitted {
    /// Ridge weights per objective (`dims + 1` with trailing bias), or
    /// `None` when the normal equations were singular (k-NN only).
    weights: Option<Vec<Vec<f64>>>,
    /// Per-objective observed minima (for score normalization).
    obj_lo: Vec<f64>,
    /// Per-objective observed maxima.
    obj_hi: Vec<f64>,
}

/// Ridge-regression / k-NN blend over engineered features, one output per
/// objective. No external dependencies: the ridge system is solved by
/// Gaussian elimination, neighbours by exhaustive scan (sample store is
/// capped).
///
/// The model is **order-independent**: predictions depend only on the set
/// of observed `(features, objectives)` samples, never on the order they
/// arrived in. This is what makes priming from a sorted evaluation-cache
/// snapshot (resume, warm start) exact.
#[derive(Debug, Clone)]
pub struct Surrogate {
    dims: usize,
    num_objectives: usize,
    lambda: f64,
    knn: usize,
    blend: f64,
    cap: usize,
    /// Feature rows (`len × dims`, row-major) in arrival order —
    /// append-only (except cap eviction), so observations never allocate
    /// per sample or shift rows around.
    feats: Vec<f64>,
    /// Objective rows (`len × num_objectives`, row-major), aligned with
    /// `feats`.
    objs: Vec<f64>,
    /// Canonical ([`sample_cmp_parts`]) order over the merged rows:
    /// everything order-sensitive (ridge accumulation, k-NN tie-breaks)
    /// iterates this index, which keeps the model a pure function of the
    /// sample set.
    order: Vec<u32>,
    /// Rows observed since the last fit, not yet merged into `order`.
    /// Observation only appends here (no per-sample sorted insert); the
    /// merge is deferred to [`refresh`](Self::refresh), so a screen that
    /// never consults the model (ratio 1.0) never pays for sorting.
    pending: Vec<u32>,
    /// Refcounted sample hashes for O(1) duplicate rejection. A hash hit
    /// still confirms against the actual rows, so collisions cannot drop
    /// a genuinely new sample. Keys are already FNV-mixed, so the map
    /// skips the default SipHash pass.
    seen: HashMap<u64, u32, BuildMixedHasher>,
    fitted: Option<Fitted>,
}

/// Pass-through [`Hasher`](std::hash::Hasher) for keys that are already
/// uniformly mixed (the [`sample_hash`] FNV values).
#[derive(Clone, Debug, Default)]
struct MixedHasher(u64);

impl std::hash::Hasher for MixedHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("only u64 keys are hashed");
    }

    fn write_u64(&mut self, i: u64) {
        self.0 = i;
    }
}

type BuildMixedHasher = std::hash::BuildHasherDefault<MixedHasher>;

/// Word-level FNV-1a over the exact bit patterns of a sample. Distinct bit
/// patterns hash as distinct samples, matching [`sample_cmp_parts`]'s
/// `total_cmp` semantics (NaNs never reach the store).
fn sample_hash(feats: &[f64], objs: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in feats.iter().chain(objs) {
        h ^= v.to_bits();
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl Surrogate {
    /// Default sample-store capacity.
    pub const DEFAULT_CAP: usize = 4096;

    /// New empty model over `dims` features and `num_objectives` outputs.
    pub fn new(dims: usize, num_objectives: usize) -> Self {
        Surrogate {
            dims,
            num_objectives,
            lambda: 1e-3,
            knn: 8,
            blend: 0.5,
            cap: Self::DEFAULT_CAP,
            feats: Vec::new(),
            objs: Vec::new(),
            order: Vec::new(),
            pending: Vec::new(),
            seen: HashMap::default(),
            fitted: None,
        }
    }

    /// Feature dimensionality.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Number of retained training samples.
    pub fn len(&self) -> usize {
        self.order.len() + self.pending.len()
    }

    /// True when no samples have been observed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Minimum samples before the model ranks candidates (below this,
    /// screening forwards everything).
    pub fn min_train(&self) -> usize {
        self.dims + 2
    }

    /// True once enough samples are stored to rank candidates.
    pub fn ready(&self) -> bool {
        self.len() >= self.min_train()
    }

    /// Feature row of stored sample `i` (arrival index).
    #[inline]
    fn feat_row(&self, i: usize) -> &[f64] {
        &self.feats[i * self.dims..(i + 1) * self.dims]
    }

    /// Objective row of stored sample `i` (arrival index).
    #[inline]
    fn obj_row(&self, i: usize) -> &[f64] {
        &self.objs[i * self.num_objectives..(i + 1) * self.num_objectives]
    }

    /// Observe one measurement. Returns `false` (and stores nothing) for
    /// arity mismatches, non-finite values, exact duplicates, and samples
    /// beyond the capacity cut (the retained set is always the `cap`
    /// canonically-smallest samples, which keeps retention
    /// order-independent too).
    pub fn observe(&mut self, feats: &[f64], objs: &[f64]) -> bool {
        if feats.len() != self.dims || objs.len() != self.num_objectives {
            return false;
        }
        if !feats.iter().chain(objs).all(|v| v.is_finite()) {
            return false;
        }
        let hash = sample_hash(feats, objs);
        if self.seen.contains_key(&hash) {
            // Probable duplicate — confirm against the actual rows (a hash
            // collision must not drop a genuinely new sample). Merging
            // first keeps the confirmation a single binary search; each
            // row merges at most once, so a duplicate-heavy stream never
            // pays more than the eager per-observe insertion scheme did.
            self.flush_pending();
            let sorted_hit = self
                .order
                .binary_search_by(|&i| {
                    sample_cmp_parts(
                        self.feat_row(i as usize),
                        self.obj_row(i as usize),
                        feats,
                        objs,
                    )
                })
                .is_ok();
            if sorted_hit {
                return false;
            }
        }
        if self.len() >= self.cap {
            // At capacity the cut position decides admission, so the
            // canonical order must be current: merge, then insert sorted
            // and evict the canonically largest.
            self.flush_pending();
            let pos = match self.order.binary_search_by(|&i| {
                sample_cmp_parts(
                    self.feat_row(i as usize),
                    self.obj_row(i as usize),
                    feats,
                    objs,
                )
            }) {
                Ok(_) => return false,
                Err(pos) => pos,
            };
            if pos >= self.cap {
                return false;
            }
            self.feats.extend_from_slice(feats);
            self.objs.extend_from_slice(objs);
            self.order.insert(pos, (self.order.len()) as u32);
            *self.seen.entry(hash).or_insert(0) += 1;
            // Evict the canonically largest sample (never the one just
            // inserted: its position was checked against the cap above):
            // move the last stored rows into the victim's slot and patch
            // its canonical index entry.
            let victim = self.order.pop().expect("order non-empty") as usize;
            let vhash = sample_hash(self.feat_row(victim), self.obj_row(victim));
            if let Some(n) = self.seen.get_mut(&vhash) {
                *n -= 1;
                if *n == 0 {
                    self.seen.remove(&vhash);
                }
            }
            let moved = self.order.len();
            if victim != moved {
                let (d, m) = (self.dims, self.num_objectives);
                self.feats
                    .copy_within(moved * d..(moved + 1) * d, victim * d);
                self.objs
                    .copy_within(moved * m..(moved + 1) * m, victim * m);
                for o in self.order.iter_mut() {
                    if *o as usize == moved {
                        *o = victim as u32;
                        break;
                    }
                }
            }
            self.feats.truncate(moved * self.dims);
            self.objs.truncate(moved * self.num_objectives);
        } else {
            // Below capacity observation is append-only: the canonical
            // merge is deferred to the next model read.
            let row = self.len() as u32;
            self.feats.extend_from_slice(feats);
            self.objs.extend_from_slice(objs);
            self.pending.push(row);
            *self.seen.entry(hash).or_insert(0) += 1;
        }
        self.fitted = None;
        true
    }

    /// Merge pending rows into the canonical order. The result is the
    /// unique sorted permutation of the sample set (pending rows are never
    /// duplicates), so model state stays independent of observation order.
    fn flush_pending(&mut self) {
        for k in 0..self.pending.len() {
            let row = self.pending[k];
            let pos = self
                .order
                .binary_search_by(|&i| {
                    sample_cmp_parts(
                        self.feat_row(i as usize),
                        self.obj_row(i as usize),
                        self.feat_row(row as usize),
                        self.obj_row(row as usize),
                    )
                })
                .expect_err("pending rows are never duplicates");
            self.order.insert(pos, row);
        }
        self.pending.clear();
    }

    /// Refit from the (sorted) sample store if anything changed.
    fn refresh(&mut self) {
        if self.fitted.is_some() {
            return;
        }
        self.flush_pending();
        let m = self.num_objectives;
        let mut obj_lo = vec![f64::INFINITY; m];
        let mut obj_hi = vec![f64::NEG_INFINITY; m];
        for row in self.objs.chunks_exact(m.max(1)) {
            for j in 0..m {
                obj_lo[j] = obj_lo[j].min(row[j]);
                obj_hi[j] = obj_hi[j].max(row[j]);
            }
        }
        let weights = self.fit_ridge();
        self.fitted = Some(Fitted {
            weights,
            obj_lo,
            obj_hi,
        });
    }

    /// Assemble and solve the ridge normal equations from the sample
    /// store. Iterating the canonical index fixes the floating-point
    /// accumulation order regardless of observation order.
    fn fit_ridge(&self) -> Option<Vec<Vec<f64>>> {
        let d = self.dims + 1; // trailing bias column
        if self.order.len() < 2 {
            return None;
        }
        let mut gram = vec![0.0; d * d];
        let mut rhs = vec![vec![0.0; d]; self.num_objectives];
        let mut row = vec![0.0; d];
        for &idx in &self.order {
            row[..self.dims].copy_from_slice(self.feat_row(idx as usize));
            row[self.dims] = 1.0;
            let objs = self.obj_row(idx as usize);
            for i in 0..d {
                for j in 0..d {
                    gram[i * d + j] += row[i] * row[j];
                }
            }
            for (j, r) in rhs.iter_mut().enumerate() {
                for (i, ri) in r.iter_mut().enumerate() {
                    *ri += row[i] * objs[j];
                }
            }
        }
        for i in 0..d {
            gram[i * d + i] += self.lambda;
        }
        let mut weights = Vec::with_capacity(self.num_objectives);
        for r in &rhs {
            let mut a = gram.clone();
            let mut b = r.clone();
            if !solve_linear(&mut a, &mut b, d) {
                return None;
            }
            weights.push(b);
        }
        Some(weights)
    }

    /// Predict the objectives of a feature vector into `out`.
    pub fn predict_into(&mut self, feats: &[f64], out: &mut [f64]) {
        self.refresh();
        let fitted = self.fitted.as_ref().expect("refreshed");
        let knn = self.knn_predict(feats);
        for j in 0..self.num_objectives {
            let ridge = fitted.weights.as_ref().map(|w| {
                let wj = &w[j];
                let mut y = wj[self.dims];
                for (i, f) in feats.iter().enumerate() {
                    y += wj[i] * f;
                }
                y
            });
            out[j] = match (ridge, knn.as_ref()) {
                (Some(r), Some(k)) => self.blend * r + (1.0 - self.blend) * k[j],
                (Some(r), None) => r,
                (None, Some(k)) => k[j],
                (None, None) => 0.0,
            };
        }
    }

    /// Predict the objectives of a feature vector as a fresh vector.
    /// `None` until at least one sample has been observed.
    pub fn predict(&mut self, feats: &[f64]) -> Option<ObjVec> {
        if self.is_empty() {
            return None;
        }
        let mut out = vec![0.0; self.num_objectives];
        self.predict_into(feats, &mut out);
        Some(out)
    }

    /// Distance-weighted k-NN prediction over the sample store. Iteration
    /// and distance ties both follow the canonical index, so the neighbour
    /// set (and the blend below) is order-independent too.
    fn knn_predict(&self, feats: &[f64]) -> Option<ObjVec> {
        debug_assert!(self.pending.is_empty(), "read before refresh");
        if self.is_empty() {
            return None;
        }
        // (distance², canonical rank, store index)
        let mut nearest: Vec<(f64, usize, u32)> = Vec::with_capacity(self.knn + 1);
        for (rank, &idx) in self.order.iter().enumerate() {
            let d2: f64 = self
                .feat_row(idx as usize)
                .iter()
                .zip(feats)
                .map(|(a, b)| (a - b) * (a - b))
                .sum();
            nearest.push((d2, rank, idx));
            nearest.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            nearest.truncate(self.knn);
        }
        let mut out = vec![0.0; self.num_objectives];
        let mut wsum = 0.0;
        for &(d2, _, idx) in &nearest {
            let w = 1.0 / (d2 + 1e-12);
            wsum += w;
            for (o, y) in out.iter_mut().zip(self.obj_row(idx as usize)) {
                *o += w * y;
            }
        }
        for o in &mut out {
            *o /= wsum;
        }
        Some(out)
    }

    /// Scalar ranking score of a feature vector: mean of the predicted
    /// objectives, each normalized by the observed objective range (all
    /// objectives are minimized, so lower scores are better).
    pub fn score(&mut self, feats: &[f64]) -> f64 {
        let mut pred = vec![0.0; self.num_objectives];
        self.predict_into(feats, &mut pred);
        self.scalarize(&pred)
    }

    /// Normalize measured (or predicted) objectives into the model's
    /// scalar score space. Uses the same bounds as [`score`](Self::score),
    /// so predicted and actual scores are directly comparable.
    pub fn scalarize(&mut self, objs: &[f64]) -> f64 {
        self.refresh();
        let fitted = self.fitted.as_ref().expect("refreshed");
        let mut sum = 0.0;
        for (j, y) in objs.iter().enumerate() {
            let (lo, hi) = (fitted.obj_lo[j], fitted.obj_hi[j]);
            sum += if hi > lo { (y - lo) / (hi - lo) } else { 0.5 };
        }
        sum / objs.len().max(1) as f64
    }
}

/// Gaussian elimination with partial pivoting on an `n × n` row-major
/// system. Returns `false` on a (near-)singular pivot.
fn solve_linear(a: &mut [f64], b: &mut [f64], n: usize) -> bool {
    for col in 0..n {
        let mut pivot = col;
        for r in col + 1..n {
            if a[r * n + col].abs() > a[pivot * n + col].abs() {
                pivot = r;
            }
        }
        if a[pivot * n + col].abs() < 1e-12 {
            return false;
        }
        if pivot != col {
            for c in 0..n {
                a.swap(col * n + c, pivot * n + c);
            }
            b.swap(col, pivot);
        }
        let p = a[col * n + col];
        for r in col + 1..n {
            let f = a[r * n + col] / p;
            if f == 0.0 {
                continue;
            }
            for c in col..n {
                a[r * n + c] -= f * a[col * n + c];
            }
            b[r] -= f * b[col];
        }
    }
    for col in (0..n).rev() {
        let mut y = b[col];
        for c in col + 1..n {
            y -= a[col * n + c] * b[c];
        }
        b[col] = y / a[col * n + col];
    }
    true
}

/// FNV-1a hash of a seed and a configuration — the deterministic coin for
/// ε-exploration picks. Depends only on `(seed, config)`, never on thread
/// or batch position, which is what makes exploration parallelism- and
/// schedule-invariant.
pub fn config_hash(seed: u64, cfg: &Config) -> u64 {
    let seeded = moat_obs::fnv1a(moat_obs::FNV_OFFSET, &seed.to_le_bytes());
    cfg.iter()
        .fold(seeded, |h, v| moat_obs::fnv1a(h, &v.to_le_bytes()))
}

/// Screening knobs: how much of a batch survives, and how much is explored
/// regardless of the model's opinion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScreeningPolicy {
    /// Fraction of each batch's fresh candidates forwarded to the real
    /// evaluator, in `(0, 1]`. `1.0` forwards everything (screening
    /// becomes a no-op with identical results).
    pub screen_ratio: f64,
    /// ε-exploration: a screened-out candidate is forwarded anyway when
    /// its deterministic [`config_hash`] coin lands below this fraction.
    pub explore: f64,
    /// Seed of the exploration coin.
    pub seed: u64,
}

impl Default for ScreeningPolicy {
    fn default() -> Self {
        ScreeningPolicy {
            screen_ratio: 0.5,
            explore: 0.1,
            seed: 0x5eed,
        }
    }
}

impl ScreeningPolicy {
    /// True when the ratio forwards every candidate.
    pub fn forwards_everything(&self) -> bool {
        self.screen_ratio >= 1.0
    }

    /// How many of `n` fresh candidates the ratio admits (at least one
    /// whenever the batch is non-empty: a screen that starves the search
    /// entirely would stall every strategy).
    pub fn forward_count(&self, n: usize) -> usize {
        if n == 0 {
            return 0;
        }
        ((self.screen_ratio.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n)
    }

    /// The deterministic exploration coin for one configuration.
    pub fn explore_pick(&self, cfg: &Config) -> bool {
        self.explore > 0.0
            && (config_hash(self.seed, cfg) as f64) < self.explore * (u64::MAX as f64)
    }
}

/// Running counters of a screening surrogate's activity and accuracy.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SurrogateStats {
    /// Configurations the strategies requested through screened batches.
    pub requested: u64,
    /// Configurations forwarded to the real evaluator.
    pub forwarded: u64,
    /// Configurations withheld (never evaluated, no budget consumed).
    pub screened: u64,
    /// Forwarded configurations owed to the ε-exploration coin.
    pub explored: u64,
    /// Real measurements fed back into the model.
    pub observed: u64,
    /// Scored-and-then-measured samples (model-error denominators).
    pub err_samples: u64,
    /// Sum of `|predicted − actual|` normalized scores over `err_samples`.
    pub abs_err_sum: f64,
    /// Sum of per-batch Spearman rank correlations.
    pub rank_corr_sum: f64,
    /// Batches contributing to `rank_corr_sum`.
    pub rank_corr_batches: u64,
}

impl SurrogateStats {
    /// Mean absolute model error in normalized-score percent.
    pub fn mae_pct(&self) -> f64 {
        if self.err_samples == 0 {
            return 0.0;
        }
        100.0 * self.abs_err_sum / self.err_samples as f64
    }

    /// Mean per-batch Spearman rank correlation between predicted and
    /// measured scores (1.0 = perfect ranking).
    pub fn mean_rank_corr(&self) -> f64 {
        if self.rank_corr_batches == 0 {
            return 0.0;
        }
        self.rank_corr_sum / self.rank_corr_batches as f64
    }
}

/// Spearman rank correlation of `(predicted, actual)` pairs, with average
/// ranks for ties. Returns `None` for fewer than two pairs or degenerate
/// (all-tied) columns.
pub fn spearman(pairs: &[(f64, f64)]) -> Option<f64> {
    if pairs.len() < 2 {
        return None;
    }
    let xr = ranks(pairs.iter().map(|p| p.0));
    let yr = ranks(pairs.iter().map(|p| p.1));
    let n = pairs.len() as f64;
    let mean = (n + 1.0) / 2.0;
    let (mut cov, mut vx, mut vy) = (0.0, 0.0, 0.0);
    for (x, y) in xr.iter().zip(&yr) {
        cov += (x - mean) * (y - mean);
        vx += (x - mean) * (x - mean);
        vy += (y - mean) * (y - mean);
    }
    if vx <= 0.0 || vy <= 0.0 {
        return None;
    }
    Some(cov / (vx * vy).sqrt())
}

/// Average ranks (1-based) of a value sequence, ties averaged.
fn ranks(values: impl Iterator<Item = f64>) -> Vec<f64> {
    let vals: Vec<f64> = values.collect();
    let mut order: Vec<usize> = (0..vals.len()).collect();
    order.sort_by(|&a, &b| vals[a].total_cmp(&vals[b]).then(a.cmp(&b)));
    let mut out = vec![0.0; vals.len()];
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len() && vals[order[j + 1]] == vals[order[i]] {
            j += 1;
        }
        let rank = (i + j) as f64 / 2.0 + 1.0;
        for &idx in &order[i..=j] {
            out[idx] = rank;
        }
        i = j + 1;
    }
    out
}

/// One batch's screening decision, produced by [`SurrogateScreen::plan`].
#[derive(Debug, Clone)]
pub struct ScreenPlan {
    /// Per-index verdict: `true` = forward to the real evaluator.
    pub keep: Vec<bool>,
    /// Forwarded indices owed to the exploration coin.
    pub explored: usize,
    /// Predicted normalized score per index (`None` when the model was not
    /// ready to rank, or the index was force-kept as a cache hit).
    pub scores: Vec<Option<f64>>,
    /// Flat row-major feature matrix of the batch (reused for the
    /// post-evaluation model update — one extraction pass per batch).
    feats: Vec<f64>,
}

/// Per-batch model-error summary, derived after the real measurements of a
/// screened batch arrive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchError {
    /// Scored-and-measured samples in the batch.
    pub samples: usize,
    /// Mean `|predicted − actual|` normalized score, percent.
    pub mae_pct: f64,
    /// Spearman rank correlation of predicted vs measured scores (`None`
    /// below two samples or with degenerate ranks).
    pub rank_corr: Option<f64>,
}

/// The batch-level screening state owned by a
/// [`TuningSession`](crate::tuner::TuningSession): feature source, online
/// model, policy and running statistics.
pub struct SurrogateScreen {
    features: Box<dyn FeatureSource>,
    model: Surrogate,
    policy: ScreeningPolicy,
    stats: SurrogateStats,
}

impl std::fmt::Debug for SurrogateScreen {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SurrogateScreen")
            .field("dims", &self.model.dims())
            .field("samples", &self.model.len())
            .field("policy", &self.policy)
            .field("stats", &self.stats)
            .finish()
    }
}

impl SurrogateScreen {
    /// New screen. The model's feature dimensionality must match the
    /// source's.
    pub fn new(
        features: Box<dyn FeatureSource>,
        model: Surrogate,
        policy: ScreeningPolicy,
    ) -> Self {
        assert_eq!(
            features.dims(),
            model.dims(),
            "feature source and surrogate dimensionality must agree"
        );
        SurrogateScreen {
            features,
            model,
            policy,
            stats: SurrogateStats::default(),
        }
    }

    /// Convenience constructor: a fresh model over `space`'s default
    /// [`SpaceFeatures`].
    pub fn for_space(space: &ParamSpace, num_objectives: usize, policy: ScreeningPolicy) -> Self {
        let features = SpaceFeatures::new(space);
        let model = Surrogate::new(features.dims(), num_objectives);
        SurrogateScreen::new(Box::new(features), model, policy)
    }

    /// The screening policy.
    pub fn policy(&self) -> &ScreeningPolicy {
        &self.policy
    }

    /// The running statistics.
    pub fn stats(&self) -> &SurrogateStats {
        &self.stats
    }

    /// The online model.
    pub fn model(&self) -> &Surrogate {
        &self.model
    }

    /// Feed one `(config, objectives)` measurement into the model (used
    /// for archive priming and cache-snapshot replay).
    pub fn prime(&mut self, cfg: &Config, objs: &[f64]) -> bool {
        let feats = self.features.features(cfg);
        self.model.observe(&feats, objs)
    }

    /// Decide which batch members to forward. `cached` reports whether a
    /// configuration is already served free of charge from the evaluation
    /// cache — cache hits are always forwarded (they cost nothing and
    /// their results refine the model).
    ///
    /// The verdict for every index is computed here, on the caller's
    /// (control) thread, before any evaluation is dispatched — never
    /// inside evaluation workers.
    pub fn plan(&mut self, configs: &[Config], cached: impl Fn(&Config) -> bool) -> ScreenPlan {
        let n = configs.len();
        let feats = self.features.features_batch(configs);
        let d = self.model.dims().max(1);
        let mut keep = vec![true; n];
        let mut scores = vec![None; n];
        let mut explored = 0usize;
        if self.model.ready() && !self.policy.forwards_everything() {
            let mut candidates: Vec<usize> = Vec::with_capacity(n);
            for (i, cfg) in configs.iter().enumerate() {
                let score = self.model.score(&feats[i * d..(i + 1) * d]);
                if cached(cfg) {
                    // Cache hit: free, always forwarded, never scored
                    // against the model (nothing to save).
                    continue;
                }
                scores[i] = Some(score);
                candidates.push(i);
            }
            let k = self.policy.forward_count(candidates.len());
            let mut ranked = candidates.clone();
            ranked.sort_by(|&a, &b| {
                scores[a]
                    .unwrap_or(f64::INFINITY)
                    .total_cmp(&scores[b].unwrap_or(f64::INFINITY))
                    .then(a.cmp(&b))
            });
            let cut: std::collections::HashSet<usize> = ranked[..k].iter().copied().collect();
            for &i in &candidates {
                if cut.contains(&i) {
                    continue;
                }
                if self.policy.explore_pick(&configs[i]) {
                    explored += 1;
                } else {
                    keep[i] = false;
                }
            }
        }
        let forwarded = keep.iter().filter(|k| **k).count();
        self.stats.requested += n as u64;
        self.stats.forwarded += forwarded as u64;
        self.stats.screened += (n - forwarded) as u64;
        self.stats.explored += explored as u64;
        ScreenPlan {
            keep,
            explored,
            scores,
            feats,
        }
    }

    /// Feed the real measurements of a screened batch back into the model
    /// (in batch order, on the caller's thread) and derive the batch's
    /// model-error summary. `results` is the full scattered result vector
    /// aligned with the batch `plan` was made for.
    pub fn absorb(&mut self, plan: &ScreenPlan, results: &[Option<ObjVec>]) -> Option<BatchError> {
        let d = self.model.dims().max(1);
        let mut pairs: Vec<(f64, f64)> = Vec::new();
        // Error pairs first, against the pre-update model state the
        // predictions came from.
        for (i, result) in results.iter().enumerate() {
            let (Some(objs), Some(pred)) = (result, plan.scores[i]) else {
                continue;
            };
            if !objs.iter().all(|v| v.is_finite()) {
                continue;
            }
            pairs.push((pred, self.model.scalarize(objs)));
        }
        for (i, result) in results.iter().enumerate() {
            if let Some(objs) = result {
                if self.model.observe(&plan.feats[i * d..(i + 1) * d], objs) {
                    self.stats.observed += 1;
                }
            }
        }
        if pairs.is_empty() {
            return None;
        }
        let mae_pct =
            100.0 * pairs.iter().map(|(p, a)| (p - a).abs()).sum::<f64>() / pairs.len() as f64;
        let rank_corr = spearman(&pairs);
        self.stats.err_samples += pairs.len() as u64;
        self.stats.abs_err_sum += pairs.iter().map(|(p, a)| (p - a).abs()).sum::<f64>();
        if let Some(rc) = rank_corr {
            self.stats.rank_corr_sum += rc;
            self.stats.rank_corr_batches += 1;
        }
        Some(BatchError {
            samples: pairs.len(),
            mae_pct,
            rank_corr,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::Domain;

    fn space() -> ParamSpace {
        ParamSpace::new(
            vec!["x".into(), "y".into()],
            vec![
                Domain::Range { lo: 0, hi: 100 },
                Domain::Range { lo: 1, hi: 64 },
            ],
        )
    }

    #[test]
    fn space_features_are_normalized() {
        let f = SpaceFeatures::new(&space());
        assert_eq!(f.dims(), 4);
        let lo = f.features(&vec![0, 1]);
        let hi = f.features(&vec![100, 64]);
        assert!(lo.iter().all(|v| *v == 0.0));
        assert!(hi.iter().all(|v| (*v - 1.0).abs() < 1e-12));
        let mid = f.features(&vec![50, 8]);
        assert!(mid.iter().all(|v| (0.0..=1.0).contains(v)));
    }

    #[test]
    fn features_batch_matches_per_config() {
        let f = SpaceFeatures::new(&space());
        let cfgs: Vec<Config> = vec![vec![3, 4], vec![99, 64], vec![0, 17]];
        let flat = f.features_batch(&cfgs);
        for (i, cfg) in cfgs.iter().enumerate() {
            assert_eq!(&flat[i * 4..(i + 1) * 4], f.features(cfg).as_slice());
        }
    }

    #[test]
    fn ridge_recovers_linear_trend() {
        let f = SpaceFeatures::new(&space());
        let mut model = Surrogate::new(f.dims(), 1);
        for x in (0..=100).step_by(5) {
            for y in [1, 8, 32, 64] {
                let cfg = vec![x, y];
                model.observe(&f.features(&cfg), &[x as f64 + 2.0 * y as f64]);
            }
        }
        assert!(model.ready());
        let mut lo = [0.0];
        let mut hi = [0.0];
        model.predict_into(&f.features(&vec![10, 2]), &mut lo);
        model.predict_into(&f.features(&vec![90, 60]), &mut hi);
        assert!(
            lo[0] < hi[0],
            "model must rank small configs below large ones: {lo:?} vs {hi:?}"
        );
        assert!(model.score(&f.features(&vec![10, 2])) < model.score(&f.features(&vec![90, 60])));
    }

    #[test]
    fn model_is_observation_order_independent() {
        let f = SpaceFeatures::new(&space());
        let samples: Vec<(Config, f64)> = (0..40)
            .map(|i| {
                let cfg = vec![(i * 7) % 101, 1 + (i * 13) % 64];
                let y = (cfg[0] * 3 + cfg[1]) as f64;
                (cfg, y)
            })
            .collect();
        let mut fwd = Surrogate::new(f.dims(), 1);
        for (cfg, y) in &samples {
            fwd.observe(&f.features(cfg), &[*y]);
        }
        let mut rev = Surrogate::new(f.dims(), 1);
        for (cfg, y) in samples.iter().rev() {
            rev.observe(&f.features(cfg), &[*y]);
        }
        let probe = f.features(&vec![42, 23]);
        let (mut a, mut b) = ([0.0], [0.0]);
        fwd.predict_into(&probe, &mut a);
        rev.predict_into(&probe, &mut b);
        assert_eq!(a[0].to_bits(), b[0].to_bits(), "order must not matter");
    }

    #[test]
    fn observe_rejects_junk() {
        let mut model = Surrogate::new(2, 1);
        assert!(!model.observe(&[0.5], &[1.0]), "feature arity");
        assert!(!model.observe(&[0.5, 0.5], &[1.0, 2.0]), "objective arity");
        assert!(!model.observe(&[f64::NAN, 0.5], &[1.0]), "non-finite");
        assert!(
            !model.observe(&[0.5, 0.5], &[f64::INFINITY]),
            "non-finite objective"
        );
        assert!(model.observe(&[0.5, 0.5], &[1.0]));
        assert!(!model.observe(&[0.5, 0.5], &[1.0]), "exact duplicate");
        assert_eq!(model.len(), 1);
    }

    #[test]
    fn policy_counts_and_coin() {
        let p = ScreeningPolicy {
            screen_ratio: 0.5,
            explore: 0.25,
            seed: 9,
        };
        assert_eq!(p.forward_count(0), 0);
        assert_eq!(p.forward_count(1), 1);
        assert_eq!(p.forward_count(10), 5);
        assert_eq!(p.forward_count(11), 6);
        let full = ScreeningPolicy {
            screen_ratio: 1.0,
            ..p
        };
        assert!(full.forwards_everything());
        assert_eq!(full.forward_count(7), 7);
        // The coin is deterministic and seed-sensitive.
        let cfg = vec![17, 4];
        assert_eq!(p.explore_pick(&cfg), p.explore_pick(&cfg));
        let hits = (0..1000).filter(|i| p.explore_pick(&vec![*i, 3])).count() as f64;
        assert!(
            (hits / 1000.0 - 0.25).abs() < 0.1,
            "coin rate far from ε: {hits}"
        );
    }

    #[test]
    fn spearman_basics() {
        assert_eq!(spearman(&[(1.0, 1.0)]), None);
        let perfect: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 10.0 + i as f64)).collect();
        assert!((spearman(&perfect).unwrap() - 1.0).abs() < 1e-12);
        let inverse: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, -(i as f64))).collect();
        assert!((spearman(&inverse).unwrap() + 1.0).abs() < 1e-12);
        let tied: Vec<(f64, f64)> = (0..10).map(|i| (1.0, i as f64)).collect();
        assert_eq!(spearman(&tied), None, "degenerate predictor column");
    }

    #[test]
    fn screen_plan_forwards_everything_until_trained() {
        let sp = space();
        let mut screen = SurrogateScreen::for_space(&sp, 1, ScreeningPolicy::default());
        let cfgs: Vec<Config> = (0..6).map(|i| vec![i * 10, 1 + i]).collect();
        let plan = screen.plan(&cfgs, |_| false);
        assert!(plan.keep.iter().all(|k| *k), "untrained model must not cut");
        assert_eq!(screen.stats().forwarded, 6);
        assert_eq!(screen.stats().screened, 0);
    }

    #[test]
    fn screen_plan_cuts_and_absorb_tracks_error() {
        let sp = space();
        let mut screen = SurrogateScreen::for_space(
            &sp,
            1,
            ScreeningPolicy {
                screen_ratio: 0.5,
                explore: 0.0,
                seed: 1,
            },
        );
        // Train on a smooth objective so the model ranks confidently.
        for x in (0..=100).step_by(10) {
            for y in [1, 16, 64] {
                let cfg = vec![x, y];
                screen.prime(&cfg, &[(x + y) as f64]);
            }
        }
        assert!(screen.model().ready());
        // Offset from the training grid so no batch member duplicates a
        // primed sample (duplicates are deduped, not re-observed).
        let cfgs: Vec<Config> = (0..8).map(|i| vec![i * 12 + 3, 2 + i * 7]).collect();
        let plan = screen.plan(&cfgs, |_| false);
        let kept = plan.keep.iter().filter(|k| **k).count();
        assert_eq!(kept, 4, "ratio 0.5 over 8 candidates keeps 4");
        // Simulate real measurements for the kept ones.
        let results: Vec<Option<ObjVec>> = cfgs
            .iter()
            .zip(&plan.keep)
            .map(|(cfg, keep)| keep.then(|| vec![(cfg[0] + cfg[1]) as f64]))
            .collect();
        let err = screen.absorb(&plan, &results).expect("scored samples");
        assert_eq!(err.samples, 4);
        assert!(err.rank_corr.unwrap_or(0.0) > 0.5, "ranking should hold");
        assert_eq!(screen.stats().observed, 4);
    }
}
