//! Deterministic pseudo-measurement noise.
//!
//! Real auto-tuners measure wall time, which is noisy; the paper evaluates
//! every configuration multiple times and uses the median. To emulate this
//! faithfully *and* reproducibly, the cost model perturbs its analytic time
//! with a multiplicative factor derived from a hash of (seed, configuration,
//! run index). Taking the median over `runs` draws then behaves like the
//! paper's measurement protocol while staying bit-for-bit deterministic.

use moat_ir::shape::with_scratch;
use serde::{Deserialize, Serialize};

/// Multiplicative noise description.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NoiseModel {
    /// Base seed; different seeds give independent "experiment days".
    pub seed: u64,
    /// Maximum relative amplitude (e.g. `0.015` = ±1.5%).
    pub amplitude: f64,
    /// Number of simulated repetitions, of which the median is taken.
    pub runs: u32,
}

impl Default for NoiseModel {
    fn default() -> Self {
        NoiseModel {
            seed: 0xC0FFEE,
            amplitude: 0.015,
            runs: 3,
        }
    }
}

impl NoiseModel {
    /// SplitMix64 — small, fast, well-distributed hash/PRNG step.
    fn splitmix(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9E3779B97F4A7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
        x ^ (x >> 31)
    }

    /// One noise factor in `[1 - amplitude, 1 + amplitude]` for the given
    /// configuration key and run index.
    pub fn factor(&self, key: u64, run: u32) -> f64 {
        let h = Self::splitmix(self.seed ^ Self::splitmix(key) ^ ((run as u64) << 32 | 0x5bd1e995));
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        1.0 + self.amplitude * (2.0 * unit - 1.0)
    }

    /// Median of `runs` noisy samples of `base`.
    pub fn median_time(&self, key: u64, base: f64) -> f64 {
        let runs = self.runs.max(1);
        // Up to 8 repetitions are drawn on the stack.
        with_scratch::<_, 8, _>(runs as usize, 0.0f64, |samples| {
            for (r, sample) in (0..runs).zip(samples.iter_mut()) {
                *sample = base * self.factor(key, r);
            }
            samples.sort_unstable_by(|a, b| a.partial_cmp(b).expect("NaN in noise samples"));
            samples[samples.len() / 2]
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let n = NoiseModel::default();
        assert_eq!(n.factor(42, 0), n.factor(42, 0));
        assert_eq!(n.median_time(7, 1.0), n.median_time(7, 1.0));
    }

    #[test]
    fn bounded_amplitude() {
        let n = NoiseModel {
            seed: 1,
            amplitude: 0.02,
            runs: 5,
        };
        for key in 0..200u64 {
            for run in 0..5 {
                let f = n.factor(key, run);
                assert!((0.98..=1.02).contains(&f), "factor {f} out of bounds");
            }
        }
    }

    #[test]
    fn different_keys_differ() {
        let n = NoiseModel::default();
        let a = n.factor(1, 0);
        let b = n.factor(2, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn median_scales_linearly() {
        let n = NoiseModel::default();
        let m1 = n.median_time(9, 1.0);
        let m2 = n.median_time(9, 10.0);
        assert!((m2 / m1 - 10.0).abs() < 1e-9);
    }

    #[test]
    fn noise_roughly_centered() {
        let n = NoiseModel {
            seed: 3,
            amplitude: 0.05,
            runs: 1,
        };
        let mean: f64 = (0..10_000).map(|k| n.factor(k, 0)).sum::<f64>() / 10_000.0;
        assert!(
            (mean - 1.0).abs() < 0.005,
            "mean factor {mean} not centered"
        );
    }
}
