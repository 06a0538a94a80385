//! Affine expressions over loop induction variables.
//!
//! An [`AffineExpr`] has the form `c0 + c1*v1 + c2*v2 + ...` where the `vi`
//! are loop induction variables identified by [`VarId`]. Affine expressions
//! are the index language of the IR: every array subscript and every loop
//! bound is affine, which is what makes exact dependence testing and
//! footprint analysis tractable.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Identifier of a loop induction variable.
///
/// Variables are created by [`crate::nest::LoopNest`] builders; the numeric
/// value is an index into the nest's loop list *at creation time* (transforms
/// may reorder loops, the id stays stable).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct VarId(pub u32);

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// An affine expression `constant + Σ coeff_i * var_i`.
///
/// Internally the terms are kept sorted by [`VarId`] so that structural
/// equality and hashing behave as mathematical equality (zero-coefficient
/// terms are never stored).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct AffineExpr {
    terms: Terms,
    constant: i64,
}

/// The terms of an [`AffineExpr`]: `(variable, coefficient)` pairs,
/// ascending by variable, in one flat list. Serialized, hashed and
/// printed exactly as the `BTreeMap<VarId, i64>` it stands for — a
/// length, then each pair in ascending order — so every JSON byte and
/// every hash of an expression is that of the map form.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
struct Terms(Vec<(VarId, i64)>);

impl Terms {
    fn position(&self, v: VarId) -> Result<usize, usize> {
        self.0.binary_search_by_key(&v, |&(w, _)| w)
    }
}

impl fmt::Debug for Terms {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.0.iter().map(|(v, c)| (v, c)))
            .finish()
    }
}

impl Serialize for Terms {
    fn to_value(&self) -> serde::Value {
        let map: BTreeMap<VarId, i64> = self.0.iter().copied().collect();
        map.to_value()
    }
}

impl Deserialize for Terms {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let map = BTreeMap::<VarId, i64>::from_value(v)?;
        Ok(Terms(map.into_iter().collect()))
    }
}

impl AffineExpr {
    /// The constant expression `c`.
    pub fn constant(c: i64) -> Self {
        AffineExpr {
            terms: Terms::default(),
            constant: c,
        }
    }

    /// The expression consisting of a single variable `v` (coefficient 1).
    pub fn var(v: VarId) -> Self {
        Self::term(v, 1)
    }

    /// The expression `coeff * v`.
    pub fn term(v: VarId, coeff: i64) -> Self {
        let terms = if coeff != 0 {
            vec![(v, coeff)]
        } else {
            Vec::new()
        };
        AffineExpr {
            terms: Terms(terms),
            constant: 0,
        }
    }

    /// The constant part of the expression.
    pub fn constant_part(&self) -> i64 {
        self.constant
    }

    /// Iterator over `(variable, coefficient)` pairs with non-zero
    /// coefficients, in ascending variable order.
    pub fn terms(&self) -> impl Iterator<Item = (VarId, i64)> + '_ {
        self.terms.0.iter().copied()
    }

    /// Coefficient of variable `v` (zero if absent).
    pub fn coeff(&self, v: VarId) -> i64 {
        self.terms.position(v).map_or(0, |i| self.terms.0[i].1)
    }

    /// True if the expression is a constant (has no variable terms).
    pub fn is_constant(&self) -> bool {
        self.terms.0.is_empty()
    }

    /// Number of distinct variables with non-zero coefficient.
    pub fn num_vars(&self) -> usize {
        self.terms.0.len()
    }

    /// Add another affine expression.
    pub fn add(&self, other: &AffineExpr) -> AffineExpr {
        let mut out = self.clone();
        out.constant += other.constant;
        for (v, c) in other.terms() {
            match out.terms.position(v) {
                Ok(i) => {
                    out.terms.0[i].1 += c;
                    if out.terms.0[i].1 == 0 {
                        out.terms.0.remove(i);
                    }
                }
                Err(i) if c != 0 => out.terms.0.insert(i, (v, c)),
                Err(_) => {}
            }
        }
        out
    }

    /// Subtract another affine expression.
    pub fn sub(&self, other: &AffineExpr) -> AffineExpr {
        self.add(&other.scale(-1))
    }

    /// Multiply all coefficients and the constant by `k`.
    pub fn scale(&self, k: i64) -> AffineExpr {
        if k == 0 {
            return AffineExpr::constant(0);
        }
        AffineExpr {
            terms: Terms(self.terms().map(|(v, c)| (v, c * k)).collect()),
            constant: self.constant * k,
        }
    }

    /// Add a constant offset.
    pub fn offset(&self, k: i64) -> AffineExpr {
        let mut out = self.clone();
        out.constant += k;
        out
    }

    /// Evaluate the expression given an environment mapping variables to
    /// values. Variables missing from the environment evaluate to 0.
    pub fn eval(&self, env: &dyn Fn(VarId) -> i64) -> i64 {
        self.constant + self.terms().map(|(v, c)| c * env(v)).sum::<i64>()
    }

    /// Substitute variable `v` by the expression `repl`.
    pub fn substitute(&self, v: VarId, repl: &AffineExpr) -> AffineExpr {
        let Ok(i) = self.terms.position(v) else {
            return self.clone();
        };
        let c = self.terms.0[i].1;
        if c == 0 {
            return self.clone();
        }
        let mut out = self.clone();
        out.terms.0.remove(i);
        out.add(&repl.scale(c))
    }

    /// Rename variable `from` to `to` (coefficients are merged if `to`
    /// already occurs).
    pub fn rename(&self, from: VarId, to: VarId) -> AffineExpr {
        self.substitute(from, &AffineExpr::var(to))
    }

    /// Range `(min, max)` of the expression when each variable `v` ranges
    /// over the closed interval given by `bounds(v) = (lo, hi)`.
    pub fn range(&self, bounds: &dyn Fn(VarId) -> (i64, i64)) -> (i64, i64) {
        let mut lo = self.constant;
        let mut hi = self.constant;
        for (v, c) in self.terms() {
            let (vlo, vhi) = bounds(v);
            if c >= 0 {
                lo += c * vlo;
                hi += c * vhi;
            } else {
                lo += c * vhi;
                hi += c * vlo;
            }
        }
        (lo, hi)
    }
}

/// Greatest common divisor (non-negative; `gcd(0, 0) == 0`).
pub fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl fmt::Display for AffineExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (v, c) in self.terms() {
            if first {
                if c == 1 {
                    write!(f, "{v}")?;
                } else if c == -1 {
                    write!(f, "-{v}")?;
                } else {
                    write!(f, "{c}*{v}")?;
                }
                first = false;
            } else if c >= 0 {
                if c == 1 {
                    write!(f, " + {v}")?;
                } else {
                    write!(f, " + {c}*{v}")?;
                }
            } else if c == -1 {
                write!(f, " - {v}")?;
            } else {
                write!(f, " - {}*{v}", -c)?;
            }
        }
        if first {
            write!(f, "{}", self.constant)?;
        } else if self.constant > 0 {
            write!(f, " + {}", self.constant)?;
        } else if self.constant < 0 {
            write!(f, " - {}", -self.constant)?;
        }
        Ok(())
    }
}

impl From<i64> for AffineExpr {
    fn from(c: i64) -> Self {
        AffineExpr::constant(c)
    }
}

impl From<VarId> for AffineExpr {
    fn from(v: VarId) -> Self {
        AffineExpr::var(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> VarId {
        VarId(i)
    }

    #[test]
    fn constant_roundtrip() {
        let e = AffineExpr::constant(42);
        assert!(e.is_constant());
        assert_eq!(e.constant_part(), 42);
        assert_eq!(e.eval(&|_| 0), 42);
    }

    #[test]
    fn add_merges_and_cancels() {
        let a = AffineExpr::term(v(0), 2).offset(1);
        let b = AffineExpr::term(v(0), -2).add(&AffineExpr::var(v(1)));
        let s = a.add(&b);
        assert_eq!(s.coeff(v(0)), 0);
        assert_eq!(s.coeff(v(1)), 1);
        assert_eq!(s.constant_part(), 1);
        assert_eq!(s.num_vars(), 1);
    }

    #[test]
    fn sub_self_is_zero() {
        let a = AffineExpr::term(v(3), 7).offset(-4);
        let z = a.sub(&a);
        assert!(z.is_constant());
        assert_eq!(z.constant_part(), 0);
    }

    #[test]
    fn scale_by_zero() {
        let a = AffineExpr::term(v(0), 5).offset(9);
        let z = a.scale(0);
        assert_eq!(z, AffineExpr::constant(0));
    }

    #[test]
    fn eval_env() {
        // 3*v0 - 2*v1 + 5 at v0=4, v1=1 => 12 - 2 + 5 = 15
        let e = AffineExpr::term(v(0), 3)
            .add(&AffineExpr::term(v(1), -2))
            .offset(5);
        let r = e.eval(&|x| if x == v(0) { 4 } else { 1 });
        assert_eq!(r, 15);
    }

    #[test]
    fn substitute_var() {
        // e = 2*v0 + v1; v0 := v2 + 3  =>  2*v2 + v1 + 6
        let e = AffineExpr::term(v(0), 2).add(&AffineExpr::var(v(1)));
        let r = e.substitute(v(0), &AffineExpr::var(v(2)).offset(3));
        assert_eq!(r.coeff(v(0)), 0);
        assert_eq!(r.coeff(v(2)), 2);
        assert_eq!(r.coeff(v(1)), 1);
        assert_eq!(r.constant_part(), 6);
    }

    #[test]
    fn range_with_negative_coeff() {
        // e = -2*v0 + 1, v0 in [0, 10] => range [-19, 1]
        let e = AffineExpr::term(v(0), -2).offset(1);
        assert_eq!(e.range(&|_| (0, 10)), (-19, 1));
    }

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(0, 0), 0);
        assert_eq!(gcd(0, 7), 7);
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(-12, 18), 6);
    }

    /// The map form the flat terms replaced, kept to pin that the JSON,
    /// hash and debug output of every expression stayed byte for byte.
    #[derive(Debug, Hash, Serialize, Deserialize)]
    struct MapForm {
        terms: BTreeMap<VarId, i64>,
        constant: i64,
    }

    /// Every write a hash makes, in order.
    #[derive(Default)]
    struct Recording(Vec<u8>);

    impl std::hash::Hasher for Recording {
        fn write(&mut self, bytes: &[u8]) {
            self.0.extend_from_slice(bytes);
            self.0.push(0xff);
        }
        fn finish(&self) -> u64 {
            0
        }
    }

    fn hash_bytes(x: &impl std::hash::Hash) -> Vec<u8> {
        let mut h = Recording::default();
        x.hash(&mut h);
        h.0
    }

    #[test]
    fn flat_terms_serialize_hash_and_print_as_the_map_form() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        for _ in 0..500 {
            let mut e = AffineExpr::constant(next(21) as i64 - 10);
            for _ in 0..next(5) {
                let var = v(next(12) as u32);
                let term = AffineExpr::term(var, next(7) as i64 - 3);
                e = match next(3) {
                    0 => e.add(&term),
                    1 => e.sub(&term),
                    _ => e.substitute(var, &term.offset(next(3) as i64)),
                };
            }
            let map = MapForm {
                terms: e.terms().collect(),
                constant: e.constant_part(),
            };
            assert!(e.terms().all(|(_, c)| c != 0), "{e:?}");
            assert_eq!(e.to_value(), map.to_value());
            assert_eq!(hash_bytes(&e), hash_bytes(&map), "{e:?}");
            assert_eq!(
                format!("{e:?}"),
                format!("{map:?}").replace("MapForm", "AffineExpr")
            );
            assert_eq!(AffineExpr::from_value(&map.to_value()).unwrap(), e);
        }
    }

    #[test]
    fn display_forms() {
        let e = AffineExpr::term(v(0), 1)
            .add(&AffineExpr::term(v(1), -3))
            .offset(2);
        assert_eq!(format!("{e}"), "v0 - 3*v1 + 2");
        assert_eq!(format!("{}", AffineExpr::constant(-4)), "-4");
    }
}
