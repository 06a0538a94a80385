//! `moat-bench-check` — the benchmark-regression sentinel.
//!
//! ```text
//! moat-bench-check gates   <eval|serve|surrogate> <BENCH.json>
//! moat-bench-check compare <eval|serve|surrogate> <BASELINE.json> <FRESH.json>
//! ```
//!
//! `gates` validates a single benchmark document against its absolute
//! quality gates (overload goodput held, tracing overhead < 2%, flight
//! recorder < 1%, surrogate E reduction, analytic evaluations/s ≥ 5× the
//! PR-3 baseline, …) — cheap enough for CI on the
//! committed baselines. `compare` additionally checks a fresh run against
//! a committed baseline with per-metric tolerances: deterministic outputs
//! (evaluation counts, dedupe rates, front sizes, hypervolumes) must
//! match exactly; throughput metrics may not regress past their tolerance
//! band. Every violated check is printed as a `FAIL path: …` diff line;
//! any failure exits 1.

use serde::Value;
use std::process::exit;

fn usage() -> ! {
    eprintln!("{}", moat::usage_text(include_str!("moat-bench-check.rs")));
    exit(2)
}

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("moat-bench-check: {msg}");
    exit(1)
}

/// Walk a dotted path (`overload.levels.0.shed`) through maps and
/// sequences.
fn lookup<'a>(v: &'a Value, path: &str) -> Option<&'a Value> {
    let mut cur = v;
    for part in path.split('.') {
        cur = match cur {
            Value::Map(m) => &m.iter().find(|(k, _)| k == part)?.1,
            Value::Seq(s) => s.get(part.parse::<usize>().ok()?)?,
            _ => return None,
        };
    }
    Some(cur)
}

fn num(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

/// Accumulates check results; failures carry a human-readable diff line.
#[derive(Default)]
struct Checks {
    failures: Vec<String>,
    passed: usize,
}

impl Checks {
    fn get(&mut self, doc: &Value, path: &str) -> Option<f64> {
        match lookup(doc, path).and_then(num) {
            Some(x) => Some(x),
            None => {
                self.failures
                    .push(format!("{path}: missing or non-numeric"));
                None
            }
        }
    }

    /// Absolute cap: `fresh <= cap` (overhead percentages, latencies).
    fn max_abs(&mut self, doc: &Value, path: &str, cap: f64) {
        if let Some(x) = self.get(doc, path) {
            if x <= cap {
                self.passed += 1;
            } else {
                self.failures
                    .push(format!("{path}: {x:.4} exceeds the {cap} cap"));
            }
        }
    }

    /// Absolute floor: `fresh >= floor`.
    fn min_abs(&mut self, doc: &Value, path: &str, floor: f64) {
        if let Some(x) = self.get(doc, path) {
            if x >= floor {
                self.passed += 1;
            } else {
                self.failures
                    .push(format!("{path}: {x:.4} under the {floor} floor"));
            }
        }
    }

    fn expect_true(&mut self, doc: &Value, path: &str) {
        match lookup(doc, path) {
            Some(Value::Bool(true)) => self.passed += 1,
            Some(other) => self
                .failures
                .push(format!("{path}: expected true, got {other:?}")),
            None => self.failures.push(format!("{path}: missing")),
        }
    }

    /// Deterministic output: baseline and fresh must agree exactly (tiny
    /// epsilon for float formatting).
    fn exact(&mut self, base: &Value, fresh: &Value, path: &str) {
        let (Some(b), Some(f)) = (self.get(base, path), self.get(fresh, path)) else {
            return;
        };
        let eps = 1e-9 * b.abs().max(1.0);
        if (b - f).abs() <= eps {
            self.passed += 1;
        } else {
            self.failures.push(format!(
                "{path}: baseline {b}, fresh {f} (must match exactly)"
            ));
        }
    }

    /// Higher-is-better throughput: fresh may not fall below
    /// `frac × baseline`.
    fn min_ratio(&mut self, base: &Value, fresh: &Value, path: &str, frac: f64) {
        let (Some(b), Some(f)) = (self.get(base, path), self.get(fresh, path)) else {
            return;
        };
        if f >= b * frac {
            self.passed += 1;
        } else {
            self.failures.push(format!(
                "{path}: fresh {f:.4} regressed past {:.4} ({}% of baseline {b:.4})",
                b * frac,
                frac * 100.0
            ));
        }
    }

    /// Lower-is-better latency: fresh may not exceed `frac × baseline`.
    fn max_ratio(&mut self, base: &Value, fresh: &Value, path: &str, frac: f64) {
        let (Some(b), Some(f)) = (self.get(base, path), self.get(fresh, path)) else {
            return;
        };
        if f <= b * frac {
            self.passed += 1;
        } else {
            self.failures.push(format!(
                "{path}: fresh {f:.4} exceeds {:.4} ({}% of baseline {b:.4})",
                b * frac,
                frac * 100.0
            ));
        }
    }
}

/// `analytic_eval.evals_per_s` when ROADMAP item 3 set its target (the
/// PR-3 baseline, measured with a loop nest built per configuration).
const ANALYTIC_EVALS_PER_S_PR3: f64 = 104_841.0;

/// `cachesim.legacy_accesses_per_s` as last measured (PR 14), before the
/// materialize-then-replay path left the bench: the simulator was gated at
/// ≥ 2× that path, and still is.
const CACHESIM_LEGACY_ACCESSES_PER_S: f64 = 30_604_886.0;

/// BENCH_eval.json gates: library tracing stays under its 2% promise,
/// surrogate screening overhead stays sane, the cache simulator holds 2×
/// the legacy path's rate, and analytic evaluation holds ROADMAP item 3's
/// ≥ 5× over its PR-3 baseline.
fn eval_gates(c: &mut Checks, doc: &Value) {
    c.max_abs(doc, "tracing.overhead_pct", 2.0);
    c.max_abs(doc, "surrogate.overhead_pct", 10.0);
    c.min_abs(
        doc,
        "cachesim.streaming_accesses_per_s",
        2.0 * CACHESIM_LEGACY_ACCESSES_PER_S,
    );
    c.min_abs(
        doc,
        "analytic_eval.evals_per_s",
        5.0 * ANALYTIC_EVALS_PER_S_PR3,
    );
}

/// BENCH_serve.json gates: graceful overload plus the ISSUE 10 tracing
/// budget — request tracing < 2%, the always-on flight recorder < 1%.
fn serve_gates(c: &mut Checks, doc: &Value) {
    c.expect_true(doc, "overload.goodput_held");
    c.expect_true(doc, "overload.p99_bounded");
    c.max_abs(doc, "tracing.overhead_pct", 2.0);
    c.max_abs(doc, "tracing.flight_overhead_pct", 1.0);
    c.min_abs(doc, "tracing.spans_recorded", 1.0);
}

/// BENCH_surrogate.json gates, per kernel: the headline claim — E cut by
/// at least 20% at a hypervolume within 1% of plain RS-GDE3.
fn surrogate_gates(c: &mut Checks, doc: &Value) {
    let Some(kernels) = lookup(doc, "kernels").and_then(Value::as_seq) else {
        c.failures.push("kernels: missing".into());
        return;
    };
    for (i, _) in kernels.iter().enumerate() {
        c.min_abs(doc, &format!("kernels.{i}.e_reduction_pct"), 20.0);
        c.min_abs(doc, &format!("kernels.{i}.hv_delta_pct"), -1.0);
    }
}

fn compare_eval(c: &mut Checks, base: &Value, fresh: &Value) {
    // Deterministic tuner outputs must reproduce exactly.
    for path in ["tuning.evaluations", "tuning.front_size", "tracing.records"] {
        c.exact(base, fresh, path);
    }
    // Throughput: tolerate host noise, not collapse.
    for path in [
        "cachesim.streaming_accesses_per_s",
        "analytic_eval.evals_per_s",
    ] {
        c.min_ratio(base, fresh, path, 0.5);
    }
    if let Some(backends) = lookup(base, "backend_eval").and_then(Value::as_seq) {
        for (i, _) in backends.iter().enumerate() {
            c.min_ratio(base, fresh, &format!("backend_eval.{i}.evals_per_s"), 0.5);
        }
    }
    eval_gates(c, fresh);
}

fn compare_serve(c: &mut Checks, base: &Value, fresh: &Value) {
    // The dedupe arithmetic is deterministic for the fixed spec mix.
    for path in ["submissions", "deduped", "dedupe_hit_rate"] {
        c.exact(base, fresh, path);
    }
    for path in ["jobs_per_sec", "submits_per_sec"] {
        c.min_ratio(base, fresh, path, 0.5);
    }
    c.max_ratio(base, fresh, "submit_latency_ms.p99", 3.0);
    serve_gates(c, fresh);
}

fn compare_surrogate(c: &mut Checks, base: &Value, fresh: &Value) {
    let Some(kernels) = lookup(base, "kernels").and_then(Value::as_seq) else {
        c.failures.push("kernels: missing in baseline".into());
        return;
    };
    // Seeded deterministic study: every count and hypervolume reproduces.
    for (i, _) in kernels.iter().enumerate() {
        for field in [
            "plain.e",
            "plain.hv",
            "surrogate.e",
            "surrogate.hv",
            "screen.forwarded",
            "screen.screened",
            "e_reduction_pct",
        ] {
            c.exact(base, fresh, &format!("kernels.{i}.{field}"));
        }
    }
    surrogate_gates(c, fresh);
}

fn load(path: &str) -> Value {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")));
    serde_json::from_str(&text).unwrap_or_else(|e| fail(format!("{path}: not JSON: {e}")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut c = Checks::default();
    let label = match args.as_slice() {
        [mode, bench, rest @ ..] if mode == "gates" || mode == "compare" => {
            let gates_only = mode == "gates";
            match (bench.as_str(), gates_only, rest) {
                ("eval", true, [file]) => eval_gates(&mut c, &load(file)),
                ("serve", true, [file]) => serve_gates(&mut c, &load(file)),
                ("surrogate", true, [file]) => surrogate_gates(&mut c, &load(file)),
                ("eval", false, [base, fresh]) => compare_eval(&mut c, &load(base), &load(fresh)),
                ("serve", false, [base, fresh]) => compare_serve(&mut c, &load(base), &load(fresh)),
                ("surrogate", false, [base, fresh]) => {
                    compare_surrogate(&mut c, &load(base), &load(fresh))
                }
                _ => usage(),
            }
            format!("{mode} {bench}")
        }
        _ => usage(),
    };
    if c.failures.is_empty() {
        println!("moat-bench-check: {label}: {} checks passed", c.passed);
    } else {
        for f in &c.failures {
            eprintln!("FAIL {f}");
        }
        eprintln!(
            "moat-bench-check: {label}: {} of {} checks failed",
            c.failures.len(),
            c.failures.len() + c.passed
        );
        exit(1);
    }
}
