//! `BENCHMARK.json` is the one list of workloads, metrics, units and
//! bounds: the harness reads it to decide what to print, and `compare`
//! reads it for the bounds.

use serde::Value;
use std::path::Path;

#[derive(Debug, Clone)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// End-to-end metrics only: share of the baseline by which the metric
    /// may get worse.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Manifest {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

/// The value under a chain of object keys.
pub fn lookup<'a>(v: &'a Value, path: &[&str]) -> Option<&'a Value> {
    path.iter().try_fold(v, |v, key| {
        v.as_map()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    })
}

fn field<'a>(map: &'a Value, key: &str) -> Result<&'a Value, String> {
    lookup(map, &[key]).ok_or_else(|| format!("BENCHMARK.json: missing `{key}`"))
}

pub fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

fn metric_defs(v: &Value, key: &str) -> Result<Vec<MetricDef>, String> {
    let bad = || format!("BENCHMARK.json: malformed `{key}`");
    v.as_seq()
        .ok_or_else(bad)?
        .iter()
        .map(|m| {
            let text = |k: &str| -> Result<String, String> {
                Ok(field(m, k)?.as_str().ok_or_else(bad)?.to_string())
            };
            Ok(MetricDef {
                name: text("name")?,
                unit: text("unit")?,
                higher_is_better: text("better")? == "higher",
                bound: field(m, "bound").ok().and_then(number),
            })
        })
        .collect()
}

impl Manifest {
    pub fn load(path: &Path) -> Result<Manifest, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let root: Value =
            serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let root = &root;
        let workloads = field(root, "workloads")?
            .as_seq()
            .ok_or("BENCHMARK.json: malformed `workloads`")?
            .iter()
            .filter_map(|w| Some(lookup(w, &["name"])?.as_str()?.to_string()))
            .collect();
        Ok(Manifest {
            run_seconds: number(field(root, "run_seconds")?)
                .ok_or("BENCHMARK.json: malformed `run_seconds`")?,
            workloads,
            end_to_end: metric_defs(field(root, "end_to_end")?, "end_to_end")?,
            per_layer: metric_defs(field(root, "per_layer")?, "per_layer")?,
        })
    }

    pub fn knows(&self, name: &str) -> bool {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .any(|m| m.name == name)
    }
}
