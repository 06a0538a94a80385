//! Job specifications and their content fingerprints.
//!
//! A job names *skeleton × parameter space × machine × strategy × backend
//! roster* by their registry names — the serve layer never resolves them
//! itself; the [`JobBackend`](crate::backend::JobBackend) does, and
//! reports back the content-addressed [`ArchiveKey`] the archive already
//! uses. Deduplication happens at two levels:
//!
//! * **Job level** — [`JobSpec::fingerprint`] hashes the canonical JSON of
//!   every *result-relevant* field (everything except `tenant`). Two
//!   requests with equal fingerprints are byte-interchangeable, so the
//!   second subscribes to the first's session instead of spawning one.
//! * **Archive level** — the backend's `ArchiveKey` identifies the
//!   *problem*; a warm-startable job whose key already has an archived
//!   front replays it at `E = 0`.

use serde::Serialize;

/// One tuning job as submitted to `POST /jobs`.
///
/// `Deserialize` is hand-written (below) so that every field except
/// `kernel`, `machine` and `strategy` may be omitted from the submitted
/// JSON and takes its documented default.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct JobSpec {
    /// Who asked (default `anon`). Excluded from the fingerprint: the
    /// same job from two tenants is still the same job.
    pub tenant: String,
    /// Kernel / skeleton name (`mm`, `jacobi-2d`, …) as understood by the
    /// backend's registry.
    pub kernel: String,
    /// Problem size; the backend's default (the paper size) when absent.
    pub size: Option<usize>,
    /// Machine model name (`westmere`, `barcelona`, …).
    pub machine: String,
    /// Strategy name (`rs-gde3`, `nsga2`, `random`, …).
    pub strategy: String,
    /// Backend roster (`model`, `unroll4`, `alt1`, …); empty means the
    /// plain analytic model.
    pub backends: Vec<String>,
    /// Evaluation budget; the backend's default when absent.
    pub budget: Option<u64>,
    /// RNG seed (default 1) — part of the fingerprint: different seeds
    /// are different jobs.
    pub seed: u64,
    /// Consult the archive before tuning: an exact hit replays at
    /// `E = 0`, a near-machine hit seeds the run. Mutually exclusive with
    /// a non-empty backend roster (provenance would be conflated), as in
    /// `moat-tune`.
    pub warm_start: bool,
}

impl serde::Deserialize for JobSpec {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let map = v
            .as_map()
            .ok_or_else(|| serde::DeError::custom("job spec must be a JSON object"))?;
        Ok(JobSpec {
            tenant: serde::from_field::<Option<String>>(map, "tenant")?
                .unwrap_or_else(|| "anon".into()),
            kernel: serde::from_field(map, "kernel")?,
            size: serde::from_field(map, "size")?,
            machine: serde::from_field(map, "machine")?,
            strategy: serde::from_field(map, "strategy")?,
            backends: serde::from_field::<Option<Vec<String>>>(map, "backends")?
                .unwrap_or_default(),
            budget: serde::from_field(map, "budget")?,
            seed: serde::from_field::<Option<u64>>(map, "seed")?.unwrap_or(1),
            warm_start: serde::from_field::<Option<bool>>(map, "warm_start")?.unwrap_or(false),
        })
    }
}

impl JobSpec {
    /// FNV-1a over the canonical JSON of every result-relevant field
    /// (i.e. with `tenant` normalized away). Equal fingerprints ⇒ the
    /// results are interchangeable ⇒ one session can serve both requests.
    pub fn fingerprint(&self) -> u64 {
        let mut canon = self.clone();
        canon.tenant = String::new();
        let json = serde_json::to_string(&canon).expect("JobSpec serializes");
        moat_obs::fnv1a(moat_obs::FNV_OFFSET, json.as_bytes())
    }

    /// The fingerprint as the fixed-width hex token used in file names
    /// and dedupe maps.
    pub fn fingerprint_hex(&self) -> String {
        format!("{:016x}", self.fingerprint())
    }

    /// Structural sanity checks that need no backend: the daemon rejects
    /// these with a 400 before touching the scheduler.
    pub fn validate(&self) -> Result<(), String> {
        if self.kernel.is_empty() {
            return Err("kernel must not be empty".into());
        }
        if self.machine.is_empty() {
            return Err("machine must not be empty".into());
        }
        if self.strategy.is_empty() {
            return Err("strategy must not be empty".into());
        }
        if self.warm_start && !self.backends.is_empty() {
            return Err(
                "warm_start is incompatible with an explicit backend roster \
                 (archived fronts would conflate backend provenance)"
                    .into(),
            );
        }
        Ok(())
    }
}

/// Body of the `202 Accepted` answer to `POST /jobs`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, serde::Deserialize)]
pub struct SubmitResponse {
    /// Daemon-assigned job id (`j0001`, …).
    pub job: String,
    /// The job's content fingerprint (hex).
    pub fingerprint: String,
    /// `true` when this submission was coalesced onto an existing
    /// in-flight or completed job instead of spawning a session.
    pub deduped: bool,
    /// The job id actually doing (or having done) the work — differs from
    /// `job` exactly when `deduped`.
    pub serves_as: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JobSpec {
        serde_json::from_str(r#"{"kernel": "mm", "machine": "westmere", "strategy": "rs-gde3"}"#)
            .unwrap()
    }

    #[test]
    fn defaults_fill_in() {
        let s = spec();
        assert_eq!(s.tenant, "anon");
        assert_eq!(s.seed, 1);
        assert_eq!(s.size, None);
        assert!(s.backends.is_empty());
        assert!(!s.warm_start);
        s.validate().unwrap();
    }

    #[test]
    fn fingerprint_ignores_tenant_only() {
        let a = spec();
        let mut b = a.clone();
        b.tenant = "other".into();
        assert_eq!(a.fingerprint(), b.fingerprint(), "tenant is excluded");
        for (field, f) in [
            (
                "kernel",
                Box::new(|s: &mut JobSpec| s.kernel = "dsyrk".into()) as Box<dyn Fn(&mut JobSpec)>,
            ),
            (
                "machine",
                Box::new(|s: &mut JobSpec| s.machine = "barcelona".into()),
            ),
            (
                "strategy",
                Box::new(|s: &mut JobSpec| s.strategy = "random".into()),
            ),
            (
                "backends",
                Box::new(|s: &mut JobSpec| s.backends = vec!["unroll4".into()]),
            ),
            ("budget", Box::new(|s: &mut JobSpec| s.budget = Some(10))),
            ("seed", Box::new(|s: &mut JobSpec| s.seed = 2)),
            ("size", Box::new(|s: &mut JobSpec| s.size = Some(64))),
            (
                "warm_start",
                Box::new(|s: &mut JobSpec| s.warm_start = true),
            ),
        ] {
            let mut c = a.clone();
            f(&mut c);
            assert_ne!(a.fingerprint(), c.fingerprint(), "{field} must matter");
        }
    }

    #[test]
    fn warm_start_with_roster_is_rejected() {
        let mut s = spec();
        s.warm_start = true;
        s.backends = vec!["model".into(), "unroll4".into()];
        assert!(s.validate().is_err());
    }
}
