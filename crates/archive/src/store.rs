//! On-disk archive: one JSON file per [`ArchiveKey`], atomic merges.

use crate::file::{self, io_err};
use crate::key::ArchiveKey;
use crate::record::{ArchiveRecord, MergeStats};
use moat_core::gde3::prune;
use moat_core::WarmStart;
use moat_machine::MachineFeatures;
use std::fs;
use std::path::{Path, PathBuf};

/// Errors from archive operations.
#[derive(Debug)]
pub enum ArchiveError {
    /// Filesystem failure (path included in the message).
    Io(String),
    /// Malformed, mismatched or future-versioned record.
    Format(String),
}

impl std::fmt::Display for ArchiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArchiveError::Io(msg) => write!(f, "archive I/O error: {msg}"),
            ArchiveError::Format(msg) => write!(f, "archive format error: {msg}"),
        }
    }
}

impl std::error::Error for ArchiveError {}

/// Where a warm start came from.
#[derive(Debug, Clone, PartialEq)]
pub enum WarmStartSource {
    /// Exact key hit: same skeleton, space and machine — archived
    /// objectives are trusted and served as free cache hits.
    Exact,
    /// Nearest-machine transfer: same problem tuned on a different
    /// machine — only configurations carry over and are re-evaluated.
    Transfer {
        /// Name of the machine the donor front was measured on.
        machine: String,
        /// Feature distance between donor and target machines.
        distance: f64,
    },
}

/// A directory of tuning results, one JSON file per key
/// (`<root>/<key-id>.json`). Every mutation is a synced
/// [`file::replace`], so readers never observe a half-written record and
/// concurrent writers lose cleanly rather than corrupting.
#[derive(Debug, Clone)]
pub struct Archive {
    root: PathBuf,
    obs: moat_obs::Obs,
}

impl Archive {
    /// Open (creating if needed) an archive directory. Temp files left
    /// behind by a writer that crashed mid-[`insert`](Self::insert) are
    /// swept here ([`file::sweep`]): a temp that never reached its
    /// `rename` is dead weight, never a record readers could have observed.
    pub fn open(root: impl Into<PathBuf>) -> Result<Archive, ArchiveError> {
        let root = root.into();
        fs::create_dir_all(&root).map_err(|e| io_err(&root, e))?;
        file::sweep(&root);
        Ok(Archive {
            root,
            obs: moat_obs::Obs::default(),
        })
    }

    /// Report reads and writes on `obs` (the handle of the run consulting
    /// the archive). Untraced by default.
    pub fn with_obs(mut self, obs: moat_obs::Obs) -> Self {
        self.obs = obs;
        self
    }

    /// The archive directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// File holding `key`'s record.
    pub fn path_for(&self, key: &ArchiveKey) -> PathBuf {
        self.root.join(format!("{}.json", key.id()))
    }

    /// Load one record, `None` if the key has never been stored.
    pub fn get(&self, key: &ArchiveKey) -> Result<Option<ArchiveRecord>, ArchiveError> {
        let path = self.path_for(key);
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                self.obs.emit(|| moat_obs::Event::ArchiveRead {
                    key: key.id(),
                    hit: false,
                });
                return Ok(None);
            }
            Err(e) => return Err(io_err(&path, e)),
        };
        self.obs.emit(|| moat_obs::Event::ArchiveRead {
            key: key.id(),
            hit: true,
        });
        let rec = ArchiveRecord::from_json(&text)
            .map_err(|e| ArchiveError::Format(format!("{}: {e}", path.display())))?;
        if rec.key != *key {
            return Err(ArchiveError::Format(format!(
                "{}: stored key {} does not match file name",
                path.display(),
                rec.key
            )));
        }
        Ok(Some(rec))
    }

    /// Insert a record, merging (dominance-aware dedup, counters summed)
    /// with any existing record for the same key. Refuses to merge a record
    /// whose front comes from different backends than the stored one (see
    /// [`ArchiveRecord::merge`]); [`merge_batch`](Self::merge_batch) with
    /// `across_backends` does that. Returns the merge stats (a first
    /// insert counts every front point as inserted). It is a one-record
    /// `merge_batch`.
    pub fn insert(&self, record: &ArchiveRecord) -> Result<MergeStats, ArchiveError> {
        Ok(self.merge_batch(std::slice::from_ref(record), false)?[0])
    }

    /// Merge a whole batch of records with one read and one atomic write
    /// per *destination key*, instead of the per-record read-modify-write
    /// of repeated [`insert`](Self::insert) calls. This is the path
    /// `moat-archive merge` and the serve compactor take: a compaction
    /// sweep hands over hundreds of incoming records that collapse onto a
    /// handful of keys, and re-reading the stored record for every one of
    /// them is pure waste.
    ///
    /// Records are merged **in input order** (ties between equal-objective
    /// points are first-wins, so order matters for point provenance), and
    /// nothing is written until the whole batch has merged cleanly — a
    /// format/key mismatch anywhere aborts the batch with no partial
    /// writes. Returns per-record stats in input order.
    pub fn merge_batch(
        &self,
        records: &[ArchiveRecord],
        across_backends: bool,
    ) -> Result<Vec<MergeStats>, ArchiveError> {
        let mut stats = Vec::with_capacity(records.len());
        // Working copies keyed by id, in first-seen order so the final
        // writes land deterministically; per-key stat sums feed one
        // ArchiveWrite event per destination file.
        let mut order: Vec<String> = Vec::new();
        let mut working: std::collections::BTreeMap<String, (ArchiveRecord, MergeStats)> =
            std::collections::BTreeMap::new();
        for rec in records {
            let id = rec.key.id();
            let s = match working.get_mut(&id) {
                Some((existing, sums)) => {
                    let s = if across_backends {
                        existing.merge_across_backends(rec)?
                    } else {
                        existing.merge(rec)?
                    };
                    sums.inserted += s.inserted;
                    sums.rejected += s.rejected;
                    s
                }
                None => {
                    let (merged, s) = match self.get(&rec.key)? {
                        Some(mut existing) => {
                            let s = if across_backends {
                                existing.merge_across_backends(rec)?
                            } else {
                                existing.merge(rec)?
                            };
                            (existing, s)
                        }
                        None => {
                            let mut first = rec.clone();
                            first.canonicalize();
                            let s = MergeStats {
                                inserted: first.front.len(),
                                rejected: rec.front.len() - first.front.len(),
                            };
                            (first, s)
                        }
                    };
                    order.push(id.clone());
                    working.insert(id, (merged, s));
                    s
                }
            };
            stats.push(s);
        }
        for id in &order {
            let (rec, sums) = &working[id];
            self.write_atomic(rec)?;
            self.obs.emit(|| moat_obs::Event::ArchiveWrite {
                key: id.clone(),
                added: sums.inserted as u64,
                dropped: sums.rejected as u64,
            });
        }
        Ok(stats)
    }

    fn write_atomic(&self, record: &ArchiveRecord) -> Result<(), ArchiveError> {
        let path = self.path_for(&record.key);
        let mut json = record.to_json();
        json.push('\n');
        file::replace(&path, json.as_bytes(), true).map_err(|e| io_err(&path, e))
    }

    /// All stored keys, sorted by id for deterministic listings.
    pub fn keys(&self) -> Result<Vec<ArchiveKey>, ArchiveError> {
        let mut keys = Vec::new();
        let entries = fs::read_dir(&self.root).map_err(|e| io_err(&self.root, e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err(&self.root, e))?;
            let name = entry.file_name();
            let Some(stem) = name.to_str().and_then(|n| n.strip_suffix(".json")) else {
                continue; // temp files, foreign files
            };
            if let Some(key) = ArchiveKey::parse_id(stem) {
                keys.push(key);
            }
        }
        keys.sort_by_key(|k| k.id());
        Ok(keys)
    }

    /// All stored records, in key order.
    pub fn list(&self) -> Result<Vec<ArchiveRecord>, ArchiveError> {
        let mut out = Vec::new();
        for key in self.keys()? {
            if let Some(rec) = self.get(&key)? {
                out.push(rec);
            }
        }
        Ok(out)
    }

    /// Delete a key's record. Returns whether it existed.
    pub fn remove(&self, key: &ArchiveKey) -> Result<bool, ArchiveError> {
        let path = self.path_for(key);
        match fs::remove_file(&path) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(io_err(&path, e)),
        }
    }

    /// Shrink every stored front to at most `max_front` points using the
    /// crowding-distance pruner (extreme points survive). Returns the
    /// number of records rewritten.
    pub fn prune(&self, max_front: usize) -> Result<usize, ArchiveError> {
        let mut rewritten = 0;
        for key in self.keys()? {
            let Some(mut rec) = self.get(&key)? else {
                continue;
            };
            if rec.front.len() <= max_front {
                continue;
            }
            rec.front = prune(std::mem::take(&mut rec.front), max_front);
            rec.canonicalize();
            self.write_atomic(&rec)?;
            rewritten += 1;
        }
        Ok(rewritten)
    }

    /// Serialize the whole archive as one pretty JSON array (key order).
    pub fn export_json(&self) -> Result<String, ArchiveError> {
        let records = self.list()?;
        serde_json::to_string_pretty(&records).map_err(|e| ArchiveError::Format(e.to_string()))
    }

    /// Merge an [`export_json`](Self::export_json) dump (or a single
    /// record) into this archive. Returns per-record merge stats in input
    /// order.
    pub fn import_json(&self, text: &str) -> Result<Vec<MergeStats>, ArchiveError> {
        let records: Vec<ArchiveRecord> = match serde_json::from_str(text) {
            Ok(rs) => rs,
            Err(_) => vec![ArchiveRecord::from_json(text)?],
        };
        for rec in &records {
            // Surface future-version records before any write happens.
            ArchiveRecord::from_json(&rec.to_json())?;
        }
        records.iter().map(|rec| self.insert(rec)).collect()
    }

    /// The stored record for the same (skeleton, space) problem whose
    /// machine is feature-closest to `target`, together with that
    /// distance. Exact machine matches have distance 0 and always win.
    pub fn nearest(
        &self,
        key: &ArchiveKey,
        target: &MachineFeatures,
    ) -> Result<Option<(ArchiveRecord, f64)>, ArchiveError> {
        let mut best: Option<(ArchiveRecord, f64)> = None;
        for candidate in self.keys()? {
            if !candidate.same_problem(key) {
                continue;
            }
            let Some(rec) = self.get(&candidate)? else {
                continue;
            };
            let d = rec.machine.distance(target);
            let better = match &best {
                None => true,
                Some((_, bd)) => d < *bd,
            };
            if better {
                best = Some((rec, d));
            }
        }
        Ok(best)
    }

    /// Every stored record for the same (skeleton, space) problem —
    /// regardless of machine — paired with its feature distance to
    /// `target`, sorted nearest-first (ties broken by key id). This is the
    /// surrogate trainer's corpus query: sibling-machine fronts are still
    /// informative about *which configurations* are promising even when
    /// their absolute objectives don't transfer.
    ///
    /// Determinism: candidates are visited in sorted key order and the
    /// final sort is stable on `(distance, key id)`, so the returned order
    /// is a pure function of the archive contents.
    pub fn records_for_machine_family(
        &self,
        key: &ArchiveKey,
        target: &MachineFeatures,
    ) -> Result<Vec<(ArchiveRecord, f64)>, ArchiveError> {
        let mut out: Vec<(ArchiveRecord, f64)> = Vec::new();
        for candidate in self.keys()? {
            if !candidate.same_problem(key) {
                continue;
            }
            let Some(rec) = self.get(&candidate)? else {
                continue;
            };
            let d = rec.machine.distance(target);
            out.push((rec, d));
        }
        out.sort_by(|a, b| {
            a.1.total_cmp(&b.1)
                .then_with(|| a.0.key.id().cmp(&b.0.key.id()))
        });
        Ok(out)
    }

    /// Best available warm start for a tuning problem on `target`:
    /// an exact key hit yields trusted hints + seeds; otherwise the
    /// nearest machine's front transfers as seeds only. `None` when the
    /// archive has never seen the (skeleton, space) problem.
    pub fn warm_start_for(
        &self,
        key: &ArchiveKey,
        target: &MachineFeatures,
    ) -> Result<Option<(WarmStart, WarmStartSource)>, ArchiveError> {
        if let Some(rec) = self.get(key)? {
            if !rec.front.is_empty() {
                return Ok(Some((rec.warm_start(), WarmStartSource::Exact)));
            }
        }
        match self.nearest(key, target)? {
            Some((rec, distance)) if !rec.front.is_empty() => Ok(Some((
                rec.transfer_warm_start(),
                WarmStartSource::Transfer {
                    machine: rec.machine.name.clone(),
                    distance,
                },
            ))),
            _ => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::FORMAT_VERSION;
    use moat_core::Point;
    use moat_machine::MachineDesc;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("moat-archive-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn record(key: ArchiveKey, machine: &MachineDesc, points: Vec<Point>) -> ArchiveRecord {
        let mut rec = ArchiveRecord {
            format_version: FORMAT_VERSION,
            key,
            region: "mm".into(),
            skeleton: "tile3".into(),
            machine: machine.features(),
            param_names: vec!["ti".into(), "threads".into()],
            objective_names: vec!["time".into(), "resources".into()],
            evaluations: 5,
            runs: 1,
            front: Vec::new(),
        };
        rec.merge_points(&points);
        rec
    }

    #[test]
    fn insert_get_roundtrip_and_merge() {
        let dir = tmpdir("roundtrip");
        let archive = Archive::open(&dir).unwrap();
        let key = ArchiveKey::new(1, 2, 3);
        let m = MachineDesc::westmere();

        let rec = record(key, &m, vec![Point::new(vec![1, 1], vec![1.0, 9.0])]);
        let stats = archive.insert(&rec).unwrap();
        assert_eq!(stats.inserted, 1);
        assert_eq!(archive.get(&key).unwrap().unwrap(), rec);

        // Second insert merges: counters sum, dominated points rejected.
        // (Build the dominated point in by hand — the record constructor
        // would dedup it away before the store-level merge under test.)
        let mut rec2 = record(key, &m, vec![Point::new(vec![2, 1], vec![0.5, 8.0])]);
        rec2.front.push(Point::new(vec![3, 1], vec![2.0, 9.5]));
        rec2.canonicalize();
        let stats = archive.insert(&rec2).unwrap();
        assert_eq!(stats.inserted, 1);
        assert_eq!(stats.rejected, 1);
        let merged = archive.get(&key).unwrap().unwrap();
        assert_eq!(merged.runs, 2);
        assert_eq!(merged.evaluations, 10);
        assert_eq!(merged.front.len(), 1);

        // Re-inserting the merged record changes nothing (idempotent fronts).
        let before = fs::read_to_string(archive.path_for(&key)).unwrap();
        let mut same = merged.clone();
        same.evaluations = 0;
        same.runs = 0;
        archive.insert(&same).unwrap();
        let after = archive.get(&key).unwrap().unwrap();
        assert_eq!(after.front, merged.front);
        assert!(before.contains("\"front\""));

        assert!(archive.remove(&key).unwrap());
        assert!(!archive.remove(&key).unwrap());
        assert!(archive.get(&key).unwrap().is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn keys_listing_is_sorted_and_skips_foreign_files() {
        let dir = tmpdir("keys");
        let archive = Archive::open(&dir).unwrap();
        let m = MachineDesc::westmere();
        let k1 = ArchiveKey::new(2, 2, 2);
        let k2 = ArchiveKey::new(1, 1, 1);
        archive.insert(&record(k1, &m, vec![])).unwrap();
        archive.insert(&record(k2, &m, vec![])).unwrap();
        fs::write(dir.join("README.txt"), "not a record").unwrap();
        fs::write(dir.join("bogus.json"), "{}").unwrap();
        assert_eq!(archive.keys().unwrap(), vec![k2, k1]);
        assert_eq!(archive.list().unwrap().len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn prune_shrinks_fronts_keeping_extremes() {
        let dir = tmpdir("prune");
        let archive = Archive::open(&dir).unwrap();
        let m = MachineDesc::westmere();
        let key = ArchiveKey::new(7, 7, 7);
        let points: Vec<Point> = (0..10)
            .map(|i| Point::new(vec![i, 1], vec![i as f64, 9.0 - i as f64]))
            .collect();
        archive.insert(&record(key, &m, points)).unwrap();
        assert_eq!(archive.prune(4).unwrap(), 1);
        let rec = archive.get(&key).unwrap().unwrap();
        assert_eq!(rec.front.len(), 4);
        let objs: Vec<f64> = rec.front.iter().map(|p| p.objectives[0]).collect();
        assert!(objs.contains(&0.0) && objs.contains(&9.0), "extremes kept");
        assert_eq!(archive.prune(4).unwrap(), 0, "second prune is a no-op");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn export_import_transfers_everything() {
        let dir_a = tmpdir("export-a");
        let dir_b = tmpdir("export-b");
        let a = Archive::open(&dir_a).unwrap();
        let b = Archive::open(&dir_b).unwrap();
        let m = MachineDesc::westmere();
        a.insert(&record(
            ArchiveKey::new(1, 2, 3),
            &m,
            vec![Point::new(vec![1, 1], vec![1.0, 2.0])],
        ))
        .unwrap();
        a.insert(&record(
            ArchiveKey::new(4, 5, 6),
            &m,
            vec![Point::new(vec![2, 2], vec![3.0, 4.0])],
        ))
        .unwrap();

        let dump = a.export_json().unwrap();
        let stats = b.import_json(&dump).unwrap();
        assert_eq!(stats.len(), 2);
        assert_eq!(b.export_json().unwrap(), dump, "import reproduces the dump");

        // Importing again is a no-op on the fronts.
        b.import_json(&dump).unwrap();
        let rec = b.get(&ArchiveKey::new(1, 2, 3)).unwrap().unwrap();
        assert_eq!(rec.front.len(), 1);
        let _ = fs::remove_dir_all(&dir_a);
        let _ = fs::remove_dir_all(&dir_b);
    }

    #[test]
    fn warm_start_prefers_exact_then_nearest() {
        let dir = tmpdir("warmstart");
        let archive = Archive::open(&dir).unwrap();
        let here = MachineDesc::westmere();
        let mut far = MachineDesc::westmere();
        far.name = "far".into();
        far.sockets *= 4;
        let mut near = MachineDesc::westmere();
        near.name = "near".into();
        near.sockets *= 2;

        let target = here.features();
        let key = ArchiveKey::new(10, 20, target.fingerprint());

        // Empty archive: nothing to warm-start from.
        assert!(archive.warm_start_for(&key, &target).unwrap().is_none());

        // Only distant machines: nearest one transfers, seeds only.
        archive
            .insert(&record(
                key.on_machine(far.features().fingerprint()),
                &far,
                vec![Point::new(vec![1, 1], vec![1.0, 2.0])],
            ))
            .unwrap();
        archive
            .insert(&record(
                key.on_machine(near.features().fingerprint()),
                &near,
                vec![Point::new(vec![2, 2], vec![3.0, 4.0])],
            ))
            .unwrap();
        let (warm, source) = archive.warm_start_for(&key, &target).unwrap().unwrap();
        assert!(warm.hints.is_empty());
        assert_eq!(warm.seeds, vec![vec![2, 2]], "nearest machine's front");
        match source {
            WarmStartSource::Transfer { machine, distance } => {
                assert_eq!(machine, "near");
                assert!(distance > 0.0);
            }
            other => panic!("expected transfer, got {other:?}"),
        }

        // Exact hit wins and carries hints.
        archive
            .insert(&record(
                key,
                &here,
                vec![Point::new(vec![3, 3], vec![0.5, 0.5])],
            ))
            .unwrap();
        let (warm, source) = archive.warm_start_for(&key, &target).unwrap().unwrap();
        assert_eq!(source, WarmStartSource::Exact);
        assert_eq!(warm.hints.len(), 1);
        assert_eq!(warm.seeds, vec![vec![3, 3]]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn machine_family_query_orders_deterministically_by_distance() {
        let dir = tmpdir("family");
        let archive = Archive::open(&dir).unwrap();
        let here = MachineDesc::westmere();
        let mut near = MachineDesc::westmere();
        near.name = "near".into();
        near.sockets *= 2;
        let mut far = MachineDesc::westmere();
        far.name = "far".into();
        far.sockets *= 4;

        let target = here.features();
        let key = ArchiveKey::new(10, 20, target.fingerprint());

        assert!(
            archive
                .records_for_machine_family(&key, &target)
                .unwrap()
                .is_empty(),
            "empty archive yields no family"
        );

        // Insert far, near, exact — deliberately not in distance order —
        // plus a different-problem record that must be excluded.
        for (machine, cfg) in [(&far, 3i64), (&near, 2), (&here, 1)] {
            archive
                .insert(&record(
                    key.on_machine(machine.features().fingerprint()),
                    machine,
                    vec![Point::new(vec![cfg, 1], vec![cfg as f64, 1.0])],
                ))
                .unwrap();
        }
        archive
            .insert(&record(
                ArchiveKey::new(99, 20, target.fingerprint()),
                &here,
                vec![Point::new(vec![9, 9], vec![9.0, 9.0])],
            ))
            .unwrap();

        let fam = archive.records_for_machine_family(&key, &target).unwrap();
        assert_eq!(fam.len(), 3, "other problems excluded");
        let names: Vec<&str> = fam.iter().map(|(r, _)| r.machine.name.as_str()).collect();
        assert_eq!(names, vec!["Westmere", "near", "far"], "nearest first");
        assert_eq!(fam[0].1, 0.0, "exact machine at distance 0");
        assert!(fam[1].1 < fam[2].1, "distances ascend");

        // The order is a pure function of archive contents: a second
        // query (fresh handle, fresh directory scan) reproduces it.
        let again = Archive::open(&dir)
            .unwrap()
            .records_for_machine_family(&key, &target)
            .unwrap();
        assert_eq!(again, fam, "ordering is deterministic");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_temps_are_swept_on_open_without_touching_records() {
        let dir = tmpdir("sweep");
        let archive = Archive::open(&dir).unwrap();
        let m = MachineDesc::westmere();
        let key = ArchiveKey::new(1, 2, 3);
        let rec = record(key, &m, vec![Point::new(vec![1, 1], vec![1.0, 9.0])]);
        archive.insert(&rec).unwrap();

        // Simulate a writer killed mid-insert: a half-written temp file
        // that never reached its rename.
        let stale = crate::file::temp_of(&archive.path_for(&key));
        fs::write(&stale, "{\"format_version\": 1, \"key\": trunc").unwrap();
        let foreign = dir.join("notes.txt");
        fs::write(&foreign, "keep me").unwrap();

        let reopened = Archive::open(&dir).unwrap();
        assert!(!stale.exists(), "stale temp swept on open");
        assert!(foreign.exists(), "foreign files untouched");
        assert_eq!(
            reopened.get(&key).unwrap().unwrap(),
            rec,
            "committed record intact"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_and_mismatched_files_are_reported() {
        let dir = tmpdir("corrupt");
        let archive = Archive::open(&dir).unwrap();
        let key = ArchiveKey::new(1, 1, 1);
        fs::write(archive.path_for(&key), "{ not json").unwrap();
        assert!(matches!(archive.get(&key), Err(ArchiveError::Format(_))));

        // A record stored under the wrong file name is rejected.
        let m = MachineDesc::westmere();
        let other = record(ArchiveKey::new(2, 2, 2), &m, vec![]);
        fs::write(archive.path_for(&key), other.to_json()).unwrap();
        assert!(matches!(archive.get(&key), Err(ArchiveError::Format(_))));
        let _ = fs::remove_dir_all(&dir);
    }
}
