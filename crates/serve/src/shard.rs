//! The service archive: sharded by key fingerprint, fed through
//! contention-free deposits, folded by background compaction.
//!
//! Layout under the archive root:
//!
//! ```text
//! shards.json              — shard count (fixed at first open)
//! shard-00/                — a plain `moat_archive::Archive` directory
//! shard-00/incoming.jsonl  — deposited-but-not-yet-compacted records,
//!                            one `<key-id>.<tag> <record JSON>` line each
//! shard-01/ …
//! ```
//!
//! A finishing job never read-modify-writes a shard record: it *deposits*
//! its result as one line appended to its shard's deposit log — an
//! [`AppendLog`], synced before the deposit is acknowledged — under that
//! shard's lock, so concurrent jobs landing on the same key cannot lose
//! updates and no file is made per job. What is pending is an index of
//! name → offset in name order (the records stay on disk), a later deposit
//! of a name replacing the earlier one. The background compactor folds
//! each shard's pending records — in name order, which makes the fold
//! deterministic for a given deposited set — into the shard archive using
//! the batched single-lock merge path ([`Archive::merge_batch`]), then
//! empties the log; it holds the shard's lock from the listing to the
//! truncate, so a deposit lands before the fold or in the emptied log,
//! never in between.
//!
//! A crash between the merge and the truncate leaves folded records in
//! the log, and the next start folds them again: the front comes out the
//! same (merging a record a second time adds no point) while `runs` and
//! `evaluations` count that deposit twice.
//!
//! Reads ([`get`](ShardedArchive::get),
//! [`warm_start_for`](ShardedArchive::warm_start_for)) merge the shard
//! record with any pending records in memory, so results are visible
//! immediately after deposit, before any compaction ran.

use moat_archive::file::{self, io_err, AppendLog};
use moat_archive::{Archive, ArchiveError, ArchiveKey, ArchiveRecord};
use moat_core::WarmStart;
use moat_machine::MachineFeatures;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fs;
use std::ops::Bound;
use std::path::{Path, PathBuf};

/// Persisted shard-map metadata (`shards.json`).
#[derive(Debug, Serialize, Deserialize)]
struct ShardMeta {
    format_version: u32,
    shards: usize,
}

/// FNV-1a over a key id — the routing fingerprint. Uniform enough to
/// spread keys, stable across runs and processes.
fn route_fp(key: &ArchiveKey) -> u64 {
    moat_obs::fnv1a(moat_obs::FNV_OFFSET, key.id().as_bytes())
}

/// One shard's deposit log and what is pending in it.
struct Deposits {
    log: AppendLog,
    /// `<key-id>.<tag>` → where that deposit's record JSON lies in the
    /// log (offset, length). Name order is the fold order.
    pending: BTreeMap<String, (u64, u64)>,
}

impl Deposits {
    /// The JSON of the pending records whose name starts with `prefix`, in
    /// name order.
    fn texts(&self, prefix: &str) -> Result<Vec<String>, ArchiveError> {
        let from = (Bound::Included(prefix), Bound::Unbounded);
        let named = self.pending.range::<str, _>(from);
        named
            .take_while(|(name, _)| name.starts_with(prefix))
            .map(|(name, &(at, len))| {
                let json = self.log.read_at(at, len).map_err(|e| e.to_string());
                json.and_then(|bytes| String::from_utf8(bytes).map_err(|e| e.to_string()))
                    .map_err(|e| ArchiveError::Io(format!("deposit {name}: {e}")))
            })
            .collect()
    }
}

fn parse(texts: &[String]) -> Result<Vec<ArchiveRecord>, ArchiveError> {
    texts.iter().map(|t| ArchiveRecord::from_json(t)).collect()
}

struct Shard {
    archive: Archive,
    deposits: Mutex<Deposits>,
}

/// A fingerprint-range-sharded archive with deposit/compact write paths.
pub struct ShardedArchive {
    root: PathBuf,
    shards: Vec<Shard>,
    /// Serializes compaction against merged reads (a record folded but
    /// still pending would otherwise transiently double its counters in
    /// the read view).
    fold: Mutex<()>,
}

/// Recover the deposit log of the shard at `dir`. A non-empty `incoming/`
/// there is the layout this one replaced: its deposits would be dropped
/// unfolded, so the archive is refused instead.
fn recover_deposits(dir: &Path) -> Result<Deposits, ArchiveError> {
    let old = dir.join("incoming");
    if fs::read_dir(&old).is_ok_and(|mut entries| entries.next().is_some()) {
        return Err(ArchiveError::Format(format!(
            "{}: un-folded deposits of an older moat-serve layout (one file per deposit); \
             this version keeps them in incoming.jsonl and does not import them",
            old.display()
        )));
    }
    let path = dir.join("incoming.jsonl");
    let mut pending = BTreeMap::new();
    let log = AppendLog::recover(path.clone(), |reader, at, _| {
        let Some(line) = AppendLog::line(reader)? else {
            return Ok(None);
        };
        // `<name> <json>\n`, the name neither empty nor anything but text.
        let name = line.iter().position(|&b| b == b' ').filter(|&n| n > 0);
        let Some(name) = name.and_then(|n| std::str::from_utf8(&line[..n]).ok()) else {
            return Err(std::io::Error::other(format!("corrupt line at byte {at}")));
        };
        let json = (line.len() - name.len() - 2) as u64;
        pending.insert(name.to_string(), (at + name.len() as u64 + 1, json));
        Ok(Some(line.len() as u64))
    });
    let log = log.map_err(|e| io_err(&path, e))?;
    Ok(Deposits { log, pending })
}

impl ShardedArchive {
    /// Open (creating if needed) a sharded archive with `shards` shards.
    /// The count is fixed at first open and persisted in `shards.json`;
    /// later opens use the persisted count and ignore the argument —
    /// resharding an existing archive is not supported.
    pub fn open(root: impl Into<PathBuf>, shards: usize) -> Result<ShardedArchive, ArchiveError> {
        let root: PathBuf = root.into();
        fs::create_dir_all(&root).map_err(|e| io_err(&root, e))?;
        let meta_path = root.join("shards.json");
        let count = match fs::read_to_string(&meta_path) {
            Ok(text) => {
                let meta: ShardMeta = serde_json::from_str(&text)
                    .map_err(|e| ArchiveError::Format(format!("{}: {e}", meta_path.display())))?;
                meta.shards
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                let count = shards.clamp(1, 256);
                let meta = ShardMeta {
                    format_version: 1,
                    shards: count,
                };
                let body = serde_json::to_string_pretty(&meta)
                    .map_err(|e| ArchiveError::Format(e.to_string()))?;
                let written = file::replace(&meta_path, body.as_bytes(), true);
                written.map_err(|e| io_err(&meta_path, e))?;
                count
            }
            Err(e) => return Err(io_err(&meta_path, e)),
        };
        let mut opened = Vec::with_capacity(count);
        for i in 0..count {
            let dir = root.join(format!("shard-{i:02}"));
            opened.push(Shard {
                archive: Archive::open(&dir)?,
                deposits: Mutex::new(recover_deposits(&dir)?),
            });
        }
        Ok(ShardedArchive {
            root,
            shards: opened,
            fold: Mutex::new(()),
        })
    }

    /// Archive root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Which shard a key routes to: the top bits of its routing
    /// fingerprint, i.e. an equal split of the fingerprint range.
    pub fn shard_for(&self, key: &ArchiveKey) -> usize {
        ((route_fp(key) as u128 * self.shards.len() as u128) >> 64) as usize
    }

    /// Deposit a finished job's record without touching the shard's main
    /// files: one durable append of `<key-id>.<tag> <record>` to the
    /// shard's deposit log. `tag` must be unique per logical result (the
    /// daemon passes the job fingerprint) — identical tags overwrite,
    /// which is exactly right for at-most-once dedupe of replayed
    /// submissions.
    pub fn deposit(&self, record: &ArchiveRecord, tag: &str) -> Result<(), ArchiveError> {
        if tag.contains(char::is_whitespace) {
            return Err(ArchiveError::Format(format!("deposit tag {tag:?}")));
        }
        let name = format!("{}.{tag}", record.key.id());
        let json =
            serde_json::to_string(record).map_err(|e| ArchiveError::Format(e.to_string()))?;
        let line = format!("{name} {json}\n");
        let shard = &self.shards[self.shard_for(&record.key)];
        let mut deposits = shard.deposits.lock();
        let at = deposits.log.append(line.as_bytes(), true);
        let at = at.map_err(|e| io_err(deposits.log.path(), e))?;
        let json = (at + name.len() as u64 + 1, json.len() as u64);
        deposits.pending.insert(name, json);
        Ok(())
    }

    /// Fold every shard's pending records into its main archive (batched
    /// single-lock merge, name order) and empty its deposit log. Returns
    /// the number of records folded.
    pub fn compact(&self) -> Result<usize, ArchiveError> {
        let _fold = self.fold.lock();
        let mut folded = 0;
        for shard in &self.shards {
            // Held across the fold: see the module docs.
            let mut deposits = shard.deposits.lock();
            if deposits.pending.is_empty() {
                continue;
            }
            let records = parse(&deposits.texts("")?)?;
            // Cross-backend merges are deliberate here: different jobs
            // may legitimately tune the same key under different backend
            // rosters, and the service archive keeps per-point provenance.
            shard.archive.merge_batch(&records, true)?;
            let reset = deposits.log.reset();
            reset.map_err(|e| io_err(deposits.log.path(), e))?;
            deposits.pending.clear();
            folded += records.len();
        }
        Ok(folded)
    }

    /// The merged view of one key: the compacted shard record plus any
    /// still-pending deposits, combined in memory.
    pub fn get(&self, key: &ArchiveKey) -> Result<Option<ArchiveRecord>, ArchiveError> {
        let _fold = self.fold.lock();
        let shard = &self.shards[self.shard_for(key)];
        let mut merged = shard.archive.get(key)?;
        let pending = shard.deposits.lock().texts(&format!("{}.", key.id()))?;
        for rec in parse(&pending)? {
            match merged.as_mut() {
                Some(m) => {
                    m.merge_across_backends(&rec)?;
                }
                None => {
                    let mut first = rec.clone();
                    first.canonicalize();
                    merged = Some(first);
                }
            }
        }
        Ok(merged)
    }

    /// Every key present in any shard (compacted or pending), sorted.
    pub fn keys(&self) -> Result<Vec<ArchiveKey>, ArchiveError> {
        let mut keys = Vec::new();
        for shard in &self.shards {
            keys.extend(shard.archive.keys()?);
            // `<key-id>.<tag>` — the key id is the first dot-field (it
            // contains no dots itself).
            let deposits = shard.deposits.lock();
            let ids = deposits
                .pending
                .keys()
                .filter_map(|name| name.split('.').next());
            keys.extend(ids.filter_map(ArchiveKey::parse_id));
        }
        keys.sort_by_key(|k| k.id());
        keys.dedup();
        Ok(keys)
    }

    /// Best warm start for `key` on `target`, over the merged view:
    /// exact-key hit → trusted hints; otherwise the feature-nearest
    /// machine's front transfers as seeds. Mirrors
    /// `Archive::warm_start_for`.
    pub fn warm_start_for(
        &self,
        key: &ArchiveKey,
        target: &MachineFeatures,
    ) -> Result<Option<(WarmStart, moat_archive::WarmStartSource)>, ArchiveError> {
        if let Some(rec) = self.get(key)? {
            if !rec.front.is_empty() {
                return Ok(Some((
                    rec.warm_start(),
                    moat_archive::WarmStartSource::Exact,
                )));
            }
        }
        let mut best: Option<(ArchiveRecord, f64)> = None;
        for candidate in self.keys()? {
            if !candidate.same_problem(key) || candidate == *key {
                continue;
            }
            let Some(rec) = self.get(&candidate)? else {
                continue;
            };
            let d = rec.machine.distance(target);
            if best.as_ref().is_none_or(|(_, bd)| d < *bd) {
                best = Some((rec, d));
            }
        }
        match best {
            Some((rec, distance)) if !rec.front.is_empty() => Ok(Some((
                rec.transfer_warm_start(),
                moat_archive::WarmStartSource::Transfer {
                    machine: rec.machine.name.clone(),
                    distance,
                },
            ))),
            _ => Ok(None),
        }
    }

    /// The whole archive (merged view) as one pretty JSON array in key
    /// order — the byte-comparable determinism surface used by the smoke
    /// and 1-vs-N-clients tests.
    pub fn export_json(&self) -> Result<String, ArchiveError> {
        let mut records = Vec::new();
        for key in self.keys()? {
            if let Some(rec) = self.get(&key)? {
                records.push(rec);
            }
        }
        serde_json::to_string_pretty(&records).map_err(|e| ArchiveError::Format(e.to_string()))
    }
}

impl std::fmt::Debug for ShardedArchive {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedArchive")
            .field("root", &self.root)
            .field("shards", &self.shards.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moat_archive::FORMAT_VERSION;
    use moat_core::Point;
    use moat_machine::MachineDesc;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("moat-shard-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn record(key: ArchiveKey, points: Vec<Point>) -> ArchiveRecord {
        let mut rec = ArchiveRecord {
            format_version: FORMAT_VERSION,
            key,
            region: "mm".into(),
            skeleton: "tile3".into(),
            machine: MachineDesc::westmere().features(),
            param_names: vec!["ti".into(), "threads".into()],
            objective_names: vec!["time".into(), "resources".into()],
            evaluations: points.len() as u64,
            runs: 1,
            front: Vec::new(),
        };
        rec.merge_points(&points);
        rec
    }

    #[test]
    fn shard_count_is_sticky_and_routing_total() {
        let dir = tmpdir("route");
        let a = ShardedArchive::open(&dir, 4).unwrap();
        assert_eq!(a.shard_count(), 4);
        // Reopen with a different requested count: the persisted map wins.
        let b = ShardedArchive::open(&dir, 16).unwrap();
        assert_eq!(b.shard_count(), 4);
        for i in 0..64 {
            let key = ArchiveKey::new(i, i * 7, i * 13);
            let s = a.shard_for(&key);
            assert!(s < 4);
            assert_eq!(s, b.shard_for(&key), "routing stable across opens");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn deposit_is_visible_before_and_after_compaction() {
        let dir = tmpdir("deposit");
        let a = ShardedArchive::open(&dir, 2).unwrap();
        let key = ArchiveKey::new(1, 2, 3);
        let rec = record(key, vec![Point::new(vec![1, 1], vec![1.0, 9.0])]);
        a.deposit(&rec, "aaaa").unwrap();

        // Merged read sees the pending deposit.
        let seen = a.get(&key).unwrap().unwrap();
        assert_eq!(seen.front, rec.front);

        // A second deposit on the same key from another "job".
        let rec2 = record(key, vec![Point::new(vec![2, 1], vec![0.5, 8.0])]);
        a.deposit(&rec2, "bbbb").unwrap();

        assert_eq!(a.compact().unwrap(), 2);
        assert_eq!(a.compact().unwrap(), 0, "incoming drained");
        let folded = a.get(&key).unwrap().unwrap();
        assert_eq!(folded.runs, 2);
        assert_eq!(folded.front.len(), 1, "dominated point folded away");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn export_is_deterministic_for_a_deposit_set() {
        let run = |dir: &Path, order: &[usize]| -> String {
            let a = ShardedArchive::open(dir, 3).unwrap();
            let recs: Vec<ArchiveRecord> = (0..4u64)
                .map(|i| {
                    record(
                        ArchiveKey::new(i, 2, 3),
                        vec![Point::new(
                            vec![i as i64, 1],
                            vec![i as f64, 4.0 - i as f64],
                        )],
                    )
                })
                .collect();
            for &i in order {
                a.deposit(&recs[i], &format!("{:04x}", i)).unwrap();
            }
            a.compact().unwrap();
            a.export_json().unwrap()
        };
        let d1 = tmpdir("det1");
        let d2 = tmpdir("det2");
        // Same deposit set, different arrival order → identical bytes
        // (the fold sorts by filename, names depend only on key + tag).
        let x = run(&d1, &[0, 1, 2, 3]);
        let y = run(&d2, &[3, 1, 0, 2]);
        assert_eq!(x, y);
        let _ = fs::remove_dir_all(&d1);
        let _ = fs::remove_dir_all(&d2);
    }

    #[test]
    fn warm_start_prefers_exact_over_transfer() {
        let dir = tmpdir("warm");
        let a = ShardedArchive::open(&dir, 2).unwrap();
        let here = MachineDesc::westmere();
        let target = here.features();
        let key = ArchiveKey::new(10, 20, target.fingerprint());
        assert!(a.warm_start_for(&key, &target).unwrap().is_none());

        // Same problem, different machine: transfer.
        let mut far = MachineDesc::westmere();
        far.name = "far".into();
        far.sockets *= 2;
        let far_key = key.on_machine(far.features().fingerprint());
        let mut rec = record(far_key, vec![Point::new(vec![2, 2], vec![3.0, 4.0])]);
        rec.machine = far.features();
        a.deposit(&rec, "cafe").unwrap();
        let (warm, source) = a.warm_start_for(&key, &target).unwrap().unwrap();
        assert!(warm.hints.is_empty());
        assert!(matches!(
            source,
            moat_archive::WarmStartSource::Transfer { .. }
        ));

        // Exact hit (still only in incoming) wins with hints.
        a.deposit(
            &record(key, vec![Point::new(vec![3, 3], vec![0.5, 0.5])]),
            "beef",
        )
        .unwrap();
        let (warm, source) = a.warm_start_for(&key, &target).unwrap().unwrap();
        assert_eq!(source, moat_archive::WarmStartSource::Exact);
        assert_eq!(warm.hints.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    fn deposit_log(dir: &Path, archive: &ShardedArchive, key: &ArchiveKey) -> PathBuf {
        let shard = format!("shard-{:02}", archive.shard_for(key));
        dir.join(shard).join("incoming.jsonl")
    }

    /// Two deposits acknowledged, then the log cut at every byte of a
    /// third (same key, so the merged view shows it): a reopened archive
    /// reads the view before that deposit or after it, never a third thing
    /// and never an error, and its next deposit lands after the
    /// acknowledged prefix and folds with the rest.
    #[test]
    fn every_crash_point_of_the_last_deposit_recovers_the_acknowledged_prefix() {
        let dir = tmpdir("crash");
        let key = ArchiveKey::new(1, 2, 3);
        let other = ArchiveKey::new(4, 5, 6);
        let point = |x: i64, t: f64| record(key, vec![Point::new(vec![x, 1], vec![t, 10.0 - t])]);
        let a = ShardedArchive::open(&dir, 1).unwrap();
        a.deposit(&point(1, 1.0), "aaaa").unwrap();
        a.deposit(
            &record(other, vec![Point::new(vec![9, 9], vec![1.0, 1.0])]),
            "aaaa",
        )
        .unwrap();
        let log = deposit_log(&dir, &a, &key);
        let before = a.export_json().unwrap();
        let before_len = fs::metadata(&log).unwrap().len();
        a.deposit(&point(2, 2.0), "bbbb").unwrap();
        let after = a.export_json().unwrap();
        assert_ne!(before, after);
        drop(a);
        let full = fs::read(&log).unwrap();

        for cut in before_len..=full.len() as u64 {
            fs::write(&log, &full[..cut as usize]).unwrap();
            let a = ShardedArchive::open(&dir, 1).expect("a torn tail is not corruption");
            let whole = cut == full.len() as u64;
            let got = a.export_json().unwrap();
            assert_eq!(
                got,
                if whole { after.clone() } else { before.clone() },
                "cut at byte {cut}"
            );
            assert_eq!(
                fs::metadata(&log).unwrap().len(),
                cut,
                "reading cuts nothing"
            );

            a.deposit(&point(3, 3.0), "cccc").unwrap();
            let merged = a.get(&key).unwrap().unwrap();
            assert_eq!(merged.runs, if whole { 3 } else { 2 }, "cut at byte {cut}");
            assert_eq!(merged.front.len(), merged.runs as usize);
            let pending = a.export_json().unwrap();
            assert_eq!(a.compact().unwrap(), merged.runs as usize + 1);
            assert_eq!(fs::metadata(&log).unwrap().len(), 0, "folded and emptied");
            assert_eq!(
                a.export_json().unwrap(),
                pending,
                "the fold is the merged view"
            );
            // Back to nothing folded for the next cut.
            drop(a);
            for entry in fs::read_dir(log.parent().unwrap()).unwrap().flatten() {
                fs::remove_file(entry.path()).unwrap();
            }
        }

        // A whole line that is no deposit is corruption, not a crash.
        fs::write(&log, "nameless\n").unwrap();
        let err = ShardedArchive::open(&dir, 1).expect_err("must not open");
        assert!(err.to_string().contains("incoming.jsonl"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    /// A deposit log that survives a crash between `merge_batch` and its
    /// truncate is folded again by the next start. The front comes out
    /// identical — a point merged twice is one point — while `runs` and
    /// `evaluations`, which count deposits, count this one twice: what a
    /// left-over `incoming/` file did under the layout before, no worse.
    #[test]
    fn a_log_that_outlives_its_fold_is_folded_again() {
        let dir = tmpdir("refold");
        let key = ArchiveKey::new(1, 2, 3);
        let a = ShardedArchive::open(&dir, 2).unwrap();
        let points = vec![
            Point::new(vec![1, 1], vec![1.0, 9.0]),
            Point::new(vec![2, 1], vec![2.0, 8.0]),
        ];
        a.deposit(&record(key, points), "aaaa").unwrap();
        let log = deposit_log(&dir, &a, &key);
        let survived = fs::read(&log).unwrap();
        assert_eq!(a.compact().unwrap(), 1);
        let folded_once = a.get(&key).unwrap().unwrap();
        assert_eq!((folded_once.runs, folded_once.evaluations), (1, 2));
        drop(a);

        fs::write(&log, survived).unwrap();
        let a = ShardedArchive::open(&dir, 2).unwrap();
        let seen = a.get(&key).unwrap().unwrap();
        assert_eq!(a.compact().unwrap(), 1);
        let folded_twice = a.get(&key).unwrap().unwrap();
        assert_eq!(folded_twice.front, folded_once.front);
        assert_eq!((folded_twice.runs, folded_twice.evaluations), (2, 4));
        assert_eq!(
            (seen.runs, seen.evaluations, &seen.front),
            (2, 4, &folded_once.front)
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// Deposits racing the compactor: each is folded exactly once —
    /// `runs` counts them — whether it landed before a fold or in the log
    /// that fold emptied, and a same-tag deposit replaces the pending one.
    #[test]
    fn a_deposit_during_a_fold_is_neither_lost_nor_folded_twice() {
        let dir = tmpdir("race");
        let a = ShardedArchive::open(&dir, 2).unwrap();
        let keys: Vec<ArchiveKey> = (0..4).map(|k| ArchiveKey::new(k, 2, 3)).collect();
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                while !done.load(std::sync::atomic::Ordering::Relaxed) {
                    a.compact().unwrap();
                }
            });
            for n in 0..100u32 {
                let key = keys[n as usize % keys.len()];
                let rec = record(
                    key,
                    vec![Point::new(vec![n as i64, 1], vec![n as f64, 1.0])],
                );
                a.deposit(&rec, &format!("{n:04}")).unwrap();
                assert!(
                    a.get(&key).unwrap().unwrap().runs > n / 4,
                    "visible at once"
                );
            }
            done.store(true, std::sync::atomic::Ordering::Relaxed);
        });
        a.compact().unwrap();
        assert_eq!(a.compact().unwrap(), 0);
        for key in &keys {
            assert_eq!(a.get(key).unwrap().unwrap().runs, 25, "{}", key.id());
        }

        let again = record(keys[0], vec![Point::new(vec![7, 7], vec![0.5, 0.5])]);
        a.deposit(&again, "same").unwrap();
        a.deposit(&again, "same").unwrap();
        assert_eq!(
            a.get(&keys[0]).unwrap().unwrap().runs,
            26,
            "same tag, one deposit"
        );
        assert_eq!(a.compact().unwrap(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    /// The layout before this one kept a file per deposit in
    /// `shard-NN/incoming/`: whatever is still there was never folded, so
    /// the archive is refused — naming the directory — rather than opened
    /// without it. A directory a clean shutdown left empty is fine.
    #[test]
    fn unfolded_deposits_of_the_old_layout_are_refused() {
        let dir = tmpdir("old");
        drop(ShardedArchive::open(&dir, 2).unwrap());
        let old = dir.join("shard-01").join("incoming");
        fs::create_dir_all(&old).unwrap();
        drop(ShardedArchive::open(&dir, 2).expect("nothing un-folded"));
        fs::write(old.join("0-0-0.cafe.json"), "{}").unwrap();
        let err = ShardedArchive::open(&dir, 2).expect_err("must not open");
        assert!(err.to_string().contains(old.to_str().unwrap()), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }
}
