//! Crash-safe session checkpoints: atomic data file + write-ahead journal.
//!
//! A [`CheckpointStore`] persists [`SessionCheckpoint`]s for
//! `moat-tune --resume`. Every save follows a strict order:
//!
//! 1. append an intent entry (`seq`, byte length, FNV-64 checksum) to the
//!    journal at `<path>.wal` and fsync it,
//! 2. write the serialized checkpoint to `<path>.tmp` and fsync it,
//! 3. `rename` the temp file over `<path>`.
//!
//! The rename is atomic, so `<path>` always holds a *complete* checkpoint
//! — either the previous one or the new one — even under `kill -9` at any
//! instant. Because the journal entry lands (durably) before the rename
//! can happen, every version that can ever appear at `<path>` has a
//! matching journal entry; [`CheckpointStore::load`] verifies the
//! checksum against the journal and rejects anything torn or tampered.
//! Stale temp files from a crashed writer are swept on
//! [`create`](CheckpointStore::create).

use crate::store::ArchiveError;
use moat_core::{CheckpointSink, SessionCheckpoint};
use std::fs::{self, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// FNV-1a over `bytes` — the same cheap, dependency-free checksum family
/// used elsewhere in the workspace; plenty to detect torn writes.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn io_err(path: &Path, e: std::io::Error) -> ArchiveError {
    ArchiveError::Io(format!("{}: {e}", path.display()))
}

/// One line of the write-ahead journal.
#[derive(serde::Serialize, serde::Deserialize)]
struct WalEntry {
    seq: u64,
    bytes: u64,
    fnv: String,
}

/// Durable checkpoint file with a write-ahead journal, for
/// `moat-tune --checkpoint <FILE>` / `--resume <FILE>`.
#[derive(Debug)]
pub struct CheckpointStore {
    path: PathBuf,
    tmp: PathBuf,
    wal: PathBuf,
    last_error: Option<ArchiveError>,
    obs: moat_obs::Obs,
}

impl CheckpointStore {
    /// Open a store writing to `path` (parent directories are created).
    /// A stale `<path>.tmp` from a crashed writer is swept here.
    pub fn create(path: impl Into<PathBuf>) -> Result<CheckpointStore, ArchiveError> {
        let path: PathBuf = path.into();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent).map_err(|e| io_err(parent, e))?;
            }
        }
        let tmp = Self::sibling(&path, "tmp");
        let wal = Self::sibling(&path, "wal");
        if tmp.exists() {
            fs::remove_file(&tmp).map_err(|e| io_err(&tmp, e))?;
        }
        Ok(CheckpointStore {
            path,
            tmp,
            wal,
            last_error: None,
            obs: moat_obs::Obs::default(),
        })
    }

    /// Report parked saves on `obs` (the handle of the run being
    /// checkpointed). Untraced by default.
    pub fn with_obs(mut self, obs: moat_obs::Obs) -> Self {
        self.obs = obs;
        self
    }

    fn sibling(path: &Path, ext: &str) -> PathBuf {
        let mut name = path.file_name().unwrap_or_default().to_os_string();
        name.push(".");
        name.push(ext);
        path.with_file_name(name)
    }

    /// The checkpoint file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The write-ahead journal next to the checkpoint file.
    pub fn wal_path(&self) -> &Path {
        &self.wal
    }

    /// The error from the most recent failed save, if any. The
    /// [`CheckpointSink`] contract is infallible — a failing disk must
    /// not abort a tuning run — so failures are parked here (and printed
    /// to stderr) instead of propagating.
    pub fn last_error(&self) -> Option<&ArchiveError> {
        self.last_error.as_ref()
    }

    /// Durably write `checkpoint`: journal entry first, then atomic
    /// temp-file + rename. See the module docs for the crash-safety
    /// argument.
    pub fn write(&self, checkpoint: &SessionCheckpoint) -> Result<(), ArchiveError> {
        let mut body =
            serde_json::to_string(checkpoint).map_err(|e| ArchiveError::Format(e.to_string()))?;
        body.push('\n');

        // 1. Journal the intent, durably, before the data file can move.
        let entry = WalEntry {
            seq: checkpoint.seq,
            bytes: body.len() as u64,
            fnv: format!("{:016x}", fnv64(body.as_bytes())),
        };
        let line =
            serde_json::to_string(&entry).map_err(|e| ArchiveError::Format(e.to_string()))?;
        {
            let mut f = OpenOptions::new()
                .create(true)
                .append(true)
                .open(&self.wal)
                .map_err(|e| io_err(&self.wal, e))?;
            f.write_all(line.as_bytes())
                .and_then(|()| f.write_all(b"\n"))
                .and_then(|()| f.sync_all())
                .map_err(|e| io_err(&self.wal, e))?;
        }

        // 2. + 3. Full temp write, fsync, atomic rename.
        {
            let mut f = fs::File::create(&self.tmp).map_err(|e| io_err(&self.tmp, e))?;
            f.write_all(body.as_bytes())
                .and_then(|()| f.sync_all())
                .map_err(|e| io_err(&self.tmp, e))?;
        }
        fs::rename(&self.tmp, &self.path).map_err(|e| io_err(&self.path, e))
    }

    /// Load and verify the checkpoint at `path`.
    ///
    /// When a journal exists next to the file, the checkpoint's byte
    /// length and FNV-64 checksum must match one of its entries —
    /// anything else means a torn or tampered file. Torn trailing journal
    /// lines (a crash during the journal append itself) are skipped; the
    /// data file is then still the previous, already-journaled version.
    pub fn load(path: impl AsRef<Path>) -> Result<SessionCheckpoint, ArchiveError> {
        let path = path.as_ref();
        let body = fs::read_to_string(path).map_err(|e| io_err(path, e))?;
        let wal = Self::sibling(path, "wal");
        match fs::read_to_string(&wal) {
            Ok(journal) => {
                let sum = format!("{:016x}", fnv64(body.as_bytes()));
                let len = body.len() as u64;
                let ok = journal
                    .lines()
                    .filter_map(|l| serde_json::from_str::<WalEntry>(l).ok())
                    .any(|e| e.bytes == len && e.fnv == sum);
                if !ok {
                    return Err(ArchiveError::Format(format!(
                        "{}: checkpoint does not match any journal entry in {} \
                         (torn or tampered file)",
                        path.display(),
                        wal.display()
                    )));
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                // No journal (e.g. a hand-copied checkpoint): accept the
                // file on its own; `TuningSession::with_resume` still
                // validates the contents.
            }
            Err(e) => return Err(io_err(&wal, e)),
        }
        serde_json::from_str(&body)
            .map_err(|e| ArchiveError::Format(format!("{}: {e}", path.display())))
    }
}

impl CheckpointSink for CheckpointStore {
    fn save(&mut self, checkpoint: &SessionCheckpoint) {
        if let Err(e) = self.write(checkpoint) {
            eprintln!("moat-archive: checkpoint save failed: {e}");
            // Surface the degradation the moment it happens, not on the
            // next save: operators scraping the trace (or the serve
            // daemon's parked-checkpoints gauge) learn immediately that
            // the on-disk resume point has gone stale.
            self.obs.emit(|| moat_obs::Event::CheckpointParked {
                path: self.path.display().to_string(),
                error: e.to_string(),
            });
            self.last_error = Some(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moat_core::{TunerState, CHECKPOINT_FORMAT_VERSION};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("moat-ckpt-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn checkpoint(seq: u64, evaluations: u64) -> SessionCheckpoint {
        SessionCheckpoint {
            format_version: CHECKPOINT_FORMAT_VERSION,
            strategy: "random".into(),
            dims: 2,
            num_objectives: 2,
            evaluations,
            primed: 0,
            budget: Some(100),
            iteration: 3,
            budget_exhausted: false,
            seq,
            cache: vec![(vec![1, 2], Some(vec![0.5, 2.0])), (vec![3, 4], None)],
            tuner: TunerState::for_strategy("random"),
        }
    }

    #[test]
    fn save_load_roundtrip_keeps_latest() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("run.ckpt");
        let mut store = CheckpointStore::create(&path).unwrap();
        store.save(&checkpoint(1, 10));
        store.save(&checkpoint(2, 20));
        assert!(store.last_error().is_none());
        let loaded = CheckpointStore::load(&path).unwrap();
        assert_eq!(loaded, checkpoint(2, 20));
        // The journal holds one entry per save.
        let journal = fs::read_to_string(store.wal_path()).unwrap();
        assert_eq!(journal.lines().count(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_temp_is_swept_on_create() {
        let dir = tmpdir("sweep");
        let path = dir.join("run.ckpt");
        let mut store = CheckpointStore::create(&path).unwrap();
        store.save(&checkpoint(1, 10));
        // Simulate a writer killed between temp write and rename.
        let tmp = dir.join("run.ckpt.tmp");
        fs::write(&tmp, "{ torn").unwrap();
        let _ = CheckpointStore::create(&path).unwrap();
        assert!(!tmp.exists(), "stale temp swept");
        assert_eq!(CheckpointStore::load(&path).unwrap(), checkpoint(1, 10));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_data_file_is_rejected_by_the_journal() {
        let dir = tmpdir("torn");
        let path = dir.join("run.ckpt");
        let mut store = CheckpointStore::create(&path).unwrap();
        store.save(&checkpoint(1, 10));
        // Truncate the data file as a torn write would.
        let body = fs::read_to_string(&path).unwrap();
        fs::write(&path, &body[..body.len() / 2]).unwrap();
        assert!(matches!(
            CheckpointStore::load(&path),
            Err(ArchiveError::Format(_))
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_journal_tail_is_tolerated() {
        let dir = tmpdir("waltail");
        let path = dir.join("run.ckpt");
        let mut store = CheckpointStore::create(&path).unwrap();
        store.save(&checkpoint(1, 10));
        // A crash mid-append leaves a half line; the previous entry still
        // vouches for the data file.
        let mut journal = fs::read_to_string(store.wal_path()).unwrap();
        journal.push_str("{\"seq\":2,\"byt");
        fs::write(store.wal_path(), journal).unwrap();
        assert_eq!(CheckpointStore::load(&path).unwrap(), checkpoint(1, 10));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn parked_save_emits_keyed_event_immediately() {
        let dir = tmpdir("parked");
        let path = dir.join("run.ckpt");
        let obs = moat_obs::Obs::new(moat_obs::TimestampMode::Logical);
        let mut store = CheckpointStore::create(&path)
            .unwrap()
            .with_obs(obs.clone());
        // Make the journal unwritable even for root: a directory cannot
        // be opened for append, so the very first save fails and parks.
        fs::create_dir_all(store.wal_path()).unwrap();
        store.save(&checkpoint(1, 10));
        // The event must be drainable *now* — before any further save —
        // so monitors see the degradation the moment it happens.
        let records = obs.drain();
        assert!(store.last_error().is_some(), "error parked");
        assert!(
            records.iter().any(|r| matches!(
                &r.event,
                moat_obs::Event::CheckpointParked { path: p, error }
                    if p.ends_with("run.ckpt") && !error.is_empty()
            )),
            "checkpoint_parked event emitted at parking time: {records:?}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_without_journal_is_accepted() {
        let dir = tmpdir("nowal");
        let src = dir.join("run.ckpt");
        let mut store = CheckpointStore::create(&src).unwrap();
        store.save(&checkpoint(1, 10));
        // Hand-copy the checkpoint elsewhere, without its journal.
        let copy = dir.join("copied.ckpt");
        fs::copy(&src, &copy).unwrap();
        assert_eq!(CheckpointStore::load(&copy).unwrap(), checkpoint(1, 10));
        let _ = fs::remove_dir_all(&dir);
    }
}
