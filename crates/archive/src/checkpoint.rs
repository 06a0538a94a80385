//! Crash-safe session checkpoints: one self-verifying file, replaced
//! atomically.
//!
//! A [`CheckpointStore`] persists [`SessionCheckpoint`]s for
//! `moat-tune --resume` and the serve daemon. The file is two lines:
//!
//! ```text
//! {"seq":7,"bytes":36914,"fnv":"9c1f03a2b4d5e6f7"}    header
//! {"format_version":1,"strategy":"rs-gde3",...}        body
//! ```
//!
//! The header states what the body must be: its byte length (trailing
//! newline included), its FNV-64 checksum and the checkpoint's `seq`. A
//! save is one synced [`file::replace`]: both lines go to `<path>.tmp`,
//! which is fsynced once and `rename`d over `<path>`. The rename is atomic
//! and comes after the fsync, so `<path>` always holds a *complete*
//! checkpoint — the previous one or the new one — under `kill -9` at any
//! instant, and because the header travels inside the file it vouches
//! for, no second file has to reach the disk first.
//! [`CheckpointStore::load`] refuses a file whose body does not match its
//! header (torn, truncated or tampered); a file with no header line — a
//! hand-written checkpoint — is accepted on its contents alone. A stale
//! temp file from a crashed writer is swept on
//! [`create`](CheckpointStore::create).

use crate::file::{self, io_err, temp_of};
use crate::store::ArchiveError;
use moat_core::{CheckpointSink, SessionCheckpoint};
use std::fs;
use std::path::{Path, PathBuf};

/// FNV-1a over `bytes`, as hex: plenty to detect torn writes.
fn fnv64(bytes: &[u8]) -> String {
    format!("{:016x}", moat_obs::fnv1a(moat_obs::FNV_OFFSET, bytes))
}

fn format_err(path: &Path, e: impl std::fmt::Display) -> ArchiveError {
    ArchiveError::Format(format!("{}: {e}", path.display()))
}

/// The first line of a checkpoint file: what the body below it must be.
#[derive(serde::Serialize, serde::Deserialize)]
struct Header {
    seq: u64,
    bytes: u64,
    fnv: String,
}

/// Durable, self-verifying checkpoint file, for `moat-tune --checkpoint
/// <FILE>` / `--resume <FILE>` and the daemon's `<state>/ckpt/`.
#[derive(Debug)]
pub struct CheckpointStore {
    path: PathBuf,
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
        let tmp = temp_of(&path);
        if tmp.exists() {
            fs::remove_file(&tmp).map_err(|e| io_err(&tmp, e))?;
        }
        Ok(CheckpointStore {
            path,
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

    /// The checkpoint file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The error of the most recent save, if it failed. The
    /// [`CheckpointSink`] contract is infallible — a failing disk must
    /// not abort a tuning run — so a failure is parked here (and printed
    /// to stderr) instead of propagating.
    pub fn last_error(&self) -> Option<&ArchiveError> {
        self.last_error.as_ref()
    }

    /// Durably write `checkpoint`: header and body in one synced
    /// [`file::replace`]. See the module docs for the crash-safety
    /// argument.
    pub fn write(&self, checkpoint: &SessionCheckpoint) -> Result<(), ArchiveError> {
        let mut body = serde_json::to_string(checkpoint).map_err(|e| format_err(&self.path, e))?;
        body.push('\n');
        let header = Header {
            seq: checkpoint.seq,
            bytes: body.len() as u64,
            fnv: fnv64(body.as_bytes()),
        };
        let header = serde_json::to_string(&header).map_err(|e| format_err(&self.path, e))?;
        let bytes = format!("{header}\n{body}");
        file::replace(&self.path, bytes.as_bytes(), true).map_err(|e| io_err(&self.path, e))
    }

    /// Load and verify the checkpoint at `path`: the body's byte length
    /// and FNV-64 checksum must be the ones its header line states, and
    /// the header's `seq` the checkpoint's own. A file whose first line
    /// is not a header is a bare checkpoint and is parsed as one;
    /// `TuningSession::with_resume` validates the contents either way.
    pub fn load(path: impl AsRef<Path>) -> Result<SessionCheckpoint, ArchiveError> {
        let path = path.as_ref();
        let text = fs::read_to_string(path).map_err(|e| io_err(path, e))?;
        let header = text
            .split_once('\n')
            .and_then(|(first, body)| Some((serde_json::from_str::<Header>(first).ok()?, body)));
        let Some((header, body)) = header else {
            return serde_json::from_str(&text).map_err(|e| format_err(path, e));
        };
        if header.bytes != body.len() as u64 || header.fnv != fnv64(body.as_bytes()) {
            return Err(format_err(
                path,
                "checkpoint does not match its header (torn or tampered file)",
            ));
        }
        let checkpoint: SessionCheckpoint =
            serde_json::from_str(body).map_err(|e| format_err(path, e))?;
        if checkpoint.seq != header.seq {
            return Err(format_err(path, "header and checkpoint disagree on seq"));
        }
        Ok(checkpoint)
    }

    /// Remove the checkpoint at `path` and a temp file a failed save may
    /// have left beside it. Missing files are fine.
    pub fn remove(path: impl AsRef<Path>) {
        let _ = fs::remove_file(path.as_ref());
        let _ = fs::remove_file(temp_of(path.as_ref()));
    }
}

impl CheckpointSink for CheckpointStore {
    fn save(&mut self, checkpoint: &SessionCheckpoint) {
        self.last_error = self.write(checkpoint).err();
        if let Some(e) = &self.last_error {
            eprintln!("moat-archive: checkpoint save failed: {e}");
            // Surface the degradation the moment it happens, not on the
            // next save: operators scraping the trace (or the serve
            // daemon's parked-checkpoints gauge) learn immediately that
            // the on-disk resume point has gone stale.
            self.obs.emit(|| moat_obs::Event::CheckpointParked {
                path: self.path.display().to_string(),
                error: e.to_string(),
            });
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
        assert_eq!(CheckpointStore::load(&path).unwrap(), checkpoint(2, 20));
        // One file, whatever the number of saves: a header line, then the
        // body it vouches for.
        let names: Vec<_> = fs::read_dir(&dir).unwrap().flatten().collect();
        assert_eq!(names.len(), 1, "{names:?}");
        let text = fs::read_to_string(&path).unwrap();
        let (header, body) = text.split_once('\n').unwrap();
        assert_eq!(
            header,
            format!(
                "{{\"seq\":2,\"bytes\":{},\"fnv\":\"{}\"}}",
                body.len(),
                fnv64(body.as_bytes())
            )
        );
        assert_eq!(body.lines().count(), 1);
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

    /// The bytes a completed save of `ckpt` leaves at its path.
    fn saved_bytes(dir: &Path, ckpt: &SessionCheckpoint) -> Vec<u8> {
        let path = dir.join("scratch.ckpt");
        CheckpointStore::create(&path).unwrap().write(ckpt).unwrap();
        let bytes = fs::read(&path).unwrap();
        fs::remove_file(&path).unwrap();
        bytes
    }

    /// A save is create-temp, write, fsync, rename. Whatever instant the
    /// writer dies at — temp file absent, empty, cut at any byte, complete
    /// (synced or not, the bytes are the same) or already renamed — `load`
    /// yields the previous checkpoint or the new one, never a third thing,
    /// and the next incarnation sweeps the leftovers and saves normally.
    #[test]
    fn every_crash_point_loads_the_old_or_the_new_checkpoint() {
        let dir = tmpdir("crashpoints");
        let (old, new) = (checkpoint(1, 10), checkpoint(2, 20));
        fs::create_dir_all(&dir).unwrap();
        let new_bytes = saved_bytes(&dir, &new);
        let path = dir.join("run.ckpt");
        let tmp = dir.join("run.ckpt.tmp");
        for has_old in [false, true] {
            let _ = fs::remove_file(&path);
            if has_old {
                CheckpointStore::create(&path).unwrap().write(&old).unwrap();
            }
            let before_rename = |what: &str| match CheckpointStore::load(&path) {
                Ok(loaded) => assert!(has_old && loaded == old, "{what}: a third thing"),
                Err(e) => assert!(!has_old && matches!(e, ArchiveError::Io(_)), "{what}: {e}"),
            };
            before_rename("temp file absent");
            for cut in 0..=new_bytes.len() {
                fs::write(&tmp, &new_bytes[..cut]).unwrap();
                before_rename(&format!("temp file cut at {cut}"));
                CheckpointStore::create(&path).unwrap();
                assert!(!tmp.exists(), "stale temp swept");
            }
            fs::write(&tmp, &new_bytes).unwrap();
            fs::rename(&tmp, &path).unwrap();
            assert_eq!(CheckpointStore::load(&path).unwrap(), new, "renamed");
            let store = CheckpointStore::create(&path).unwrap();
            store.write(&checkpoint(3, 30)).unwrap();
            assert_eq!(CheckpointStore::load(&path).unwrap(), checkpoint(3, 30));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// What `load` refuses: every strict prefix of a saved file, the file
    /// with any one byte flipped, and one checkpoint's header over
    /// another's body.
    #[test]
    fn torn_flipped_and_mismatched_files_are_refused() {
        let dir = tmpdir("refused");
        fs::create_dir_all(&dir).unwrap();
        let bytes = saved_bytes(&dir, &checkpoint(12, 10));
        let path = dir.join("run.ckpt");
        let refused = |content: &[u8], what: &str| {
            fs::write(&path, content).unwrap();
            assert!(
                matches!(CheckpointStore::load(&path), Err(ArchiveError::Format(_))),
                "{what} must be refused"
            );
        };
        for cut in 0..bytes.len() {
            refused(&bytes[..cut], &format!("prefix of {cut} bytes"));
        }
        for at in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[at] ^= 1;
            refused(&flipped, &format!("byte {at} flipped"));
        }
        let other = saved_bytes(&dir, &checkpoint(12, 11));
        let newline = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        let other_newline = other.iter().position(|&b| b == b'\n').unwrap() + 1;
        refused(
            &[&bytes[..newline], &other[other_newline..]].concat(),
            "header over another checkpoint's body",
        );
        fs::write(&path, &bytes).unwrap();
        assert_eq!(CheckpointStore::load(&path).unwrap(), checkpoint(12, 10));
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
        // Make the save fail even for root: a file cannot be renamed over
        // a directory, so the very first save fails and parks.
        fs::create_dir_all(&path).unwrap();
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
        // Once the disk recovers, so does the store.
        fs::remove_dir(&path).unwrap();
        store.save(&checkpoint(2, 20));
        assert!(store.last_error().is_none());
        assert_eq!(CheckpointStore::load(&path).unwrap(), checkpoint(2, 20));
        CheckpointStore::remove(&path);
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 0, "file and temp gone");
        let _ = fs::remove_dir_all(&dir);
    }

    /// A file with no header line — a hand-written checkpoint — is
    /// accepted on its contents; a hand-*copied* one carries its header
    /// with it and is verified like any other.
    #[test]
    fn bare_checkpoints_load_and_copies_stay_verified() {
        let dir = tmpdir("bare");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bare.ckpt");
        let json = serde_json::to_string(&checkpoint(1, 10)).unwrap();
        let pretty = serde_json::to_string_pretty(&checkpoint(1, 10)).unwrap();
        for bare in [json.clone(), format!("{json}\n"), pretty] {
            fs::write(&path, bare).unwrap();
            assert_eq!(CheckpointStore::load(&path).unwrap(), checkpoint(1, 10));
        }
        let src = dir.join("run.ckpt");
        CheckpointStore::create(&src)
            .unwrap()
            .write(&checkpoint(1, 10))
            .unwrap();
        let copy = dir.join("copied.ckpt");
        fs::copy(&src, &copy).unwrap();
        assert_eq!(CheckpointStore::load(&copy).unwrap(), checkpoint(1, 10));
        let saved = fs::read(&copy).unwrap();
        fs::write(&copy, &saved[..saved.len() - 2]).unwrap();
        assert!(
            CheckpointStore::load(&copy).is_err(),
            "a cut copy is caught"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
