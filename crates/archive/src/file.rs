//! The one way this workspace puts state on disk: a file either grows by
//! whole records ([`AppendLog`]) or is replaced whole ([`replace`]).
//!
//! **Append.** A record is acknowledged once its last byte is written.
//! Recovery walks the records from the front and stops at the first one
//! that is not all there — a crash mid-append — and the first append
//! after that cuts the torn tail off, so it never ends up in the middle.
//! A record that is all there but does not parse is corruption and fails
//! the recovery. The serve daemon's job journal, artifact log, deposit
//! logs and service logs are this primitive under different record
//! shapes.
//!
//! **Replace.** [`replace`] writes the new bytes to [`temp_of`] the
//! target, syncs them when asked and `rename`s the temp over the target.
//! The rename is atomic, so at any crash point the target holds its old
//! bytes or its new ones, never a mix; a temp left by a crash is dead
//! weight that [`sweep`] removes. Which writes sync: checkpoints, archive
//! records and `shards.json` do; the serve job-table snapshot and the
//! port file do not (a crash may lose their last version, never tear
//! one).
//!
//! With these two sequences one enumeration of crash points covers every
//! state file in the workspace.

use crate::store::ArchiveError;
use std::fs::{self, File, OpenOptions};
use std::io::{BufRead, BufReader, Write as _};
use std::os::unix::fs::FileExt as _;
use std::path::{Path, PathBuf};

/// An I/O error on `path`, as the archive reports it.
pub fn io_err(path: &Path, e: std::io::Error) -> ArchiveError {
    ArchiveError::Io(format!("{}: {e}", path.display()))
}

/// Where [`replace`] stages the new bytes of `path`: `<dir>/<name>.tmp`.
pub fn temp_of(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Atomically replace the contents of `path` with `bytes`: write them to
/// [`temp_of`]`(path)`, `sync_all` that file when `sync` is set, then
/// `rename` it over `path`.
pub fn replace(path: &Path, bytes: &[u8], sync: bool) -> std::io::Result<()> {
    let tmp = temp_of(path);
    let mut file = File::create(&tmp)?;
    file.write_all(bytes)?;
    if sync {
        file.sync_all()?;
    }
    drop(file);
    fs::rename(&tmp, path)
}

/// Remove every temp a crashed [`replace`] left in `dir` (any `*.tmp`
/// file). Best-effort: a concurrent writer may rename its temp away
/// between the listing and the unlink, and a directory is left alone.
pub fn sweep(dir: &Path) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        if entry
            .file_name()
            .to_str()
            .is_some_and(|n| n.ends_with(".tmp"))
        {
            let _ = fs::remove_file(entry.path());
        }
    }
}

/// An append-only file of self-delimiting records (see the module docs).
pub struct AppendLog {
    path: PathBuf,
    /// Read-only from [`recover`](Self::recover) when the file was there;
    /// read + append from the first append on.
    file: Option<File>,
    writable: bool,
    /// Acknowledged bytes.
    len: u64,
}

impl AppendLog {
    /// Walk the records of `path` (absent is empty) from the front.
    /// `record` consumes the one at the reader's position — it is told
    /// that offset and how many bytes are left — and returns its length,
    /// or `None` when what is left is less than a record: the torn tail,
    /// where the walk stops. Nothing is written or cut here, so a log can
    /// be recovered beside the process that appends to it.
    pub fn recover(
        path: PathBuf,
        mut record: impl FnMut(&mut BufReader<&File>, u64, u64) -> std::io::Result<Option<u64>>,
    ) -> std::io::Result<AppendLog> {
        // Anything but a regular file reads as empty; appending finds out.
        let file = File::open(&path)
            .ok()
            .filter(|f| f.metadata().is_ok_and(|m| m.is_file()));
        let mut len = 0;
        if let Some(file) = &file {
            let size = file.metadata()?.len();
            let mut reader = BufReader::new(file);
            while len < size {
                match record(&mut reader, len, size - len)? {
                    Some(n) => len += n,
                    None => break,
                }
            }
        }
        Ok(AppendLog {
            path,
            file,
            writable: false,
            len,
        })
    }

    /// The record at the reader's position when records are lines: its
    /// bytes, newline included, or `None` for an unterminated tail.
    pub fn line(reader: &mut impl BufRead) -> std::io::Result<Option<Vec<u8>>> {
        let mut line = Vec::new();
        reader.read_until(b'\n', &mut line)?;
        Ok(line.ends_with(b"\n").then_some(line))
    }

    /// A line record that is one JSON value.
    pub fn json<T: serde::Deserialize>(line: &[u8]) -> Result<T, String> {
        let text = std::str::from_utf8(line).map_err(|e| e.to_string())?;
        serde_json::from_str(text.trim_end()).map_err(|e| e.to_string())
    }

    /// Acknowledged bytes: where the next record will start.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when no byte is acknowledged.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The log's file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Create the file if need be and cut it back to its acknowledged
    /// prefix now rather than at the first append.
    pub fn cut(&mut self) -> std::io::Result<()> {
        self.writer().map(drop)
    }

    /// The file opened for appending, created if need be and cut back to
    /// its acknowledged prefix.
    fn writer(&mut self) -> std::io::Result<&File> {
        if !self.writable {
            let file = OpenOptions::new()
                .read(true)
                .append(true)
                .create(true)
                .open(&self.path)?;
            file.set_len(self.len)?;
            self.file = Some(file);
            self.writable = true;
        }
        Ok(self.file.as_ref().expect("just opened"))
    }

    /// Append one record with a single `write` — durably with `sync`,
    /// otherwise as durable as the page cache — and return its offset.
    pub fn append(&mut self, record: &[u8], sync: bool) -> std::io::Result<u64> {
        let mut file = self.writer()?;
        let written = file.write_all(record);
        let written = written.and_then(|()| if sync { file.sync_all() } else { Ok(()) });
        if let Err(e) = written {
            // Reopen next time: that cuts whatever part of it landed.
            self.writable = false;
            return Err(e);
        }
        let at = self.len;
        self.len += record.len() as u64;
        Ok(at)
    }

    /// `len` acknowledged bytes starting at `at`.
    pub fn read_at(&self, at: u64, len: u64) -> std::io::Result<Vec<u8>> {
        pread(
            self.file.as_ref().ok_or(std::io::ErrorKind::NotFound)?,
            at,
            len,
        )
    }

    /// A second handle on the file, for [`pread`]s that do not go through
    /// whatever lock guards the appender.
    pub fn reader(&self) -> Option<File> {
        self.file.as_ref()?.try_clone().ok()
    }

    /// Empty the log in place: every record in it has been folded into
    /// something more durable.
    pub fn reset(&mut self) -> std::io::Result<()> {
        self.writer()?.set_len(0)?;
        self.len = 0;
        Ok(())
    }

    /// Empty the log by removing its file; the next append recreates it.
    pub fn remove(&mut self) -> std::io::Result<()> {
        self.file = None;
        self.writable = false;
        match fs::remove_file(&self.path) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e),
            _ => {
                self.len = 0;
                Ok(())
            }
        }
    }
}

/// `len` bytes of `file` starting at `at`, without a seek: readers of one
/// handle disturb neither each other nor the appender.
pub fn pread(file: &File, at: u64, len: u64) -> std::io::Result<Vec<u8>> {
    let mut bytes = vec![0; len as usize];
    file.read_exact_at(&mut bytes, at)?;
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("moat-file-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A replace is create-temp, write, sync (or not), rename. Whatever
    /// instant the writer dies at — temp absent, cut at any prefix,
    /// complete, or renamed — the target holds its old bytes or the new
    /// ones, never anything else; and `sweep` then removes the temp and
    /// nothing else.
    #[test]
    fn every_crash_point_of_a_replace_leaves_the_old_or_the_new_bytes() {
        let dir = temp_dir("replace");
        let path = dir.join("state.json");
        let tmp = temp_of(&path);
        assert_eq!(tmp, dir.join("state.json.tmp"));
        let (old, new) = (&b"{\"v\":1}\n"[..], &b"{\"version\":2,\"rows\":[]}\n"[..]);
        let bystander = dir.join("other.json");
        fs::write(&bystander, b"untouched").unwrap();
        for has_old in [false, true] {
            for sync in [false, true] {
                let _ = fs::remove_file(&path);
                if has_old {
                    replace(&path, old, sync).unwrap();
                }
                let holds_old = |what: &str| {
                    let got = fs::read(&path).ok();
                    assert_eq!(got.as_deref(), has_old.then_some(old), "{what}");
                };
                holds_old("temp absent");
                for cut in 0..=new.len() {
                    fs::write(&tmp, &new[..cut]).unwrap();
                    holds_old(&format!("temp cut at {cut}"));
                    sweep(&dir);
                    assert!(!tmp.exists(), "stale temp swept");
                    holds_old(&format!("swept after a cut at {cut}"));
                }
                fs::write(&tmp, new).unwrap();
                fs::rename(&tmp, &path).unwrap();
                assert_eq!(fs::read(&path).unwrap(), new, "renamed");
                replace(&path, old, sync).unwrap();
                replace(&path, new, sync).unwrap();
                assert_eq!(fs::read(&path).unwrap(), new, "a whole replace");
                assert!(!tmp.exists(), "a whole replace leaves no temp");
            }
        }
        let mut names: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        names.sort();
        assert_eq!(names, ["other.json", "state.json"]);
        assert_eq!(fs::read(&bystander).unwrap(), b"untouched");
        let _ = fs::remove_dir_all(&dir);
    }

    /// `sweep` leaves a directory named like a temp alone and a missing
    /// directory is nothing to sweep.
    #[test]
    fn sweep_removes_temp_files_only() {
        let dir = temp_dir("sweep");
        fs::create_dir_all(dir.join("held.json.tmp")).unwrap();
        fs::write(dir.join(".legacy.tmp"), b"x").unwrap();
        fs::write(dir.join("tmp.json"), b"x").unwrap();
        sweep(&dir);
        sweep(&dir.join("absent"));
        assert!(dir.join("held.json.tmp").is_dir());
        assert!(!dir.join(".legacy.tmp").exists());
        assert!(dir.join("tmp.json").exists());
        let _ = fs::remove_dir_all(&dir);
    }
}
