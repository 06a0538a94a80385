//! The daemon's append-only files, and the job table kept in one of them.
//!
//! [`AppendLog`] is the one way this crate grows a file: a record is
//! acknowledged once its last byte is written, recovery walks the records
//! from the front and stops at the first one that is not all there — a
//! crash mid-append — and the first append after that cuts the torn tail
//! off, so it never ends up in the middle. A record that is all there but
//! does not parse is corruption and fails the recovery. The job-table
//! journal here, the artifact log ([`crate::artifacts`]) and each shard's
//! deposit log ([`crate::shard`]) are that primitive under three record
//! shapes, so one enumeration of crash points covers all of them.
//!
//! ```text
//! <state>/jobs.json     snapshot: every row, one pretty-printed JSON array
//! <state>/jobs.journal  one compact `JobState` line per row change since
//!                       the snapshot (absent after a clean shutdown)
//! ```
//!
//! Every change to the table touches exactly one row, so the hot path
//! appends that row ([`Journal::append`], one `write` — the same no-fsync
//! durability as the snapshot's tmp+rename). The whole table is only
//! serialised by [`Journal::snapshot`], which then retires the journal.
//!
//! **Recovery** ([`load_job_table`]) is snapshot-then-journal, last row per
//! id wins. Replaying a journal over a snapshot that already contains its
//! rows is a no-op, so a crash between the snapshot's rename and the
//! journal's removal is harmless.

use crate::daemon::JobState;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufRead, BufReader, Write as _};
use std::os::unix::fs::FileExt as _;
use std::path::{Path, PathBuf};

const SNAPSHOT_FILE: &str = "jobs.json";
const JOURNAL_FILE: &str = "jobs.journal";

/// An append-only file of self-delimiting records (see the module docs).
pub(crate) struct AppendLog {
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
    pub(crate) fn recover(
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
    pub(crate) fn line(reader: &mut impl BufRead) -> std::io::Result<Option<Vec<u8>>> {
        let mut line = Vec::new();
        reader.read_until(b'\n', &mut line)?;
        Ok(line.ends_with(b"\n").then_some(line))
    }

    /// A line record that is one JSON value.
    pub(crate) fn json<T: serde::Deserialize>(line: &[u8]) -> Result<T, String> {
        let text = std::str::from_utf8(line).map_err(|e| e.to_string())?;
        serde_json::from_str(text.trim_end()).map_err(|e| e.to_string())
    }

    /// Acknowledged bytes: where the next record will start.
    pub(crate) fn len(&self) -> u64 {
        self.len
    }

    pub(crate) fn path(&self) -> &Path {
        &self.path
    }

    /// Create the file if need be and cut it back to its acknowledged
    /// prefix now rather than at the first append.
    pub(crate) fn cut(&mut self) -> std::io::Result<()> {
        self.writer().map(drop)
    }

    /// The file opened for appending, created if need be and cut back to
    /// its acknowledged prefix.
    fn writer(&mut self) -> std::io::Result<&File> {
        if !self.writable {
            let file = std::fs::OpenOptions::new()
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
    pub(crate) fn append(&mut self, record: &[u8], sync: bool) -> std::io::Result<u64> {
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
    pub(crate) fn read_at(&self, at: u64, len: u64) -> std::io::Result<Vec<u8>> {
        pread(
            self.file.as_ref().ok_or(std::io::ErrorKind::NotFound)?,
            at,
            len,
        )
    }

    /// A second handle on the file, for [`pread`]s that do not go through
    /// whatever lock guards the appender.
    pub(crate) fn reader(&self) -> Option<File> {
        self.file.as_ref()?.try_clone().ok()
    }

    /// Empty the log in place: every record in it has been folded into
    /// something more durable.
    pub(crate) fn reset(&mut self) -> std::io::Result<()> {
        self.writer()?.set_len(0)?;
        self.len = 0;
        Ok(())
    }

    /// Empty the log by removing its file; the next append recreates it.
    pub(crate) fn remove(&mut self) -> std::io::Result<()> {
        self.file = None;
        self.writable = false;
        match std::fs::remove_file(&self.path) {
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
pub(crate) fn pread(file: &File, at: u64, len: u64) -> std::io::Result<Vec<u8>> {
    let mut bytes = vec![0; len as usize];
    file.read_exact_at(&mut bytes, at)?;
    Ok(bytes)
}

/// The job table a `moat-serve` state directory holds — live, cleanly
/// shut down or crashed — in id order.
pub fn load_job_table(state_dir: &Path) -> std::io::Result<Vec<JobState>> {
    if !state_dir.join(SNAPSHOT_FILE).exists() && !state_dir.join(JOURNAL_FILE).exists() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            format!("no {SNAPSHOT_FILE} or {JOURNAL_FILE} (is this a moat-serve state dir?)"),
        ));
    }
    Ok(replay(state_dir)?.0)
}

/// The recovered table and the journal behind it.
fn replay(state_dir: &Path) -> std::io::Result<(Vec<JobState>, AppendLog)> {
    let mut rows = BTreeMap::new();
    if let Ok(text) = std::fs::read_to_string(state_dir.join(SNAPSHOT_FILE)) {
        let snapshot: Vec<JobState> = serde_json::from_str(&text)
            .map_err(|e| std::io::Error::other(format!("corrupt {SNAPSHOT_FILE}: {e}")))?;
        rows.extend(snapshot.into_iter().map(|row| (row.id.clone(), row)));
    }
    let mut n = 0;
    let log = AppendLog::recover(state_dir.join(JOURNAL_FILE), |reader, _, _| {
        let Some(line) = AppendLog::line(reader)? else {
            return Ok(None);
        };
        n += 1;
        let row: JobState = AppendLog::json(&line)
            .map_err(|e| std::io::Error::other(format!("corrupt {JOURNAL_FILE} line {n}: {e}")))?;
        rows.insert(row.id.clone(), row);
        Ok(Some(line.len() as u64))
    })?;
    Ok((rows.into_values().collect(), log))
}

/// The write side: owned by the daemon's job table and driven under its
/// lock, so journal order is table order.
pub(crate) struct Journal {
    state_dir: PathBuf,
    log: AppendLog,
    /// Size of the last snapshot written by this process.
    snapshot_bytes: u64,
}

impl Journal {
    /// Recover the table of `state_dir` and the journal positioned after
    /// its last acknowledged row.
    pub(crate) fn recover(state_dir: &Path) -> std::io::Result<(Vec<JobState>, Journal)> {
        let (rows, log) = replay(state_dir)?;
        let journal = Journal {
            state_dir: state_dir.to_path_buf(),
            log,
            snapshot_bytes: 0,
        };
        Ok((rows, journal))
    }

    /// Append one row.
    pub(crate) fn append(&mut self, row: &JobState) -> std::io::Result<()> {
        let mut line = serde_json::to_string(row).expect("job row serializes");
        line.push('\n');
        self.log.append(line.as_bytes(), false).map(drop)
    }

    /// True once the journal has outgrown the last snapshot: rewriting
    /// the snapshot now costs no more than the appends since the last
    /// rewrite did, so compaction stays amortised constant per row.
    pub(crate) fn outgrown(&self) -> bool {
        self.log.len() > 0 && self.log.len() >= self.snapshot_bytes
    }

    /// Atomically rewrite the snapshot from `rows` (tmp + rename), then
    /// retire the journal it supersedes.
    pub(crate) fn snapshot<'a>(
        &mut self,
        rows: impl Iterator<Item = &'a JobState>,
    ) -> std::io::Result<()> {
        let rows: Vec<&JobState> = rows.collect();
        let json = serde_json::to_string_pretty(&rows).expect("job table serializes");
        let path = self.state_dir.join(SNAPSHOT_FILE);
        let tmp = path.with_extension("json.tmp");
        std::fs::write(&tmp, &json)?;
        std::fs::rename(&tmp, &path)?;
        self.snapshot_bytes = json.len() as u64;
        self.log.remove()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::JobStatus;
    use crate::spec::JobSpec;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("moat-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn row(n: u64, status: JobStatus) -> JobState {
        let spec: JobSpec = serde_json::from_str(&format!(
            r#"{{"tenant": "ténant", "kernel": "mm", "machine": "westmere",
                "strategy": "random", "seed": {n}}}"#
        ))
        .unwrap();
        JobState {
            id: format!("j{n:04}"),
            tenant: spec.tenant.clone(),
            fingerprint: spec.fingerprint_hex(),
            spec,
            status,
            serves_as: None,
            key: Some("k".into()),
            evaluations: n,
            iterations: 0,
            stop: None,
            error: None,
            resumed: false,
            replayed: false,
            warm: None,
        }
    }

    fn table(dir: &Path) -> String {
        serde_json::to_string(&load_job_table(dir).expect("loads")).unwrap()
    }

    /// Snapshot two rows, journal three changes, then cut the journal at
    /// every byte offset of the final record: the loader must return the
    /// table before that record or the table after it — never a third
    /// thing, never an error.
    #[test]
    fn every_crash_point_of_the_last_append_recovers_before_or_after() {
        let dir = temp_dir("crash");
        let (rows, mut journal) = Journal::recover(&dir).unwrap();
        assert!(rows.is_empty(), "a fresh directory starts the empty table");
        let err = load_job_table(&dir).expect_err("but is no state directory to read");
        assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
        let snap = [row(1, JobStatus::Done), row(2, JobStatus::Queued)];
        journal.snapshot(snap.iter()).unwrap();
        journal.append(&row(2, JobStatus::Running)).unwrap();
        journal.append(&row(3, JobStatus::Queued)).unwrap();
        let before = table(&dir);
        let before_len = std::fs::metadata(dir.join(JOURNAL_FILE)).unwrap().len();
        // The last record both changes a row and is the row's latest word.
        journal.append(&row(2, JobStatus::Done)).unwrap();
        let after = table(&dir);
        assert_ne!(before, after);
        let full = std::fs::read(dir.join(JOURNAL_FILE)).unwrap();

        for cut in before_len..=full.len() as u64 {
            std::fs::write(dir.join(JOURNAL_FILE), &full[..cut as usize]).unwrap();
            let got = table(&dir);
            let want = if cut == full.len() as u64 {
                &after
            } else {
                &before
            };
            assert_eq!(&got, want, "journal cut at byte {cut} of {}", full.len());

            // The write side resumes after the acknowledged prefix: the
            // torn tail is cut, not glued to the next row.
            let (_, mut resumed) = Journal::recover(&dir).unwrap();
            resumed.append(&row(4, JobStatus::Queued)).unwrap();
            let rows = load_job_table(&dir).expect("loads after resuming");
            assert_eq!(rows.len(), 4, "cut at byte {cut}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A line that is complete but does not parse is corruption, not a
    /// crash: the load fails and says which file.
    #[test]
    fn corrupt_line_before_the_last_fails_naming_the_journal() {
        let dir = temp_dir("corrupt");
        let (_, mut journal) = Journal::recover(&dir).unwrap();
        journal.append(&row(1, JobStatus::Queued)).unwrap();
        journal.append(&row(2, JobStatus::Queued)).unwrap();
        let text = std::fs::read_to_string(dir.join(JOURNAL_FILE)).unwrap();
        let (first, rest) = text.split_once('\n').unwrap();
        let broken = format!("{}\n{rest}", &first[..first.len() / 2]);
        std::fs::write(dir.join(JOURNAL_FILE), broken).unwrap();
        let err = load_job_table(&dir).expect_err("corrupt journal must not load");
        assert!(
            err.to_string().contains("corrupt jobs.journal line 1"),
            "{err}"
        );
        assert!(Journal::recover(&dir).is_err());

        std::fs::remove_file(dir.join(JOURNAL_FILE)).unwrap();
        std::fs::write(dir.join(SNAPSHOT_FILE), "[{").unwrap();
        let err = load_job_table(&dir).expect_err("corrupt snapshot must not load");
        assert!(err.to_string().contains("corrupt jobs.json"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A snapshot supersedes the journal and replaying a stale journal
    /// over it (crash between rename and removal) changes nothing.
    #[test]
    fn snapshot_retires_the_journal_and_stale_replay_is_a_no_op() {
        let dir = temp_dir("stale");
        let (_, mut journal) = Journal::recover(&dir).unwrap();
        assert!(!journal.outgrown(), "nothing appended yet");
        journal.append(&row(1, JobStatus::Queued)).unwrap();
        journal.append(&row(1, JobStatus::Done)).unwrap();
        assert!(journal.outgrown());
        let stale = std::fs::read(dir.join(JOURNAL_FILE)).unwrap();
        let live = load_job_table(&dir).unwrap();
        journal.snapshot(live.iter()).unwrap();
        assert!(!dir.join(JOURNAL_FILE).exists());
        assert!(!journal.outgrown());
        let compacted = table(&dir);
        std::fs::write(dir.join(JOURNAL_FILE), stale).unwrap();
        assert_eq!(table(&dir), compacted);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
