//! The daemon's job table on disk.
//!
//! ```text
//! <state>/jobs.json     snapshot: every row, one pretty-printed JSON array
//! <state>/jobs.journal  one compact `JobState` line per row change since
//!                       the snapshot (absent after a clean shutdown)
//! ```
//!
//! Both files go through [`moat_archive::file`]: the journal is an
//! [`AppendLog`] of lines, the snapshot an unsynced [`file::replace`].
//! Every change to the table touches exactly one row, so the hot path
//! appends that row ([`Journal::append`], one `write` — the same no-fsync
//! durability as the snapshot). The whole table is only serialised by
//! [`Journal::snapshot`], which then retires the journal.
//!
//! **Recovery** ([`load_job_table`]) is snapshot-then-journal, last row per
//! id wins. Replaying a journal over a snapshot that already contains its
//! rows is a no-op, so a crash between the snapshot's rename and the
//! journal's removal is harmless.

use crate::daemon::JobState;
use moat_archive::file::{self, AppendLog};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

const SNAPSHOT_FILE: &str = "jobs.json";
const JOURNAL_FILE: &str = "jobs.journal";

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
        !self.log.is_empty() && self.log.len() >= self.snapshot_bytes
    }

    /// Atomically rewrite the snapshot from `rows`, then retire the
    /// journal it supersedes.
    pub(crate) fn snapshot<'a>(
        &mut self,
        rows: impl Iterator<Item = &'a JobState>,
    ) -> std::io::Result<()> {
        let rows: Vec<&JobState> = rows.collect();
        let json = serde_json::to_string_pretty(&rows).expect("job table serializes");
        file::replace(&self.state_dir.join(SNAPSHOT_FILE), json.as_bytes(), false)?;
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
