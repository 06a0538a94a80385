//! What finished jobs leave behind, in one append-only file.
//!
//! ```text
//! <state>/artifacts.log   {"id":"j0001","trace":N,"result":M}\n
//!                         <N bytes of trace JSONL><M bytes of result JSON>\n
//!                         … one such record per settled run
//! ```
//!
//! A run that is Done, Parked or Failed with something to show appends one
//! record — its obs trace (what `moat-tune --trace` writes for the same
//! spec and seed) and, when it finished, its pretty-printed
//! `ArchiveRecord` — with a single `write` to a file the daemon holds
//! open, before its row says so: the same no-fsync durability as the row
//! journal, and no file made per job. A length of 0 is "none yet". The
//! last record of an id wins, so a parked run's trace is superseded by the
//! one its resumed run leaves.
//!
//! The index is rebuilt by one scan at start that reads the header lines
//! and skips the bodies; ids are sequential, so it is a vector of offsets
//! (24 bytes a job), not a map of strings. Reads are `pread`s outside the
//! append lock. [`ArtifactLog::read_only`] is the offline reader
//! (`moat-report --from-serve`, tests): it recovers what was acknowledged
//! when it looked and never cuts or writes, so it is safe beside a live
//! daemon.

use moat_archive::file::{pread, AppendLog};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::fs::File;
use std::io::Read as _;
use std::path::Path;

const ARTIFACT_FILE: &str = "artifacts.log";

#[derive(Serialize, Deserialize)]
struct Header {
    id: String,
    trace: u64,
    result: u64,
}

/// Where one job's latest record keeps its two bodies.
#[derive(Clone, Copy, Default)]
struct Entry {
    /// Offset of the trace; the result follows it.
    at: u64,
    trace: u64,
    result: u64,
}

struct Inner {
    log: AppendLog,
    /// By the number in the job id.
    index: Vec<Entry>,
}

/// The number in a job id (`j0042`), which is its place in the index.
fn slot(id: &str) -> std::io::Result<usize> {
    let n = id.strip_prefix('j').and_then(|n| n.parse().ok());
    n.ok_or_else(|| std::io::Error::other(format!("{ARTIFACT_FILE}: job id {id:?} is not j<n>")))
}

/// Index the record of `header`, whose bodies start at `at`, under `slot`.
fn note(index: &mut Vec<Entry>, slot: usize, header: &Header, at: u64) {
    if index.len() <= slot {
        index.resize(slot + 1, Entry::default());
    }
    index[slot] = Entry {
        at,
        trace: header.trace,
        result: header.result,
    };
}

/// The artifact log of one state directory.
pub struct ArtifactLog {
    /// The read side; `None` when there is no file (yet) to read.
    reader: Option<File>,
    inner: Mutex<Inner>,
}

fn corrupt(at: u64, why: impl std::fmt::Display) -> std::io::Error {
    std::io::Error::other(format!("corrupt {ARTIFACT_FILE} at byte {at}: {why}"))
}

impl ArtifactLog {
    fn recover(state_dir: &Path) -> std::io::Result<Inner> {
        let mut index = Vec::new();
        let log = AppendLog::recover(state_dir.join(ARTIFACT_FILE), |reader, at, left| {
            let Some(line) = AppendLog::line(reader)? else {
                return Ok(None);
            };
            let header: Header = AppendLog::json(&line).map_err(|e| corrupt(at, e))?;
            let head = line.len() as u64;
            // Lengths no file holds are a record that is not all there.
            let bodies = header.trace.saturating_add(header.result);
            if bodies.saturating_add(head + 1) > left {
                return Ok(None);
            }
            reader.seek_relative(bodies as i64)?;
            let mut end = [0u8];
            reader.read_exact(&mut end)?;
            if end != *b"\n" {
                return Err(corrupt(at, "record does not end where its header says"));
            }
            note(&mut index, slot(&header.id)?, &header, at + head);
            Ok(Some(head + bodies + 1))
        })?;
        Ok(Inner { log, index })
    }

    /// The write side: recover the log of `state_dir`, create it if need
    /// be and cut a torn tail off.
    pub(crate) fn open(state_dir: &Path) -> std::io::Result<ArtifactLog> {
        let mut inner = Self::recover(state_dir)?;
        inner.log.cut()?;
        Ok(Self::over(inner))
    }

    /// The offline reader: what the log of `state_dir` held, acknowledged,
    /// at the time of the call (nothing, when there is no log). Changes no
    /// byte of it.
    pub fn read_only(state_dir: &Path) -> std::io::Result<ArtifactLog> {
        Self::recover(state_dir).map(Self::over)
    }

    fn over(inner: Inner) -> ArtifactLog {
        ArtifactLog {
            reader: inner.log.reader(),
            inner: Mutex::new(inner),
        }
    }

    /// Append job `id`'s record; an empty `result` is a run that has none.
    pub(crate) fn append(&self, id: &str, trace: &[u8], result: &[u8]) -> std::io::Result<()> {
        let header = Header {
            id: id.to_string(),
            trace: trace.len() as u64,
            result: result.len() as u64,
        };
        let mut record = serde_json::to_string(&header)
            .expect("header serializes")
            .into_bytes();
        record.push(b'\n');
        let head = record.len() as u64;
        record.extend_from_slice(trace);
        record.extend_from_slice(result);
        record.push(b'\n');
        let slot = slot(id)?;
        let mut inner = self.inner.lock();
        let at = inner.log.append(&record, false)?;
        note(&mut inner.index, slot, &header, at + head);
        Ok(())
    }

    fn entry(&self, id: &str) -> Option<Entry> {
        self.inner.lock().index.get(slot(id).ok()?).copied()
    }

    fn read(&self, at: u64, len: u64) -> Option<Vec<u8>> {
        if len == 0 {
            return None;
        }
        pread(self.reader.as_ref()?, at, len).ok()
    }

    /// The trace of job `id`'s latest run, if it left one.
    pub fn trace(&self, id: &str) -> Option<Vec<u8>> {
        let entry = self.entry(id)?;
        self.read(entry.at, entry.trace)
    }

    /// The result of job `id`, once it is Done.
    pub fn result(&self, id: &str) -> Option<Vec<u8>> {
        let entry = self.entry(id)?;
        self.read(entry.at + entry.trace, entry.result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("moat-artifacts-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A job's trace and result, as far as it left them.
    type Left = (Option<Vec<u8>>, Option<Vec<u8>>);

    /// Everything the log answers for the ids this module's tests use.
    fn view(log: &ArtifactLog) -> Vec<Left> {
        let ids = ["j0001", "j0002", "j0003", "j0004"];
        ids.iter()
            .map(|id| (log.trace(id), log.result(id)))
            .collect()
    }

    /// Three records, then the file cut at every byte of a fourth — which
    /// supersedes an earlier one, and whose bodies are full of newlines and
    /// of text that looks like a header: a reader sees the log before that
    /// record or after it, never a third thing and never an error, changes
    /// nothing, and the write side's next append lands after the
    /// acknowledged prefix.
    #[test]
    fn every_crash_point_of_the_last_record_recovers_the_acknowledged_prefix() {
        let dir = temp_dir("crash");
        let path = dir.join(ARTIFACT_FILE);
        let nothing = vec![(None, None); 4];
        assert_eq!(view(&ArtifactLog::read_only(&dir).unwrap()), nothing);
        assert!(!path.exists(), "reading creates nothing");
        let log = ArtifactLog::open(&dir).unwrap();
        log.append("j0001", b"parked\ntrace\n", b"").unwrap();
        log.append("j0003", b"t3\n", b"{\n  \"r\": 3\n}").unwrap();
        log.append("j0002", b"", b"").unwrap();
        let before = view(&log);
        assert_eq!(before[0], (Some(b"parked\ntrace\n".to_vec()), None));
        assert_eq!(before[1], (None, None), "lengths of 0 are none yet");
        assert_eq!(before[3], (None, None), "never recorded");
        let before_len = std::fs::metadata(&path).unwrap().len();
        let fake = b"{\"id\":\"j0004\",\"trace\":1,\"result\":1}\nxy\n";
        log.append("j0001", fake, b"{\n  \"r\": 1\n}").unwrap();
        let after = view(&log);
        assert_eq!(
            after[0].0.as_deref(),
            Some(&fake[..]),
            "the last record wins"
        );
        assert_eq!(after[3], (None, None), "a body is not scanned for headers");
        drop(log);
        let full = std::fs::read(&path).unwrap();

        for cut in before_len..=full.len() as u64 {
            std::fs::write(&path, &full[..cut as usize]).unwrap();
            let offline = ArtifactLog::read_only(&dir).expect("a torn tail is not corruption");
            let whole = cut == full.len() as u64;
            assert_eq!(
                view(&offline),
                if whole { after.clone() } else { before.clone() }
            );
            assert_eq!(std::fs::metadata(&path).unwrap().len(), cut, "cuts nothing");

            let resumed = ArtifactLog::open(&dir).unwrap();
            resumed.append("j0004", b"t4\n", b"r4").unwrap();
            let mut want = if whole { after.clone() } else { before.clone() };
            want[3] = (Some(b"t4\n".to_vec()), Some(b"r4".to_vec()));
            assert_eq!(view(&resumed), want, "cut at byte {cut}");
            let reread = ArtifactLog::read_only(&dir).unwrap();
            assert_eq!(view(&reread), want, "cut at byte {cut}, read back");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A record that is all there and wrong — a header that does not
    /// parse, an id that is no job's, a body that does not end where the
    /// header says — is corruption: the load fails and names the file.
    #[test]
    fn a_complete_record_that_is_wrong_fails_naming_the_log() {
        let dir = temp_dir("corrupt");
        let path = dir.join(ARTIFACT_FILE);
        for bytes in [
            &b"{\"id\":\"j0001\",\"trace\":\n"[..],
            b"{\"id\":\"nobody\",\"trace\":0,\"result\":0}\n\n",
            b"{\"id\":\"j0001\",\"trace\":1,\"result\":1}\nabc\n",
        ] {
            std::fs::write(&path, bytes).unwrap();
            let err = ArtifactLog::read_only(&dir).err().expect("must not load");
            assert!(err.to_string().contains(ARTIFACT_FILE), "{err}");
            assert!(ArtifactLog::open(&dir).is_err());
            assert_eq!(std::fs::read(&path).unwrap(), bytes, "and is left alone");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Reads go past the append lock: whatever the index holds is all on
    /// disk, so a result read while other jobs append is complete.
    #[test]
    fn a_result_read_while_others_append_is_complete() {
        let dir = temp_dir("race");
        let log = ArtifactLog::open(&dir).unwrap();
        let body = |n: usize| format!("{n:05}").repeat(1000 + n).into_bytes();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for n in 1..=300 {
                    let trace = format!("t{n}\n");
                    log.append(&format!("j{n:04}"), trace.as_bytes(), &body(n))
                        .unwrap();
                }
            });
            let mut seen = 0;
            while seen < 300 {
                for n in (1..=300).rev() {
                    if let Some(result) = log.result(&format!("j{n:04}")) {
                        assert!(result == body(n), "j{n:04} read torn");
                        seen = seen.max(n);
                    }
                }
            }
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
}
