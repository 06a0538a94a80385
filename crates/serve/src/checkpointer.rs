//! Write-behind session checkpoints: one daemon-lifetime thread owns
//! `<state>/ckpt/`.
//!
//! A session offers a checkpoint at every safe boundary; assembling one
//! and making it durable costs a cache snapshot, a serialisation, a file
//! creation and an fsync, several times what the iteration it follows
//! took. Two things keep that off a job's bill. The sink decides which
//! offers are worth it: [`GaugedStore::due`] wants one once the run has
//! worked `WORK_PER_WRITE` (16) times as long as this daemon's last
//! durable write took, counted from its start or from the last offer it
//! wanted — so a job of a few milliseconds writes nothing, and what is
//! declined is never even assembled. Only while nobody knows what a write
//! costs here — none has finished yet in this daemon, or the last one
//! failed, which forgets the cost — is a run's first offer wanted
//! whatever it has worked: a sick checkpoint directory is found, parked
//! and gauged by every job until a write succeeds, even under jobs
//! shorter than one write. And what is wanted is written behind the
//! session: [`GaugedStore::save`] only clones the checkpoint into the
//! job's slot, where a newer one replaces an older one still waiting, and
//! the [`Checkpointer`] thread writes whatever is newest for each running
//! job through [`CheckpointStore`].
//! When the session has returned, the daemon
//! [`settle`](Checkpointer::settle)s the slot: a parking run waits until
//! its last checkpoint — the boundary it stopped at, which the session
//! saves without asking — is on disk; a finished or failed one drops
//! what is pending, waits out a write in flight and removes the files.
//!
//! What the file holds is always a complete, verified checkpoint of a
//! safe boundary (the store's guarantee), so a restart resumes
//! bit-identically from whichever write completed last: SIGTERM loses
//! nothing, `kill -9` re-does the work since that write — at most
//! that many writes' worth plus one iteration and the write in progress.

use crate::metrics::ServeMetrics;
use moat_archive::CheckpointStore;
use moat_core::{CheckpointSink, SessionCheckpoint};
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// How many times the duration of a durable write a run works between
/// two checkpoints it asks for: insurance costs a long run at most a
/// sixteenth of the writer thread's time on top of its own.
const WORK_PER_WRITE: u64 = 16;

/// One running job's slot.
struct Slot {
    /// `None` while the thread is writing through it.
    store: Option<CheckpointStore>,
    /// The newest checkpoint not yet written, and when it was handed off.
    pending: Option<(Instant, SessionCheckpoint)>,
    /// A write has been started for this run.
    attempted: bool,
    /// The error of this run's first failed write (gauged once).
    parked: Option<String>,
    /// What each checkpoint offer cost the session, in µs, in offer
    /// order: a save's hand-off, 0 for an offer declined.
    handoffs_us: Vec<u64>,
}

#[derive(Default)]
struct State {
    slots: HashMap<u64, Slot>,
    stop: bool,
}

/// The owner of a checkpoint directory: names the files, writes them
/// behind the sessions, removes them.
pub struct Checkpointer {
    dir: PathBuf,
    metrics: Arc<ServeMetrics>,
    state: Mutex<State>,
    /// What the last durable write took, in µs; 0 while that is unknown
    /// (none has finished yet, or the last one failed).
    last_write_us: AtomicU64,
    /// Signalled on every hand-off, finished write and stop request.
    changed: Condvar,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl Checkpointer {
    /// Start the writer thread over `dir`; [`shutdown`](Self::shutdown)
    /// joins it.
    pub fn start(dir: impl Into<PathBuf>, metrics: Arc<ServeMetrics>) -> Arc<Checkpointer> {
        let checkpointer = Arc::new(Checkpointer {
            dir: dir.into(),
            metrics,
            state: Mutex::default(),
            last_write_us: AtomicU64::new(0),
            changed: Condvar::new(),
            thread: Mutex::new(None),
        });
        let writer = Arc::clone(&checkpointer);
        let thread = std::thread::Builder::new()
            .name("serve-checkpointer".into())
            .spawn(move || writer.run())
            .expect("spawn checkpointer");
        *checkpointer.thread.lock() = Some(thread);
        checkpointer
    }

    /// The checkpoint file of the job with fingerprint `fp`.
    pub fn path(&self, fp: u64) -> PathBuf {
        self.dir.join(format!("{fp:016x}.ckpt"))
    }

    /// Open job `fp`'s slot and return the sink its session checkpoints
    /// through. The store is untraced: whether a run writes at all hangs
    /// on other jobs' write timing, which the job's trace must not show,
    /// so [`settle`](Self::settle) reports a failed write instead. A store
    /// that cannot
    /// even be created degrades the run to an uncheckpointed one (`None`):
    /// a sick checkpoint disk costs restart-resumability, never an
    /// otherwise-healthy job. The failure is counted into
    /// `serve_persist_errors_total` and the parked gauge.
    pub fn open(self: &Arc<Self>, fp: u64) -> Option<GaugedStore> {
        let Ok(store) = CheckpointStore::create(self.path(fp)) else {
            self.metrics.persist_errors.fetch_add(1, Ordering::Relaxed);
            self.metrics
                .parked_checkpoints
                .fetch_add(1, Ordering::Relaxed);
            return None;
        };
        let slot = Slot {
            store: Some(store),
            pending: None,
            attempted: false,
            parked: None,
            handoffs_us: Vec::new(),
        };
        self.state.lock().slots.insert(fp, slot);
        Some(GaugedStore {
            checkpointer: Arc::clone(self),
            fp,
            since: Instant::now(),
            offered: false,
        })
    }

    /// Job `fp`'s session has returned. With `keep` (the run was cancelled
    /// and parks) wait until its last checkpoint is on disk; without
    /// (Done, Failed, replayed) drop what is pending — unless nothing was
    /// written yet — wait out a write in flight and remove the files.
    /// Returns what each checkpoint offer of the run cost its session, in
    /// µs, and the error of its first failed write, if one parked.
    pub fn settle(&self, fp: u64, keep: bool) -> (Vec<u64>, Option<String>) {
        let mut state = self.state.lock();
        if let Some(slot) = state.slots.get_mut(&fp) {
            if !keep && slot.attempted && slot.pending.take().is_some() {
                self.count_superseded();
            }
        }
        while state
            .slots
            .get(&fp)
            .is_some_and(|slot| slot.pending.is_some() || slot.store.is_none())
        {
            self.changed.wait(&mut state);
        }
        // The slot goes under the lock the writer looks for work under:
        // nothing can be written for this run after the removal below.
        let slot = state.slots.remove(&fp);
        drop(state);
        if !keep {
            CheckpointStore::remove(self.path(fp));
        }
        slot.map(|slot| (slot.handoffs_us, slot.parked))
            .unwrap_or_default()
    }

    /// Write what is pending, then stop and join the thread.
    pub fn shutdown(&self) {
        self.state.lock().stop = true;
        self.changed.notify_all();
        if let Some(thread) = self.thread.lock().take() {
            let _ = thread.join();
        }
    }

    fn count_superseded(&self) {
        self.metrics
            .checkpoints_superseded
            .fetch_add(1, Ordering::Relaxed);
    }

    /// The writer: always the checkpoint that has waited longest.
    fn run(&self) {
        let mut state = self.state.lock();
        loop {
            let oldest = state
                .slots
                .iter()
                .filter_map(|(fp, slot)| Some((slot.pending.as_ref()?.0, *fp)))
                .min();
            let Some((_, fp)) = oldest else {
                if state.stop {
                    return;
                }
                self.changed.wait(&mut state);
                continue;
            };
            let slot = state.slots.get_mut(&fp).expect("found under this lock");
            let (handed, checkpoint) = slot.pending.take().expect("found under this lock");
            let mut store = slot.store.take().expect("one writer");
            slot.attempted = true;
            drop(state);

            let started = Instant::now();
            store.save(&checkpoint);
            let failed = store.last_error().map(|e| e.to_string());
            let written = failed.is_none();
            if written {
                // Never 0, which says that nobody knows.
                self.last_write_us.store(
                    (started.elapsed().as_micros() as u64).max(1),
                    Ordering::Relaxed,
                );
                self.metrics
                    .checkpoints_written
                    .fetch_add(1, Ordering::Relaxed);
                self.metrics
                    .checkpoint_write
                    .observe(handed.elapsed().as_micros() as u64, None);
            } else {
                // What a write costs here is anyone's guess again: the
                // next runs' first offers find out.
                self.last_write_us.store(0, Ordering::Relaxed);
            }

            state = self.state.lock();
            // `settle` waits for the store to come back, so the slot is
            // still this run's.
            if let Some(slot) = state.slots.get_mut(&fp) {
                slot.store = Some(store);
                if slot.parked.is_none() && failed.is_some() {
                    slot.parked = failed;
                    self.metrics
                        .parked_checkpoints
                        .fetch_add(1, Ordering::Relaxed);
                }
            }
            self.changed.notify_all();
        }
    }
}

impl std::fmt::Debug for Checkpointer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Checkpointer")
            .field("dir", &self.dir)
            .field("slots", &self.state.lock().slots.len())
            .finish()
    }
}

/// The [`CheckpointSink`] of one served job: `due` picks the offers worth
/// a write (see the module docs), `save` hands the checkpoint to the
/// [`Checkpointer`] and returns. A write that fails behind it parks: the
/// daemon's `serve_parked_checkpoints` gauge is bumped the moment it
/// happens, so operators see the degradation on the next `/metrics`
/// scrape, and the settled run logs one `checkpoint_parked` event to
/// `serve.jsonl`.
pub struct GaugedStore {
    checkpointer: Arc<Checkpointer>,
    fp: u64,
    /// When this run started or last wanted an offer.
    since: Instant,
    /// This run has been offered a checkpoint before.
    offered: bool,
}

impl CheckpointSink for GaugedStore {
    fn due(&mut self) -> bool {
        let now = Instant::now();
        let first = !std::mem::replace(&mut self.offered, true);
        let due = match self.checkpointer.last_write_us.load(Ordering::Relaxed) {
            0 => first,
            write_us => {
                now.duration_since(self.since).as_micros() as u64 >= WORK_PER_WRITE * write_us
            }
        };
        if due {
            self.since = now;
            return true;
        }
        self.checkpointer
            .metrics
            .checkpoints_declined
            .fetch_add(1, Ordering::Relaxed);
        if let Some(slot) = self.checkpointer.state.lock().slots.get_mut(&self.fp) {
            slot.handoffs_us.push(0);
        }
        false
    }

    fn save(&mut self, checkpoint: &SessionCheckpoint) {
        let handed = Instant::now();
        let checkpoint = checkpoint.clone();
        let mut state = self.checkpointer.state.lock();
        let Some(slot) = state.slots.get_mut(&self.fp) else {
            return;
        };
        if slot.pending.replace((handed, checkpoint)).is_some() {
            self.checkpointer.count_superseded();
        }
        slot.handoffs_us.push(handed.elapsed().as_micros() as u64);
        drop(state);
        self.checkpointer.changed.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moat_core::{TunerState, CHECKPOINT_FORMAT_VERSION};

    fn checkpoint(seq: u64) -> SessionCheckpoint {
        SessionCheckpoint {
            format_version: CHECKPOINT_FORMAT_VERSION,
            strategy: "random".into(),
            dims: 2,
            num_objectives: 2,
            evaluations: 10 * seq,
            primed: 0,
            budget: Some(100),
            iteration: seq as u32,
            budget_exhausted: false,
            seq,
            cache: vec![(vec![1, 2], Some(vec![0.5, 2.0]))],
            tuner: TunerState::for_strategy("random"),
        }
    }

    fn started(tag: &str) -> (Arc<Checkpointer>, Arc<ServeMetrics>) {
        let dir = std::env::temp_dir().join(format!("moat-ckptr-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let metrics = Arc::new(ServeMetrics::default());
        (Checkpointer::start(dir, Arc::clone(&metrics)), metrics)
    }

    fn finish(checkpointer: Arc<Checkpointer>) {
        checkpointer.shutdown();
        let _ = std::fs::remove_dir_all(&checkpointer.dir);
    }

    #[test]
    fn a_parking_run_flushes_its_newest_checkpoint() {
        let (checkpointer, metrics) = started("park");
        let mut sink = checkpointer.open(7).unwrap();
        for seq in 1..=5 {
            sink.save(&checkpoint(seq));
        }
        let (handoffs, parked) = checkpointer.settle(7, true);
        assert_eq!(
            (handoffs.len(), parked),
            (5, None),
            "one hand-off per save, none parked"
        );
        let on_disk = CheckpointStore::load(checkpointer.path(7)).unwrap();
        assert_eq!(on_disk, checkpoint(5), "latest wins");
        let written = metrics.checkpoints_written.load(Ordering::Relaxed);
        let superseded = metrics.checkpoints_superseded.load(Ordering::Relaxed);
        assert!(written >= 1);
        assert_eq!(written + superseded, 5, "every hand-off is accounted for");
        finish(checkpointer);
    }

    #[test]
    fn a_first_offer_is_wanted_unearned_only_while_nobody_knows_what_a_write_costs() {
        let (checkpointer, metrics) = started("due");
        let mut sink = checkpointer.open(7).unwrap();
        assert!(sink.due(), "the first offer finds out what a write costs");
        assert!(!sink.due(), "only the first");
        let mut other = checkpointer.open(8).unwrap();
        assert!(other.due(), "every run's, until a write has finished");
        sink.save(&checkpoint(1));
        let (handoffs, _) = checkpointer.settle(7, true);
        assert_eq!((handoffs.len(), handoffs[0]), (2, 0), "declined, saved");
        assert!(checkpointer.last_write_us.load(Ordering::Relaxed) > 0);

        // Now that it is known, a first offer is earned like any other. A
        // write that took a minute: nothing this test does earns one.
        let mut third = checkpointer.open(9).unwrap();
        checkpointer
            .last_write_us
            .store(60_000_000, Ordering::Relaxed);
        assert!(!third.due());
        // One that took 100 µs is earned by 1.6 ms of work, counted from
        // the start of the run or the last offer it wanted.
        checkpointer.last_write_us.store(100, Ordering::Relaxed);
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(third.due());
        assert!(!third.due(), "counted from the offer just wanted");
        assert_eq!(metrics.checkpoints_declined.load(Ordering::Relaxed), 3);
        assert_eq!(checkpointer.settle(8, false).0, [], "wanted, never saved");
        assert_eq!(
            checkpointer.settle(9, false).0,
            [0, 0],
            "the two it declined"
        );
        finish(checkpointer);
    }

    #[test]
    fn a_failed_write_makes_the_next_first_offer_due_again() {
        let (checkpointer, metrics) = started("forget");
        let mut sink = checkpointer.open(7).unwrap();
        sink.save(&checkpoint(1));
        checkpointer.settle(7, false);
        assert_eq!(metrics.checkpoints_written.load(Ordering::Relaxed), 1);
        checkpointer
            .last_write_us
            .store(60_000_000, Ordering::Relaxed);
        let mut healthy = checkpointer.open(8).unwrap();
        assert!(!healthy.due(), "a write's cost is known and not earned");

        // The boundary save of a parking run, into a directory gone bad.
        let mut sick = checkpointer.open(9).unwrap();
        std::fs::create_dir_all(checkpointer.path(9)).unwrap();
        sick.save(&checkpoint(1));
        checkpointer.settle(9, true);
        assert_eq!(metrics.parked_checkpoints.load(Ordering::Relaxed), 1);
        assert_eq!(checkpointer.last_write_us.load(Ordering::Relaxed), 0);
        let mut next = checkpointer.open(10).unwrap();
        assert!(next.due(), "whatever it has worked");
        assert!(!healthy.due(), "but no run's second");
        std::fs::remove_dir(checkpointer.path(9)).unwrap();
        for fp in [8, 9, 10] {
            checkpointer.settle(fp, false);
        }
        finish(checkpointer);
    }

    #[test]
    fn a_finished_run_still_writes_its_first_checkpoint_then_retires_the_file() {
        let (checkpointer, metrics) = started("finish");
        let mut sink = checkpointer.open(7).unwrap();
        sink.save(&checkpoint(1));
        checkpointer.settle(7, false);
        assert_eq!(metrics.checkpoints_written.load(Ordering::Relaxed), 1);
        assert_eq!(std::fs::read_dir(&checkpointer.dir).unwrap().count(), 0);
        finish(checkpointer);
    }

    #[test]
    fn a_sick_directory_parks_once_and_leaves_nothing_behind() {
        let (checkpointer, metrics) = started("sick");
        let mut sink = checkpointer.open(7).unwrap();
        std::fs::create_dir_all(checkpointer.path(7)).unwrap();
        sink.save(&checkpoint(1));
        let (_, first) = checkpointer.settle(7, true);
        assert_eq!(metrics.parked_checkpoints.load(Ordering::Relaxed), 1);
        // A second run of the same job parks again, and is gauged again.
        let mut sink = checkpointer.open(7).unwrap();
        sink.save(&checkpoint(2));
        sink.save(&checkpoint(3));
        let (_, second) = checkpointer.settle(7, true);
        assert_eq!(metrics.checkpoints_written.load(Ordering::Relaxed), 0);
        let error = first.expect("settle reports the parked write");
        assert_eq!(second, Some(error), "the first failed write's error");
        assert_eq!(metrics.parked_checkpoints.load(Ordering::Relaxed), 2);
        std::fs::remove_dir(checkpointer.path(7)).unwrap();
        checkpointer.settle(7, false);
        assert_eq!(std::fs::read_dir(&checkpointer.dir).unwrap().count(), 0);
        finish(checkpointer);
    }
}
