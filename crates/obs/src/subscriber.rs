//! The run-owned [`Obs`] handle: the logical clock, the wall origin and
//! the lock-sharded collector of one run.
//!
//! Whoever starts a run creates the handle ([`Obs::new`]) and hands clones
//! of it to the objects that emit — the tuning session and its batch
//! workers, the archive, the checkpoint store, the
//! runtime selectors. Every clone feeds the same collector under the same
//! clock; two handles share nothing, so concurrent runs in one process
//! cannot see each other's events. The default handle is disabled: every
//! emit path on it is one branch on an `Option` — no allocation, no lock,
//! no `Instant::now()`, and the event is never even constructed, because
//! emitters pass a closure.
//!
//! Records land in a small fixed set of mutex shards indexed by a dense
//! per-thread id, so worker threads almost never contend. [`Obs::drain`]
//! gathers all shards and sorts by [`Record::order_key`], which is what
//! makes logical-mode streams independent of worker count.

use crate::record::{Class, Event, Record};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// How records are timestamped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TimestampMode {
    /// Deterministic logical clock: no wall times, no thread lanes, and
    /// timing-class records are dropped. Streams are byte-identical for a
    /// fixed seed regardless of parallelism. The default.
    #[default]
    Logical,
    /// Wall-clock profiling: real µs timestamps and durations, per-thread
    /// lanes, timing spans included. Not byte-stable.
    Wall,
}

impl TimestampMode {
    /// Parse `logical` / `wall`.
    pub fn parse(s: &str) -> Option<TimestampMode> {
        match s {
            "logical" => Some(TimestampMode::Logical),
            "wall" => Some(TimestampMode::Wall),
            _ => None,
        }
    }
}

const SHARDS: usize = 16;

/// Dense thread-lane ids (wall mode only); the one process-wide counter
/// left, and it carries no run state.
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

fn tid() -> u64 {
    TID.with(|t| *t)
}

struct Collector {
    wall: bool,
    /// The logical clock: the number of control events emitted so far.
    clock: AtomicU64,
    /// Wall-clock origin of the run.
    origin: Instant,
    shards: [Mutex<Vec<Record>>; SHARDS],
}

impl Collector {
    /// Stamp and store one record whose span began at `start`.
    fn push(&self, seq: u64, start: Option<Instant>, event: Event) {
        let lane = tid();
        let (ts_us, dur_us, tid) = if self.wall {
            let now = Instant::now();
            let since = |t: Instant| t.saturating_duration_since(self.origin).as_micros() as u64;
            let ts_us = since(start.unwrap_or(now));
            (ts_us, since(now).saturating_sub(ts_us), lane)
        } else {
            (0, 0, 0)
        };
        self.shards[lane as usize % SHARDS].lock().push(Record {
            seq,
            ts_us,
            dur_us,
            tid,
            event,
        });
    }
}

/// One run's observability handle (see the module docs). Cheap to clone;
/// clones share the collector. `Obs::default()` is disabled.
#[derive(Clone, Default)]
pub struct Obs(Option<Arc<Collector>>);

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match &self.0 {
            None => "Obs(disabled)",
            Some(c) if c.wall => "Obs(wall)",
            Some(_) => "Obs(logical)",
        })
    }
}

impl Obs {
    /// A live handle: logical clock at zero, wall origin now.
    pub fn new(mode: TimestampMode) -> Obs {
        Obs(Some(Arc::new(Collector {
            wall: mode == TimestampMode::Wall,
            clock: AtomicU64::new(0),
            origin: Instant::now(),
            shards: [const { Mutex::new(Vec::new()) }; SHARDS],
        })))
    }

    /// True for a live handle in wall-timestamp mode (the only mode in
    /// which timing-class records and wall durations are kept).
    #[inline]
    pub fn wall_enabled(&self) -> bool {
        self.0.as_ref().is_some_and(|c| c.wall)
    }

    /// Emit a control or keyed event; `event` runs only on a live handle.
    ///
    /// A [`Class::Control`] event advances the logical clock: emit those
    /// only from the run's control thread (sessions, archive operations,
    /// runtime selection). A [`Class::Keyed`] event may come from any
    /// worker: it stamps the current clock as an epoch *without*
    /// advancing it, and its [`sort_key`](Event::sort_key) orders it
    /// within the epoch at drain, so the stream does not depend on worker
    /// count or interleaving.
    #[inline]
    pub fn emit(&self, event: impl FnOnce() -> Event) {
        let Some(c) = &self.0 else { return };
        let event = event();
        debug_assert_ne!(event.class(), Class::Timing, "spans go through emit_span");
        let seq = match event.class() {
            Class::Control => c.clock.fetch_add(1, Ordering::Relaxed) + 1,
            Class::Keyed | Class::Timing => c.clock.load(Ordering::Relaxed),
        };
        c.push(seq, None, event);
    }

    /// Start a timing span: returns the start instant only in wall mode,
    /// so callers pay one branch (and nothing else) otherwise.
    #[inline]
    pub fn span_start(&self) -> Option<Instant> {
        self.wall_enabled().then(Instant::now)
    }

    /// Finish a timing span started with [`span_start`](Self::span_start).
    /// A no-op when `start` is `None` (disabled handle or logical mode —
    /// timing records are dropped there without touching the clock).
    pub fn emit_span(&self, start: Option<Instant>, event: impl FnOnce() -> Event) {
        let (Some(c), Some(start)) = (&self.0, start) else {
            return;
        };
        let event = event();
        debug_assert_eq!(event.class(), Class::Timing);
        c.push(c.clock.load(Ordering::Relaxed), Some(start), event);
    }

    /// Collect everything recorded so far, in canonical order, clearing
    /// the collector. Callable repeatedly; each call returns only records
    /// emitted since the previous drain. Empty on a disabled handle.
    pub fn drain(&self) -> Vec<Record> {
        let mut all = Vec::new();
        if let Some(c) = &self.0 {
            for shard in &c.shards {
                all.append(&mut shard.lock());
            }
        }
        all.sort_by(|a, b| a.order_key().cmp(&b.order_key()));
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing_and_never_builds_the_event() {
        let obs = Obs::default();
        obs.emit(|| unreachable!("event built on a disabled handle"));
        assert!(obs.span_start().is_none());
        obs.emit_span(None, || unreachable!("span built on a disabled handle"));
        assert!(obs.drain().is_empty());
    }

    #[test]
    fn control_events_are_clock_ordered() {
        let obs = Obs::new(TimestampMode::Logical);
        obs.emit(|| Event::IterationStart { iteration: 1 });
        obs.emit(|| Event::BatchEvaluated {
            requested: 8,
            evaluated: 8,
            evaluations: 8,
            elapsed_us: None,
        });
        obs.emit(|| Event::IterationStart { iteration: 2 });
        let recs = obs.drain();
        assert_eq!(recs.len(), 3);
        assert_eq!(
            recs.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert!(recs.iter().all(|r| r.ts_us == 0 && r.tid == 0));
    }

    #[test]
    fn keyed_events_sort_within_epoch_regardless_of_emit_order() {
        let obs = Obs::new(TimestampMode::Logical);
        obs.emit(|| Event::IterationStart { iteration: 1 });
        // Emitted "out of order", as racing writers would.
        for path in ["ckpt/9.ckpt", "ckpt/3.ckpt", "ckpt/5.ckpt"] {
            obs.emit(|| Event::CheckpointParked {
                path: path.into(),
                error: "disk full".into(),
            });
        }
        let recs = obs.drain();
        let kinds: Vec<_> = recs
            .iter()
            .map(|r| (r.event.kind(), r.event.sort_key()))
            .collect();
        assert_eq!(
            kinds,
            vec![
                ("iteration_start", ""),
                ("checkpoint_parked", "ckpt/3.ckpt"),
                ("checkpoint_parked", "ckpt/5.ckpt"),
                ("checkpoint_parked", "ckpt/9.ckpt"),
            ]
        );
        assert!(
            recs.iter().all(|r| r.seq == 1),
            "keyed events share the epoch"
        );
    }

    #[test]
    fn timing_records_dropped_in_logical_mode() {
        let obs = Obs::new(TimestampMode::Logical);
        let t = obs.span_start();
        assert!(t.is_none());
        obs.emit_span(t, || Event::Phase { name: "x".into() });
        assert!(obs.drain().is_empty());
    }

    #[test]
    fn wall_mode_keeps_spans_with_durations() {
        let obs = Obs::new(TimestampMode::Wall);
        obs.emit(|| Event::IterationStart { iteration: 1 });
        let t = obs.span_start();
        assert!(t.is_some());
        std::thread::sleep(std::time::Duration::from_millis(2));
        obs.emit_span(t, || Event::Phase {
            name: "cachesim.stream".into(),
        });
        let recs = obs.drain();
        assert_eq!(recs.len(), 2);
        let span = &recs[1];
        assert_eq!(span.event.kind(), "phase");
        assert!(span.dur_us >= 1000, "span duration recorded: {span:?}");
    }

    #[test]
    fn clones_share_a_collector_and_handles_share_nothing() {
        let a = Obs::new(TimestampMode::Logical);
        let b = Obs::new(TimestampMode::Logical);
        let a2 = a.clone();
        std::thread::scope(|s| {
            s.spawn(|| a2.emit(|| Event::IterationStart { iteration: 1 }));
            s.spawn(|| b.emit(|| Event::IterationStart { iteration: 7 }));
        });
        a.emit(|| Event::IterationStart { iteration: 2 });
        assert_eq!(a.drain().len(), 2, "the clone fed a's collector");
        let only_b = b.drain();
        assert_eq!(only_b.len(), 1);
        assert_eq!(only_b[0].seq, 1, "b's clock never saw a's events");
        assert!(a.drain().is_empty(), "drain clears");
    }
}
