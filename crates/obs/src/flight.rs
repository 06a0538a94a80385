//! The flight recorder: a fixed-size, lock-sharded ring buffer of recent
//! events, always on at near-zero cost.
//!
//! Long-running services cannot afford a full trace of everything, but
//! when an incident happens (a contained panic, a breaker opening, a
//! persist error) the counters alone say *what* without *when*. The
//! flight recorder keeps the last N events in memory — spans, sheds,
//! breaker transitions — so an incident handler can dump a post-hoc
//! timeline of the moments leading up to the failure.
//!
//! Cost discipline mirrors the `Obs` handle: the hot-path gate is a
//! single relaxed atomic load, records land in a small set of mutex
//! shards indexed by a dense per-thread id (workers almost never
//! contend), and each shard is a bounded ring — no allocation after
//! warm-up, overwrite-oldest semantics, nothing ever blocks on a full
//! buffer. A [`snapshot`](FlightRecorder::snapshot) merges the shards and
//! sorts by the recorder's own sequence counter, so dumps are in global
//! emit order and pass `validate_jsonl`.

use crate::record::{Event, Record};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

const SHARDS: usize = 8;

/// Default total capacity (records retained across all shards).
pub const DEFAULT_CAPACITY: usize = 2048;

static NEXT_LANE: AtomicU64 = AtomicU64::new(0);
thread_local! {
    static LANE: usize = (NEXT_LANE.fetch_add(1, Ordering::Relaxed) as usize) % SHARDS;
}

/// A fixed-size ring of recent [`Record`]s (see module docs).
pub struct FlightRecorder {
    enabled: AtomicBool,
    seq: AtomicU64,
    start: Instant,
    per_shard: usize,
    shards: [Mutex<VecDeque<Record>>; SHARDS],
}

impl FlightRecorder {
    /// A recorder retaining roughly `capacity` records in total.
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            enabled: AtomicBool::new(true),
            seq: AtomicU64::new(0),
            start: Instant::now(),
            per_shard: capacity.div_ceil(SHARDS).max(1),
            shards: [const { Mutex::new(VecDeque::new()) }; SHARDS],
        }
    }

    /// Disable (or re-enable) recording. When off, [`record`] is a single
    /// relaxed load and an immediate return.
    ///
    /// [`record`]: FlightRecorder::record
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether the recorder currently accepts events.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Record an event (with an optional span duration). The envelope is
    /// the recorder's own: a fresh sequence number and a wall timestamp
    /// relative to recorder creation — flight dumps are incident
    /// timelines, never part of any deterministic artifact.
    pub fn record(&self, event: Event, dur_us: u64) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        let record = Record {
            seq: self.seq.fetch_add(1, Ordering::Relaxed) + 1,
            ts_us: self.start.elapsed().as_micros() as u64,
            dur_us,
            tid: 0,
            event,
        };
        let mut ring = self.shards[LANE.with(|l| *l)].lock();
        if ring.len() == self.per_shard {
            ring.pop_front();
        }
        ring.push_back(record);
    }

    /// The last N records, merged across shards in emit (sequence) order.
    pub fn snapshot(&self) -> Vec<Record> {
        let mut all = Vec::new();
        for shard in &self.shards {
            all.extend(shard.lock().iter().cloned());
        }
        all.sort_by_key(|r| r.seq);
        all
    }
}

impl Default for FlightRecorder {
    fn default() -> FlightRecorder {
        FlightRecorder::new(DEFAULT_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shed(reason: &str) -> Event {
        Event::ServeShed {
            reason: reason.into(),
            tenant: "t".into(),
        }
    }

    #[test]
    fn snapshot_is_in_emit_order() {
        // One thread lands in one shard, whose ring holds capacity/8.
        let fr = FlightRecorder::new(128);
        for i in 0..10 {
            fr.record(shed(&format!("r{i}")), 0);
        }
        let snap = fr.snapshot();
        assert_eq!(snap.len(), 10);
        let seqs: Vec<u64> = snap.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, (1..=10).collect::<Vec<_>>());
    }

    #[test]
    fn ring_wraps_keeping_the_most_recent() {
        let fr = FlightRecorder::new(16);
        // All from one thread, so one shard's ring (capacity 16/8 = 2)
        // does all the wrapping: only the latest survive.
        for i in 0..100 {
            fr.record(shed(&format!("r{i}")), 0);
        }
        let snap = fr.snapshot();
        assert_eq!(snap.len(), 2, "single-thread traffic fills one shard");
        assert_eq!(snap.last().unwrap().seq, 100);
        assert!(snap.iter().all(|r| r.seq > 98));
    }

    #[test]
    fn disabled_recorder_drops_everything() {
        let fr = FlightRecorder::new(16);
        fr.set_enabled(false);
        assert!(!fr.enabled());
        fr.record(shed("x"), 0);
        assert!(fr.snapshot().is_empty());
    }

    #[test]
    fn concurrent_records_all_land_with_unique_seqs() {
        let fr = std::sync::Arc::new(FlightRecorder::new(4096));
        let mut handles = Vec::new();
        for t in 0..8 {
            let fr = std::sync::Arc::clone(&fr);
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    fr.record(shed(&format!("t{t}-{i}")), 0);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let snap = fr.snapshot();
        assert_eq!(snap.len(), 400);
        let mut seqs: Vec<u64> = snap.iter().map(|r| r.seq).collect();
        seqs.dedup();
        assert_eq!(seqs.len(), 400, "sequence numbers are unique");
    }

    #[test]
    fn dumps_validate_as_traces() {
        let fr = FlightRecorder::new(128);
        for i in 0..5 {
            fr.record(
                Event::JobStage {
                    trace: "00000000000000aa".into(),
                    span: format!("{i:016x}"),
                    parent: "0000000000000000".into(),
                    stage: "queue".into(),
                    job: "j0001".into(),
                    tenant: "t".into(),
                    detail: String::new(),
                },
                10,
            );
        }
        let text = crate::export::to_jsonl(&fr.snapshot());
        assert_eq!(crate::export::validate_jsonl(&text).unwrap(), 5);
    }
}
