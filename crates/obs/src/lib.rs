//! moat-obs — unified structured tracing, metrics and profiling for the
//! moat tuning + runtime stack.
//!
//! Every layer of the stack (tuning session, batch workers, cache
//! simulator, archive, checkpoint store, runtime selector) reduces its
//! activity to flat [`Event`]s emitted through an [`Obs`] handle. The
//! handle belongs to a run, not to the process: whoever starts the run
//! creates it, the objects of that run carry clones of it, and any number
//! of runs can trace side by side in one process without seeing each
//! other.
//!
//! * **Zero-cost when off.** Constructors default to a disabled handle,
//!   on which every emit path is a single branch — no `#[cfg]`s, no
//!   allocation, no clock read, and the event closure never runs — so
//!   production runs are byte-identical to an uninstrumented build.
//! * **Deterministic when on.** In the default
//!   [`TimestampMode::Logical`], control-plane events advance the handle's
//!   logical clock, worker-emitted events stamp the clock as an epoch and
//!   sort by a stable key, and timing-class records are dropped — so the
//!   drained stream (and the JSONL trace and metrics snapshot derived from
//!   it) is byte-identical for a fixed seed regardless of thread count.
//! * **Profiling when asked.** [`TimestampMode::Wall`] keeps real µs
//!   timestamps, per-thread lanes, per-worker spans and the cachesim
//!   phase timers — the view `moat-report` and the Chrome export turn
//!   into timelines.
//!
//! ```
//! use moat_obs::{export, Event, Obs, TimestampMode};
//!
//! let obs = Obs::new(TimestampMode::Logical);
//! let worker = obs.clone(); // same collector, same clock
//! worker.emit(|| Event::IterationStart { iteration: 1 });
//! let records = obs.drain();
//! let jsonl = export::to_jsonl(&records);
//! assert_eq!(export::parse_jsonl(&jsonl).unwrap(), records);
//!
//! // The default handle is off: the closure is never called.
//! Obs::default().emit(|| unreachable!());
//! ```

#![warn(missing_docs)]

pub mod context;
pub mod export;
pub mod metrics;
pub mod record;
pub mod subscriber;

pub use context::TraceContext;
pub use record::{Class, Event, Record};
pub use subscriber::{Obs, TimestampMode};

/// The FNV-1a offset basis: the state to start [`fnv1a`] from.
pub const FNV_OFFSET: u64 = 0xcbf29ce484222325;

/// FNV-1a: fold `bytes` into `state` (start from [`FNV_OFFSET`]). The
/// workspace's one hash for stable ids — job fingerprints, shard routing,
/// span ids, checkpoint checksums, exploration coins — so every value it
/// yields is persisted or observable and must never change.
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100000001b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The published FNV-1a 64-bit test vectors.
    #[test]
    fn fnv1a_matches_the_published_vectors() {
        for (input, want) in [
            ("", 0xcbf29ce484222325),
            ("a", 0xaf63dc4c8601ec8c),
            ("foobar", 0x85944171f73967e8),
        ] {
            assert_eq!(fnv1a(FNV_OFFSET, input.as_bytes()), want, "{input:?}");
        }
        assert_eq!(
            fnv1a(fnv1a(FNV_OFFSET, b"foo"), b"bar"),
            fnv1a(FNV_OFFSET, b"foobar"),
            "folding in pieces is folding the whole"
        );
    }
}
