//! The shared evaluation pool: a fixed budget of concurrent evaluation
//! slots, fairly scheduled across jobs.
//!
//! Every job's session runs `BatchEval::parallel(k)` as usual, but each
//! worker thread must hold a pool slot for the duration of one
//! `evaluate()` call ([`PooledEvaluator`] acquires it transparently). The
//! pool caps *total* concurrent evaluations across all tenants, and when
//! threads are waiting it hands each freed slot to the waiter whose job
//! currently holds the fewest slots (ties broken by arrival order). A job
//! that saturates the pool therefore has the *highest* holding count and
//! loses every contested slot until the others catch up — the
//! no-starvation guarantee is structural, not probabilistic.

use crate::metrics::ServeMetrics;
use parking_lot::{Condvar, Mutex};
use std::collections::BTreeMap;
use std::sync::Arc;

struct PoolState {
    /// Slots currently held, total.
    in_use: usize,
    /// Slots held per job.
    held: BTreeMap<u64, usize>,
    /// Waiting tickets: (arrival counter, job id).
    waiting: Vec<(u64, u64)>,
    /// Monotonic arrival counter.
    next_ticket: u64,
}

impl PoolState {
    /// The ticket that should get the next free slot: least-held job
    /// first, then earliest arrival.
    fn chosen(&self) -> Option<u64> {
        self.waiting
            .iter()
            .min_by_key(|(ticket, job)| (self.held.get(job).copied().unwrap_or(0), *ticket))
            .map(|(ticket, _)| *ticket)
    }
}

/// Fair admission gate over a fixed number of evaluation slots.
pub struct FairPool {
    slots: usize,
    state: Mutex<PoolState>,
    freed: Condvar,
}

impl FairPool {
    /// A pool with `slots` concurrent evaluation slots (min 1).
    pub fn new(slots: usize) -> Arc<FairPool> {
        Arc::new(FairPool {
            slots: slots.max(1),
            state: Mutex::new(PoolState {
                in_use: 0,
                held: BTreeMap::new(),
                waiting: Vec::new(),
                next_ticket: 0,
            }),
            freed: Condvar::new(),
        })
    }

    /// Total slots.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Slots currently held (pool-saturation snapshot for `/healthz`).
    pub fn in_use(&self) -> usize {
        self.state.lock().in_use
    }

    /// Evaluations queued for a slot right now.
    pub fn waiting(&self) -> usize {
        self.state.lock().waiting.len()
    }

    /// Block until `job` is granted a slot. The returned guard releases
    /// it on drop.
    pub fn acquire(self: &Arc<Self>, job: u64) -> SlotGuard {
        let mut state = self.state.lock();
        if state.in_use < self.slots && state.waiting.is_empty() {
            // Fast path: free slot, nobody queued.
            state.in_use += 1;
            *state.held.entry(job).or_insert(0) += 1;
            return SlotGuard {
                pool: Arc::clone(self),
                job,
            };
        }
        let ticket = state.next_ticket;
        state.next_ticket += 1;
        state.waiting.push((ticket, job));
        loop {
            if state.in_use < self.slots && state.chosen() == Some(ticket) {
                state.waiting.retain(|(t, _)| *t != ticket);
                state.in_use += 1;
                *state.held.entry(job).or_insert(0) += 1;
                // Other waiters may also be eligible if several slots are
                // free; let them re-check.
                self.freed.notify_all();
                return SlotGuard {
                    pool: Arc::clone(self),
                    job,
                };
            }
            self.freed.wait(&mut state);
        }
    }

    fn release(&self, job: u64) {
        let mut state = self.state.lock();
        state.in_use -= 1;
        if let Some(held) = state.held.get_mut(&job) {
            *held -= 1;
            if *held == 0 {
                state.held.remove(&job);
            }
        }
        drop(state);
        self.freed.notify_all();
    }
}

impl std::fmt::Debug for FairPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.lock();
        f.debug_struct("FairPool")
            .field("slots", &self.slots)
            .field("in_use", &state.in_use)
            .field("waiting", &state.waiting.len())
            .finish()
    }
}

/// RAII hold on one pool slot.
pub struct SlotGuard {
    pool: Arc<FairPool>,
    job: u64,
}

impl Drop for SlotGuard {
    fn drop(&mut self) {
        self.pool.release(self.job);
    }
}

/// An [`Evaluator`](moat_core::Evaluator) adapter that pays one pool slot
/// per evaluation, so a session's `BatchEval::parallel(k)` workers share
/// the global budget instead of multiplying it.
pub struct PooledEvaluator<'a> {
    inner: &'a dyn moat_core::Evaluator,
    pool: Arc<FairPool>,
    job: u64,
    metrics: Option<Arc<ServeMetrics>>,
}

impl<'a> PooledEvaluator<'a> {
    /// Wrap `inner` so each `evaluate` call holds one slot of `pool` on
    /// behalf of `job`.
    pub fn new(inner: &'a dyn moat_core::Evaluator, pool: Arc<FairPool>, job: u64) -> Self {
        PooledEvaluator {
            inner,
            pool,
            job,
            metrics: None,
        }
    }

    /// Count evaluations into the daemon's metrics registry.
    pub fn with_metrics(mut self, metrics: Arc<ServeMetrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }
}

impl moat_core::Evaluator for PooledEvaluator<'_> {
    fn num_objectives(&self) -> usize {
        self.inner.num_objectives()
    }

    fn evaluate(&self, cfg: &moat_core::Config) -> Option<moat_core::ObjVec> {
        let _slot = self.pool.acquire(self.job);
        if let Some(m) = &self.metrics {
            m.pool_evaluations
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        self.inner.evaluate(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn never_exceeds_slot_budget() {
        let pool = FairPool::new(3);
        let live = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for job in 0..4u64 {
                let pool = Arc::clone(&pool);
                let live = Arc::clone(&live);
                let peak = Arc::clone(&peak);
                s.spawn(move || {
                    for _ in 0..25 {
                        let _slot = pool.acquire(job);
                        let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        std::thread::sleep(Duration::from_micros(200));
                        live.fetch_sub(1, Ordering::SeqCst);
                    }
                });
            }
        });
        assert!(peak.load(Ordering::SeqCst) <= 3, "peak {peak:?} > slots");
    }

    /// A saturating job cannot starve a late-arriving one: while the hog
    /// holds (and continuously re-requests) every slot, a second job's
    /// requests still get served promptly because each freed slot goes to
    /// the least-holding waiter.
    #[test]
    fn late_job_is_not_starved_by_a_saturating_one() {
        let pool = FairPool::new(2);
        let hog_done = Arc::new(AtomicUsize::new(0));
        let late_done = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            // Two hog worker threads keep the pool saturated for job 0.
            for _ in 0..2 {
                let pool = Arc::clone(&pool);
                let hog_done = Arc::clone(&hog_done);
                let late_done = Arc::clone(&late_done);
                s.spawn(move || {
                    while late_done.load(Ordering::SeqCst) < 10 {
                        let _slot = pool.acquire(0);
                        std::thread::sleep(Duration::from_micros(300));
                        hog_done.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
            // Give the hogs a head start so the pool is saturated.
            std::thread::sleep(Duration::from_millis(5));
            let pool = Arc::clone(&pool);
            let late_done = Arc::clone(&late_done);
            s.spawn(move || {
                for _ in 0..10 {
                    let _slot = pool.acquire(1);
                    std::thread::sleep(Duration::from_micros(300));
                    late_done.fetch_add(1, Ordering::SeqCst);
                }
            });
        });
        assert_eq!(late_done.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn pooled_evaluator_delegates() {
        let ev = (2usize, |cfg: &moat_core::Config| {
            Some(vec![cfg[0] as f64, 1.0])
        });
        let pool = FairPool::new(1);
        let pooled = PooledEvaluator::new(&ev, Arc::clone(&pool), 7);
        use moat_core::Evaluator as _;
        assert_eq!(pooled.num_objectives(), 2);
        assert_eq!(pooled.evaluate(&vec![3]), Some(vec![3.0, 1.0]));
    }
}
