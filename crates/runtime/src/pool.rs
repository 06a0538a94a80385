//! A persistent worker-thread pool with statically chunked parallel loops.
//!
//! The pool mirrors the execution model of the paper's generated code: a
//! team of threads executes a collapsed iteration space with static
//! chunking. The calling thread always participates as logical thread 0, so
//! a [`Pool`] created for `t` threads spawns `t - 1` workers.
//!
//! The implementation uses one crossbeam channel per worker plus a
//! condition-variable latch for completion. Borrowed (non-`'static`)
//! closures are dispatched through a raw pointer whose validity is
//! guaranteed by the completion barrier: `broadcast` does not return before
//! every worker has finished executing the closure.

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Condvar, Mutex};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Countdown latch: waits until `count_down` was called `n` times.
struct Latch {
    remaining: Mutex<usize>,
    cv: Condvar,
    panicked: AtomicBool,
}

impl Latch {
    fn new(n: usize) -> Arc<Self> {
        Arc::new(Latch {
            remaining: Mutex::new(n),
            cv: Condvar::new(),
            panicked: AtomicBool::new(false),
        })
    }

    fn count_down(&self) {
        let mut rem = self.remaining.lock();
        *rem -= 1;
        if *rem == 0 {
            self.cv.notify_all();
        }
    }

    fn wait(&self) {
        let mut rem = self.remaining.lock();
        while *rem != 0 {
            self.cv.wait(&mut rem);
        }
    }
}

/// Type-erased pointer to a borrowed `Fn(usize) + Sync` closure.
///
/// Safety contract: the pointee outlives the task because [`Pool::broadcast`]
/// blocks on the latch until all workers have run the closure.
#[derive(Clone, Copy)]
struct TaskFn(*const (dyn Fn(usize) + Sync));

// SAFETY: the referent is `Sync` (shared invocation from many threads is
// fine) and `broadcast` keeps it alive for the task's entire lifetime.
unsafe impl Send for TaskFn {}

struct Task {
    func: TaskFn,
    tid: usize,
    latch: Arc<Latch>,
}

/// A fixed-size worker pool. The pool is cheap to share (`&Pool`) and shuts
/// its workers down on drop.
pub struct Pool {
    senders: Vec<Sender<Task>>,
    handles: Vec<JoinHandle<()>>,
    size: usize,
}

impl Pool {
    /// Create a pool able to run teams of up to `threads` logical threads
    /// (spawning `threads - 1` OS worker threads; the caller participates
    /// as thread 0).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let mut senders = Vec::with_capacity(threads - 1);
        let mut handles = Vec::with_capacity(threads - 1);
        for w in 0..threads - 1 {
            let (tx, rx): (Sender<Task>, Receiver<Task>) = unbounded();
            senders.push(tx);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("moat-worker-{w}"))
                    .spawn(move || worker_loop(rx))
                    .expect("failed to spawn worker thread"),
            );
        }
        Pool {
            senders,
            handles,
            size: threads,
        }
    }

    /// Maximum team size (including the calling thread).
    pub fn size(&self) -> usize {
        self.size
    }

    /// Run `f(tid)` on a team of `team` logical threads (`tid` in
    /// `0..team`), blocking until all have finished. The calling thread
    /// executes `tid == 0`. `team` is clamped to the pool size.
    ///
    /// Panics propagate: if any team member panics, `broadcast` panics after
    /// the team has drained.
    ///
    /// Nested calls from inside a team closure are not supported.
    pub fn broadcast(&self, team: usize, f: &(dyn Fn(usize) + Sync)) {
        let team = team.clamp(1, self.size);
        let latch = Latch::new(team - 1);
        // SAFETY (lifetime erasure): `latch.wait()` below guarantees `f`
        // outlives all uses by the workers.
        let func = TaskFn(unsafe {
            std::mem::transmute::<*const (dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(
                f as *const _,
            )
        });
        for tid in 1..team {
            self.senders[tid - 1]
                .send(Task {
                    func,
                    tid,
                    latch: Arc::clone(&latch),
                })
                .expect("worker thread terminated unexpectedly");
        }
        // The caller participates as thread 0.
        let caller_result = catch_unwind(AssertUnwindSafe(|| f(0)));
        latch.wait();
        if caller_result.is_err() || latch.panicked.load(Ordering::Acquire) {
            match caller_result {
                Err(payload) => std::panic::resume_unwind(payload),
                Ok(()) => panic!("worker thread panicked during broadcast"),
            }
        }
    }

    /// Execute `body` over `0..total` using `team` threads with static
    /// chunking: thread `t` receives the contiguous index range
    /// [`static_chunk`]`(total, team, t)`.
    pub fn parallel_for(&self, team: usize, total: u64, body: &(dyn Fn(Range<u64>) + Sync)) {
        let team = team.clamp(1, self.size);
        if team == 1 || total <= 1 {
            body(0..total);
            return;
        }
        self.broadcast(team, &|tid| {
            let r = static_chunk(total, team, tid);
            if r.start < r.end {
                body(r);
            }
        });
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        // Closing the channels makes the workers exit their receive loops.
        self.senders.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(rx: Receiver<Task>) {
    while let Ok(task) = rx.recv() {
        // SAFETY: see `TaskFn` contract — the closure outlives the task.
        let f = unsafe { &*task.func.0 };
        if catch_unwind(AssertUnwindSafe(|| f(task.tid))).is_err() {
            task.latch.panicked.store(true, Ordering::Release);
        }
        task.latch.count_down();
    }
}

/// The contiguous chunk of `0..total` assigned to thread `tid` of `team`
/// under balanced static chunking (the first `total % team` threads get one
/// extra iteration).
pub fn static_chunk(total: u64, team: usize, tid: usize) -> Range<u64> {
    let team = team.max(1) as u64;
    let tid = tid as u64;
    debug_assert!(tid < team);
    let base = total / team;
    let rem = total % team;
    let start = tid * base + tid.min(rem);
    let len = base + u64::from(tid < rem);
    start..(start + len).min(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    #[test]
    fn chunks_partition_space() {
        for total in [0u64, 1, 7, 100, 101, 1024] {
            for team in [1usize, 2, 3, 7, 16] {
                let mut covered = 0u64;
                let mut next = 0u64;
                for tid in 0..team {
                    let r = static_chunk(total, team, tid);
                    assert_eq!(r.start, next, "chunks must be contiguous");
                    next = r.end;
                    covered += r.end - r.start;
                }
                assert_eq!(covered, total);
                assert_eq!(next, total);
            }
        }
    }

    #[test]
    fn chunks_balanced_within_one() {
        let total = 103u64;
        let team = 10;
        let sizes: Vec<u64> = (0..team)
            .map(|t| {
                let r = static_chunk(total, team, t);
                r.end - r.start
            })
            .collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(
            max - min <= 1,
            "static chunking must be balanced: {sizes:?}"
        );
    }

    #[test]
    fn broadcast_runs_all_tids() {
        let pool = Pool::new(4);
        let seen = [const { AtomicUsize::new(0) }; 4];
        pool.broadcast(4, &|tid| {
            seen[tid].fetch_add(1, Ordering::Relaxed);
        });
        for s in &seen {
            assert_eq!(s.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn broadcast_clamps_team() {
        let pool = Pool::new(2);
        let count = AtomicUsize::new(0);
        pool.broadcast(100, &|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn parallel_for_sums_correctly() {
        let pool = Pool::new(4);
        let sum = AtomicU64::new(0);
        let total = 10_000u64;
        pool.parallel_for(4, total, &|range| {
            let local: u64 = range.sum();
            sum.fetch_add(local, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), total * (total - 1) / 2);
    }

    #[test]
    fn parallel_for_single_thread_path() {
        let pool = Pool::new(1);
        let sum = AtomicU64::new(0);
        pool.parallel_for(1, 100, &|range| {
            sum.fetch_add(range.end - range.start, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn pool_is_reusable() {
        let pool = Pool::new(3);
        for _ in 0..50 {
            let count = AtomicUsize::new(0);
            pool.broadcast(3, &|_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(count.load(Ordering::Relaxed), 3);
        }
    }

    #[test]
    fn borrowed_state_is_visible() {
        // Workers write into disjoint parts of a stack-owned buffer.
        let pool = Pool::new(4);
        let mut buf = vec![0u64; 1000];
        {
            let ptr = SendPtr(buf.as_mut_ptr());
            pool.parallel_for(4, 1000, &|range| {
                let p = ptr;
                for i in range {
                    // SAFETY: ranges are disjoint across threads.
                    unsafe { *p.0.add(i as usize) = i * 2 };
                }
            });
        }
        assert!(buf.iter().enumerate().all(|(i, &v)| v == i as u64 * 2));
    }

    #[derive(Clone, Copy)]
    struct SendPtr(*mut u64);
    unsafe impl Send for SendPtr {}
    unsafe impl Sync for SendPtr {}

    #[test]
    fn worker_panic_propagates() {
        let pool = Pool::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.broadcast(2, &|tid| {
                if tid == 1 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        // Pool remains usable after a panic.
        let count = AtomicUsize::new(0);
        pool.broadcast(2, &|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn caller_panic_propagates() {
        let pool = Pool::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.broadcast(2, &|tid| {
                if tid == 0 {
                    panic!("caller boom");
                }
            });
        }));
        assert!(result.is_err());
    }
}
