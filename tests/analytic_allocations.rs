//! What the evaluation hot path may cost per call: one allocation per
//! analytic evaluation (the returned objective vector), and no thread for a
//! batch the caller can finish itself.
//!
//! Allocations are counted per thread by a counting global allocator, so
//! the tests of this file can run side by side.

use moat::core::{BatchEval, Config, Evaluator, ObjVec};
use moat::ir::{analyze, AnalyzerConfig};
use moat::machine::{CostModel, NoiseModel};
use moat::{Kernel, MachineDesc, SimEvaluator};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::ThreadId;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a const-initialised thread-local without a destructor, which
// allocates nothing itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations this thread makes while running `f`.
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

#[test]
fn an_analytic_evaluation_allocates_only_its_result() {
    let machine = MachineDesc::westmere();
    let cfg = AnalyzerConfig::for_threads((1..=machine.total_cores() as i64).collect());
    let cases: [(Kernel, [Config; 3]); 2] = [
        (
            Kernel::Mm,
            [
                vec![16, 16, 8, 10],
                vec![96, 128, 8, 1],
                vec![700, 1, 350, 40],
            ],
        ),
        (
            Kernel::Stencil3d,
            [vec![8, 8, 8, 10], vec![1, 64, 3, 1], vec![64, 2, 64, 40]],
        ),
    ];
    for model in [
        CostModel::new(machine.clone()),
        CostModel::with_noise(machine.clone(), NoiseModel::default()),
    ] {
        for (kernel, configs) in &cases {
            let region = analyze(kernel.paper_region(), &cfg).unwrap();
            let ev = SimEvaluator {
                region: &region,
                skeleton: &region.skeletons[0],
                model: &model,
            };
            assert!(ev.evaluate(&configs[0]).is_some(), "warm-up evaluates");
            for config in configs {
                let (count, result) = allocations(|| ev.evaluate(config));
                assert!(result.is_some(), "{config:?} is in domain");
                assert!(
                    count <= 1,
                    "{} {config:?}: {count} allocations in one evaluate",
                    kernel.info().name
                );
            }
            // A rejected configuration costs nothing at all.
            let short = vec![16, 16];
            let (count, result) = allocations(|| ev.evaluate(&short));
            assert_eq!((count, result), (0, None));
        }
    }
}

/// Squares its input (rejecting some) and remembers which threads it ran on.
#[derive(Default)]
struct Recording {
    threads: Mutex<Vec<ThreadId>>,
    calls: AtomicUsize,
}

impl Recording {
    fn threads(&self) -> Vec<ThreadId> {
        self.threads.lock().unwrap().clone()
    }
}

impl Evaluator for Recording {
    fn num_objectives(&self) -> usize {
        1
    }

    fn evaluate(&self, cfg: &Config) -> Option<ObjVec> {
        let id = std::thread::current().id();
        let mut threads = self.threads.lock().unwrap();
        if !threads.contains(&id) {
            threads.push(id);
        }
        self.calls.fetch_add(1, Ordering::Relaxed);
        (cfg[0] % 5 != 3).then(|| vec![(cfg[0] * cfg[0]) as f64])
    }
}

#[test]
fn parallel_batches_equal_sequential_ones() {
    for n in [0, 1, 2, 7, 50] {
        let configs: Vec<Config> = (0..n).map(|i| vec![i]).collect();
        let (seq, par) = (Recording::default(), Recording::default());
        let expect = BatchEval::sequential().run(&seq, &configs);
        let got = BatchEval::parallel(8).run(&par, &configs);
        assert_eq!(got, expect, "{n} configurations");
        assert_eq!(expect.len(), n as usize);
        // Every configuration is evaluated exactly once.
        assert_eq!(par.calls.load(Ordering::Relaxed), n as usize);
        assert_eq!(seq.threads().len(), usize::from(n > 0));
        assert!(par.threads().len() <= 8.min(n as usize));
    }
}

#[test]
fn a_batch_of_one_runs_on_the_caller_and_spawns_nothing() {
    let me: ThreadId = std::thread::current().id();
    let ev = Recording::default();
    let configs = vec![vec![6]];
    // The first call makes `Recording` allocate its thread list.
    BatchEval::parallel(8).run(&ev, &configs);
    let (count, out) = allocations(|| BatchEval::parallel(8).run(&ev, &configs));
    assert_eq!(out, vec![Some(vec![36.0])]);
    assert_eq!(ev.threads(), vec![me]);
    // The slots, the result vector and the objective vector; a thread scope
    // or a spawn (handle, packet, closure) would show on top.
    assert!(count <= 3, "{count} allocations for a batch of one");

    // The caller is a worker of wider batches too.
    let ev = Recording::default();
    let many: Vec<Config> = (0..50).map(|i| vec![i]).collect();
    BatchEval::parallel(2).run(&ev, &many);
    assert!(ev.threads().contains(&me));
}

#[test]
fn a_panicking_evaluator_propagates_out_of_run() {
    let ev = (1usize, |cfg: &Config| -> Option<ObjVec> {
        if cfg[0] == 13 {
            panic!("evaluator blew up on {cfg:?}");
        }
        Some(vec![cfg[0] as f64])
    });
    let configs: Vec<Config> = (0..50).map(|i| vec![i]).collect();
    for batch in [
        BatchEval::sequential(),
        BatchEval::parallel(2),
        BatchEval::parallel(8),
    ] {
        let outcome = std::panic::catch_unwind(|| batch.run(&ev, &configs));
        assert!(outcome.is_err(), "parallelism {}", batch.parallelism);
    }
    // ... and a batch without the poisoned configuration is unaffected.
    let fine = BatchEval::parallel(8).run(&ev, &configs[..13]);
    assert_eq!(fine[12], Some(vec![12.0]));
}
