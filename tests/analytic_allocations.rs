//! What the evaluation hot path may cost per call: one allocation per
//! analytic evaluation (the returned objective vector), a bounded number
//! per RS-GDE3 generation step, and no thread for a batch the caller can
//! finish itself — a batch of one, one cheaper than a thread start, or one
//! whose tail is — while an expensive batch still gets its helpers, after
//! one evaluation alone, and a session's later ones at once.
//!
//! Allocations are counted per thread by a counting global allocator, so
//! the tests of this file can run side by side.

use moat::core::{
    BatchEval, CachingEvaluator, Config, Domain, Evaluator, FrontSignature, Gde3, Gde3Params,
    ObjVec, ParamSpace, ParetoArchive, RsGde3Params, TuningSession,
};
use moat::ir::{analyze, AnalyzerConfig};
use moat::machine::{CostModel, NoiseModel};
use moat::obs::{Event, Obs, TimestampMode};
use moat::{ir_space, Kernel, MachineDesc, SimEvaluator};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

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

/// GDE3's selection and RS-GDE3's step after it — pruning the grown
/// population, archiving it, reducing the box and signing the front —
/// allocate a bounded amount per generation, whatever the front does:
/// rejected points and the population's archived members are not cloned.
/// Measured at 25–48 per generation on mm and 3d-stencil over three seeds;
/// a clone of every member into the archive and the signature would add
/// about 120.
#[test]
fn a_generation_step_allocates_a_bounded_amount() {
    const BOUND: u64 = 64;
    let machine = MachineDesc::westmere();
    let cfg = AnalyzerConfig::for_threads((1..=machine.total_cores() as i64).collect());
    let model = CostModel::with_noise(machine.clone(), NoiseModel::default());
    let params = RsGde3Params::default();
    let batch = BatchEval::sequential();
    for kernel in [Kernel::Mm, Kernel::Stencil3d] {
        let region = analyze(kernel.paper_region(), &cfg).unwrap();
        let ev = SimEvaluator {
            region: &region,
            skeleton: &region.skeletons[0],
            model: &model,
        };
        let space = ir_space(&region.skeletons[0]);
        let gde3 = Gde3::new(space.clone(), Gde3Params::default());
        for seed in [0, 8, 42] {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut bbox = space.full_box();
            let mut population = gde3.init_population(&ev, &batch, &bbox, &mut rng);
            let mut archive = ParetoArchive::new();
            let mut last = FrontSignature::of(&population);
            let mut stall = 0;
            let mut counts = Vec::new();
            for _ in 0..25 {
                let trials = gde3.propose(&population, &bbox, &mut rng);
                let objs = batch.run(&ev, &trials);
                let (count, (sig, reduced)) = allocations(|| {
                    gde3.select(&mut population, trials, objs);
                    params.step(&space, &population, &mut archive, &last, &mut stall)
                });
                counts.push(count);
                last = sig;
                bbox = reduced.expect("rough-set reduction is on");
            }
            let worst = counts.iter().max().unwrap();
            assert!(
                *worst <= BOUND,
                "{} seed {seed}: {counts:?} allocations per generation",
                kernel.info().name
            );
        }
    }
}

/// Squares its input (rejecting some), taking `delay` over it, and
/// remembers which threads it ran on.
#[derive(Default)]
struct Recording {
    threads: Mutex<Vec<ThreadId>>,
    calls: AtomicUsize,
    delay: Duration,
}

impl Recording {
    fn slow(delay: Duration) -> Recording {
        Recording {
            delay,
            ..Recording::default()
        }
    }

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
        drop(threads);
        self.calls.fetch_add(1, Ordering::Relaxed);
        if !self.delay.is_zero() {
            std::thread::sleep(self.delay);
        }
        (cfg[0] % 5 != 3).then(|| vec![(cfg[0] * cfg[0]) as f64])
    }
}

/// By value and call for call, whether the batch is cheaper than a thread
/// start (the caller finishes it alone), dearer (helpers join in), or
/// turns dear after a first configuration served from the cache.
#[test]
fn parallel_batches_equal_sequential_ones() {
    let slow = Duration::from_micros(300);
    for (delay, first_cached) in [(Duration::ZERO, false), (slow, false), (slow, true)] {
        for n in [0, 1, 2, 7, 50] {
            let what = format!("{n} configurations, {delay:?} each, cached first: {first_cached}");
            let configs: Vec<Config> = (0..n).map(|i| vec![i]).collect();
            let (seq, par) = (Recording::slow(delay), Recording::slow(delay));
            let (seq_cache, par_cache) = (CachingEvaluator::new(&seq), CachingEvaluator::new(&par));
            let mut fresh = n as usize;
            if let (true, Some(first)) = (first_cached, configs.first()) {
                seq_cache.prime(first.clone(), Some(vec![-1.0]));
                par_cache.prime(first.clone(), Some(vec![-1.0]));
                fresh -= 1;
            }
            let expect = BatchEval::sequential().run(&seq_cache, &configs);
            let got = BatchEval::parallel(8).run(&par_cache, &configs);
            assert_eq!(got, expect, "{what}");
            assert_eq!(expect.len(), n as usize);
            // Every configuration is evaluated exactly once.
            assert_eq!(par.calls.load(Ordering::Relaxed), fresh, "{what}");
            assert_eq!(seq.threads().len(), usize::from(fresh > 0));
            assert!(par.threads().len() <= 8.min(n as usize), "{what}");
        }
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

/// Fifty evaluations that together cost less than starting one thread stay
/// on the caller at any width. A helper would show as a second thread id
/// only if it won a claim, but as allocations on the caller (scope,
/// handle, packet, closure) always — so the count is what is asserted, on
/// the best of a few attempts since a preempted caller may rightly decide
/// the batch has become worth a helper.
#[test]
fn a_batch_cheaper_than_a_thread_start_stays_on_the_caller() {
    let me: ThreadId = std::thread::current().id();
    // Every one is rejected, so no objective vector is allocated either.
    let configs: Vec<Config> = (0..50).map(|i| vec![5 * i + 3]).collect();
    let mut seen = Vec::new();
    for _ in 0..20 {
        let ev = Recording::default();
        // The first call makes `Recording` allocate its thread list.
        BatchEval::parallel(8).run(&ev, &configs[..1]);
        let (count, out) = allocations(|| BatchEval::parallel(8).run(&ev, &configs));
        assert_eq!(out, vec![None; 50]);
        assert_eq!(ev.calls.load(Ordering::Relaxed), 51);
        seen.push((count, ev.threads()));
        // The slots and the result vector.
        if count <= 3 {
            assert_eq!(ev.threads(), vec![me]);
            return;
        }
    }
    panic!("every attempt started a thread: {seen:?}");
}

/// A batch that outlasts a thread start only near its end finishes on the
/// caller: twenty-four 10 µs configurations cross 200 µs with about four
/// left, 40 µs of work, which no helper started then would shorten. Each
/// worker that claims anything leaves one worker span; a preempted caller
/// may rightly find the tail dear, so the best of a few attempts counts.
#[test]
fn a_batch_whose_tail_is_cheaper_than_a_thread_start_stays_on_the_caller() {
    let spin = |cfg: &Config| -> Option<ObjVec> {
        let started = Instant::now();
        while started.elapsed() < Duration::from_micros(10) {
            std::hint::spin_loop();
        }
        Some(vec![cfg[0] as f64])
    };
    let ev = (1usize, spin);
    let space = ParamSpace::new(vec!["x".into()], vec![Domain::Range { lo: 0, hi: 99 }]);
    let configs: Vec<Config> = (0..24).map(|i| vec![i]).collect();
    let mut seen = Vec::new();
    for _ in 0..20 {
        let obs = Obs::new(TimestampMode::Wall);
        let mut session = TuningSession::new(space.clone(), &ev)
            .with_batch(BatchEval::parallel(8))
            .with_obs(obs.clone());
        assert_eq!(session.evaluate(&configs).len(), 24);
        let workers: Vec<u64> = obs
            .drain()
            .into_iter()
            .filter_map(|r| match r.event {
                Event::WorkerSpan { worker, .. } => Some(worker),
                _ => None,
            })
            .collect();
        if workers == [0] {
            return;
        }
        seen.push(workers);
    }
    panic!("every attempt started helpers for the tail: {seen:?}");
}

/// A batch whose evaluations each outlast a thread start is parallel from
/// the caller's second claim on: thirty 1 ms evaluations are one alone and
/// four rounds of eight, not thirty.
#[test]
fn an_expensive_batch_gets_its_helpers() {
    let configs: Vec<Config> = (0..30).map(|i| vec![i]).collect();
    let mut walls = Vec::new();
    for _ in 0..3 {
        let ev = Recording::slow(Duration::from_millis(1));
        let started = Instant::now();
        let out = BatchEval::parallel(8).run(&ev, &configs);
        walls.push(started.elapsed());
        assert_eq!(out.len(), 30);
        assert_eq!(ev.calls.load(Ordering::Relaxed), 30);
        // The caller's first evaluation outlasts the rent, 29 remain.
        let threads = ev.threads();
        assert!(threads.len() > 1 && threads.len() <= 8, "{threads:?}");
        assert_eq!(threads[0], std::thread::current().id());
    }
    let best = walls.iter().min().unwrap();
    assert!(*best < Duration::from_millis(12), "{walls:?}");
}

/// An evaluation cannot be interrupted, so a session's first dear batch
/// costs one evaluation alone before it is parallel — and only the first:
/// of eight 5 ms configurations on eight workers, the first batch's first
/// is evaluated with no helper in existence, a later batch's first with
/// the others already under way.
#[test]
fn a_session_works_alone_through_its_first_dear_batch_only() {
    let eval = Duration::from_millis(5);
    let (started, finished) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let first_had_company = Mutex::new(Vec::new());
    let ev = (1usize, |cfg: &Config| -> Option<ObjVec> {
        let before_me = started.fetch_add(1, Ordering::SeqCst);
        let in_flight = before_me > finished.load(Ordering::SeqCst);
        std::thread::sleep(eval);
        let joined_me = started.load(Ordering::SeqCst) > before_me + 1;
        finished.fetch_add(1, Ordering::SeqCst);
        if cfg[0] % 8 == 0 {
            first_had_company
                .lock()
                .unwrap()
                .push(in_flight || joined_me);
        }
        Some(vec![cfg[0] as f64])
    });
    let space = ParamSpace::new(vec!["x".into()], vec![Domain::Range { lo: 0, hi: 99 }]);
    let mut session = TuningSession::new(space, &ev).with_batch(BatchEval::parallel(8));
    let mut walls = Vec::new();
    for batch in 0..4 {
        let configs: Vec<Config> = (0..8).map(|i| vec![8 * batch + i]).collect();
        let started = Instant::now();
        assert_eq!(session.evaluate(&configs).len(), 8);
        walls.push(started.elapsed());
    }
    assert!(walls[0] >= 2 * eval, "{walls:?}");
    let company = first_had_company.into_inner().unwrap();
    assert!(!company[0], "no helper exists during the first claim");
    // A helper that needs over 5 ms to start misses one batch, not three.
    assert!(company[1..].contains(&true), "{company:?} {walls:?}");
}

/// ... from the caller before any helper exists, and from a helper started
/// mid-batch while the caller carries on.
#[test]
fn a_panic_propagates_from_the_caller_and_from_a_late_helper() {
    let me: ThreadId = std::thread::current().id();
    let configs: Vec<Config> = (0..50).map(|i| vec![i]).collect();

    let first = (1usize, |cfg: &Config| -> Option<ObjVec> {
        assert!(cfg[0] != 0, "the caller's first claim blew up");
        Some(vec![cfg[0] as f64])
    });
    let outcome = std::panic::catch_unwind(|| BatchEval::parallel(8).run(&first, &configs));
    assert!(outcome.is_err());

    let helpers_ran = AtomicUsize::new(0);
    let late = (1usize, |cfg: &Config| -> Option<ObjVec> {
        if std::thread::current().id() != me {
            helpers_ran.fetch_add(1, Ordering::Relaxed);
            panic!("a helper blew up on {cfg:?}");
        }
        // Dear enough that the caller starts helpers after this one.
        std::thread::sleep(Duration::from_millis(1));
        Some(vec![cfg[0] as f64])
    });
    let outcome = std::panic::catch_unwind(|| BatchEval::parallel(2).run(&late, &configs));
    assert!(outcome.is_err());
    assert_eq!(helpers_ran.load(Ordering::Relaxed), 1);
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
