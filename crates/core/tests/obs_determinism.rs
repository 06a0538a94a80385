//! The observability stream must not depend on evaluation parallelism.
//!
//! In logical-timestamp mode, control events carry the logical clock and
//! timing spans are dropped entirely — so the drained record stream for a
//! fixed seed is the same whether `BatchEval` fans a batch over 1, 2, or 8
//! threads.

use moat_core::{BatchEval, Domain, ParamSpace, RandomTuner, TuningSession};
use moat_obs as obs;

type Config = Vec<i64>;
type ObjVec = Vec<f64>;

fn space() -> ParamSpace {
    ParamSpace::new(
        vec!["x".into(), "t".into()],
        vec![
            Domain::Range { lo: 0, hi: 60 },
            Domain::Choice(vec![1, 2, 4, 8]),
        ],
    )
}

fn evaluator() -> (usize, impl Fn(&Config) -> Option<ObjVec> + Sync) {
    (2usize, |cfg: &Config| {
        if cfg[0] % 13 == 5 {
            return None;
        }
        let x = cfg[0] as f64;
        let t = cfg[1] as f64;
        Some(vec![(x - 30.0).abs() / t + 1.0, t * (1.0 + x / 100.0)])
    })
}

/// Run the seeded tuning session `seed` with the given
/// worker count on its own handle and return the drained trace. `start`
/// runs right before the session does (a rendezvous point for the
/// concurrent case).
fn trace_session(threads: usize, seed: u64, start: impl FnOnce()) -> Vec<obs::Record> {
    let handle = obs::Obs::new(obs::TimestampMode::Logical);
    let ev = evaluator();
    let mut session = TuningSession::new(space(), &ev)
        .with_batch(BatchEval::parallel(threads))
        .with_label(format!("obs-determinism-{seed}"))
        .with_budget(120)
        .with_obs(handle.clone());
    start();
    let _ = session.run(&RandomTuner::new(seed));
    handle.drain()
}

fn trace_with_parallelism(threads: usize) -> Vec<obs::Record> {
    trace_session(threads, 2, || ())
}

#[test]
fn obs_stream_is_identical_across_parallelism() {
    let base = trace_with_parallelism(1);
    assert!(!base.is_empty(), "session produced no records");
    // Logical mode drops timing spans, the other leg of the guarantee.
    assert!(
        !base
            .iter()
            .any(|r| matches!(r.event, obs::Event::WorkerSpan { .. })),
        "timing span leaked into a logical trace"
    );
    for threads in [2usize, 8] {
        let stream = trace_with_parallelism(threads);
        assert_eq!(stream, base, "trace differs at {threads} worker threads");
    }
}

#[test]
fn logical_trace_serialization_is_byte_stable() {
    let a = obs::export::to_jsonl(&trace_with_parallelism(4));
    let b = obs::export::to_jsonl(&trace_with_parallelism(4));
    assert_eq!(a, b);
    assert_eq!(
        obs::export::validate_jsonl(&a).expect("trace validates"),
        a.lines().count()
    );
}

/// Two traced sessions in one process, each fanning batches over 8
/// workers and started together, must each produce exactly the trace
/// they produce alone: a handle belongs to its run, so neither session's
/// events nor its clock can leak into the other.
#[test]
fn concurrent_sessions_trace_as_if_alone() {
    let alone: Vec<String> = [2u64, 5]
        .iter()
        .map(|&seed| obs::export::to_jsonl(&trace_session(8, seed, || ())))
        .collect();
    assert_ne!(alone[0], alone[1], "the two sessions must differ");
    for round in 0..4 {
        let gate = std::sync::Barrier::new(2);
        let together: Vec<String> = std::thread::scope(|s| {
            let runs: Vec<_> = [2u64, 5]
                .iter()
                .map(|&seed| {
                    let gate = &gate;
                    s.spawn(move || {
                        obs::export::to_jsonl(&trace_session(8, seed, || {
                            gate.wait();
                        }))
                    })
                })
                .collect();
            runs.into_iter()
                .map(|h| h.join().expect("session thread"))
                .collect()
        });
        assert_eq!(together, alone, "round {round}: a concurrent trace differs");
    }
}
