//! Crash-safety tests: checkpoint/resume equivalence with uninterrupted
//! runs under every strategy.

use moat_core::{
    BatchEval, CheckpointSink, Domain, EventLog, GridTuner, MemorySink, Nsga2Params, Nsga2Tuner,
    ParamSpace, RandomTuner, RsGde3Params, RsGde3Tuner, SessionCheckpoint, StopReason, Tuner,
    TuningEvent, TuningReport, TuningSession, WeightedSumTuner, WeightedSweepParams,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

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

/// A deterministic 2-objective problem with a feasibility hole.
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

/// The five strategies under test, with small-but-nontrivial parameters.
fn tuners() -> Vec<(Box<dyn Tuner>, Option<u64>)> {
    vec![
        (
            Box::new(RsGde3Tuner::new(RsGde3Params {
                seed: 7,
                max_generations: 8,
                ..Default::default()
            })) as Box<dyn Tuner>,
            None,
        ),
        (
            Box::new(RsGde3Tuner::new(RsGde3Params {
                seed: 7,
                max_generations: 8,
                use_roughset: false,
                ..Default::default()
            })),
            None,
        ),
        (
            Box::new(Nsga2Tuner::new(Nsga2Params {
                seed: 7,
                generations: 6,
                pop_size: 16,
                ..Default::default()
            })),
            None,
        ),
        (Box::new(RandomTuner::new(7)), Some(150)),
        (Box::new(GridTuner::new(150)), None),
        (
            Box::new(WeightedSumTuner::new(WeightedSweepParams {
                seed: 7,
                num_weights: 4,
                pop_size: 10,
                generations: 4,
                ..Default::default()
            })),
            None,
        ),
    ]
}

fn run_with_checkpoints(
    tuner: &dyn Tuner,
    budget: Option<u64>,
) -> (TuningReport, Vec<SessionCheckpoint>) {
    let ev = evaluator();
    let mut sink = MemorySink::default();
    let mut session = TuningSession::new(space(), &ev).with_batch(BatchEval::sequential());
    if let Some(b) = budget {
        session = session.with_budget(b);
    }
    let mut session = session.with_checkpointing(&mut sink, 1);
    let report = session.run(tuner);
    drop(session);
    (report, sink.saved)
}

fn resume_from(tuner: &dyn Tuner, ckpt: SessionCheckpoint) -> TuningReport {
    let ev = evaluator();
    let mut session = TuningSession::new(space(), &ev)
        .with_batch(BatchEval::sequential())
        .with_resume(ckpt)
        .expect("valid checkpoint");
    session.run(tuner)
}

fn assert_reports_equal(a: &TuningReport, b: &TuningReport, what: &str) {
    assert_eq!(a.front.points(), b.front.points(), "{what}: front differs");
    assert_eq!(a.all, b.all, "{what}: all-points differ");
    assert_eq!(a.evaluations, b.evaluations, "{what}: E differs");
    assert_eq!(a.iterations, b.iterations, "{what}: iterations differ");
    assert_eq!(a.stop, b.stop, "{what}: stop reason differs");
    assert_eq!(a.trace, b.trace, "{what}: trace differs");
}

/// Resuming from ANY checkpoint of an uninterrupted run reproduces that
/// run's report exactly, for every strategy — and so does resuming from
/// the strategy's committed checkpoint file, which today's run writes at
/// the same offer byte for byte.
#[test]
fn resume_matches_uninterrupted_for_every_strategy() {
    for (tuner, budget) in tuners() {
        let name = tuner.name();
        let (reference, checkpoints) = run_with_checkpoints(tuner.as_ref(), budget);
        assert!(
            !checkpoints.is_empty(),
            "{name}: no checkpoints were written"
        );
        // First, middle, and last checkpoint — the budget comes from the
        // checkpoint itself, not the resuming session.
        let picks = [0, checkpoints.len() / 2, checkpoints.len() - 1];
        for &k in &picks {
            let resumed = resume_from(tuner.as_ref(), checkpoints[k].clone());
            assert_reports_equal(&reference, &resumed, &format!("{name} from checkpoint {k}"));
        }
        // The fixture holds the second offer (grid's only one). Every
        // offer is saved here, so offer `seq` is checkpoint `seq - 1`.
        let path = format!(
            "{}/tests/fixtures/ckpt-{name}.json",
            env!("CARGO_MANIFEST_DIR")
        );
        let bytes = std::fs::read_to_string(&path).expect("checkpoint fixture");
        let fixture: SessionCheckpoint = serde_json::from_str(&bytes).unwrap();
        let written = serde_json::to_string(&checkpoints[fixture.seq as usize - 1]).unwrap();
        assert!(
            written == bytes,
            "{name}: checkpoint bytes differ from {path}"
        );
        let resumed = resume_from(tuner.as_ref(), fixture);
        assert_reports_equal(&reference, &resumed, &format!("{name} from {path}"));
    }
}

/// A sink that answers `due` from a script (cycled) and, on its
/// `cancel_at`-th answer, flips a cancel flag — which the session reads at
/// the next boundary.
struct Scripted {
    script: &'static [bool],
    asked: usize,
    cancel_at: Option<(usize, Arc<AtomicBool>)>,
    saved: Vec<SessionCheckpoint>,
}

impl Scripted {
    fn new(script: &'static [bool]) -> Scripted {
        Scripted {
            script,
            asked: 0,
            cancel_at: None,
            saved: Vec::new(),
        }
    }
}

impl CheckpointSink for Scripted {
    fn due(&mut self) -> bool {
        self.asked += 1;
        if let Some((at, flag)) = &self.cancel_at {
            if self.asked == *at {
                flag.store(true, Ordering::Relaxed);
            }
        }
        self.script[(self.asked - 1) % self.script.len()]
    }

    fn save(&mut self, checkpoint: &SessionCheckpoint) {
        self.saved.push(checkpoint.clone());
    }
}

/// One run checkpointing through `sink` (cancellable when the sink holds
/// a flag): its report and its whole event stream.
fn run_through(
    tuner: &dyn Tuner,
    budget: Option<u64>,
    sink: &mut Scripted,
) -> (TuningReport, Vec<TuningEvent>) {
    let ev = evaluator();
    let mut log = EventLog::new();
    let mut session = TuningSession::new(space(), &ev)
        .with_batch(BatchEval::sequential())
        .with_sink(&mut log);
    if let Some(b) = budget {
        session = session.with_budget(b);
    }
    if let Some((_, flag)) = &sink.cancel_at {
        session = session.with_cancel(Arc::clone(flag));
    }
    let report = session.with_checkpointing(sink, 1).run(tuner);
    (report, log.events)
}

fn offers(events: &[TuningEvent]) -> Vec<u64> {
    let seq = |e: &TuningEvent| match e {
        TuningEvent::Checkpointed { seq } => Some(*seq),
        _ => None,
    };
    events.iter().filter_map(seq).collect()
}

/// Which offers a sink takes changes what is saved and nothing else: the
/// event stream and the report are the same whether it wants all, none or
/// every other one, and every checkpoint it did save resumes to the
/// uninterrupted run.
#[test]
fn the_sink_decides_what_is_saved_and_nothing_else() {
    for (tuner, budget) in tuners() {
        let name = tuner.name();
        let mut always = Scripted::new(&[true]);
        let (reference, events) = run_through(tuner.as_ref(), budget, &mut always);
        let offered = offers(&events);
        assert!(!offered.is_empty(), "{name}: no checkpoint offered");
        let seqs = |sink: &Scripted| sink.saved.iter().map(|c| c.seq).collect::<Vec<_>>();
        assert_eq!(seqs(&always), offered, "{name}: every offer saved");

        for script in [&[false][..], &[false, true][..]] {
            let mut sink = Scripted::new(script);
            let (report, stream) = run_through(tuner.as_ref(), budget, &mut sink);
            assert_eq!(stream, events, "{name} {script:?}: event stream differs");
            assert_reports_equal(&reference, &report, &format!("{name} {script:?}"));
            assert_eq!(sink.asked, offered.len(), "{name}: asked once per offer");
            let wanted: Vec<u64> = (offered.iter().zip(script.iter().cycle()))
                .filter_map(|(seq, due)| due.then_some(*seq))
                .collect();
            assert_eq!(seqs(&sink), wanted, "{name} {script:?}");
            for ckpt in sink.saved {
                let from = format!("{name} {script:?} from seq {}", ckpt.seq);
                assert_reports_equal(&reference, &resume_from(tuner.as_ref(), ckpt), &from);
            }
        }
    }
}

/// Cancellation is latched where a checkpoint is offered. Under a sink
/// that wants nothing, with the flag flipped at each boundary in turn, the
/// run saves exactly one checkpoint — the next boundary, which is where
/// it stops — and resuming from it reproduces the uninterrupted run.
#[test]
fn a_cancelled_run_saves_the_boundary_it_stops_at() {
    for (tuner, budget) in tuners() {
        let name = tuner.name();
        let (reference, events) = run_through(tuner.as_ref(), budget, &mut Scripted::new(&[true]));
        for k in 1..offers(&events).len() {
            let what = format!("{name} cancelled at boundary {k}");
            let mut sink = Scripted::new(&[false]);
            sink.cancel_at = Some((k, Arc::new(AtomicBool::new(false))));
            let (report, stream) = run_through(tuner.as_ref(), budget, &mut sink);
            assert_eq!(sink.saved.len(), 1, "{what}: {:?}", offers(&stream));
            let ckpt = sink.saved.remove(0);
            assert_eq!(Some(&ckpt.seq), offers(&stream).last(), "{what}");
            assert_eq!(ckpt.seq, k as u64 + 1, "{what}");
            assert_eq!(ckpt.evaluations, report.evaluations, "{what}");
            if report.stop != StopReason::Cancelled {
                // Nothing was left to refuse after the last boundary.
                assert_reports_equal(&reference, &report, &what);
            }
            assert_reports_equal(&reference, &resume_from(tuner.as_ref(), ckpt), &what);
        }
    }
}

/// A checkpoint survives the JSON round-trip losslessly: resuming from the
/// re-parsed bytes is identical to resuming from the in-memory value.
#[test]
fn resume_survives_serialization() {
    let tuner = RsGde3Tuner::new(RsGde3Params {
        seed: 3,
        max_generations: 6,
        ..Default::default()
    });
    let (reference, checkpoints) = run_with_checkpoints(&tuner, None);
    let ckpt = checkpoints[checkpoints.len() / 2].clone();
    let json = serde_json::to_string(&ckpt).unwrap();
    let reparsed: SessionCheckpoint = serde_json::from_str(&json).unwrap();
    assert_eq!(reparsed, ckpt, "lossy checkpoint serialization");
    let resumed = resume_from(&tuner, reparsed);
    assert_reports_equal(&reference, &resumed, "serialized resume");
}

/// A zero wall-clock budget stops before any evaluation with the
/// dedicated stop reason.
#[test]
fn zero_time_budget_stops_immediately() {
    let ev = evaluator();
    let mut session = TuningSession::new(space(), &ev)
        .with_batch(BatchEval::sequential())
        .with_time_budget(Duration::ZERO);
    let report = session.run(&RandomTuner::new(1));
    assert_eq!(report.stop, StopReason::TimeBudgetExhausted);
    assert_eq!(report.evaluations, 0);
    assert!(report.front.is_empty());
}

/// A generous wall-clock budget changes nothing about a fixed-seed run.
#[test]
fn generous_time_budget_is_inert() {
    let ev = evaluator();
    let tuner = RsGde3Tuner::new(RsGde3Params {
        seed: 5,
        max_generations: 5,
        ..Default::default()
    });
    let mut plain = TuningSession::new(space(), &ev).with_batch(BatchEval::sequential());
    let a = plain.run(&tuner);
    let mut timed = TuningSession::new(space(), &ev)
        .with_batch(BatchEval::sequential())
        .with_time_budget(Duration::from_secs(3600));
    let b = timed.run(&tuner);
    assert_reports_equal(&a, &b, "time-budgeted run");
}
