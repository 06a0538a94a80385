//! Warm-start study: the tuning archive lets a second run on the same
//! problem reach the first (cold) run's solution quality with strictly
//! fewer fresh model evaluations.
//!
//! Protocol (mm on Westmere, fixed seeds):
//!
//! 1. cold RS-GDE3 run → archive the resulting front,
//! 2. zero-budget warm replay → the archived front comes back from the
//!    primed cache with *zero* fresh evaluations (equal hypervolume for
//!    free),
//! 3. unbudgeted warm run → the optimizer continues from the archived
//!    front and can only match or improve its hypervolume,
//! 4. transfer to a same-topology sibling machine → archived
//!    configurations seed the population (and pay budget) without trusting
//!    the foreign objective values.

use moat::core::{
    Gde3Params, Point, RsGde3Params, RsGde3Tuner, TuningReport, TuningSession, WarmStart,
};
use moat::{Archive, ArchiveKey, ArchiveRecord, Kernel, MachineDesc};
use moat_bench::{batch, hv_under, Setup};
use moat_core::metrics::objective_bounds;

fn objective_names() -> Vec<String> {
    vec!["time".into(), "resources".into()]
}

fn run(setup: &Setup, warm: Option<WarmStart>, budget: Option<u64>) -> TuningReport {
    let ev = setup.evaluator();
    let mut session = TuningSession::new(setup.space.clone(), &ev).with_batch(batch());
    if let Some(b) = budget {
        session = session.with_budget(b);
    }
    if let Some(w) = warm {
        session = session.with_warm_start(w);
    }
    session.run(&RsGde3Tuner::new(RsGde3Params::default()))
}

/// The study's temporary archive directory, removed when dropped — also
/// while a failed assertion unwinds out of `main`.
struct TempDir(std::path::PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn main() {
    let setup = Setup::new(Kernel::Mm, MachineDesc::westmere(), None);
    let dir = TempDir(std::env::temp_dir().join(format!("moat-warmstart-{}", std::process::id())));
    // The path differs per process, so it stays off the byte-stable stdout.
    eprintln!("warm-start archive at {}", dir.0.display());
    let archive = Archive::open(&dir.0).expect("open archive");
    let key = ArchiveKey::of(setup.skeleton(), &setup.space, &setup.machine);

    // --- 1. Cold run, archived --------------------------------------------
    let cold = run(&setup, None, None);
    let record = ArchiveRecord::from_report(
        setup.region.name.clone(),
        setup.skeleton(),
        &setup.space,
        &setup.machine,
        objective_names(),
        &cold,
    );
    archive.insert(&record).expect("archive insert");
    let stored = archive
        .get(&key)
        .expect("archive read")
        .expect("record stored under its key");

    // --- 2. Zero-budget replay: equal quality for free --------------------
    // Seeds are capped at the population size, so size the population to
    // the archived front.
    let replay = {
        let ev = setup.evaluator();
        let mut session = TuningSession::new(setup.space.clone(), &ev)
            .with_batch(batch())
            .with_budget(0)
            .with_warm_start(stored.warm_start());
        session.run(&RsGde3Tuner::new(RsGde3Params {
            gde3: Gde3Params {
                pop_size: stored.front.len().max(4),
                ..Default::default()
            },
            ..Default::default()
        }))
    };

    // --- 3. Unbudgeted warm run: continue where the cold run stopped ------
    let warm = run(&setup, Some(stored.warm_start()), None);

    // Shared normalization bounds over everything either run evaluated.
    let union: Vec<Point> = cold.all.iter().chain(&warm.all).cloned().collect();
    let (ideal, nadir) = objective_bounds(&union);
    let hv = |r: &TuningReport| hv_under(r.front.points(), &ideal, &nadir);
    let (cold_hv, replay_hv, warm_hv) = (hv(&cold), hv(&replay), hv(&warm));

    println!("warm-start study: mm on Westmere");
    println!(
        "  cold run:          E={:<4} |S|={:<3} V(S)={:.4}",
        cold.evaluations,
        cold.front.len(),
        cold_hv
    );
    println!(
        "  zero-budget replay: E={:<4} |S|={:<3} V(S)={:.4}",
        replay.evaluations,
        replay.front.len(),
        replay_hv
    );
    println!(
        "  warm run:          E={:<4} |S|={:<3} V(S)={:.4}",
        warm.evaluations,
        warm.front.len(),
        warm_hv
    );

    // The headline claim: the cold run's hypervolume is reachable with
    // strictly fewer fresh evaluations than the cold run spent — here with
    // zero, straight from the primed cache.
    assert_eq!(replay.evaluations, 0, "hints must be budget-free");
    assert!(
        replay_hv >= cold_hv - 1e-9,
        "replay must match the cold hypervolume: {replay_hv:.4} vs {cold_hv:.4}"
    );
    assert!(
        replay.evaluations < cold.evaluations,
        "warm start must reach the cold quality with strictly fewer fresh evaluations"
    );
    // Continuing the search from the archived front never loses quality.
    assert!(
        warm_hv >= cold_hv - 1e-9,
        "warm run regressed: {warm_hv:.4} vs {cold_hv:.4}"
    );
    println!(
        "check: cold V(S) {cold_hv:.4} reached with 0 fresh evaluations (cold spent {}) — OK",
        cold.evaluations
    );

    // --- 4. Cross-machine transfer ----------------------------------------
    // A same-topology sibling (identical core count → identical space
    // signature) with different caches and clock: no exact record exists,
    // so the nearest machine's configurations transfer as seeds.
    let sibling = MachineDesc::symmetric("Sibling", 4, 10, 64, 512, 16, 2.0);
    let tsetup = Setup::new(Kernel::Mm, sibling.clone(), None);
    let tkey = ArchiveKey::of(tsetup.skeleton(), &tsetup.space, &sibling);
    assert!(
        tkey.same_problem(&key),
        "sibling must share the problem key"
    );
    let (twarm, source) = archive
        .warm_start_for(&tkey, &sibling.features())
        .expect("archive read")
        .expect("nearest-machine record must be found");
    println!(
        "  transfer:          {} seeds from {:?}",
        twarm.seeds.len(),
        source
    );
    assert!(twarm.hints.is_empty(), "foreign objectives are not trusted");
    let transferred = run(&tsetup, Some(twarm), None);
    let tcold = run(&tsetup, None, None);
    let tunion: Vec<Point> = tcold.all.iter().chain(&transferred.all).cloned().collect();
    let (tideal, tnadir) = objective_bounds(&tunion);
    println!(
        "  sibling cold:      E={:<4} V(S)={:.4}",
        tcold.evaluations,
        hv_under(tcold.front.points(), &tideal, &tnadir)
    );
    println!(
        "  sibling seeded:    E={:<4} V(S)={:.4}",
        transferred.evaluations,
        hv_under(transferred.front.points(), &tideal, &tnadir)
    );
}
