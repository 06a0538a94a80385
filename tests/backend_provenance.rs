//! Backend-as-a-tunable-axis integration tests: mixed-provenance tuning
//! end to end, archive round-trips with provenance, runtime selection
//! over mixed tables (with the `backend_selected` observability event),
//! and the byte-identity regression guard for the classic single-backend
//! path.

use moat::report::LossMatrix;
use moat::{Framework, Kernel, MachineDesc, SelectionContext, SelectionPolicy, VersionRegistry};
use moat_core::BatchEval;
use std::path::Path;

fn fixed_seed(machine: MachineDesc) -> Framework {
    let mut fw = Framework::new(machine);
    fw.tuner_params.max_generations = 8;
    fw.batch = BatchEval::sequential();
    fw
}

/// Regression guard: the classic single-backend pipeline (empty roster)
/// must keep producing byte-identical fixed-seed output. The golden
/// fixture was recorded before/with the multi-backend machinery and any
/// drift here means provenance plumbing leaked into the classic path.
/// Refresh deliberately with `MOAT_UPDATE_FIXTURES=1 cargo test`.
#[test]
fn single_backend_fixed_seed_output_matches_golden_fixture() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/mm128_westmere_seed42_versions.json");
    let tuned = fixed_seed(MachineDesc::westmere())
        .tune(Kernel::Mm.region(128))
        .unwrap();
    let json = tuned.table.to_json();
    if std::env::var_os("MOAT_UPDATE_FIXTURES").is_some() {
        std::fs::create_dir_all(fixture.parent().unwrap()).unwrap();
        std::fs::write(&fixture, &json).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&fixture)
        .expect("golden fixture missing: run with MOAT_UPDATE_FIXTURES=1 to record it");
    assert_eq!(
        json, golden,
        "fixed-seed single-backend output drifted from the golden fixture"
    );
    assert!(
        !json.contains("provenance"),
        "single-backend tables must not carry provenance fields"
    );
}

/// Paired-run determinism: two identical fixed-seed runs, one through a
/// framework that never saw the backends field and one with an explicitly
/// empty roster, are byte-identical artifacts (table JSON and C source).
#[test]
fn paired_fixed_seed_runs_are_byte_identical() {
    let a = fixed_seed(MachineDesc::westmere())
        .tune(Kernel::Jacobi2d.region(96))
        .unwrap();
    let mut fw = fixed_seed(MachineDesc::westmere());
    fw.backends = Vec::new();
    let b = fw.tune(Kernel::Jacobi2d.region(96)).unwrap();
    assert_eq!(a.table.to_json(), b.table.to_json());
    assert_eq!(a.source_c, b.source_c);
}

/// The full multi-backend story: tune one kernel over two backends with
/// genuinely crossing cost surfaces, get a mixed-provenance table, archive
/// it with provenance intact, and render the cross-backend loss matrix.
#[test]
fn two_backend_tune_yields_mixed_table_archive_and_loss_matrix() {
    let dir = std::env::temp_dir().join(format!("moat-xbackend-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut fw = fixed_seed(MachineDesc::westmere());
    fw.noise = None;
    fw.tuner_params.max_generations = 12;
    fw.backends = vec!["model".into(), "alt1".into()];
    fw.archive = Some(dir.clone());
    let tuned = fw.tune(Kernel::Mm.region(192)).unwrap();

    // Mixed provenance on the front and in the table.
    let names = tuned.table.backend_names();
    assert_eq!(
        names,
        vec!["analytic:alt1".to_string(), "analytic:model".to_string()],
        "expected both backends on the front, got {names:?}"
    );
    for v in &tuned.table.versions {
        assert!(v.provenance.is_some(), "multi-backend versions are tagged");
    }

    // The archived record preserved per-point provenance.
    let archive = moat::Archive::open(&dir).unwrap();
    let recs = archive.list().unwrap();
    assert_eq!(recs.len(), 1);
    let stored: Vec<String> = recs[0]
        .backend_set()
        .into_iter()
        .flatten()
        .map(|id| id.to_string())
        .collect();
    assert_eq!(stored, vec!["analytic:alt1", "analytic:model"]);

    // The loss matrix has one row per backend; the combined front's best
    // is the row-wise minimum, so at least one row has zero loss per
    // objective.
    let matrix = LossMatrix::from_table(&tuned.table);
    assert_eq!(matrix.rows.len(), 2);
    for obj in 0..2 {
        assert!(
            matrix.rows.iter().any(|r| r.loss_pct[obj] == 0.0),
            "some backend must own the combined champion for objective {obj}"
        );
    }
    let rendered = matrix.render();
    assert!(rendered.contains("analytic:alt1") && rendered.contains("analytic:model"));

    let _ = std::fs::remove_dir_all(&dir);
}

/// Runtime selection over a mixed table emits `backend_selected` events
/// (one per selection, carrying the chosen version's backend id), while
/// untagged tables stay event-silent on that kind — keeping single-backend
/// traces byte-identical.
#[test]
fn runtime_selection_reports_backend_of_chosen_version() {
    let mut mixed = fixed_seed(MachineDesc::westmere());
    mixed.noise = None;
    mixed.tuner_params.max_generations = 12;
    mixed.backends = vec!["model".into(), "alt1".into()];
    let tuned = mixed.tune(Kernel::Mm.region(192)).unwrap();

    let mut plain = fixed_seed(MachineDesc::westmere());
    plain.noise = None;
    let untagged = plain.tune(Kernel::Mm.region(128)).unwrap();

    let obs = moat::Obs::new(moat::TimestampMode::default());
    let mut registry = VersionRegistry::new(SelectionPolicy::FastestTime).with_obs(obs.clone());
    registry.register("mm-mixed", tuned.table.runtime_meta());
    registry.register("mm-plain", untagged.table.runtime_meta());

    let ctx = SelectionContext::default();
    let (idx, meta) = registry.select("mm-mixed", &ctx).unwrap();
    let backend = meta
        .backend
        .clone()
        .expect("mixed versions carry a backend");
    registry.select("mm-plain", &ctx).unwrap();
    let records = obs.drain();

    let selected: Vec<_> = records
        .iter()
        .filter_map(|r| match &r.event {
            moat::obs::Event::BackendSelected {
                region,
                version,
                backend,
            } => Some((region.clone(), *version as usize, backend.clone())),
            _ => None,
        })
        .collect();
    assert_eq!(
        selected,
        vec![("mm-mixed".to_string(), idx, backend)],
        "exactly one backend_selected event, for the tagged table only"
    );
}
