//! Wall-mode observability: `simulate_nest` reports its compile /
//! stream / LLC-merge phases as timing spans, and a logical-mode trace
//! drops them entirely.

use moat_cachesim::{simulate_nest, CacheConfig, HierarchyConfig, MultiCoreHierarchy};
use moat_ir::{transform, Access, ArrayDecl, ArrayId, Loop, LoopNest, Stmt, VarId};
use moat_obs as obs;

fn arrays(n: u64) -> Vec<ArrayDecl> {
    vec![
        ArrayDecl::new(ArrayId(0), "C", vec![n, n], 8),
        ArrayDecl::new(ArrayId(1), "A", vec![n, n], 8),
        ArrayDecl::new(ArrayId(2), "B", vec![n, n], 8),
    ]
}

fn mm(n: i64) -> LoopNest {
    let (i, j, k) = (VarId(0), VarId(1), VarId(2));
    LoopNest::new(
        vec![
            Loop::plain(i, "i", 0, n),
            Loop::plain(j, "j", 0, n),
            Loop::plain(k, "k", 0, n),
        ],
        vec![Stmt::new(
            vec![
                Access::read(ArrayId(0), vec![i.into(), j.into()]),
                Access::write(ArrayId(0), vec![i.into(), j.into()]),
                Access::read(ArrayId(1), vec![i.into(), k.into()]),
                Access::read(ArrayId(2), vec![k.into(), j.into()]),
            ],
            2,
        )],
    )
}

fn hierarchy(obs: &obs::Obs) -> MultiCoreHierarchy {
    MultiCoreHierarchy::new(HierarchyConfig {
        private_levels: vec![CacheConfig::new(1024, 2, 64)],
        shared_level: CacheConfig::new(8192, 4, 64),
        cores_per_chip: 2,
        cores: 2,
        prefetch_depth: 0,
    })
    .with_obs(obs.clone())
}

fn parallel_mm() -> (Vec<ArrayDecl>, LoopNest) {
    let tiled = transform::tile(&mm(8), 3, &[4, 4, 4]).expect("tileable");
    let par = transform::collapse_and_parallelize(&tiled, 2, 2).expect("parallelizable");
    (arrays(8), par)
}

fn phase_names(records: &[obs::Record]) -> Vec<String> {
    let mut names: Vec<String> = records
        .iter()
        .filter_map(|r| match &r.event {
            obs::Event::Phase { name } => Some(name.clone()),
            _ => None,
        })
        .collect();
    names.sort();
    names.dedup();
    names
}

#[test]
fn wall_mode_records_all_three_phases() {
    let obs = obs::Obs::new(obs::TimestampMode::Wall);
    let (arrs, par) = parallel_mm();
    simulate_nest(&arrs, &par, &mut hierarchy(&obs));
    let records = obs.drain();
    assert_eq!(
        phase_names(&records),
        vec![
            "cachesim.compile".to_string(),
            "cachesim.llc_merge".to_string(),
            "cachesim.stream".to_string(),
        ]
    );
    // Spans carry real timestamps (µs resolution can legitimately round a
    // fast phase's duration to 0, so only the envelope is asserted).
    for r in &records {
        assert!(r.ts_us > 0, "wall span without a timestamp: {r:?}");
    }
}

#[test]
fn logical_mode_drops_phase_spans() {
    let obs = obs::Obs::new(obs::TimestampMode::Logical);
    let (arrs, par) = parallel_mm();
    simulate_nest(&arrs, &par, &mut hierarchy(&obs));
    let records = obs.drain();
    assert!(
        records.is_empty(),
        "logical trace should drop timing spans: {records:?}"
    );
}
