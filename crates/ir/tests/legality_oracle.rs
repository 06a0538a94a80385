//! Enumeration oracle for the dependence test and the skeletons built on it.
//!
//! Small seeded random nests are run symbolically: [`LoopNest::walk`]
//! visits every iteration and [`Access::eval_indices`] names every element
//! each access touches. The dependences found that way are the ground
//! truth. Against it:
//!
//! * `tileable(0..b)` claims every dependence has non-negative distance
//!   components in the band;
//! * `parallelizable(l)` claims no dependence is carried at level `l`;
//! * the skeletons [`analyze`] builds, instantiated at every tile size,
//!   run each dependence's source before its target and never split a
//!   dependence over two iterations of the collapsed parallel loop.
//!
//! Every verdict the analysis makes is held to the truth; a contradiction
//! is a miscompile the optimizer would be handed as legal.

use moat_ir::{
    analyze, parse_region, Access, AffineExpr, AnalyzerConfig, ArrayDecl, ArrayId, DepAnalysis,
    Loop, LoopNest, ParamDomain, Region, Step, Stmt, VarId,
};
use std::collections::HashMap;

/// Random nests per run of [`random_nests_have_no_contradictions`].
const NESTS: u64 = 4_000;

/// SplitMix64: a seeded generator that needs no crate.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % (hi - lo + 1) as u64) as i64
    }
}

/// A random nest: depth 1–3, trip counts 3–5, one or two arrays of rank 1
/// or 2, one or two statements of a write and one or two reads, subscript
/// coefficients in {−1, 0, 1, 2} and offsets in −2..=2. Half the reads are
/// the statement's write shifted by −1..=1 per subscript (a stencil), so
/// that uniform dependences, and tileable bands, are common.
fn random_region(rng: &mut Rng) -> Region {
    let depth = rng.range(1, 3) as u32;
    let loops = (0..depth)
        .map(|d| Loop::plain(VarId(d), format!("l{d}"), 0, rng.range(3, 5)))
        .collect();
    let arrays: Vec<ArrayDecl> = (0..rng.range(1, 2) as u32)
        .map(|a| {
            ArrayDecl::new(
                ArrayId(a),
                format!("A{a}"),
                vec![16; rng.range(1, 2) as usize],
                8,
            )
        })
        .collect();
    let access = |rng: &mut Rng| {
        let decl = &arrays[rng.range(0, arrays.len() as i64 - 1) as usize];
        let indices: Vec<AffineExpr> = decl
            .dims
            .iter()
            .map(|_| {
                (0..depth).fold(AffineExpr::constant(rng.range(-2, 2)), |e, d| {
                    match rng.range(-1, 2) {
                        0 => e,
                        k => e.add(&AffineExpr::term(VarId(d), k)),
                    }
                })
            })
            .collect();
        (decl.id, indices)
    };
    let body = (0..rng.range(1, 2))
        .map(|_| {
            let (array, written) = access(rng);
            let mut accesses: Vec<Access> = (0..rng.range(1, 2))
                .map(|_| match rng.range(0, 1) {
                    0 => Access::read(
                        array,
                        written.iter().map(|e| e.offset(rng.range(-1, 1))).collect(),
                    ),
                    _ => {
                        let (array, indices) = access(rng);
                        Access::read(array, indices)
                    }
                })
                .collect();
            accesses.push(Access::write(array, written));
            Stmt::new(accesses, 1)
        })
        .collect();
    Region::new("random", arrays, LoopNest::new(loops, body))
}

/// The dependences of `nest` as pairs of iteration vectors (source, then
/// target, in original execution order), found by running it.
///
/// Per element, each access depends on the last write before it, and a
/// write also on every read since that write. Every other dependence is a
/// chain of these, and each property the oracle checks (source first,
/// same parallel iteration, non-negative band distances, carrying level
/// other than `l`) holds for a chain when it holds for every link.
fn enumerate(nest: &LoopNest) -> Vec<(Vec<i64>, Vec<i64>)> {
    #[derive(Default)]
    struct Element {
        last_write: Option<usize>,
        reads_since: Vec<usize>,
    }
    let mut iterations: Vec<Vec<i64>> = Vec::new();
    let mut elements: HashMap<(ArrayId, Vec<i64>), Element> = HashMap::new();
    let mut edges: Vec<(usize, usize)> = Vec::new();
    nest.walk(&mut |vals| {
        let it = iterations.len();
        iterations.push(vals.to_vec());
        let env = nest.env(vals);
        for a in nest.body.iter().flat_map(|s| &s.accesses) {
            let e = elements.entry((a.array, a.eval_indices(&env))).or_default();
            edges.extend(e.last_write.map(|w| (w, it)));
            if a.is_write() {
                edges.extend(e.reads_since.drain(..).map(|r| (r, it)));
                e.last_write = Some(it);
            } else {
                e.reads_since.push(it);
            }
        }
    });
    edges.sort_unstable();
    edges.dedup();
    edges
        .into_iter()
        .filter(|(src, dst)| src != dst)
        .map(|(src, dst)| (iterations[src].clone(), iterations[dst].clone()))
        .collect()
}

/// Every verdict of the analysis, and every instantiation of every skeleton
/// `analyze` builds, held to the enumerated dependences. Returns the
/// contradictions and counts the verdicts checked.
fn contradictions(region: &Region, verdicts: &mut Verdicts) -> Vec<String> {
    let nest = &region.nest;
    let deps = enumerate(nest);
    let an = DepAnalysis::analyze(nest);
    let distance = |(src, dst): &(Vec<i64>, Vec<i64>)| -> Vec<i64> {
        dst.iter().zip(src).map(|(d, s)| d - s).collect()
    };
    let mut out = Vec::new();

    for b in 1..=nest.depth() {
        if an.tileable(0..b) {
            verdicts.tileable += 1;
            if let Some(dep) = deps
                .iter()
                .find(|d| distance(d)[..b].iter().any(|&x| x < 0))
            {
                out.push(format!("tileable(0..{b}) but {dep:?}"));
            }
        }
    }
    for l in 0..nest.depth() {
        if an.parallelizable(l) {
            verdicts.parallelizable += 1;
            let carried_at_l =
                |d: &(Vec<i64>, Vec<i64>)| distance(d).iter().position(|&x| x != 0) == Some(l);
            if let Some(dep) = deps.iter().find(|d| carried_at_l(d)) {
                out.push(format!("parallelizable({l}) but {dep:?}"));
            }
        }
    }

    let cfg = AnalyzerConfig {
        alternatives: true,
        ..AnalyzerConfig::for_threads(vec![1, 2])
    };
    let Ok(analyzed) = analyze(region.clone(), &cfg) else {
        return out;
    };
    let original: Vec<VarId> = nest.loops.iter().map(|l| l.var).collect();
    for sk in &analyzed.skeletons {
        for values in assignments(&sk.params.iter().map(|p| &p.domain).collect::<Vec<_>>()) {
            verdicts.instantiations += 1;
            let variant = sk.instantiate(nest, &values).expect("in-domain values");
            let collapsed = variant.nest.parallel.map_or(0, |p| p.collapsed);
            // Original iteration vector → (position in the new order,
            // iteration of the collapsed parallel loop).
            let mut order: HashMap<Vec<i64>, (usize, Vec<i64>)> = HashMap::new();
            variant.nest.walk(&mut |vals| {
                let env = variant.nest.env(vals);
                let at = order.len();
                order.insert(
                    original.iter().map(|&v| env(v)).collect(),
                    (at, vals[..collapsed].to_vec()),
                );
            });
            for (src, dst) in &deps {
                let (s, d) = (&order[src], &order[dst]);
                if s.0 > d.0 {
                    out.push(format!(
                        "{} {values:?} runs {dst:?} before {src:?}",
                        sk.name
                    ));
                } else if s.1 != d.1 {
                    out.push(format!(
                        "{} {values:?} puts {src:?} → {dst:?} in two parallel iterations",
                        sk.name
                    ));
                }
            }
        }
    }
    let has_parallel = |sk: &moat_ir::Skeleton| {
        sk.steps
            .iter()
            .any(|s| matches!(s, Step::Parallelize { .. }))
    };
    verdicts.parallel_skeletons += analyzed
        .skeletons
        .iter()
        .filter(|s| has_parallel(s))
        .count();
    out
}

/// Every assignment of values to the given domains.
fn assignments(domains: &[&ParamDomain]) -> Vec<Vec<i64>> {
    domains.iter().fold(vec![Vec::new()], |acc, d| {
        let values: Vec<i64> = match d {
            ParamDomain::IntRange { lo, hi } => (*lo..=*hi).collect(),
            ParamDomain::Choice(v) => v.clone(),
        };
        acc.iter()
            .flat_map(|prefix| {
                values.iter().map(move |&v| {
                    let mut next = prefix.clone();
                    next.push(v);
                    next
                })
            })
            .collect()
    })
}

/// How many verdicts of each kind the oracle checked.
#[derive(Debug, Default)]
struct Verdicts {
    tileable: usize,
    parallelizable: usize,
    instantiations: usize,
    parallel_skeletons: usize,
}

#[test]
fn random_nests_have_no_contradictions() {
    let mut rng = Rng(0x5eed_1e9a_117e);
    let mut verdicts = Verdicts::default();
    let mut failures = Vec::new();
    for _ in 0..NESTS {
        let region = random_region(&mut rng);
        for why in contradictions(&region, &mut verdicts) {
            failures.push(format!("{why}\n{}", region.nest));
        }
    }
    eprintln!("{NESTS} nests, verdicts checked: {verdicts:?}");
    assert!(
        failures.is_empty(),
        "{} contradictions, first ones:\n{}",
        failures.len(),
        failures[..failures.len().min(5)].join("\n")
    );
    // The oracle must have something to hold the analysis to: a band of
    // one loop is always tileable, so more verdicts than nests means wider
    // bands were checked.
    assert!(verdicts.tileable > NESTS as usize && verdicts.parallel_skeletons > 0);
}

/// `for t { for i { A[i] = A[i+1] + A[i] } }`: the write at `(t, i)` is
/// read at `(t+1, i-1)`. Distance `(1, -1)` forbids tiling `i` inside `t`,
/// and the sweep is serial in both loops.
fn sweep(steps: i64, n: i64) -> Region {
    parse_region(&format!(
        "region sweep {{ arrays {{ A: f64[{}]; }}
           for t in 0..{steps} {{ for i in 0..{n} {{ A[i] = A[i+1] + A[i] @ flops(1); }} }} }}",
        n + 1
    ))
    .unwrap()
}

#[test]
fn in_place_time_sweep_tiles_only_the_time_loop() {
    let region = sweep(64, 4095);
    let an = DepAnalysis::analyze(&region.nest);
    assert_eq!(an.outer_tileable_band(), 1);
    assert!(!an.parallelizable(0) && !an.parallelizable(1));
    let analyzed = analyze(region, &AnalyzerConfig::for_threads(vec![1, 2, 4])).unwrap();
    assert_eq!(
        analyzed.skeletons[0].steps,
        vec![Step::Tile {
            band: 1,
            size_params: vec![0]
        }]
    );

    let mut verdicts = Verdicts::default();
    let small = sweep(4, 6);
    assert_eq!(contradictions(&small, &mut verdicts), Vec::<String>::new());
    assert!(!enumerate(&small.nest).is_empty());
}
