//! Parameterized-code generation — the alternative to multi-versioning
//! discussed in the paper (§IV): "for some transformations, it would also
//! be possible to generate a single, parameterized version of the code
//! instead of performing multi-versioning."
//!
//! For skeletons consisting of tiling + collapsing + parallelization this
//! module emits exactly that: one function whose tile sizes and thread
//! count are *runtime arguments*, plus a table of the Pareto-optimal
//! parameter tuples. The paper's caveats apply and are observable here:
//! the approach does not generalize to structural transformations
//! (unrolling, fission/fusion — [`emit_parameterized_c`] rejects such
//! skeletons), and fixed-parameter multi-versioning gives the downstream
//! compiler constants to optimize against, which the parameterized variant
//! cannot.

use crate::table::VersionTable;
use moat_ir::{Region, Skeleton, Step};
use std::fmt::Write;

/// Error for skeletons that cannot be expressed as parameterized code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NotParameterizable(pub String);

impl std::fmt::Display for NotParameterizable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "skeleton not parameterizable: {}", self.0)
    }
}

impl std::error::Error for NotParameterizable {}

fn signature(region: &Region) -> String {
    let mut written: Vec<moat_ir::ArrayId> = Vec::new();
    for s in &region.nest.body {
        for a in &s.accesses {
            if a.is_write() && !written.contains(&a.array) {
                written.push(a.array);
            }
        }
    }
    region
        .arrays
        .iter()
        .map(|d| {
            let qual = if written.contains(&d.id) {
                ""
            } else {
                "const "
            };
            match d.dims.len() {
                1 => format!("{qual}double *{}", d.name),
                _ => {
                    let mut s = format!("{qual}double (*{})", d.name);
                    for dim in &d.dims[1..] {
                        write!(s, "[{dim}]").unwrap();
                    }
                    s
                }
            }
        })
        .collect::<Vec<_>>()
        .join(", ")
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Emit a single parameterized C function for `region` under `skeleton`
/// (tiling/collapsing/parallelization only), plus the Pareto parameter
/// table. Returns [`NotParameterizable`] for skeletons containing
/// transformations that cannot be runtime-parameterized.
pub fn emit_parameterized_c(
    region: &Region,
    skeleton: &Skeleton,
    table: &VersionTable,
) -> Result<String, NotParameterizable> {
    // Validate the step sequence.
    let mut band = 0usize;
    let mut size_params: Vec<usize> = Vec::new();
    let mut collapse = 1usize;
    let mut threads_param: Option<usize> = None;
    for step in &skeleton.steps {
        match step {
            Step::Tile {
                band: b,
                size_params: sp,
            } => {
                band = *b;
                size_params = sp.clone();
            }
            Step::Collapse { count } => collapse = *count,
            Step::Parallelize { threads_param: tp } => threads_param = Some(*tp),
            Step::Unroll { .. } => {
                return Err(NotParameterizable(
                    "loop unrolling requires structurally distinct code versions".into(),
                ))
            }
        }
    }
    if band == 0 {
        return Err(NotParameterizable("skeleton performs no tiling".into()));
    }
    for l in &region.nest.loops[..band] {
        if l.lower.as_constant().is_none() || l.upper.as_constant().is_none() {
            return Err(NotParameterizable(format!(
                "loop {} has non-constant bounds",
                l.name
            )));
        }
    }

    let base = sanitize(&region.name);
    let m = table.objective_names.len();
    let np = skeleton.params.len();
    let mut out = String::new();
    writeln!(
        out,
        "/* Parameterized region `{}` — single function, tunable at run time. */",
        region.name
    )
    .unwrap();
    writeln!(out, "#include <stddef.h>").unwrap();
    writeln!(out).unwrap();
    writeln!(out, "#define MOAT_MIN(a, b) ((a) < (b) ? (a) : (b))").unwrap();
    writeln!(out).unwrap();

    // The parameterized function.
    let tile_args: Vec<String> = size_params
        .iter()
        .map(|&p| format!("long {}", skeleton.params[p].name))
        .collect();
    let thread_arg = threads_param
        .map(|p| format!(", int {}", skeleton.params[p].name))
        .unwrap_or_default();
    writeln!(
        out,
        "void {base}_run({}, {}{}) {{",
        signature(region),
        tile_args.join(", "),
        thread_arg
    )
    .unwrap();

    let mut indent = 1usize;
    // Tile loops.
    for (idx, l) in region.nest.loops[..band].iter().enumerate() {
        if idx == 0 {
            if let Some(tp) = threads_param {
                let collapse_txt = if collapse > 1 {
                    format!(" collapse({collapse})")
                } else {
                    String::new()
                };
                writeln!(
                    out,
                    "{}#pragma omp parallel for{collapse_txt} num_threads({}) schedule(static)",
                    "    ".repeat(indent),
                    skeleton.params[tp].name
                )
                .unwrap();
            }
        }
        let lo = l.lower.as_constant().unwrap();
        let hi = l.upper.as_constant().unwrap();
        let ts = &skeleton.params[size_params[idx]].name;
        writeln!(
            out,
            "{}for (long {v}t = {lo}; {v}t < {hi}; {v}t += {ts}) {{",
            "    ".repeat(indent),
            v = l.name,
        )
        .unwrap();
        indent += 1;
    }
    // Point loops.
    for (idx, l) in region.nest.loops[..band].iter().enumerate() {
        let hi = l.upper.as_constant().unwrap();
        let ts = &skeleton.params[size_params[idx]].name;
        writeln!(
            out,
            "{}for (long {v} = {v}t; {v} < MOAT_MIN({hi}, {v}t + {ts}); {v} += 1) {{",
            "    ".repeat(indent),
            v = l.name,
        )
        .unwrap();
        indent += 1;
    }
    // Remaining (untiled) loops.
    for l in &region.nest.loops[band..] {
        writeln!(
            out,
            "{}for (long {v} = {lo}; {v} < {hi}; {v} += {step}) {{",
            "    ".repeat(indent),
            v = l.name,
            lo = l
                .lower
                .as_constant()
                .ok_or_else(|| NotParameterizable("non-constant inner bound".into()))?,
            hi = l
                .upper
                .as_constant()
                .ok_or_else(|| NotParameterizable("non-constant inner bound".into()))?,
            step = l.step,
        )
        .unwrap();
        indent += 1;
    }
    for s in &region.nest.body {
        let body = s
            .expr
            .clone()
            .unwrap_or_else(|| format!("/* {} flops */;", s.flops));
        writeln!(out, "{}{}", "    ".repeat(indent), body).unwrap();
    }
    for d in (1..indent).rev() {
        writeln!(out, "{}}}", "    ".repeat(d)).unwrap();
    }
    writeln!(out, "}}").unwrap();
    writeln!(out).unwrap();

    // The Pareto parameter table.
    writeln!(out, "typedef struct {{").unwrap();
    writeln!(out, "    const char *label;").unwrap();
    writeln!(out, "    long params[{np}];").unwrap();
    writeln!(
        out,
        "    double objectives[{m}]; /* {} */",
        table.objective_names.join(", ")
    )
    .unwrap();
    writeln!(out, "}} {base}_params_t;").unwrap();
    writeln!(out).unwrap();
    writeln!(
        out,
        "static const {base}_params_t {base}_pareto[{}] = {{",
        table.len()
    )
    .unwrap();
    for v in &table.versions {
        let params = v
            .values
            .iter()
            .map(|x| x.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        let objs = v
            .objectives
            .iter()
            .map(|o| format!("{o:e}"))
            .collect::<Vec<_>>()
            .join(", ");
        writeln!(
            out,
            "    {{ \"{}\", {{ {params} }}, {{ {objs} }} }},",
            v.label
        )
        .unwrap();
    }
    writeln!(out, "}};").unwrap();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::emit_multiversioned_c;
    use moat_core::pareto::{ParetoFront, Point};
    use moat_ir::{analyze, AnalyzerConfig, ParamDecl, ParamDomain, Variant};
    use moat_kernels::Kernel;

    fn setup() -> (Region, VersionTable, Vec<Variant>) {
        let cfg = AnalyzerConfig::for_threads(vec![1, 5, 10, 20, 40]);
        let region = analyze(Kernel::Mm.region(64), &cfg).unwrap();
        let sk = region.skeletons[0].clone();
        let front = ParetoFront::from_points(vec![
            Point::new(vec![16, 16, 8, 40], vec![1.0, 40.0]),
            Point::new(vec![32, 8, 8, 10], vec![3.0, 30.0]),
            Point::new(vec![16, 8, 16, 1], vec![20.0, 20.0]),
        ]);
        let table = VersionTable::from_front(
            "mm",
            &sk,
            &front,
            vec!["time".into(), "resources".into()],
            Some(3),
        );
        let variants = table
            .versions
            .iter()
            .map(|v| sk.instantiate(&region.nest, &v.values).unwrap())
            .collect();
        (region, table, variants)
    }

    #[test]
    fn emits_single_function_with_runtime_parameters() {
        let (region, table, _) = setup();
        let code = emit_parameterized_c(&region, &region.skeletons[0], &table).unwrap();
        assert_eq!(code.matches("void mm_run(").count(), 1);
        assert!(code.contains("long tile_i, long tile_j, long tile_k, int threads"));
        assert!(code.contains("num_threads(threads)"));
        assert!(code.contains("it += tile_i"));
        assert!(code.contains("static const mm_params_t mm_pareto[3]"));
    }

    #[test]
    fn parameterized_code_is_smaller_than_multiversioned() {
        // The paper's §IV trade-off: one parameterized function vs one
        // function per Pareto point.
        let (region, table, variants) = setup();
        let param = emit_parameterized_c(&region, &region.skeletons[0], &table).unwrap();
        let multi = emit_multiversioned_c(&region, &table, &variants);
        assert!(
            param.lines().count() * 2 < multi.lines().count(),
            "parameterized ({}) should be much smaller than multi-versioned ({})",
            param.lines().count(),
            multi.lines().count()
        );
    }

    #[test]
    fn rejects_structural_transformations() {
        let (region, table, _) = setup();
        let mut sk = region.skeletons[0].clone();
        sk.params
            .push(ParamDecl::new("unroll", ParamDomain::Choice(vec![1, 2, 4])));
        let fp = sk.params.len() - 1;
        sk.steps.push(moat_ir::Step::Unroll { factor_param: fp });
        let err = emit_parameterized_c(&region, &sk, &table).unwrap_err();
        assert!(err.0.contains("unrolling"));
    }

    #[test]
    fn generated_parameterized_c_compiles_if_cc_available() {
        let (region, table, _) = setup();
        let code = emit_parameterized_c(&region, &region.skeletons[0], &table).unwrap();
        let Some(cc) = ["cc", "gcc", "clang"].iter().find(|c| {
            std::process::Command::new(*c)
                .arg("--version")
                .output()
                .is_ok()
        }) else {
            return;
        };
        let dir = std::env::temp_dir().join("moat_param_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mm_param.c");
        std::fs::write(&path, &code).unwrap();
        let out = std::process::Command::new(cc)
            .args(["-fsyntax-only", "-fopenmp", "-Wall"])
            .arg(&path)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "parameterized C rejected:\n{}\n---\n{code}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
