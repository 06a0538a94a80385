//! C (OpenMP) code generation for multi-versioned regions.
//!
//! The paper's backend is a source-to-source compiler: each Pareto point
//! becomes one outlined function with its tile sizes and thread count baked
//! in as constants, plus a statically generated table aggregating function
//! pointers and meta-information (Fig. 6). This module emits that shape as
//! readable C with OpenMP pragmas.

use crate::table::VersionTable;
use moat_ir::nest::{Bound, LoopNest};

use moat_ir::{AffineExpr, Region, VarId, Variant};
use std::collections::HashMap;
use std::fmt::Write;

/// Render an affine expression using loop names.
fn expr_c(e: &AffineExpr, names: &HashMap<VarId, String>) -> String {
    let mut parts = Vec::new();
    for (v, c) in e.terms() {
        let name = names.get(&v).cloned().unwrap_or_else(|| v.to_string());
        match c {
            1 => parts.push(name),
            -1 => parts.push(format!("-{name}")),
            c => parts.push(format!("{c}*{name}")),
        }
    }
    let k = e.constant_part();
    if k != 0 || parts.is_empty() {
        parts.push(k.to_string());
    }
    let mut out = String::new();
    for (i, p) in parts.iter().enumerate() {
        if i == 0 {
            out.push_str(p);
        } else if let Some(stripped) = p.strip_prefix('-') {
            write!(out, " - {stripped}").unwrap();
        } else {
            write!(out, " + {p}").unwrap();
        }
    }
    out
}

fn bound_c(b: &Bound, names: &HashMap<VarId, String>) -> String {
    match b {
        Bound::Affine(e) => expr_c(e, names),
        Bound::Min(a, b) => format!("MOAT_MIN({}, {})", expr_c(a, names), expr_c(b, names)),
    }
}

fn name_map(nest: &LoopNest) -> HashMap<VarId, String> {
    nest.loops.iter().map(|l| (l.var, l.name.clone())).collect()
}

/// C parameter declaration for an array (pointer-to-array for rank ≥ 2 so
/// that multi-dimensional subscripts work unchanged).
fn array_param(decl: &moat_ir::ArrayDecl, is_output: bool) -> String {
    let qual = if is_output { "" } else { "const " };
    let base = format!("{qual}double ");
    match decl.dims.len() {
        1 => format!("{base}*{}", decl.name),
        _ => {
            let mut s = format!("{base}(*{})", decl.name);
            for d in &decl.dims[1..] {
                write!(s, "[{d}]").unwrap();
            }
            s
        }
    }
}

/// Parameter list of the outlined region functions: written arrays first
/// (outputs), then read-only arrays.
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
        .map(|d| array_param(d, written.contains(&d.id)))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Argument list (names only) matching [`signature`].
fn call_args(region: &Region) -> String {
    region
        .arrays
        .iter()
        .map(|d| d.name.clone())
        .collect::<Vec<_>>()
        .join(", ")
}

/// Replace standalone occurrences of identifier `name` in `text` with
/// `repl` (identifier-boundary aware; subscripts like `A[k]` are rewritten,
/// `A[kt]` is not).
fn substitute_ident(text: &str, name: &str, repl: &str) -> String {
    let bytes = text.as_bytes();
    let is_ident = |c: u8| c.is_ascii_alphanumeric() || c == b'_';
    let mut out = String::with_capacity(text.len());
    let mut i = 0;
    while i < bytes.len() {
        if text[i..].starts_with(name) {
            let before_ok = i == 0 || !is_ident(bytes[i - 1]);
            let after = i + name.len();
            let after_ok = after >= bytes.len() || !is_ident(bytes[after]);
            if before_ok && after_ok {
                out.push_str(repl);
                i = after;
                continue;
            }
        }
        out.push(bytes[i] as char);
        i += 1;
    }
    out
}

/// Emit the body statements at the given indentation, substituting the
/// innermost variable by `var_expr` when provided.
fn emit_body(out: &mut String, nest: &LoopNest, indent: usize, subst: Option<(&str, &str)>) {
    for s in &nest.body {
        let mut body = s
            .expr
            .clone()
            .unwrap_or_else(|| format!("/* {} flops, {} accesses */;", s.flops, s.accesses.len()));
        if let Some((name, repl)) = subst {
            body = substitute_ident(&body, name, repl);
        }
        writeln!(out, "{}{}", "    ".repeat(indent), body).unwrap();
    }
}

/// Emit one specialized version of `region` as a C function named
/// `fn_name`. Variants with `unroll > 1` get their innermost loop unrolled
/// by that factor (with a scalar remainder loop) — a structurally distinct
/// code version that could not be expressed with runtime parameters, the
/// paper's core argument for multi-versioning (§IV).
pub fn emit_variant_c(region: &Region, variant: &Variant, fn_name: &str) -> String {
    let nest = &variant.nest;
    let names = name_map(nest);
    let mut out = String::new();
    writeln!(
        out,
        "/* {}: specialized for [{}] */",
        fn_name,
        label_of(variant)
    )
    .unwrap();
    writeln!(out, "static void {fn_name}({}) {{", signature(region)).unwrap();
    let mut indent = 1usize;
    let depth = nest.loops.len();
    let unroll = variant.unroll.max(1) as i64;
    let outer_count = if unroll > 1 { depth - 1 } else { depth };
    for (d, l) in nest.loops.iter().take(outer_count).enumerate() {
        if let Some(p) = nest.parallel {
            if d == 0 {
                let collapse = if p.collapsed > 1 {
                    format!(" collapse({})", p.collapsed)
                } else {
                    String::new()
                };
                writeln!(
                    out,
                    "{}#pragma omp parallel for{collapse} num_threads({}) schedule(static)",
                    "    ".repeat(indent),
                    p.threads
                )
                .unwrap();
            }
        }
        writeln!(
            out,
            "{}for (long {v} = {lo}; {v} < {hi}; {v} += {step}) {{",
            "    ".repeat(indent),
            v = l.name,
            lo = bound_c(&l.lower, &names),
            hi = bound_c(&l.upper, &names),
            step = l.step,
        )
        .unwrap();
        indent += 1;
    }
    if unroll > 1 {
        // Unrolled innermost loop + scalar remainder.
        let l = nest.loops.last().expect("empty nest");
        let v = &l.name;
        let lo = bound_c(&l.lower, &names);
        let hi = bound_c(&l.upper, &names);
        let step = l.step;
        let pad = "    ".repeat(indent);
        writeln!(out, "{pad}long {v} = {lo};").unwrap();
        writeln!(
            out,
            "{pad}for (; {v} + {} < {hi}; {v} += {}) {{",
            (unroll - 1) * step,
            unroll * step
        )
        .unwrap();
        for u in 0..unroll {
            let repl = if u == 0 {
                format!("({v})")
            } else {
                format!("({v} + {})", u * step)
            };
            emit_body(&mut out, nest, indent + 1, Some((v, &repl)));
        }
        writeln!(out, "{pad}}}").unwrap();
        writeln!(out, "{pad}for (; {v} < {hi}; {v} += {step}) {{").unwrap();
        emit_body(&mut out, nest, indent + 1, None);
        writeln!(out, "{pad}}}").unwrap();
    } else {
        emit_body(&mut out, nest, indent, None);
    }
    for d in (1..=outer_count).rev() {
        writeln!(out, "{}}}", "    ".repeat(d)).unwrap();
    }
    writeln!(out, "}}").unwrap();
    out
}

fn label_of(variant: &Variant) -> String {
    variant
        .values
        .iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join(", ")
}

/// Emit the complete multi-versioned region: all specialized functions, the
/// version table with meta-information, and a dispatcher selecting the
/// version minimizing the user-weighted objective sum (paper §IV).
pub fn emit_multiversioned_c(
    region: &Region,
    table: &VersionTable,
    variants: &[Variant],
) -> String {
    assert_eq!(table.len(), variants.len(), "table/variant arity mismatch");
    let m = table.objective_names.len();
    let mut out = String::new();
    writeln!(
        out,
        "/* Multi-versioned region `{}` — generated by moat. */",
        region.name
    )
    .unwrap();
    writeln!(out, "#include <stddef.h>").unwrap();
    writeln!(out).unwrap();
    writeln!(out, "#define MOAT_MIN(a, b) ((a) < (b) ? (a) : (b))").unwrap();
    writeln!(out).unwrap();

    let base = sanitize(&region.name);
    for (i, v) in variants.iter().enumerate() {
        out.push_str(&emit_variant_c(region, v, &format!("{base}_v{i}")));
        out.push('\n');
    }

    // The statically generated table of Fig. 6.
    writeln!(out, "typedef struct {{").unwrap();
    writeln!(out, "    const char *label;").unwrap();
    writeln!(out, "    int threads;").unwrap();
    writeln!(
        out,
        "    double objectives[{m}]; /* {} */",
        table.objective_names.join(", ")
    )
    .unwrap();
    writeln!(out, "    void (*fn)({});", signature(region)).unwrap();
    writeln!(out, "}} {base}_version_t;").unwrap();
    writeln!(out).unwrap();
    writeln!(
        out,
        "static const {base}_version_t {base}_versions[{}] = {{",
        table.len()
    )
    .unwrap();
    for (i, v) in table.versions.iter().enumerate() {
        let objs = v
            .objectives
            .iter()
            .map(|o| format!("{o:e}"))
            .collect::<Vec<_>>()
            .join(", ");
        writeln!(
            out,
            "    {{ \"{}\", {}, {{ {objs} }}, {base}_v{i} }},",
            v.label, v.threads
        )
        .unwrap();
    }
    writeln!(out, "}};").unwrap();
    writeln!(out).unwrap();

    // Runtime dispatcher: argmin of the weighted, min-max-normalized
    // objective sum.
    writeln!(
        out,
        "void {base}_invoke({}, const double weights[{m}]) {{",
        signature(region)
    )
    .unwrap();
    writeln!(out, "    double lo[{m}], hi[{m}];").unwrap();
    writeln!(
        out,
        "    for (size_t c = 0; c < {m}; ++c) {{ lo[c] = 1e300; hi[c] = -1e300; }}"
    )
    .unwrap();
    writeln!(out, "    for (size_t v = 0; v < {}; ++v)", table.len()).unwrap();
    writeln!(out, "        for (size_t c = 0; c < {m}; ++c) {{").unwrap();
    writeln!(
        out,
        "            double x = {base}_versions[v].objectives[c];"
    )
    .unwrap();
    writeln!(out, "            if (x < lo[c]) lo[c] = x;").unwrap();
    writeln!(out, "            if (x > hi[c]) hi[c] = x;").unwrap();
    writeln!(out, "        }}").unwrap();
    writeln!(out, "    size_t best = 0; double best_score = 1e300;").unwrap();
    writeln!(out, "    for (size_t v = 0; v < {}; ++v) {{", table.len()).unwrap();
    writeln!(out, "        double score = 0.0;").unwrap();
    writeln!(out, "        for (size_t c = 0; c < {m}; ++c) {{").unwrap();
    writeln!(out, "            double span = hi[c] - lo[c];").unwrap();
    writeln!(
        out,
        "            double norm = span > 0.0 ? ({base}_versions[v].objectives[c] - lo[c]) / span : 0.0;"
    )
    .unwrap();
    writeln!(out, "            score += weights[c] * norm;").unwrap();
    writeln!(out, "        }}").unwrap();
    writeln!(
        out,
        "        if (score < best_score) {{ best_score = score; best = v; }}"
    )
    .unwrap();
    writeln!(out, "    }}").unwrap();
    writeln!(out, "    {base}_versions[best].fn({});", call_args(region)).unwrap();
    writeln!(out, "}}").unwrap();
    out
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use moat_core::pareto::{ParetoFront, Point};
    use moat_ir::{analyze, AnalyzerConfig};
    use moat_kernels::Kernel;

    fn setup() -> (Region, Vec<Variant>, VersionTable) {
        let cfg = AnalyzerConfig::for_threads(vec![1, 5, 10, 20, 40]);
        let region = analyze(Kernel::Mm.region(64), &cfg).unwrap();
        let sk = &region.skeletons[0];
        let configs = [vec![16, 16, 8, 1], vec![8, 8, 8, 10], vec![8, 4, 4, 40]];
        let front = ParetoFront::from_points(
            configs
                .iter()
                .enumerate()
                .map(|(i, c)| Point::new(c.clone(), vec![10.0 / (i + 1) as f64, (i + 1) as f64])),
        );
        let table = VersionTable::from_front(
            "mm",
            sk,
            &front,
            vec!["time".into(), "resources".into()],
            Some(3),
        );
        let variants: Vec<Variant> = table
            .versions
            .iter()
            .map(|v| sk.instantiate(&region.nest, &v.values).unwrap())
            .collect();
        (region, variants, table)
    }

    #[test]
    fn variant_code_structure() {
        let (region, variants, _) = setup();
        let code = emit_variant_c(&region, &variants[0], "mm_v0");
        assert!(code.contains("static void mm_v0("));
        assert!(code.contains("#pragma omp parallel for collapse(2) num_threads(40)"));
        assert!(code.contains("MOAT_MIN("), "partial tiles need min guards");
        assert!(code.contains("C[i][j] = C[i][j] + A[i][k] * B[k][j];"));
        // Six loops: 3 tile + 3 point.
        assert_eq!(code.matches("for (long ").count(), 6);
    }

    #[test]
    fn full_region_contains_table_and_dispatcher() {
        let (region, variants, table) = setup();
        let code = emit_multiversioned_c(&region, &table, &variants);
        assert!(code.contains("static const mm_version_t mm_versions[3]"));
        assert!(code.contains("void mm_invoke("));
        assert_eq!(code.matches("static void mm_v").count(), 3);
        for v in &table.versions {
            assert!(code.contains(&v.label), "missing metadata for {}", v.label);
        }
    }

    /// Hold `code` to `cc -fsyntax-only -fopenmp -Wall`, written as `file`;
    /// skips, and says so, when no C compiler is found.
    fn assert_syntax_ok(file: &str, code: &str) {
        let cc = ["cc", "gcc", "clang"].iter().find(|c| {
            std::process::Command::new(*c)
                .arg("--version")
                .output()
                .is_ok()
        });
        let Some(cc) = cc else {
            eprintln!("no C compiler found; skipping syntax check of {file}");
            return;
        };
        let dir = std::env::temp_dir().join("moat_codegen_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(file);
        std::fs::write(&path, code).unwrap();
        let out = std::process::Command::new(cc)
            .args(["-fsyntax-only", "-fopenmp", "-Wall"])
            .arg(&path)
            .output()
            .expect("failed to run compiler");
        assert!(
            out.status.success(),
            "generated C rejected by {cc}:\n{}\n--- code ---\n{code}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    #[test]
    fn generated_c_passes_syntax_check_if_compiler_available() {
        let (region, variants, table) = setup();
        let code = emit_multiversioned_c(&region, &table, &variants);
        assert_syntax_ok("mm_region.c", &code);
    }

    #[test]
    fn example_regions_emit_c_that_passes_syntax_check() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/regions");
        let mut paths: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "moat"))
            .collect();
        paths.sort();
        assert!(!paths.is_empty(), "no regions in {}", dir.display());
        let cfg = AnalyzerConfig::for_threads(vec![1, 2]);
        for path in &paths {
            let source = std::fs::read_to_string(path).unwrap();
            let parsed = moat_ir::parse_region(&source)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            let region = analyze(parsed, &cfg).unwrap();
            let sk = &region.skeletons[0];
            let values: Vec<i64> = sk.params.iter().map(|p| p.domain.extremes().1).collect();
            let front = ParetoFront::from_points([Point::new(values.clone(), vec![1.0, 1.0])]);
            let threads = sk.params.iter().position(|p| p.name == "threads");
            let table = VersionTable::from_front(
                region.name.clone(),
                sk,
                &front,
                vec!["time".into(), "resources".into()],
                threads,
            );
            let variants = [sk.instantiate(&region.nest, &values).unwrap()];
            let code = emit_multiversioned_c(&region, &table, &variants);
            assert_syntax_ok(&format!("{}_region.c", region.name), &code);
        }
    }

    #[test]
    fn unrolled_variant_duplicates_body() {
        let cfg = AnalyzerConfig::for_threads(vec![1, 2]);
        let mut region = analyze(Kernel::Mm.region(64), &cfg).unwrap();
        let mut sk = region.skeletons[0].clone();
        sk.params.push(moat_ir::ParamDecl::new(
            "unroll",
            moat_ir::ParamDomain::Choice(vec![1, 2, 4]),
        ));
        let fp = sk.params.len() - 1;
        sk.steps.push(moat_ir::Step::Unroll { factor_param: fp });
        region.skeletons = vec![sk];
        let v = region.skeletons[0]
            .instantiate(&region.nest, &[16, 16, 8, 2, 4])
            .unwrap();
        assert_eq!(v.unroll, 4);
        let code = emit_variant_c(&region, &v, "mm_u4");
        // Body appears 4 times unrolled + once in the remainder loop.
        assert_eq!(code.matches("C[i][j] = C[i][j]").count(), 5, "{code}");
        assert!(code.contains("A[i][(k + 1)]"));
        assert!(code.contains("B[(k + 3)][j]"));
        // Remainder loop preserved.
        assert!(code.contains("for (; k <"));
        // Tile-loop variable `kt` untouched by the substitution.
        assert!(code.contains("for (long kt ="));
        // And it is valid C if a compiler is around.
        assert_syntax_ok(
            "mm_u4.c",
            &format!("#define MOAT_MIN(a,b) ((a)<(b)?(a):(b))\n{code}"),
        );
    }

    #[test]
    fn substitute_ident_is_boundary_aware() {
        assert_eq!(
            substitute_ident("A[i][k] * B[k][j] + kt", "k", "(k + 1)"),
            "A[i][(k + 1)] * B[(k + 1)][j] + kt"
        );
        assert_eq!(substitute_ident("kk + k_x + k", "k", "q"), "kk + k_x + q");
    }

    #[test]
    fn sequential_variant_has_no_pragma() {
        let cfg = AnalyzerConfig {
            thread_counts: vec![],
            ..Default::default()
        };
        let region = analyze(Kernel::Jacobi2d.region(32), &cfg).unwrap();
        let v = region.skeletons[0]
            .instantiate(&region.nest, &[4, 4])
            .unwrap();
        let code = emit_variant_c(&region, &v, "jac_v0");
        assert!(!code.contains("#pragma"));
        assert!(code.contains("const double (*A)[32]"));
        assert!(code.contains("double (*B)[32]"));
    }

    #[test]
    fn rank1_arrays_use_flat_pointers() {
        let cfg = AnalyzerConfig::for_threads(vec![1, 2]);
        let region = analyze(Kernel::Nbody.region(64), &cfg).unwrap();
        let v = region.skeletons[0]
            .instantiate(&region.nest, &[8, 8, 2])
            .unwrap();
        let code = emit_variant_c(&region, &v, "nbody_v0");
        assert!(code.contains("double *force"));
        assert!(code.contains("const double *pos"));
    }
}
