//! A textual front end for tunable regions.
//!
//! The Insieme infrastructure consumes C/OpenMP sources; this reproduction
//! provides a small, readable region language instead, so the full
//! source → analyze → tune → generate pipeline can be driven from a file:
//!
//! ```text
//! // Matrix multiplication, IJK order.
//! region mm {
//!     arrays {
//!         C: f64[1400][1400];
//!         A: f64[1400][1400];
//!         B: f64[1400][1400];
//!     }
//!     for i in 0..1400 {
//!         for j in 0..1400 {
//!             for k in 0..1400 {
//!                 C[i][j] = C[i][j] + A[i][k] * B[k][j];
//!             }
//!         }
//!     }
//! }
//! ```
//!
//! Subscripts are affine expressions over the loop variables
//! (`i`, `i+1`, `2*i-3`, …). The statement's reads/writes and its flop
//! count are derived from the expression; an explicit `@ flops(n)`
//! annotation overrides the count. Loops must be perfectly nested; the
//! innermost body may contain several statements.

use crate::access::{Access, ArrayDecl, ArrayId};
use crate::expr::AffineExpr;
use crate::nest::{Loop, LoopNest, Stmt};
use crate::region::Region;
use crate::VarId;
use std::collections::HashMap;
use std::fmt;

/// Parse error with 1-based source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Line number.
    pub line: usize,
    /// Column number.
    pub col: usize,
    /// Message.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse error at {}:{}: {}",
            self.line, self.col, self.message
        )
    }
}

impl std::error::Error for ParseError {}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Int(i64),
    Sym(&'static str),
    Eof,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "identifier `{s}`"),
            Tok::Int(v) => write!(f, "integer `{v}`"),
            Tok::Sym(s) => write!(f, "`{s}`"),
            Tok::Eof => write!(f, "end of input"),
        }
    }
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: usize,
    col: usize,
}

#[derive(Debug, Clone)]
struct Spanned {
    tok: Tok,
    line: usize,
    col: usize,
    /// Byte offset into the source (for statement text recovery).
    start: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src: src.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn bump(&mut self) -> Option<u8> {
        let c = *self.src.get(self.pos)?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.pos + 1).copied()
    }

    fn tokens(mut self) -> Result<Vec<Spanned>, ParseError> {
        let mut out = Vec::new();
        loop {
            // Skip whitespace and comments.
            loop {
                match self.peek() {
                    Some(c) if (c as char).is_whitespace() => {
                        self.bump();
                    }
                    Some(b'/') if self.peek2() == Some(b'/') => {
                        while let Some(c) = self.bump() {
                            if c == b'\n' {
                                break;
                            }
                        }
                    }
                    _ => break,
                }
            }
            let (line, col, start) = (self.line, self.col, self.pos);
            let Some(c) = self.peek() else {
                out.push(Spanned {
                    tok: Tok::Eof,
                    line,
                    col,
                    start,
                });
                return Ok(out);
            };
            let tok = match c {
                b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                    let mut s = String::new();
                    while let Some(c) = self.peek() {
                        if (c as char).is_ascii_alphanumeric() || c == b'_' {
                            s.push(c as char);
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    Tok::Ident(s)
                }
                b'0'..=b'9' => {
                    let mut v: i64 = 0;
                    while let Some(c) = self.peek() {
                        if c.is_ascii_digit() {
                            v = v
                                .checked_mul(10)
                                .and_then(|x| x.checked_add((c - b'0') as i64))
                                .ok_or(ParseError {
                                    line,
                                    col,
                                    message: "integer literal overflow".into(),
                                })?;
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    Tok::Int(v)
                }
                b'.' if self.peek2() == Some(b'.') => {
                    self.bump();
                    self.bump();
                    Tok::Sym("..")
                }
                _ => {
                    self.bump();
                    let s = match c {
                        b'{' => "{",
                        b'}' => "}",
                        b'[' => "[",
                        b']' => "]",
                        b'(' => "(",
                        b')' => ")",
                        b':' => ":",
                        b';' => ";",
                        b'=' => "=",
                        b'+' => "+",
                        b'-' => "-",
                        b'*' => "*",
                        b'/' => "/",
                        b'@' => "@",
                        b',' => ",",
                        other => {
                            return Err(ParseError {
                                line,
                                col,
                                message: format!("unexpected character `{}`", other as char),
                            })
                        }
                    };
                    Tok::Sym(s)
                }
            };
            out.push(Spanned {
                tok,
                line,
                col,
                start,
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser<'a> {
    src: &'a str,
    toks: Vec<Spanned>,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> &Spanned {
        &self.toks[self.pos]
    }

    fn next(&mut self) -> Spanned {
        let t = self.toks[self.pos].clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        let t = self.peek();
        Err(ParseError {
            line: t.line,
            col: t.col,
            message: message.into(),
        })
    }

    fn expect_sym(&mut self, s: &str) -> Result<(), ParseError> {
        if self.peek().tok == Tok::Sym(match_sym(s)) {
            self.next();
            Ok(())
        } else {
            self.err(format!("expected `{s}`, found {}", self.peek().tok))
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.peek().tok == Tok::Ident(kw.to_string()) {
            self.next();
            Ok(())
        } else {
            self.err(format!("expected `{kw}`, found {}", self.peek().tok))
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.peek().tok.clone() {
            Tok::Ident(s) => {
                self.next();
                Ok(s)
            }
            other => self.err(format!("expected identifier, found {other}")),
        }
    }

    fn int(&mut self) -> Result<i64, ParseError> {
        match self.peek().tok {
            Tok::Int(v) => {
                self.next();
                Ok(v)
            }
            ref other => self.err(format!("expected integer, found {other}")),
        }
    }

    fn eat_sym(&mut self, s: &str) -> bool {
        if self.peek().tok == Tok::Sym(match_sym(s)) {
            self.next();
            true
        } else {
            false
        }
    }

    // region := "region" IDENT "{" arrays-block nest "}"
    fn region(&mut self) -> Result<Region, ParseError> {
        self.expect_kw("region")?;
        let name = self.ident()?;
        self.expect_sym("{")?;

        // arrays { name: type[dim]...; ... }
        self.expect_kw("arrays")?;
        self.expect_sym("{")?;
        let mut arrays = Vec::new();
        let mut array_ids: HashMap<String, ArrayId> = HashMap::new();
        while !self.eat_sym("}") {
            let aname = self.ident()?;
            self.expect_sym(":")?;
            let ty = self.ident()?;
            let elem_size = match ty.as_str() {
                "f64" => 8,
                "f32" => 4,
                other => return self.err(format!("unknown element type `{other}`")),
            };
            let mut dims = Vec::new();
            while self.eat_sym("[") {
                let d = self.int()?;
                if d <= 0 {
                    return self.err("array dimension must be positive");
                }
                dims.push(d as u64);
                self.expect_sym("]")?;
            }
            if dims.is_empty() {
                return self.err(format!("array `{aname}` needs at least one dimension"));
            }
            self.expect_sym(";")?;
            let id = ArrayId(arrays.len() as u32);
            if array_ids.insert(aname.clone(), id).is_some() {
                return self.err(format!("duplicate array `{aname}`"));
            }
            arrays.push(ArrayDecl::new(id, aname, dims, elem_size));
        }

        // Loop nest.
        let mut loops: Vec<Loop> = Vec::new();
        let mut vars: HashMap<String, VarId> = HashMap::new();
        let body = self.nest(&mut loops, &mut vars, &array_ids, &arrays)?;
        self.expect_sym("}")?;
        if self.peek().tok != Tok::Eof {
            return self.err(format!("trailing input: {}", self.peek().tok));
        }

        let region = Region::new(name, arrays, LoopNest::new(loops, body));
        region.validate().map_err(|e| ParseError {
            line: 0,
            col: 0,
            message: format!("semantic error: {e}"),
        })?;
        Ok(region)
    }

    // nest := "for" IDENT "in" INT ".." INT "{" nest "}" | stmt+ (innermost)
    fn nest(
        &mut self,
        loops: &mut Vec<Loop>,
        vars: &mut HashMap<String, VarId>,
        array_ids: &HashMap<String, ArrayId>,
        arrays: &[ArrayDecl],
    ) -> Result<Vec<Stmt>, ParseError> {
        if self.peek().tok == Tok::Ident("for".to_string()) {
            self.next();
            let var_name = self.ident()?;
            if vars.contains_key(&var_name) {
                return self.err(format!("duplicate loop variable `{var_name}`"));
            }
            self.expect_kw("in")?;
            let lo = self.int()?;
            self.expect_sym("..")?;
            let hi = self.int()?;
            if hi < lo {
                return self.err("empty loop range");
            }
            self.expect_sym("{")?;
            let var = VarId(loops.len() as u32);
            vars.insert(var_name.clone(), var);
            loops.push(Loop::plain(var, var_name, lo, hi));
            let body = self.nest(loops, vars, array_ids, arrays)?;
            self.expect_sym("}")?;
            Ok(body)
        } else {
            // Innermost: one or more statements.
            let mut stmts = Vec::new();
            loop {
                stmts.push(self.stmt(vars, array_ids, arrays)?);
                if self.peek().tok == Tok::Sym("}") || self.peek().tok == Tok::Eof {
                    break;
                }
            }
            if stmts.is_empty() {
                return self.err("loop body must contain at least one statement");
            }
            Ok(stmts)
        }
    }

    // stmt := access "=" expr [";" | "@" "flops" "(" INT ")" ";"]
    fn stmt(
        &mut self,
        vars: &HashMap<String, VarId>,
        array_ids: &HashMap<String, ArrayId>,
        arrays: &[ArrayDecl],
    ) -> Result<Stmt, ParseError> {
        let text_start = self.peek().start;
        let mut accesses = Vec::new();
        let (lhs_id, lhs_idx) = self.access(vars, array_ids, arrays)?;
        self.expect_sym("=")?;
        let mut flops = 0u64;
        self.expr(vars, array_ids, arrays, &mut accesses, &mut flops)?;
        // Writes come after the reads of the RHS (and an implicit read if
        // the LHS also appears there, which `expr` already recorded).
        accesses.push(Access::write(lhs_id, lhs_idx));

        // The annotation is not C: the statement text stops before it.
        let text_end = self.peek().start;
        let mut explicit_flops = None;
        if self.eat_sym("@") {
            self.expect_kw("flops")?;
            self.expect_sym("(")?;
            explicit_flops = Some(self.int()? as u64);
            self.expect_sym(")")?;
        }
        self.expect_sym(";")?;
        let text = self.src[text_start..text_end].trim().to_string() + ";";
        Ok(Stmt::new(accesses, explicit_flops.unwrap_or(flops)).with_expr(text))
    }

    // expr := term (("+"|"-") term)*
    fn expr(
        &mut self,
        vars: &HashMap<String, VarId>,
        array_ids: &HashMap<String, ArrayId>,
        arrays: &[ArrayDecl],
        accesses: &mut Vec<Access>,
        flops: &mut u64,
    ) -> Result<(), ParseError> {
        self.term(vars, array_ids, arrays, accesses, flops)?;
        while self.eat_sym("+") || self.eat_sym("-") {
            *flops += 1;
            self.term(vars, array_ids, arrays, accesses, flops)?;
        }
        Ok(())
    }

    // term := factor (("*"|"/") factor)*
    fn term(
        &mut self,
        vars: &HashMap<String, VarId>,
        array_ids: &HashMap<String, ArrayId>,
        arrays: &[ArrayDecl],
        accesses: &mut Vec<Access>,
        flops: &mut u64,
    ) -> Result<(), ParseError> {
        self.factor(vars, array_ids, arrays, accesses, flops)?;
        while self.eat_sym("*") || self.eat_sym("/") {
            *flops += 1;
            self.factor(vars, array_ids, arrays, accesses, flops)?;
        }
        Ok(())
    }

    // factor := access | INT | "(" expr ")" | "-" factor
    fn factor(
        &mut self,
        vars: &HashMap<String, VarId>,
        array_ids: &HashMap<String, ArrayId>,
        arrays: &[ArrayDecl],
        accesses: &mut Vec<Access>,
        flops: &mut u64,
    ) -> Result<(), ParseError> {
        match self.peek().tok.clone() {
            Tok::Int(_) => {
                self.next();
                Ok(())
            }
            Tok::Sym("(") => {
                self.next();
                self.expr(vars, array_ids, arrays, accesses, flops)?;
                self.expect_sym(")")
            }
            Tok::Sym("-") => {
                self.next();
                self.factor(vars, array_ids, arrays, accesses, flops)
            }
            Tok::Ident(_) => {
                let (id, idx) = self.access(vars, array_ids, arrays)?;
                accesses.push(Access::read(id, idx));
                Ok(())
            }
            other => self.err(format!("expected expression, found {other}")),
        }
    }

    // access := IDENT ("[" affine "]")+
    fn access(
        &mut self,
        vars: &HashMap<String, VarId>,
        array_ids: &HashMap<String, ArrayId>,
        arrays: &[ArrayDecl],
    ) -> Result<(ArrayId, Vec<AffineExpr>), ParseError> {
        let name = self.ident()?;
        let Some(&id) = array_ids.get(&name) else {
            return self.err(format!("unknown array `{name}`"));
        };
        let mut indices = Vec::new();
        while self.eat_sym("[") {
            indices.push(self.affine(vars)?);
            self.expect_sym("]")?;
        }
        let rank = arrays[id.0 as usize].dims.len();
        if indices.len() != rank {
            return self.err(format!(
                "array `{name}` has rank {rank}, subscript has {} indices",
                indices.len()
            ));
        }
        Ok((id, indices))
    }

    // affine := ["-"] aterm (("+"|"-") aterm)*
    // aterm  := INT ["*" IDENT] | IDENT
    fn affine(&mut self, vars: &HashMap<String, VarId>) -> Result<AffineExpr, ParseError> {
        let mut out = AffineExpr::constant(0);
        let mut sign = 1i64;
        if self.eat_sym("-") {
            sign = -1;
        }
        loop {
            let term = match self.peek().tok.clone() {
                Tok::Int(c) => {
                    self.next();
                    if self.eat_sym("*") {
                        let v = self.loop_var(vars)?;
                        AffineExpr::term(v, c)
                    } else {
                        AffineExpr::constant(c)
                    }
                }
                Tok::Ident(_) => {
                    let v = self.loop_var(vars)?;
                    AffineExpr::var(v)
                }
                other => return self.err(format!("expected affine term, found {other}")),
            };
            out = out.add(&term.scale(sign));
            if self.eat_sym("+") {
                sign = 1;
            } else if self.eat_sym("-") {
                sign = -1;
            } else {
                break;
            }
        }
        Ok(out)
    }

    fn loop_var(&mut self, vars: &HashMap<String, VarId>) -> Result<VarId, ParseError> {
        let name = self.ident()?;
        vars.get(&name).copied().ok_or_else(|| {
            let t = &self.toks[self.pos.saturating_sub(1)];
            ParseError {
                line: t.line,
                col: t.col,
                message: format!("unknown loop variable `{name}`"),
            }
        })
    }
}

fn match_sym(s: &str) -> &'static str {
    match s {
        "{" => "{",
        "}" => "}",
        "[" => "[",
        "]" => "]",
        "(" => "(",
        ")" => ")",
        ":" => ":",
        ";" => ";",
        "=" => "=",
        "+" => "+",
        "-" => "-",
        "*" => "*",
        "/" => "/",
        "@" => "@",
        "," => ",",
        ".." => "..",
        _ => unreachable!("unknown symbol {s}"),
    }
}

/// Parse one region definition.
pub fn parse_region(src: &str) -> Result<Region, ParseError> {
    let toks = Lexer::new(src).tokens()?;
    let mut p = Parser { src, toks, pos: 0 };
    p.region()
}

/// Serialize a region back to the textual language. Statements use their
/// stored source text, annotated with their flop count, when available and
/// a generated placeholder otherwise; `parse_region(to_source(r))`
/// reproduces `r` for regions that originated from the parser (see the
/// round-trip tests).
pub fn to_source(region: &Region) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(out, "region {} {{", region.name).unwrap();
    writeln!(out, "    arrays {{").unwrap();
    for a in &region.arrays {
        let ty = if a.elem_size == 4 { "f32" } else { "f64" };
        let dims: String = a.dims.iter().map(|d| format!("[{d}]")).collect();
        writeln!(out, "        {}: {ty}{dims};", a.name).unwrap();
    }
    writeln!(out, "    }}").unwrap();
    let depth = region.nest.depth();
    for (d, l) in region.nest.loops.iter().enumerate() {
        let indent = "    ".repeat(d + 1);
        let lo = l.lower.as_constant().unwrap_or(0);
        let hi = l.upper.as_constant().unwrap_or(0);
        writeln!(out, "{indent}for {} in {lo}..{hi} {{", l.name).unwrap();
    }
    let body_indent = "    ".repeat(depth + 1);
    for (si, stmt) in region.nest.body.iter().enumerate() {
        match &stmt.expr {
            Some(text) => writeln!(
                out,
                "{body_indent}{} @ flops({});",
                text.strip_suffix(';').unwrap_or(text),
                stmt.flops
            )
            .unwrap(),
            None => writeln!(
                out,
                "{body_indent}// statement {si}: {} accesses, {} flops (no source)",
                stmt.accesses.len(),
                stmt.flops
            )
            .unwrap(),
        }
    }
    for d in (0..depth).rev() {
        writeln!(out, "{}}}", "    ".repeat(d + 1)).unwrap();
    }
    writeln!(out, "}}").unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deps::DepAnalysis;

    const MM: &str = r#"
        // Matrix multiplication, IJK order.
        region mm {
            arrays {
                C: f64[64][64];
                A: f64[64][64];
                B: f64[64][64];
            }
            for i in 0..64 {
                for j in 0..64 {
                    for k in 0..64 {
                        C[i][j] = C[i][j] + A[i][k] * B[k][j];
                    }
                }
            }
        }
    "#;

    #[test]
    fn parses_mm() {
        let r = parse_region(MM).unwrap();
        assert_eq!(r.name, "mm");
        assert_eq!(r.arrays.len(), 3);
        assert_eq!(r.nest.depth(), 3);
        assert_eq!(r.nest.body.len(), 1);
        let s = &r.nest.body[0];
        // reads: C, A, B; write: C.
        assert_eq!(s.accesses.iter().filter(|a| a.is_write()).count(), 1);
        assert_eq!(s.accesses.iter().filter(|a| !a.is_write()).count(), 3);
        assert_eq!(s.flops, 2);
        assert_eq!(
            s.expr.as_deref(),
            Some("C[i][j] = C[i][j] + A[i][k] * B[k][j];")
        );
        // Dependence structure matches the hand-built region.
        let an = DepAnalysis::analyze(&r.nest);
        assert!(an.parallelizable(0) && an.parallelizable(1) && !an.parallelizable(2));
        assert_eq!(an.outer_tileable_band(), 3);
    }

    #[test]
    fn parses_stencil_offsets_and_flops_annotation() {
        let src = r#"
            region jacobi {
                arrays { B: f64[32][32]; A: f64[32][32]; }
                for i in 1..31 {
                    for j in 1..31 {
                        B[i][j] = A[i][j] + A[i-1][j] + A[i+1][j]
                                + A[i][j-1] + A[i][j+1] @ flops(5);
                    }
                }
            }
        "#;
        let r = parse_region(src).unwrap();
        let s = &r.nest.body[0];
        assert_eq!(s.flops, 5);
        assert_eq!(s.accesses.len(), 6);
        // The i-1 offset survives.
        let has_offset = s.accesses.iter().any(|a| {
            a.indices
                .first()
                .map(|e| e.constant_part() == -1)
                .unwrap_or(false)
        });
        assert!(has_offset);
        let an = DepAnalysis::analyze(&r.nest);
        assert!(an.deps.is_empty(), "out-of-place stencil has no deps");
    }

    #[test]
    fn parses_scaled_indices_and_multiple_statements() {
        let src = r#"
            region strided {
                arrays { A: f64[128]; B: f64[64]; }
                for i in 0..32 {
                    A[2*i] = B[i] * 3;
                    A[2*i+1] = B[i] - 1;
                }
            }
        "#;
        let r = parse_region(src).unwrap();
        assert_eq!(r.nest.body.len(), 2);
        let a0 = r.nest.body[0]
            .accesses
            .iter()
            .find(|a| a.is_write())
            .unwrap();
        assert_eq!(a0.indices[0].coeff(crate::VarId(0)), 2);
        let a1 = r.nest.body[1]
            .accesses
            .iter()
            .find(|a| a.is_write())
            .unwrap();
        assert_eq!(a1.indices[0].constant_part(), 1);
    }

    #[test]
    fn error_messages_carry_positions() {
        let err = parse_region("region x { arrays { A f64[4]; } }").unwrap_err();
        assert!(err.message.contains("expected `:`"), "{err}");
        assert!(err.line >= 1 && err.col > 1);

        let err = parse_region("region x { arrays { A: f64[4]; } for i in 0..4 { A[j] = 1; } }")
            .unwrap_err();
        assert!(err.message.contains("unknown loop variable"), "{err}");

        let err = parse_region("region x { arrays { A: f64[4]; } for i in 0..4 { B[i] = 1; } }")
            .unwrap_err();
        assert!(err.message.contains("unknown array"), "{err}");

        let err = parse_region("region x { arrays { A: f64[4][4]; } for i in 0..4 { A[i] = 1; } }")
            .unwrap_err();
        assert!(err.message.contains("rank"), "{err}");
    }

    #[test]
    fn rejects_malformed_inputs() {
        assert!(parse_region("").is_err());
        assert!(parse_region("region { }").is_err());
        assert!(
            parse_region("region x { arrays { } }").is_err(),
            "missing nest"
        );
        assert!(
            parse_region("region x { arrays { A: f64[4]; } for i in 4..0 { A[i] = 1; } }").is_err(),
            "empty range"
        );
        assert!(
            parse_region(
                "region x { arrays { A: f64[4]; } for i in 0..4 { for i in 0..4 { A[i] = 1; } } }"
            )
            .is_err(),
            "duplicate loop variable"
        );
    }

    #[test]
    fn comments_and_whitespace_are_ignored() {
        let src = "// header\nregion c { // inline\n arrays { A: f64[8]; }\n for i in 0..8 { A[i] = i; } }";
        // `i` as a bare RHS value is not an array access — must fail with
        // "unknown array" since idents in expressions are array accesses.
        let err = parse_region(src).unwrap_err();
        assert!(err.message.contains("unknown array `i`"));
    }

    #[test]
    fn source_round_trip() {
        let r1 = parse_region(MM).unwrap();
        let printed = to_source(&r1);
        let r2 =
            parse_region(&printed).unwrap_or_else(|e| panic!("re-parse failed: {e}\n{printed}"));
        assert_eq!(r1.name, r2.name);
        assert_eq!(r1.arrays, r2.arrays);
        assert_eq!(r1.nest, r2.nest);
        // Idempotent printing.
        assert_eq!(printed, to_source(&r2));
    }

    #[test]
    fn flops_annotation_is_not_statement_text() {
        let src = "region s { arrays { A: f64[8]; }
                   for i in 0..7 { A[i] = A[i+1] * 3 @ flops(4); } }";
        let r1 = parse_region(src).unwrap();
        assert_eq!(r1.nest.body[0].expr.as_deref(), Some("A[i] = A[i+1] * 3;"));
        let r2 = parse_region(&to_source(&r1)).unwrap();
        assert_eq!(r1.nest, r2.nest);
        assert_eq!(r2.nest.body[0].flops, 4);
    }

    #[test]
    fn source_round_trip_multi_statement() {
        let src = r#"
            region two {
                arrays { A: f64[16]; B: f64[16]; }
                for i in 0..16 {
                    A[i] = B[i] * 2;
                    B[i] = B[i] + 1;
                }
            }
        "#;
        let r1 = parse_region(src).unwrap();
        let r2 = parse_region(&to_source(&r1)).unwrap();
        assert_eq!(r1.nest, r2.nest);
    }

    #[test]
    fn parsed_region_round_trips_through_analyzer() {
        use crate::analyzer::{analyze, AnalyzerConfig};
        let r = parse_region(MM).unwrap();
        let cfg = AnalyzerConfig::for_threads(vec![1, 2, 4]);
        let analyzed = analyze(r, &cfg).unwrap();
        assert_eq!(analyzed.skeletons.len(), 1);
        let v = analyzed.skeletons[0]
            .instantiate(&analyzed.nest, &[16, 16, 8, 4])
            .unwrap();
        assert_eq!(v.threads, 4);
    }
}
