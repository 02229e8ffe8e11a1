//! Parser and lowering: source text to the `systolic-ir` program.
//!
//! The surface syntax makes the paper's Sec. 3.1 notation concrete:
//!
//! ```text
//! program polyprod;
//! size n;
//! var a[0..n], b[0..n], c[0..2*n];
//! for i = 0 <- 1 -> n
//! for j = 0 <- 1 -> n {
//!   c[i+j] = c[i+j] + a[i] * b[j];
//! }
//! ```
//!
//! Guarded updates are written `if <cond> -> lhs = rhs;`. Loop steps are
//! `1` or `-1` between `<-` and `->`. Stream index expressions must be
//! linear in the loop indices with no constant part (restriction A.2);
//! violations are diagnosed with line numbers, and so is an expression
//! nested deeper than [`MAX_EXPR_DEPTH`] levels.

use crate::lexer::{lex, Spanned, Tok};
use std::collections::HashMap;
use std::fmt;
use systolic_ir::expr::{
    BasicStatement, BoolExpr, CmpOp, GuardedUpdate, ScalarExpr, StreamId, MAX_EXPR_DEPTH,
};
use systolic_ir::{IndexedVar, Loop, SourceProgram, Stream};
use systolic_math::{Affine, Matrix, Rational, VarTable};

/// A parse/lowering error with its source line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    pub line: usize,
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// A linear combination of identifiers plus a constant, the common shape
/// of bounds and index expressions.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct LinComb {
    coeffs: Vec<(String, i64)>,
    constant: i64,
}

impl LinComb {
    fn constant(c: i64) -> LinComb {
        LinComb {
            coeffs: Vec::new(),
            constant: c,
        }
    }

    fn ident(name: &str) -> LinComb {
        LinComb {
            coeffs: vec![(name.to_string(), 1)],
            constant: 0,
        }
    }

    fn add(mut self, other: LinComb, sign: i64) -> LinComb {
        self.constant += sign * other.constant;
        for (n, c) in other.coeffs {
            match self.coeffs.iter_mut().find(|(m, _)| *m == n) {
                Some((_, existing)) => *existing += sign * c,
                None => self.coeffs.push((n, sign * c)),
            }
        }
        self.coeffs.retain(|&(_, c)| c != 0);
        self
    }

    fn scale(mut self, k: i64) -> LinComb {
        self.constant *= k;
        for (_, c) in &mut self.coeffs {
            *c *= k;
        }
        self.coeffs.retain(|&(_, c)| c != 0);
        self
    }
}

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn line(&self) -> usize {
        self.toks[self.pos].line
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].tok.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            line: self.line(),
            message: message.into(),
        })
    }

    /// An expression of `height` levels where only `room` are left, or
    /// the refusal: the parser counts against [`MAX_EXPR_DEPTH`] as it
    /// builds, so neither it nor any later walk recurses past the cap.
    fn fit(&self, height: usize, room: usize) -> Result<usize, ParseError> {
        if height > room {
            return self.err(format!(
                "expression nested deeper than {MAX_EXPR_DEPTH} levels"
            ));
        }
        Ok(height)
    }

    fn expect(&mut self, t: Tok) -> Result<(), ParseError> {
        if *self.peek() == t {
            self.bump();
            Ok(())
        } else {
            self.err(format!("expected {t}, found {}", self.peek()))
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => self.err(format!("expected an identifier, found {other}")),
        }
    }

    /// Linear expression: terms of idents and integers combined with
    /// `+`, `-`, and `*` by constants.
    fn lin_expr(&mut self) -> Result<LinComb, ParseError> {
        self.lin_sum(MAX_EXPR_DEPTH)
    }

    /// [`Parser::lin_expr`] inside parentheses with `room` levels left.
    fn lin_sum(&mut self, room: usize) -> Result<LinComb, ParseError> {
        let mut acc = LinComb::default();
        let mut sign = 1i64;
        // Leading sign.
        if *self.peek() == Tok::Minus {
            self.bump();
            sign = -1;
        }
        loop {
            let term = self.lin_term(room)?;
            acc = acc.add(term, sign);
            match self.peek() {
                Tok::Plus => {
                    self.bump();
                    sign = 1;
                }
                Tok::Minus => {
                    self.bump();
                    sign = -1;
                }
                _ => return Ok(acc),
            }
        }
    }

    /// A term: `k`, `x`, `k*x`, `x*k`, or parenthesized linear expr.
    fn lin_term(&mut self, room: usize) -> Result<LinComb, ParseError> {
        let first = self.lin_atom(room)?;
        if *self.peek() == Tok::Star {
            self.bump();
            let second = self.lin_atom(room)?;
            // One side must be constant for linearity.
            if first.coeffs.is_empty() {
                Ok(second.scale(first.constant))
            } else if second.coeffs.is_empty() {
                Ok(first.scale(second.constant))
            } else {
                self.err("non-linear product in a linear expression")
            }
        } else {
            Ok(first)
        }
    }

    fn lin_atom(&mut self, room: usize) -> Result<LinComb, ParseError> {
        self.fit(1, room)?;
        match self.peek().clone() {
            Tok::Int(n) => {
                self.bump();
                Ok(LinComb::constant(n))
            }
            Tok::Ident(s) => {
                self.bump();
                Ok(LinComb::ident(&s))
            }
            Tok::LParen => {
                self.bump();
                let e = self.lin_sum(room - 1)?;
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            other => self.err(format!("expected a linear term, found {other}")),
        }
    }
}

/// Context for lowering body expressions.
struct Lowering {
    loop_names: Vec<String>,
    /// var name -> declared dimension count
    var_dims: HashMap<String, usize>,
    var_order: Vec<String>,
    /// (var name, index rows) -> stream id, in first-appearance order.
    streams: Vec<(String, Vec<Vec<i64>>)>,
}

impl Lowering {
    fn loop_index(&self, name: &str) -> Option<usize> {
        self.loop_names.iter().position(|n| n == name)
    }

    /// Lower one bracketed index expression list to index-map rows.
    fn index_rows(&self, line: usize, exprs: &[LinComb]) -> Result<Vec<Vec<i64>>, ParseError> {
        let mut rows = Vec::with_capacity(exprs.len());
        for e in exprs {
            if e.constant != 0 {
                return Err(ParseError {
                    line,
                    message: "constants are not allowed in stream index vectors (restriction A.2)"
                        .into(),
                });
            }
            let mut row = vec![0i64; self.loop_names.len()];
            for (name, c) in &e.coeffs {
                match self.loop_index(name) {
                    Some(i) => row[i] = *c,
                    None => {
                        return Err(ParseError {
                            line,
                            message: format!("`{name}` is not a loop index"),
                        })
                    }
                }
            }
            rows.push(row);
        }
        Ok(rows)
    }

    /// Find or create the stream for a variable access.
    fn stream(
        &mut self,
        line: usize,
        var: &str,
        rows: Vec<Vec<i64>>,
    ) -> Result<StreamId, ParseError> {
        if !self.var_dims.contains_key(var) {
            return Err(ParseError {
                line,
                message: format!("undeclared variable `{var}`"),
            });
        }
        if self.var_dims[var] != rows.len() {
            return Err(ParseError {
                line,
                message: format!(
                    "variable `{var}` is {}-dimensional but indexed with {} expression(s)",
                    self.var_dims[var],
                    rows.len()
                ),
            });
        }
        if let Some(k) = self
            .streams
            .iter()
            .position(|(v, r)| v == var && *r == rows)
        {
            return Ok(StreamId(k));
        }
        // The paper requires one index map per variable (streams with
        // rank < r-1 would be split; multiple maps per variable are out
        // of scope).
        if self.streams.iter().any(|(v, _)| v == var) {
            return Err(ParseError {
                line,
                message: format!(
                    "variable `{var}` is accessed under two different index maps; \
                     each variable must form a single stream"
                ),
            });
        }
        self.streams.push((var.to_string(), rows));
        Ok(StreamId(self.streams.len() - 1))
    }
}

/// A parsed expression and its height: tree levels plus the parentheses
/// around them, never more than the `room` it was parsed in.
type Deep<T> = Result<(T, usize), ParseError>;

fn parse_scalar(p: &mut Parser, lw: &mut Lowering, room: usize) -> Deep<ScalarExpr> {
    parse_chain(p, lw, room, &[Tok::Plus, Tok::Minus])
}

/// A left-deep chain of the binary operators in `ops` (`+ -`, or `*`),
/// each one level above the last.
fn parse_chain(p: &mut Parser, lw: &mut Lowering, room: usize, ops: &[Tok]) -> Deep<ScalarExpr> {
    let operand = |p: &mut Parser, lw: &mut Lowering| match ops {
        [Tok::Star] => parse_atom(p, lw, room),
        _ => parse_chain(p, lw, room, &[Tok::Star]),
    };
    let (mut acc, mut height) = operand(p, lw)?;
    while ops.contains(p.peek()) {
        let op = match p.bump() {
            Tok::Plus => ScalarExpr::Add,
            Tok::Minus => ScalarExpr::Sub,
            _ => ScalarExpr::Mul,
        };
        let (rhs, h) = operand(p, lw)?;
        height = p.fit(height.max(h) + 1, room)?;
        acc = op(Box::new(acc), Box::new(rhs));
    }
    Ok((acc, height))
}

fn parse_atom(p: &mut Parser, lw: &mut Lowering, room: usize) -> Deep<ScalarExpr> {
    p.fit(1, room)?;
    match p.peek().clone() {
        Tok::Int(n) => {
            p.bump();
            Ok((ScalarExpr::Const(n), 1))
        }
        Tok::Minus => {
            p.bump();
            let (inner, h) = parse_atom(p, lw, room - 1)?;
            Ok((ScalarExpr::Neg(Box::new(inner)), h + 1))
        }
        Tok::LParen => {
            p.bump();
            let (e, h) = parse_scalar(p, lw, room - 1)?;
            p.expect(Tok::RParen)?;
            Ok((e, h + 1))
        }
        Tok::Min | Tok::Max => {
            let op = match p.bump() {
                Tok::Min => ScalarExpr::Min,
                _ => ScalarExpr::Max,
            };
            p.expect(Tok::LParen)?;
            let (a, ha) = parse_scalar(p, lw, room - 1)?;
            p.expect(Tok::Comma)?;
            let (b, hb) = parse_scalar(p, lw, room - 1)?;
            p.expect(Tok::RParen)?;
            Ok((op(Box::new(a), Box::new(b)), ha.max(hb) + 1))
        }
        Tok::Ident(name) => {
            let line = p.line();
            p.bump();
            if *p.peek() == Tok::LBracket {
                // A stream access.
                p.bump();
                let mut exprs = vec![p.lin_expr()?];
                while *p.peek() == Tok::Comma {
                    p.bump();
                    exprs.push(p.lin_expr()?);
                }
                p.expect(Tok::RBracket)?;
                let rows = lw.index_rows(line, &exprs)?;
                let sid = lw.stream(line, &name, rows)?;
                Ok((ScalarExpr::Stream(sid), 1))
            } else if let Some(i) = lw.loop_index(&name) {
                Ok((ScalarExpr::Index(i), 1))
            } else {
                Err(ParseError {
                    line,
                    message: format!(
                        "`{name}` is neither a loop index nor an indexed variable access"
                    ),
                })
            }
        }
        other => p.err(format!("expected an expression, found {other}")),
    }
}

/// `or` chains of `and` chains of (possibly negated) comparisons.
fn parse_bool(p: &mut Parser, lw: &mut Lowering, room: usize, or: bool) -> Deep<BoolExpr> {
    let operand = |p: &mut Parser, lw: &mut Lowering| match or {
        true => parse_bool(p, lw, room, false),
        false => parse_not(p, lw, room),
    };
    let (mut acc, mut height) = operand(p, lw)?;
    let (tok, op) = match or {
        true => (Tok::Or, BoolExpr::Or as fn(_, _) -> _),
        false => (Tok::And, BoolExpr::And as fn(_, _) -> _),
    };
    while *p.peek() == tok {
        p.bump();
        let (rhs, h) = operand(p, lw)?;
        height = p.fit(height.max(h) + 1, room)?;
        acc = op(Box::new(acc), Box::new(rhs));
    }
    Ok((acc, height))
}

fn parse_not(p: &mut Parser, lw: &mut Lowering, room: usize) -> Deep<BoolExpr> {
    p.fit(1, room)?;
    if *p.peek() == Tok::Not {
        p.bump();
        let (inner, h) = parse_not(p, lw, room - 1)?;
        return Ok((BoolExpr::Not(Box::new(inner)), h + 1));
    }
    let (a, ha) = parse_scalar(p, lw, room - 1)?;
    let op = match p.peek() {
        Tok::EqEq => CmpOp::Eq,
        Tok::Ne => CmpOp::Ne,
        Tok::Le => CmpOp::Le,
        Tok::Lt => CmpOp::Lt,
        Tok::Ge => CmpOp::Ge,
        Tok::Gt => CmpOp::Gt,
        other => return p.err(format!("expected a comparison operator, found {other}")),
    };
    p.bump();
    let (b, hb) = parse_scalar(p, lw, room - 1)?;
    Ok((BoolExpr::Cmp(op, a, b), ha.max(hb) + 1))
}

/// Convert a bound `LinComb` (over size symbols only) to an `Affine`.
fn bound_to_affine(
    lc: &LinComb,
    line: usize,
    vars: &mut VarTable,
    declared_sizes: &[String],
) -> Result<Affine, ParseError> {
    let mut e = Affine::int(lc.constant);
    for (name, c) in &lc.coeffs {
        if !declared_sizes.contains(name) {
            return Err(ParseError {
                line,
                message: format!("`{name}` is not a declared problem-size symbol"),
            });
        }
        let v = vars.size(name);
        e = e + Affine::term(v, Rational::int(*c));
    }
    Ok(e)
}

/// Parse a complete source program.
pub fn parse(src: &str) -> Result<SourceProgram, ParseError> {
    let toks = lex(src).map_err(|e| ParseError {
        line: e.line,
        message: e.message,
    })?;
    let mut p = Parser { toks, pos: 0 };

    // program NAME ;
    p.expect(Tok::Program)?;
    let name = p.ident()?;
    p.expect(Tok::Semi)?;

    // size n, m ;
    p.expect(Tok::Size)?;
    let mut size_names = vec![p.ident()?];
    while *p.peek() == Tok::Comma {
        p.bump();
        size_names.push(p.ident()?);
    }
    p.expect(Tok::Semi)?;

    let mut vars = VarTable::new();
    let sizes: Vec<_> = size_names.iter().map(|n| vars.size(n)).collect();

    // var a[lo..hi, ...], ... ;
    p.expect(Tok::Var)?;
    let mut variables: Vec<IndexedVar> = Vec::new();
    loop {
        let line = p.line();
        let vname = p.ident()?;
        p.expect(Tok::LBracket)?;
        let mut bounds = Vec::new();
        loop {
            let lo = p.lin_expr()?;
            p.expect(Tok::DotDot)?;
            let hi = p.lin_expr()?;
            bounds.push((
                bound_to_affine(&lo, line, &mut vars, &size_names)?,
                bound_to_affine(&hi, line, &mut vars, &size_names)?,
            ));
            if *p.peek() == Tok::Comma {
                p.bump();
            } else {
                break;
            }
        }
        p.expect(Tok::RBracket)?;
        if variables.iter().any(|v| v.name == vname) {
            return Err(ParseError {
                line,
                message: format!("duplicate variable `{vname}`"),
            });
        }
        variables.push(IndexedVar {
            name: vname,
            bounds,
        });
        if *p.peek() == Tok::Comma {
            p.bump();
        } else {
            break;
        }
    }
    p.expect(Tok::Semi)?;

    // Loops.
    let mut loops: Vec<Loop> = Vec::new();
    while *p.peek() == Tok::For {
        let line = p.line();
        p.bump();
        let index_name = p.ident()?;
        p.expect(Tok::Assign)?;
        let lb = p.lin_expr()?;
        p.expect(Tok::BackArrow)?;
        // Step: 1 or -1.
        let step = match p.bump() {
            Tok::Int(1) => 1,
            Tok::Minus => match p.bump() {
                Tok::Int(1) => -1,
                other => {
                    return Err(ParseError {
                        line,
                        message: format!("loop step must be 1 or -1, found -{other}"),
                    })
                }
            },
            other => {
                return Err(ParseError {
                    line,
                    message: format!("loop step must be 1 or -1, found {other}"),
                })
            }
        };
        p.expect(Tok::Arrow)?;
        let rb = p.lin_expr()?;
        loops.push(Loop {
            index_name,
            lb: bound_to_affine(&lb, line, &mut vars, &size_names)?,
            rb: bound_to_affine(&rb, line, &mut vars, &size_names)?,
            step,
        });
    }
    if loops.is_empty() {
        return p.err("expected at least one `for` loop");
    }

    // Body.
    let mut lw = Lowering {
        loop_names: loops.iter().map(|l| l.index_name.clone()).collect(),
        var_dims: variables
            .iter()
            .map(|v| (v.name.clone(), v.bounds.len()))
            .collect(),
        var_order: variables.iter().map(|v| v.name.clone()).collect(),
        streams: Vec::new(),
    };
    p.expect(Tok::LBrace)?;
    let mut updates = Vec::new();
    while *p.peek() != Tok::RBrace {
        let guard = if *p.peek() == Tok::If {
            p.bump();
            let (g, _) = parse_bool(&mut p, &mut lw, MAX_EXPR_DEPTH, true)?;
            p.expect(Tok::Arrow)?;
            Some(g)
        } else {
            None
        };
        // lhs: var[indices] = expr ;
        let line = p.line();
        let lhs_name = p.ident()?;
        p.expect(Tok::LBracket)?;
        let mut exprs = vec![p.lin_expr()?];
        while *p.peek() == Tok::Comma {
            p.bump();
            exprs.push(p.lin_expr()?);
        }
        p.expect(Tok::RBracket)?;
        let rows = lw.index_rows(line, &exprs)?;
        let target = lw.stream(line, &lhs_name, rows)?;
        p.expect(Tok::Assign)?;
        let (value, _) = parse_scalar(&mut p, &mut lw, MAX_EXPR_DEPTH)?;
        p.expect(Tok::Semi)?;
        updates.push(GuardedUpdate {
            guard,
            target,
            value,
        });
    }
    p.expect(Tok::RBrace)?;
    if *p.peek() != Tok::Eof {
        return p.err(format!("trailing input: {}", p.peek()));
    }

    // Assemble streams in first-appearance order.
    let streams: Vec<Stream> = lw
        .streams
        .iter()
        .map(|(vname, rows)| Stream {
            variable: lw.var_order.iter().position(|v| v == vname).unwrap(),
            index_map: Matrix::from_rows(rows),
        })
        .collect();

    Ok(SourceProgram {
        name,
        vars,
        sizes,
        loops,
        variables,
        streams,
        body: BasicStatement { updates },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use systolic_math::Env;

    const POLYPROD: &str = "
        program polyprod;
        size n;
        var a[0..n], b[0..n], c[0..2*n];
        for i = 0 <- 1 -> n
        for j = 0 <- 1 -> n {
          c[i+j] = c[i+j] + a[i] * b[j];
        }
    ";

    const MATMUL: &str = "
        program matmul;
        size n;
        var a[0..n, 0..n], b[0..n, 0..n], c[0..n, 0..n];
        for i = 0 <- 1 -> n
        for j = 0 <- 1 -> n
        for k = 0 <- 1 -> n {
          c[i,j] = c[i,j] + a[i,k] * b[k,j];
        }
    ";

    #[test]
    fn parses_polyprod_equivalent_to_gallery() {
        let p = parse(POLYPROD).unwrap();
        let g = systolic_ir::gallery::polynomial_product();
        assert_eq!(p.r(), 2);
        assert_eq!(p.streams.len(), 3);
        systolic_ir::validate(&p, 4).unwrap();
        // Same results as the gallery program.
        let mut env_p = Env::new();
        env_p.bind(p.sizes[0], 4);
        let mut env_g = Env::new();
        env_g.bind(g.sizes[0], 4);
        let rp = systolic_ir::seq::run_random(&p, &env_p, &["a", "b"], 3);
        let rg = systolic_ir::seq::run_random(&g, &env_g, &["a", "b"], 3);
        assert_eq!(rp.get("c"), rg.get("c"));
    }

    #[test]
    fn parses_matmul_with_correct_index_maps() {
        let p = parse(MATMUL).unwrap();
        assert_eq!(p.r(), 3);
        // Stream order by appearance: c, a, b.
        assert_eq!(p.stream_name(StreamId(0)), "c");
        assert_eq!(p.stream_name(StreamId(1)), "a");
        assert_eq!(
            p.streams[1].index_map,
            Matrix::from_rows(&[vec![1, 0, 0], vec![0, 0, 1]])
        );
        systolic_ir::validate(&p, 4).unwrap();
    }

    #[test]
    fn guarded_update() {
        let src = "
            program g;
            size n;
            var a[0..n], b[0..n], c[0..2*n];
            for i = 0 <- 1 -> n
            for j = 0 <- 1 -> n {
              if i <= j -> c[i+j] = c[i+j] + a[i] * b[j];
            }
        ";
        let p = parse(src).unwrap();
        assert!(p.body.updates[0].guard.is_some());
    }

    #[test]
    fn negative_loop_step() {
        let src = "
            program g;
            size n;
            var a[0..n], b[0..n], c[0..2*n];
            for i = 0 <- 1 -> n
            for j = 0 <- -1 -> n {
              c[i+j] = c[i+j] + a[i] * b[j];
            }
        ";
        let p = parse(src).unwrap();
        assert_eq!(p.loops[1].step, -1);
    }

    #[test]
    fn constant_in_index_vector_rejected() {
        let src = "
            program g;
            size n;
            var a[0..n], b[0..n], c[0..2*n];
            for i = 0 <- 1 -> n
            for j = 0 <- 1 -> n {
              c[i+j] = c[i+j] + a[i+1] * b[j];
            }
        ";
        let err = parse(src).unwrap_err();
        assert!(err.message.contains("constants are not allowed"), "{err}");
    }

    #[test]
    fn two_index_maps_for_one_variable_rejected() {
        let src = "
            program g;
            size n;
            var a[0..n], b[0..n], c[0..2*n];
            for i = 0 <- 1 -> n
            for j = 0 <- 1 -> n {
              c[i+j] = c[i+j] + a[i] * a[j];
            }
        ";
        let err = parse(src).unwrap_err();
        assert!(err.message.contains("two different index maps"), "{err}");
    }

    #[test]
    fn undeclared_variable_rejected() {
        let src = "
            program g;
            size n;
            var a[0..n];
            for i = 0 <- 1 -> n
            for j = 0 <- 1 -> n {
              z[i+j] = a[i];
            }
        ";
        let err = parse(src).unwrap_err();
        assert!(err.message.contains("undeclared variable"), "{err}");
    }

    #[test]
    fn fir_with_two_sizes_and_negative_bounds() {
        let src = "
            program fir;
            size n, m;
            var h[0..n], x[-n..m], y[0..m];
            for i = 0 <- 1 -> m
            for j = 0 <- 1 -> n {
              y[i] = y[i] + h[j] * x[i-j];
            }
        ";
        let p = parse(src).unwrap();
        systolic_ir::validate(&p, 4).unwrap();
        assert_eq!(p.sizes.len(), 2);
        let mut env = Env::new();
        env.bind(p.sizes[0], 2).bind(p.sizes[1], 5);
        let _ = systolic_ir::seq::run_random(&p, &env, &["h", "x"], 1);
    }

    /// A polyprod-shaped program whose body is `update`, on line 5.
    fn with_update(update: &str) -> String {
        format!(
            "program g;\nsize n;\nvar a[0..n], b[0..n], c[0..2*n];\n\
             for i = 0 <- 1 -> n for j = 0 <- 1 -> n {{\n{update}\n}}"
        )
    }

    #[test]
    fn expressions_past_the_depth_cap_are_refused_with_their_line() {
        let nest = |open: &str, close: &str, n: usize| {
            format!("{}a[i]{}", open.repeat(n), close.repeat(n))
        };
        let sum = |term: &str, n: usize| vec![term; n].join(" + ");
        for update in [
            format!("c[i+j] = {};", nest("(", ")", 5_000)),
            format!("c[i+j] = {};", nest("-", "", 5_000)),
            format!("c[i+j] = {};", nest("max(b[j], ", ")", 300)),
            format!("c[i+j] = {};", sum("a[i]", 50_000)),
            format!("c[i+j] = {};", sum("a[i] * b[j]", 300)),
            format!(
                "c[i+j] = a[{}];",
                nest("(", ")", 5_000).replace("a[i]", "i")
            ),
            format!("if {}i <= j -> c[i+j] = a[i] * b[j];", "not ".repeat(300)),
        ] {
            let err = parse(&with_update(&update)).unwrap_err();
            assert_eq!(err.line, 5, "{err}");
            assert!(err.message.contains("deeper than 256 levels"), "{err}");
        }
        // Under the cap, the same shapes parse and validate.
        let src = with_update(&format!(
            "c[i+j] = c[i+j] + ({}) + {};",
            sum("a[i] * b[j]", 200),
            nest("(", ")", 40),
        ));
        systolic_ir::validate(&parse(&src).unwrap(), 4).unwrap();
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse("program g;\nsize n\nvar a[0..n];").unwrap_err();
        assert_eq!(err.line, 3, "missing semicolon detected at `var`");
    }
}
