//! Affine expressions: `c + sum(q_i * v_i)` with rational coefficients over
//! symbolic variables.
//!
//! These are the currency of the derivation (Sec. 7): loop bounds are
//! "linear expressions in the problem size" (Sec. 3.1), the solutions of
//! `place.x = y` are affine in the process coordinates, and all soak/drain
//! counts simplify to affine expressions. Simplification is automatic:
//! expressions are kept in a canonical sorted sparse form, so equality of
//! derived results with the paper's hand-simplified forms is structural.

use crate::rational::Rational;
use crate::symbols::{Env, Var, VarTable};
use std::fmt::Write as _;
use std::ops::{Add, Mul, Neg, Sub};

/// An affine (degree <= 1) expression over symbolic variables.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct Affine {
    constant: Rational,
    /// Sorted by `Var`, coefficients non-zero.
    terms: Vec<(Var, Rational)>,
}

/// A point whose coordinates are affine expressions, e.g. the paper's
/// `first = (col, row, 0)` or `first_s = (0, row - col)`.
pub type AffinePoint = Vec<Affine>;

impl Affine {
    /// The zero expression.
    pub fn zero() -> Affine {
        Affine::default()
    }

    /// An integer constant.
    pub fn int(n: i64) -> Affine {
        Affine {
            constant: Rational::int(n),
            terms: Vec::new(),
        }
    }

    /// A bare variable.
    pub fn var(v: Var) -> Affine {
        Affine {
            constant: Rational::ZERO,
            terms: vec![(v, Rational::ONE)],
        }
    }

    /// `q * v`.
    pub fn term(v: Var, q: Rational) -> Affine {
        if q.is_zero() {
            Affine::zero()
        } else {
            Affine {
                constant: Rational::ZERO,
                terms: vec![(v, q)],
            }
        }
    }

    pub fn constant_part(&self) -> Rational {
        self.constant
    }

    /// The non-zero terms, sorted by variable.
    pub fn terms(&self) -> &[(Var, Rational)] {
        &self.terms
    }

    /// The coefficient of `v` (zero if absent).
    pub fn coeff(&self, v: Var) -> Rational {
        self.terms
            .iter()
            .find(|(t, _)| *t == v)
            .map(|&(_, q)| q)
            .unwrap_or(Rational::ZERO)
    }

    /// Is this a constant expression?
    pub fn is_const(&self) -> bool {
        self.terms.is_empty()
    }

    /// The constant value, if constant.
    pub fn as_const(&self) -> Option<Rational> {
        self.is_const().then_some(self.constant)
    }

    pub fn is_zero(&self) -> bool {
        self.terms.is_empty() && self.constant.is_zero()
    }

    /// The variables occurring with non-zero coefficient.
    pub fn vars(&self) -> impl Iterator<Item = Var> + '_ {
        self.terms.iter().map(|&(v, _)| v)
    }

    /// Multiply by a rational scalar.
    pub fn scale(&self, q: Rational) -> Affine {
        if q.is_zero() {
            return Affine::zero();
        }
        Affine {
            constant: self.constant * q,
            terms: self.terms.iter().map(|&(v, c)| (v, c * q)).collect(),
        }
    }

    /// Substitute `v := repl` (used when fixing one component of a point to
    /// a loop bound, Sec. 7.2.2, and when specializing coordinates).
    pub fn substitute(&self, v: Var, repl: &Affine) -> Affine {
        let c = self.coeff(v);
        if c.is_zero() {
            return self.clone();
        }
        let mut without = self.clone();
        without.terms.retain(|&(t, _)| t != v);
        without + repl.scale(c)
    }

    /// Evaluate to an exact rational under the bindings.
    pub fn eval_rat(&self, env: &Env) -> Rational {
        self.terms.iter().fold(self.constant, |acc, &(v, q)| {
            acc + q * Rational::int(env.expect(v))
        })
    }

    /// Evaluate to an integer; `None` if the value is not integral (the
    /// paper's restriction A.2 rules this out for accepted programs, but we
    /// surface it rather than truncating).
    pub fn eval(&self, env: &Env) -> Option<i64> {
        self.eval_rat(env).to_integer()
    }

    /// Evaluate, panicking with a description on a non-integral result.
    pub fn eval_int(&self, env: &Env) -> i64 {
        let q = self.eval_rat(env);
        q.to_integer()
            .unwrap_or_else(|| panic!("expression evaluated to non-integer {q}"))
    }

    /// Render using the variable names in `table`, in the paper's style,
    /// e.g. `2*n - col + 1`, `-row`, `0`.
    pub fn display(&self, table: &VarTable) -> String {
        let mut out = String::new();
        let mut first = true;
        // Paper style: positive terms before negative ones ("col - n",
        // "row - col"), stable by variable id within each sign.
        let mut ordered: Vec<(Var, Rational)> = self.terms.clone();
        ordered.sort_by_key(|&(v, q)| (q.signum() < 0, v));
        for &(v, q) in &ordered {
            let name = table.name(v);
            if first {
                if q == Rational::ONE {
                    let _ = write!(out, "{name}");
                } else if q == -Rational::ONE {
                    let _ = write!(out, "-{name}");
                } else {
                    let _ = write!(out, "{q}*{name}");
                }
                first = false;
            } else if q.signum() >= 0 {
                if q == Rational::ONE {
                    let _ = write!(out, " + {name}");
                } else {
                    let _ = write!(out, " + {q}*{name}");
                }
            } else if q == -Rational::ONE {
                let _ = write!(out, " - {name}");
            } else {
                let _ = write!(out, " - {}*{name}", -q);
            }
        }
        if first {
            let _ = write!(out, "{}", self.constant);
        } else if self.constant.signum() > 0 {
            let _ = write!(out, " + {}", self.constant);
        } else if self.constant.signum() < 0 {
            let _ = write!(out, " - {}", -self.constant);
        }
        out
    }

    fn merge(mut self, other: &Affine, sign: Rational) -> Affine {
        self.constant += other.constant * sign;
        for &(v, q) in &other.terms {
            let q = q * sign;
            match self.terms.binary_search_by_key(&v, |&(t, _)| t) {
                Ok(i) => {
                    let nq = self.terms[i].1 + q;
                    if nq.is_zero() {
                        self.terms.remove(i);
                    } else {
                        self.terms[i].1 = nq;
                    }
                }
                Err(i) => self.terms.insert(i, (v, q)),
            }
        }
        self
    }
}

impl Add for Affine {
    type Output = Affine;
    fn add(self, rhs: Affine) -> Affine {
        self.merge(&rhs, Rational::ONE)
    }
}

impl Add<&Affine> for Affine {
    type Output = Affine;
    fn add(self, rhs: &Affine) -> Affine {
        self.merge(rhs, Rational::ONE)
    }
}

impl Sub for Affine {
    type Output = Affine;
    fn sub(self, rhs: Affine) -> Affine {
        self.merge(&rhs, -Rational::ONE)
    }
}

impl Sub<&Affine> for Affine {
    type Output = Affine;
    fn sub(self, rhs: &Affine) -> Affine {
        self.merge(rhs, -Rational::ONE)
    }
}

impl Neg for Affine {
    type Output = Affine;
    fn neg(self) -> Affine {
        self.scale(-Rational::ONE)
    }
}

impl Mul<Rational> for Affine {
    type Output = Affine;
    fn mul(self, q: Rational) -> Affine {
        self.scale(q)
    }
}

/// Component-wise difference of affine points.
pub fn point_sub(x: &[Affine], y: &[Affine]) -> AffinePoint {
    assert_eq!(x.len(), y.len());
    x.iter().zip(y).map(|(a, b)| a.clone() - b).collect()
}

/// Evaluate an affine point to integers.
pub fn eval_point(x: &[Affine], env: &Env) -> Vec<i64> {
    x.iter().map(|a| a.eval_int(env)).collect()
}

/// Apply an integer/rational matrix to an affine point (`M.x` where `x` has
/// symbolic coordinates — Sec. 7.4 applies index maps to `first`).
pub fn matrix_apply(m: &crate::matrix::Matrix, x: &[Affine]) -> AffinePoint {
    assert_eq!(x.len(), m.cols());
    (0..m.rows())
        .map(|r| {
            x.iter()
                .enumerate()
                .fold(Affine::zero(), |acc, (c, xi)| acc + xi.scale(m.at(r, c)))
        })
        .collect()
}

/// Symbolic exact division `x // v` of an affine point by a constant integer
/// vector: the affine scalar `e` such that `e * v == x`, if the components
/// agree (eqs. 8-10 divide point differences by `increment_s`).
pub fn point_exact_div(x: &[Affine], v: &[i64]) -> Option<Affine> {
    assert_eq!(x.len(), v.len());
    let mut q: Option<Affine> = None;
    for (xi, &vi) in x.iter().zip(v) {
        if vi == 0 {
            if !xi.is_zero() {
                return None;
            }
        } else {
            let cand = xi.scale(Rational::new(1, vi));
            match &q {
                None => q = Some(cand),
                Some(prev) if *prev != cand => return None,
                _ => {}
            }
        }
    }
    Some(q.unwrap_or_else(Affine::zero))
}

/// Render an affine point in tuple notation, e.g. `(col - n, n)`.
pub fn display_point(x: &[Affine], table: &VarTable) -> String {
    let inner: Vec<String> = x.iter().map(|a| a.display(table)).collect();
    if inner.len() == 1 {
        inner.into_iter().next().unwrap()
    } else {
        format!("({})", inner.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;

    fn setup() -> (VarTable, Var, Var, Var) {
        let mut t = VarTable::new();
        let n = t.size("n");
        let col = t.coord(0);
        let row = t.coord(1);
        (t, n, col, row)
    }

    #[test]
    fn canonical_arithmetic() {
        let (_, n, col, _) = setup();
        let e = Affine::var(n) + Affine::var(col) - Affine::var(n);
        assert_eq!(e, Affine::var(col));
        let z = Affine::var(col) - Affine::var(col);
        assert!(z.is_zero());
    }

    #[test]
    fn display_matches_paper_style() {
        let (t, n, col, row) = setup();
        let e = Affine::int(2).scale(Rational::int(1)) * Rational::int(1);
        assert_eq!(e.display(&t), "2");
        let e = Affine::var(n).scale(Rational::int(2)) - Affine::var(col) + Affine::int(1);
        assert_eq!(e.display(&t), "2*n - col + 1");
        let e = -Affine::var(row);
        assert_eq!(e.display(&t), "-row");
        assert_eq!(Affine::zero().display(&t), "0");
    }

    #[test]
    fn substitution() {
        let (_, n, col, _) = setup();
        // (n - col) with col := n  ==>  0
        let e = Affine::var(n) - Affine::var(col);
        let r = e.substitute(col, &Affine::var(n));
        assert!(r.is_zero());
    }

    #[test]
    fn evaluation() {
        let (_, n, col, _) = setup();
        let e = Affine::var(n).scale(Rational::int(2)) - Affine::var(col);
        let mut env = Env::new();
        env.bind(n, 5).bind(col, 3);
        assert_eq!(e.eval(&env), Some(7));
        let half = Affine::var(n).scale(Rational::new(1, 2));
        assert_eq!(half.eval(&env), None, "5/2 is not an integer");
    }

    #[test]
    fn matrix_on_affine_points() {
        let (t, n, col, row) = setup();
        // M.c = (i, j) applied to first = (col, row, 0): Appendix E.1.4.
        let mc = Matrix::from_rows(&[vec![1, 0, 0], vec![0, 1, 0]]);
        let first = vec![Affine::var(col), Affine::var(row), Affine::zero()];
        let img = matrix_apply(&mc, &first);
        assert_eq!(display_point(&img, &t), "(col, row)");
        // M.a = (i, k): image (col, 0).
        let ma = Matrix::from_rows(&[vec![1, 0, 0], vec![0, 0, 1]]);
        let img = matrix_apply(&ma, &first);
        assert_eq!(display_point(&img, &t), "(col, 0)");
        let _ = n;
    }

    #[test]
    fn symbolic_exact_division() {
        let (_, n, col, _) = setup();
        // ((n - col, n - col) // (1, 1)) = n - col (Appendix E.2 buffers).
        let e = Affine::var(n) - Affine::var(col);
        let p = vec![e.clone(), e.clone()];
        assert_eq!(point_exact_div(&p, &[1, 1]), Some(e.clone()));
        // Components disagree -> None.
        let p = vec![e.clone(), Affine::var(n)];
        assert_eq!(point_exact_div(&p, &[1, 1]), None);
        // Zero increment component demands zero difference.
        let p = vec![Affine::zero(), e.clone()];
        assert_eq!(point_exact_div(&p, &[0, 1]), Some(e));
        let p = vec![Affine::var(n), Affine::zero()];
        assert_eq!(point_exact_div(&p, &[0, 1]), None);
    }

    #[test]
    fn division_by_negative_component() {
        let (_, n, col, _) = setup();
        // (col - n) // -1 = n - col (soak_b in Appendix D.2).
        let p = vec![Affine::var(col) - Affine::var(n)];
        let r = point_exact_div(&p, &[-1]).unwrap();
        assert_eq!(r, Affine::var(n) - Affine::var(col));
    }
}
