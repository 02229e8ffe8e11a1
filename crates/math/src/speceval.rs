//! Size-specialized integer evaluation of piecewise affine forms.
//!
//! Elaboration sweeps every process-space point and asks the same handful
//! of symbolic questions at each one: which `first`/`count` clause holds,
//! and what the soak/drain counts are. Answering through [`Piecewise`]
//! directly means exact-rational arithmetic (a gcd normalization per add
//! and multiply) for every guard of every clause at every point — the
//! dominant cost of elaborating large arrays.
//!
//! The problem sizes are fixed before the sweep begins, so each affine
//! expression can be partially evaluated once: size terms fold into an
//! integer bias, coordinate terms become integer coefficients over the
//! point vector, and the one shared denominator is cleared by scaling.
//! What remains per point is a dot product in `i64` and, for guards, a
//! cross-multiplied comparison in `i128` — no rationals, no gcds.
//!
//! Specialized forms answer exactly as their symbolic originals: guard
//! selection order is preserved, and a non-integral value panics with the
//! same diagnostic as [`Affine::eval_int`].

use crate::affine::{Affine, AffinePoint};
use crate::guard::{Guard, Piecewise};
use crate::rational::{lcm, Rational};
use crate::symbols::{Env, Var};

/// An affine expression specialized at fixed problem sizes: the value at a
/// coordinate vector `y` is `(bias + sum(coeffs[i] * y[dim_i])) / den`.
#[derive(Clone, Debug)]
pub struct SpecAffine {
    bias: i64,
    /// `(dimension index, integer coefficient)`, the surviving coordinate
    /// terms.
    coeffs: Vec<(usize, i64)>,
    /// Always positive; `1` for the common all-integer case.
    den: i64,
}

impl SpecAffine {
    /// Partially evaluate `a`: variables in `dims` stay symbolic (indexed
    /// by their position, i.e. the process-space dimension), every other
    /// variable must be bound in `env` and folds into the bias. Panics on
    /// an unbound non-coordinate variable, like [`Affine::eval_int`] would.
    pub fn compile(a: &Affine, dims: &[Var], env: &Env) -> SpecAffine {
        // One denominator clears every term: scale by the lcm.
        let mut den = a.constant_part().den();
        for &(_, q) in a.terms() {
            den = lcm(den, q.den());
        }
        let scale = |q: Rational| -> i64 {
            let v = q.num() as i128 * (den / q.den()) as i128;
            i64::try_from(v).expect("specialized coefficient overflow")
        };
        let mut bias = scale(a.constant_part());
        let mut coeffs = Vec::new();
        for &(v, q) in a.terms() {
            if let Some(d) = dims.iter().position(|&c| c == v) {
                coeffs.push((d, scale(q)));
            } else {
                let val = env
                    .get(v)
                    .unwrap_or_else(|| panic!("unbound symbolic variable {v:?} during evaluation"));
                bias = scale(q)
                    .checked_mul(val)
                    .and_then(|t| bias.checked_add(t))
                    .expect("specialized bias overflow");
            }
        }
        SpecAffine { bias, coeffs, den }
    }

    /// The scaled numerator at `y` (the value times `self.den`).
    #[inline]
    fn num_at(&self, y: &[i64]) -> i64 {
        let mut acc = self.bias;
        for &(d, c) in &self.coeffs {
            acc += c * y[d];
        }
        acc
    }

    /// Evaluate to an integer; panics on a non-integral value with the
    /// same message as [`Affine::eval_int`].
    #[inline]
    pub fn eval_int(&self, y: &[i64]) -> i64 {
        let n = self.num_at(y);
        if n % self.den != 0 {
            panic!(
                "expression evaluated to non-integer {}",
                Rational::new(n, self.den)
            );
        }
        n / self.den
    }
}

/// One inequality chain `e_0 <= e_1 <= ... <= e_k`, specialized.
#[derive(Clone, Debug)]
struct SpecChain {
    exprs: Vec<SpecAffine>,
}

impl SpecChain {
    #[inline]
    fn eval(&self, y: &[i64]) -> bool {
        // `a/p <= b/q  <=>  a*q <= b*p` for positive denominators; the
        // products stay within `i128` comfortably.
        self.exprs.windows(2).all(|w| {
            let (a, b) = (&w[0], &w[1]);
            a.num_at(y) as i128 * b.den as i128 <= b.num_at(y) as i128 * a.den as i128
        })
    }
}

/// A guard (conjunction of chains), specialized.
#[derive(Clone, Debug)]
pub struct SpecGuard {
    chains: Vec<SpecChain>,
}

impl SpecGuard {
    pub fn compile(g: &Guard, dims: &[Var], env: &Env) -> SpecGuard {
        SpecGuard {
            chains: g
                .chains()
                .iter()
                .map(|c| SpecChain {
                    exprs: c
                        .exprs()
                        .iter()
                        .map(|e| SpecAffine::compile(e, dims, env))
                        .collect(),
                })
                .collect(),
        }
    }

    #[inline]
    pub fn eval(&self, y: &[i64]) -> bool {
        self.chains.iter().all(|c| c.eval(y))
    }
}

/// A piecewise value with specialized guards. Clause order — and therefore
/// overlapping-guard resolution — matches the symbolic original.
#[derive(Clone, Debug)]
pub struct SpecPiecewise<T> {
    clauses: Vec<(SpecGuard, T)>,
}

impl<T> SpecPiecewise<T> {
    /// Specialize `pw`'s guards and map each clause value through `f`.
    pub fn compile<S>(
        pw: &Piecewise<S>,
        dims: &[Var],
        env: &Env,
        mut f: impl FnMut(&S) -> T,
    ) -> SpecPiecewise<T> {
        SpecPiecewise {
            clauses: pw
                .clauses()
                .iter()
                .map(|(g, v)| (SpecGuard::compile(g, dims, env), f(v)))
                .collect(),
        }
    }

    /// First clause whose guard holds at `y`; `None` is the null
    /// alternative.
    #[inline]
    pub fn select(&self, y: &[i64]) -> Option<&T> {
        self.clauses.iter().find(|(g, _)| g.eval(y)).map(|(_, v)| v)
    }
}

/// [`Piecewise<Affine>`] specialized to an integer-valued function of the
/// coordinate vector, with the null alternative evaluating to 0 (the
/// convention of `count_bound` and `stream_count_bound`).
pub type SpecCount = SpecPiecewise<SpecAffine>;

impl SpecCount {
    pub fn of(pw: &Piecewise<Affine>, dims: &[Var], env: &Env) -> SpecCount {
        SpecPiecewise::compile(pw, dims, env, |a| SpecAffine::compile(a, dims, env))
    }

    /// The selected clause's value at `y`, or 0.
    #[inline]
    pub fn at(&self, y: &[i64]) -> i64 {
        self.select(y).map_or(0, |a| a.eval_int(y))
    }
}

/// [`Piecewise<AffinePoint>`] specialized to a point-valued function of
/// the coordinate vector, with the null alternative evaluating to `None`
/// (the convention of `first_bound` and `stream_point_bound`).
pub type SpecPoint = SpecPiecewise<Vec<SpecAffine>>;

impl SpecPoint {
    pub fn of_points(pw: &Piecewise<AffinePoint>, dims: &[Var], env: &Env) -> SpecPoint {
        SpecPiecewise::compile(pw, dims, env, |p| {
            p.iter()
                .map(|a| SpecAffine::compile(a, dims, env))
                .collect()
        })
    }

    /// The selected clause's point at `y`, written into `out` (which it
    /// overwrites): whether a clause was selected — none is a null
    /// process or an empty pipe, and leaves `out` empty.
    #[inline]
    pub fn point_into(&self, y: &[i64], out: &mut Vec<i64>) -> bool {
        out.clear();
        let Some(p) = self.select(y) else {
            return false;
        };
        out.extend(p.iter().map(|a| a.eval_int(y)));
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guard::Chain;
    use crate::symbols::VarTable;

    #[test]
    fn specialized_forms_agree_with_symbolic_evaluation() {
        let mut t = VarTable::new();
        let n = t.size("n");
        let col = t.coord(0);
        let row = t.coord(1);
        let dims = [col, row];
        // count = if 1 <= col <= n  /\  row <= (col + n)/2 then n - row
        //         [] col = 0 then col/2 + 1 fi
        let half = (Affine::var(col) + Affine::var(n)).scale(Rational::new(1, 2));
        let pw = Piecewise::new(vec![
            (
                Guard::new(vec![
                    Chain::between(Affine::int(1), Affine::var(col), Affine::var(n)),
                    Chain::le(Affine::var(row), half),
                ]),
                Affine::var(n) - Affine::var(row),
            ),
            (
                Guard::new(vec![Chain::between(
                    Affine::int(0),
                    Affine::var(col),
                    Affine::int(0),
                )]),
                Affine::var(col).scale(Rational::new(1, 2)) + Affine::int(1),
            ),
        ]);
        let mut env = Env::new();
        env.bind(n, 5);
        let spec = SpecCount::of(&pw, &dims, &env);
        let mut env_y = env.clone();
        for c in -1..=6 {
            for r in -1..=6 {
                env_y.bind(col, c);
                env_y.bind(row, r);
                let want = pw.select(&env_y).map_or(0, |a| a.eval_int(&env_y));
                assert_eq!(spec.at(&[c, r]), want, "col={c} row={r}");
            }
        }
    }

    #[test]
    fn size_parametric_compilation_agrees_with_size_bound_compilation() {
        // The two-phase elaborator compiles over the *extended* dimension
        // vector (coordinates ++ sizes, empty environment); the per-size
        // specializer folds the sizes into the bias. Both must answer
        // identically at every point — same clause, same integer.
        let mut t = VarTable::new();
        let n = t.size("n");
        let col = t.coord(0);
        let dims_coord = [col];
        let dims_ext = [col, n];
        let half = (Affine::var(col) + Affine::var(n)).scale(Rational::new(1, 2));
        let pw = Piecewise::new(vec![
            (
                Guard::new(vec![Chain::between(
                    Affine::int(0),
                    Affine::var(col),
                    Affine::var(n),
                )]),
                half,
            ),
            (Guard::always(), Affine::var(n) - Affine::var(col)),
        ]);
        let sym = SpecCount::of(&pw, &dims_ext, &Env::new());
        for nv in 0..=7i64 {
            let mut env = Env::new();
            env.bind(n, nv);
            let bound = SpecCount::of(&pw, &dims_coord, &env);
            for c in -2..=9i64 {
                if (c + nv) % 2 != 0 && c >= 0 && c <= nv {
                    continue; // non-integral halves panic identically; skip
                }
                assert_eq!(sym.at(&[c, nv]), bound.at(&[c]), "col={c} n={nv}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-integer")]
    fn non_integral_values_still_panic() {
        let mut t = VarTable::new();
        let col = t.coord(0);
        let pw = Piecewise::total(Affine::var(col).scale(Rational::new(1, 2)));
        let spec = SpecCount::of(&pw, &[col], &Env::new());
        spec.at(&[3]);
    }
}
