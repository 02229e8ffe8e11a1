//! The source program (Sec. 3.1): a perfect nest of `r` loops over a basic
//! statement, plus the indexed variables and streams it touches.

use crate::expr::{BasicStatement, StreamId};
use systolic_math::{Affine, Env, Matrix, Var, VarTable};

/// One loop `for x_i = lb <- st -> rb` of the nest. `lb`/`rb` are linear
/// expressions in the problem-size symbols; `st` is +1 or -1 and gives the
/// *sequential* execution direction (`+1`: left bound to right bound).
#[derive(Clone, Debug)]
pub struct Loop {
    pub index_name: String,
    pub lb: Affine,
    pub rb: Affine,
    pub step: i64,
}

/// An indexed variable declaration (Sec. 3.1): an `(r-1)`-dimensional array
/// with per-dimension bounds linear in the problem size. Its point set is
/// the variable space `VS.v` of Sec. 5.
#[derive(Clone, Debug)]
pub struct IndexedVar {
    pub name: String,
    /// `(lb, rb)` per dimension, inclusive.
    pub bounds: Vec<(Affine, Affine)>,
}

/// A stream (Sec. 3.1): the pairing of an indexed variable with the index
/// map under which the basic statement accesses it. The map is an
/// `(r-1) x r` integer matrix of rank `r-1`, with no constant part.
#[derive(Clone, Debug)]
pub struct Stream {
    /// Index of the backing [`IndexedVar`] in [`SourceProgram::variables`].
    pub variable: usize,
    pub index_map: Matrix,
}

/// The complete source program.
#[derive(Clone, Debug)]
pub struct SourceProgram {
    pub name: String,
    /// Shared symbol table. Problem-size symbols are interned here; the
    /// compiler later adds process-coordinate symbols.
    pub vars: VarTable,
    /// The problem-size symbols, e.g. `[n]`.
    pub sizes: Vec<Var>,
    /// The loops, outermost first. `r = loops.len()`.
    pub loops: Vec<Loop>,
    pub variables: Vec<IndexedVar>,
    /// Streams; `StreamId(k)` refers to `streams[k]`.
    pub streams: Vec<Stream>,
    pub body: BasicStatement,
}

impl SourceProgram {
    /// The nesting depth `r`.
    pub fn r(&self) -> usize {
        self.loops.len()
    }

    pub fn stream(&self, id: StreamId) -> &Stream {
        &self.streams[id.0]
    }

    /// The display name of a stream (its variable's name).
    pub fn stream_name(&self, id: StreamId) -> &str {
        &self.variables[self.streams[id.0].variable].name
    }

    /// Every indexed variable's name, in declaration order (what the CLI
    /// and embedded-source replays seed).
    pub fn variable_names(&self) -> Vec<&str> {
        self.variables.iter().map(|v| v.name.as_str()).collect()
    }

    pub fn stream_ids(&self) -> impl Iterator<Item = StreamId> {
        (0..self.streams.len()).map(StreamId)
    }

    /// Concrete loop bounds under a size binding: `(lb, rb)` per loop.
    pub fn concrete_bounds(&self, env: &Env) -> Vec<(i64, i64)> {
        self.loops
            .iter()
            .map(|l| (l.lb.eval_int(env), l.rb.eval_int(env)))
            .collect()
    }

    /// The number of points in the index space under a size binding.
    pub fn index_space_size(&self, env: &Env) -> usize {
        self.concrete_bounds(env)
            .iter()
            .map(|&(lb, rb)| (rb - lb + 1).max(0) as usize)
            .product()
    }

    /// Iterate the index space in *sequential execution order*: each loop
    /// runs lb→rb when its step is +1 and rb→lb when -1.
    pub fn index_space_seq(&self, env: &Env) -> IndexSpaceIter {
        IndexSpaceIter::new(
            self.concrete_bounds(env),
            self.loops.iter().map(|l| l.step).collect(),
        )
    }

    /// The `2^r` vertices of the (rectangular) index space, symbolically:
    /// each coordinate is either the left or right bound. `selector[i]`
    /// picks the right bound when true.
    pub fn vertex(&self, selector: &[bool]) -> Vec<Affine> {
        assert_eq!(selector.len(), self.r());
        self.loops
            .iter()
            .zip(selector)
            .map(|(l, &hi)| if hi { l.rb.clone() } else { l.lb.clone() })
            .collect()
    }

    /// The variable space `VS.v` bounds for the variable behind a stream.
    pub fn stream_var_bounds(&self, id: StreamId) -> &[(Affine, Affine)] {
        &self.variables[self.streams[id.0].variable].bounds
    }
}

/// The tightest rectangular variable-space bounds covering the image of
/// the index space under an index map: per output row, the interval
/// `[sum_j min(c_j lb_j, c_j rb_j), sum_j max(...)]`, symbolically in the
/// problem sizes. Useful when constructing programs mechanically (the
/// test generators) and when checking a declared variable covers its
/// accesses.
pub fn covering_bounds(index_map: &systolic_math::Matrix, loops: &[Loop]) -> Vec<(Affine, Affine)> {
    assert_eq!(index_map.cols(), loops.len());
    (0..index_map.rows())
        .map(|row| {
            let mut lo = Affine::zero();
            let mut hi = Affine::zero();
            for (j, l) in loops.iter().enumerate() {
                let c = index_map.at(row, j);
                if c.is_zero() {
                    continue;
                }
                let a = l.lb.clone().scale(c);
                let b = l.rb.clone().scale(c);
                if c.signum() > 0 {
                    lo = lo + a;
                    hi = hi + b;
                } else {
                    lo = lo + b;
                    hi = hi + a;
                }
            }
            (lo, hi)
        })
        .collect()
}

/// Row-major walk over a rectangular integer box, honouring per-dimension
/// direction. Outermost dimension varies slowest, exactly like the loop
/// nest.
pub struct IndexSpaceIter {
    bounds: Vec<(i64, i64)>,
    steps: Vec<i64>,
    current: Option<Vec<i64>>,
}

impl IndexSpaceIter {
    fn new(bounds: Vec<(i64, i64)>, steps: Vec<i64>) -> IndexSpaceIter {
        let empty = bounds.iter().any(|&(lb, rb)| lb > rb);
        let current = (!empty).then(|| {
            bounds
                .iter()
                .zip(&steps)
                .map(|(&(lb, rb), &st)| if st > 0 { lb } else { rb })
                .collect()
        });
        IndexSpaceIter {
            bounds,
            steps,
            current,
        }
    }
}

impl Iterator for IndexSpaceIter {
    type Item = Vec<i64>;

    fn next(&mut self) -> Option<Vec<i64>> {
        let nxt = self.current.as_mut()?;
        let cur = nxt.clone();
        // Advance in place, like an odometer from the innermost dimension.
        let mut dim = self.bounds.len();
        loop {
            if dim == 0 {
                self.current = None;
                break;
            }
            dim -= 1;
            let (lb, rb) = self.bounds[dim];
            let st = self.steps[dim];
            let stepped = nxt[dim] + st;
            if stepped >= lb && stepped <= rb {
                nxt[dim] = stepped;
                break;
            }
            nxt[dim] = if st > 0 { lb } else { rb };
        }
        Some(cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gallery;

    #[test]
    fn polyprod_shape() {
        let p = gallery::polynomial_product();
        assert_eq!(p.r(), 2);
        assert_eq!(p.streams.len(), 3);
        assert_eq!(p.stream_name(StreamId(0)), "a");
        assert_eq!(p.stream_name(StreamId(2)), "c");
    }

    #[test]
    fn index_space_enumeration() {
        let p = gallery::polynomial_product();
        let mut env = Env::new();
        env.bind(p.sizes[0], 2);
        let pts: Vec<_> = p.index_space_seq(&env).collect();
        assert_eq!(pts.len(), 9);
        assert_eq!(pts[0], vec![0, 0]);
        assert_eq!(pts[1], vec![0, 1]);
        assert_eq!(pts[8], vec![2, 2]);
        assert_eq!(p.index_space_size(&env), 9);
    }

    #[test]
    fn negative_step_reverses_a_dimension() {
        let mut p = gallery::polynomial_product();
        p.loops[1].step = -1;
        let mut env = Env::new();
        env.bind(p.sizes[0], 1);
        let pts: Vec<_> = p.index_space_seq(&env).collect();
        assert_eq!(pts, vec![vec![0, 1], vec![0, 0], vec![1, 1], vec![1, 0]]);
    }

    #[test]
    fn empty_index_space() {
        let p = gallery::polynomial_product();
        let mut env = Env::new();
        env.bind(p.sizes[0], -1);
        assert_eq!(p.index_space_seq(&env).count(), 0);
    }

    #[test]
    fn vertices() {
        let p = gallery::polynomial_product();
        let mut env = Env::new();
        env.bind(p.sizes[0], 3);
        let v = p.vertex(&[false, true]);
        assert_eq!(v[0].eval_int(&env), 0);
        assert_eq!(v[1].eval_int(&env), 3);
    }
}
