//! Linear functions as matrices (Sec. 2: "a linear function is uniquely
//! represented by a matrix; we attribute the properties of the matrix to the
//! function").
//!
//! `step`, `place`, and stream index maps are all small integer matrices.
//! The derivations need their rank, a generator of their null space
//! (Theorem 1: `dim(null.place) = 1`), and matrix–vector application over
//! both integer and rational points.

use crate::point::{Point, RatPoint};
use crate::rational::Rational;
use std::fmt;

/// A dense matrix over `Q`, row major. Rows are the components of the
/// linear function's range; columns correspond to its arguments.
#[derive(Clone, PartialEq, Eq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<Rational>,
}

impl Matrix {
    /// Build from integer rows. Panics on ragged input.
    pub fn from_rows(rows: &[Vec<i64>]) -> Matrix {
        assert!(!rows.is_empty(), "matrix must have at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged matrix rows");
            data.extend(r.iter().map(|&x| Rational::int(x)));
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Build from rational rows.
    pub fn from_rat_rows(rows: &[Vec<Rational>]) -> Matrix {
        assert!(!rows.is_empty());
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged matrix rows");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// The `n x n` identity.
    pub fn identity(n: usize) -> Matrix {
        let mut m = Matrix {
            rows: n,
            cols: n,
            data: vec![Rational::ZERO; n * n],
        };
        for i in 0..n {
            *m.at_mut(i, i) = Rational::ONE;
        }
        m
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    pub fn at(&self, r: usize, c: usize) -> Rational {
        self.data[r * self.cols + c]
    }

    pub fn at_mut(&mut self, r: usize, c: usize) -> &mut Rational {
        &mut self.data[r * self.cols + c]
    }

    /// Row `r` as a slice.
    pub fn row(&self, r: usize) -> &[Rational] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Apply to an integer point: `M.x`. Result is rational in general.
    pub fn apply(&self, x: &[i64]) -> RatPoint {
        assert_eq!(x.len(), self.cols, "dimension mismatch in apply");
        (0..self.rows)
            .map(|r| {
                x.iter().enumerate().fold(Rational::ZERO, |acc, (c, &xi)| {
                    acc + self.at(r, c) * Rational::int(xi)
                })
            })
            .collect()
    }

    /// Apply to an integer point when the matrix is integral; panics if any
    /// result component is non-integral.
    pub fn apply_int(&self, x: &[i64]) -> Point {
        self.apply(x)
            .iter()
            .map(|v| v.to_integer().expect("non-integral matrix application"))
            .collect()
    }

    /// Apply to a rational point.
    pub fn apply_rat(&self, x: &[Rational]) -> RatPoint {
        assert_eq!(x.len(), self.cols);
        (0..self.rows)
            .map(|r| {
                x.iter()
                    .enumerate()
                    .fold(Rational::ZERO, |acc, (c, &xi)| acc + self.at(r, c) * xi)
            })
            .collect()
    }

    /// Reduced row echelon form; returns (rref, pivot column per pivot row).
    fn rref(&self) -> (Matrix, Vec<usize>) {
        let mut m = self.clone();
        let mut pivots = Vec::new();
        let mut pr = 0; // pivot row
        for pc in 0..m.cols {
            // Find a non-zero entry in column pc at or below row pr.
            let Some(sel) = (pr..m.rows).find(|&r| !m.at(r, pc).is_zero()) else {
                continue;
            };
            // Swap into place.
            if sel != pr {
                for c in 0..m.cols {
                    let tmp = m.at(pr, c);
                    *m.at_mut(pr, c) = m.at(sel, c);
                    *m.at_mut(sel, c) = tmp;
                }
            }
            // Normalize pivot row.
            let inv = m.at(pr, pc).recip();
            for c in 0..m.cols {
                *m.at_mut(pr, c) = m.at(pr, c) * inv;
            }
            // Eliminate the column everywhere else.
            for r in 0..m.rows {
                if r != pr && !m.at(r, pc).is_zero() {
                    let f = m.at(r, pc);
                    for c in 0..m.cols {
                        let v = m.at(r, c) - f * m.at(pr, c);
                        *m.at_mut(r, c) = v;
                    }
                }
            }
            pivots.push(pc);
            pr += 1;
            if pr == m.rows {
                break;
            }
        }
        (m, pivots)
    }

    /// The rank of the matrix.
    pub fn rank(&self) -> usize {
        self.rref().1.len()
    }

    /// A basis of the null space, each vector scaled to primitive integer
    /// coordinates (gcd of components = 1). The paper's derivations always
    /// need integer null-space elements (Sec. 7.2.1).
    pub fn null_space(&self) -> Vec<Point> {
        let (r, pivots) = self.rref();
        let free: Vec<usize> = (0..self.cols).filter(|c| !pivots.contains(c)).collect();
        let mut basis = Vec::with_capacity(free.len());
        for &fc in &free {
            // One basis vector per free column: free var = 1, others = 0.
            let mut v = vec![Rational::ZERO; self.cols];
            v[fc] = Rational::ONE;
            for (prow, &pc) in pivots.iter().enumerate() {
                v[pc] = -r.at(prow, fc);
            }
            // Clear denominators and normalize to primitive form.
            let d = v
                .iter()
                .fold(1i64, |d, q| crate::rational::lcm(d, q.den()).max(1));
            let ints: Vec<i64> = v.iter().map(|q| q.num() * (d / q.den())).collect();
            let g = crate::point::content(&ints).max(1);
            basis.push(ints.iter().map(|&x| x / g).collect());
        }
        basis
    }

    /// The single primitive generator of a rank-deficiency-1 null space
    /// (`null_p` of Theorem 2). `None` if the nullity is not exactly 1.
    pub fn null_generator(&self) -> Option<Point> {
        let ns = self.null_space();
        (ns.len() == 1).then(|| ns.into_iter().next().unwrap())
    }

    /// Matrix product `self * other`.
    pub fn mul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows);
        let mut out = Matrix {
            rows: self.rows,
            cols: other.cols,
            data: vec![Rational::ZERO; self.rows * other.cols],
        };
        for r in 0..self.rows {
            for c in 0..other.cols {
                let mut acc = Rational::ZERO;
                for k in 0..self.cols {
                    acc += self.at(r, k) * other.at(k, c);
                }
                *out.at_mut(r, c) = acc;
            }
        }
        out
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows {
            let row: Vec<String> = (0..self.cols).map(|c| self.at(r, c).to_string()).collect();
            writeln!(f, "  [{}]", row.join(", "))?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_place_functions() {
        // place.(i,j,k) = (i, j): the simple place of Appendix E.1.
        let place = Matrix::from_rows(&[vec![1, 0, 0], vec![0, 1, 0]]);
        assert_eq!(place.apply_int(&[3, 4, 5]), vec![3, 4]);
        // place.(i,j,k) = (i-k, j-k): Kung-Leiserson, Appendix E.2.
        let kl = Matrix::from_rows(&[vec![1, 0, -1], vec![0, 1, -1]]);
        assert_eq!(kl.apply_int(&[3, 4, 5]), vec![-2, -1]);
    }

    #[test]
    fn rank_of_paper_maps() {
        // Index maps of Appendix E all have rank 2 (= r - 1).
        let ma = Matrix::from_rows(&[vec![1, 0, 0], vec![0, 0, 1]]); // (i, k)
        let mb = Matrix::from_rows(&[vec![0, 0, 1], vec![0, 1, 0]]); // (k, j)
        let mc = Matrix::from_rows(&[vec![1, 0, 0], vec![0, 1, 0]]); // (i, j)
        assert_eq!(ma.rank(), 2);
        assert_eq!(mb.rank(), 2);
        assert_eq!(mc.rank(), 2);
        let singular = Matrix::from_rows(&[vec![1, 1], vec![2, 2]]);
        assert_eq!(singular.rank(), 1);
    }

    #[test]
    fn null_space_generators_match_paper() {
        // Appendix E: null generators (0,1,0), (1,0,0), (0,0,1).
        let ma = Matrix::from_rows(&[vec![1, 0, 0], vec![0, 0, 1]]);
        assert_eq!(ma.null_generator().unwrap(), vec![0, 1, 0]);
        let mc = Matrix::from_rows(&[vec![1, 0, 0], vec![0, 1, 0]]);
        assert_eq!(mc.null_generator().unwrap(), vec![0, 0, 1]);
        // Appendix D: M.c = (i + j) has null generator +-(1, -1).
        let dc = Matrix::from_rows(&[vec![1, 1]]);
        let g = dc.null_generator().unwrap();
        assert!(g == vec![1, -1] || g == vec![-1, 1]);
    }

    #[test]
    fn null_space_of_kung_leiserson_place() {
        let kl = Matrix::from_rows(&[vec![1, 0, -1], vec![0, 1, -1]]);
        let g = kl.null_generator().unwrap();
        assert!(g == vec![1, 1, 1] || g == vec![-1, -1, -1]);
    }

    #[test]
    fn null_space_members_are_annihilated() {
        let m = Matrix::from_rows(&[vec![2, 4, -2], vec![1, 1, 1]]);
        for v in m.null_space() {
            assert!(m.apply(&v).iter().all(|q| q.is_zero()));
        }
    }

    #[test]
    fn full_rank_matrix_has_empty_null_space() {
        let m = Matrix::identity(3);
        assert!(m.null_space().is_empty());
        assert_eq!(m.null_generator(), None);
    }

    #[test]
    fn matrix_product() {
        let a = Matrix::from_rows(&[vec![1, 2], vec![3, 4]]);
        let b = Matrix::from_rows(&[vec![0, 1], vec![1, 0]]);
        let ab = a.mul(&b);
        assert_eq!(ab.apply_int(&[1, 0]), vec![2, 4]);
        assert_eq!(ab.apply_int(&[0, 1]), vec![1, 3]);
    }
}
