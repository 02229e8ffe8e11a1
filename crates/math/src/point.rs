//! Integer and rational points in `n`-space (Sec. 2 of the paper).
//!
//! Points double as vectors (directions): a flow is a rational point, an
//! `increment` is an integer point, and a chord is the segment between the
//! origin and a point. The helpers here implement the paper's notation:
//! inner product `x • y`, component-wise scaling, the exact division `x // y`
//! (the integer `m` with `m * y == x`), the gcd-normalized "unit distance"
//! along a vector (Theorem 7's corollary), and the neighbourhood predicate
//! `nb` of Sec. 3.2.

use crate::rational::{gcd, Rational};
use std::fmt;

/// A point with integer coordinates (an element of `Z^n`).
pub type Point = Vec<i64>;

/// A point with rational coordinates (an element of `Q^n`), e.g. a `flow`.
pub type RatPoint = Vec<Rational>;

/// Component-wise sum.
pub fn add(x: &[i64], y: &[i64]) -> Point {
    assert_eq!(x.len(), y.len());
    x.iter().zip(y).map(|(a, b)| a + b).collect()
}

/// Component-wise difference.
pub fn sub(x: &[i64], y: &[i64]) -> Point {
    assert_eq!(x.len(), y.len());
    x.iter().zip(y).map(|(a, b)| a - b).collect()
}

/// Multiplication of a point by a scalar (`m * x` in the paper).
pub fn scale(m: i64, x: &[i64]) -> Point {
    x.iter().map(|a| m * a).collect()
}

/// Inner product `x • y = (sum i : 0 <= i < n : x.i * y.i)`.
pub fn dot(x: &[i64], y: &[i64]) -> i64 {
    assert_eq!(x.len(), y.len());
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

/// Is this the zero vector?
pub fn is_zero(x: &[i64]) -> bool {
    x.iter().all(|&a| a == 0)
}

/// The gcd of all components (`k` in Theorem 7). Zero for the zero vector.
pub fn content(x: &[i64]) -> i64 {
    x.iter().fold(0, |g, &a| gcd(g, a))
}

/// The "unit distance" along vector `x` (Theorem 7 corollary):
/// `(1/k) * x` where `k` is the gcd of the components. Panics on the zero
/// vector.
pub fn unit_along(x: &[i64]) -> Point {
    let k = content(x);
    assert!(k > 0, "unit_along of the zero vector");
    x.iter().map(|&a| a / k).collect()
}

/// The exact division `x // y`: the integer `m` such that `m * y == x`,
/// if it exists (the paper: "only well-defined if x is a multiple of y").
pub fn exact_div(x: &[i64], y: &[i64]) -> Option<i64> {
    assert_eq!(x.len(), y.len());
    let mut m: Option<i64> = None;
    for (&a, &b) in x.iter().zip(y) {
        if b == 0 {
            if a != 0 {
                return None;
            }
        } else {
            if a % b != 0 {
                return None;
            }
            let q = a / b;
            match m {
                None => m = Some(q),
                Some(prev) if prev != q => return None,
                _ => {}
            }
        }
    }
    // x and y both zero in every telling component: x == 0 * y.
    Some(m.unwrap_or(0))
}

/// The neighbourhood predicate of Sec. 3.2:
/// `nb.x  =  (A i : 0 <= i < n : |x.i| <= 1)`.
pub fn nb(x: &[i64]) -> bool {
    x.iter().all(|&a| a.abs() <= 1)
}

/// Does point `w` lie on the chord defined by `x`, i.e. is there a
/// `t` in `[0, 1]` with `w == t * x`? (`w on x` in Sec. 2.)
pub fn on_chord(w: &[i64], x: &[i64]) -> bool {
    assert_eq!(w.len(), x.len());
    if is_zero(w) {
        return true;
    }
    if is_zero(x) {
        return false;
    }
    // w = t * x with rational t; find t from any non-zero component of x.
    let mut t: Option<Rational> = None;
    for (&wi, &xi) in w.iter().zip(x) {
        if xi == 0 {
            if wi != 0 {
                return false;
            }
        } else {
            let ti = Rational::new(wi, xi);
            match t {
                None => t = Some(ti),
                Some(prev) if prev != ti => return false,
                _ => {}
            }
        }
    }
    match t {
        Some(t) => t >= Rational::ZERO && t <= Rational::ONE,
        None => false,
    }
}

/// All points of the box with inclusive `(min, max)` bounds per
/// dimension, row-major (last dimension fastest); empty when any
/// dimension is.
pub fn box_points(bx: &[(i64, i64)]) -> Vec<Point> {
    let mut out = Vec::new();
    let mut p: Point = bx.iter().map(|&(lo, _)| lo).collect();
    if bx.iter().any(|&(lo, hi)| lo > hi) {
        return out;
    }
    loop {
        out.push(p.clone());
        let mut d = bx.len();
        loop {
            if d == 0 {
                return out;
            }
            d -= 1;
            p[d] += 1;
            if p[d] <= bx[d].1 {
                break;
            }
            p[d] = bx[d].0;
        }
    }
}

/// Scale a rational point by a rational.
pub fn rat_scale(m: Rational, x: &[Rational]) -> RatPoint {
    x.iter().map(|&a| m * a).collect()
}

/// Is the rational point zero?
pub fn rat_is_zero(x: &[Rational]) -> bool {
    x.iter().all(|a| a.is_zero())
}

/// Convert an integer point to a rational point.
pub fn to_rational(x: &[i64]) -> RatPoint {
    x.iter().map(|&a| Rational::int(a)).collect()
}

/// Convert a rational point to integers if every component is integral.
pub fn to_integer(x: &[Rational]) -> Option<Point> {
    x.iter().map(|a| a.to_integer()).collect()
}

/// The least common multiple of the denominators of a rational point: the
/// smallest `d > 0` such that `d * x` is an integer point. For a stream
/// flow, `d - 1` is the number of internal buffers required (Sec. 7.6).
pub fn denominator(x: &[Rational]) -> i64 {
    x.iter()
        .fold(1, |d, a| crate::rational::lcm(d, a.den()).max(1))
}

/// Smallest `m > 0` such that `m * flow` is an integer *neighbour* vector
/// (satisfies `nb`), if one exists: the requirement on `flow` of Sec. 3.2.
pub fn neighbour_multiple(flow: &[Rational]) -> Option<i64> {
    if rat_is_zero(flow) {
        // A zero flow (stationary stream) trivially satisfies nb with m = 1.
        return Some(1);
    }
    let d = denominator(flow);
    let scaled: Vec<i64> = flow.iter().map(|a| a.num() * (d / a.den())).collect();
    nb(&scaled).then_some(d)
}

/// Render a point in the paper's tuple notation `(x0, x1, ...)`.
pub fn fmt_point(x: &[i64]) -> String {
    fmt_tuple(x.iter())
}

/// Render a rational point in tuple notation.
pub fn fmt_rat_point(x: &[Rational]) -> String {
    fmt_tuple(x.iter())
}

/// Append `x` to `out` in the notation of [`fmt_point`], without an
/// intermediate string per coordinate.
pub fn write_point(out: &mut String, x: &[i64]) {
    write_tuple(out, x.iter())
}

fn write_tuple<T: fmt::Display>(out: &mut String, items: impl ExactSizeIterator<Item = T>) {
    use fmt::Write as _;
    let paren = items.len() != 1;
    if paren {
        out.push('(');
    }
    for (i, v) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
    if paren {
        out.push(')');
    }
}

fn fmt_tuple<T: fmt::Display>(items: impl ExactSizeIterator<Item = T>) -> String {
    let mut out = String::new();
    write_tuple(&mut out, items);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_ops() {
        assert_eq!(add(&[1, 2], &[3, 4]), vec![4, 6]);
        assert_eq!(sub(&[1, 2], &[3, 4]), vec![-2, -2]);
        assert_eq!(scale(3, &[1, -2]), vec![3, -6]);
        assert_eq!(dot(&[1, 2, 3], &[4, 5, 6]), 32);
    }

    #[test]
    fn content_and_unit() {
        assert_eq!(content(&[0, -8]), 8);
        assert_eq!(unit_along(&[0, -8]), vec![0, -1]);
        assert_eq!(unit_along(&[2, -2]), vec![1, -1]);
        assert_eq!(unit_along(&[3, 3, 3]), vec![1, 1, 1]);
        assert_eq!(unit_along(&[0, 0, -6]), vec![0, 0, -1]);
    }

    #[test]
    fn exact_division() {
        // ((last - first) // increment) + 1 examples from the paper.
        assert_eq!(exact_div(&[0, 0, 5], &[0, 0, 1]), Some(5));
        assert_eq!(exact_div(&[4, -4], &[1, -1]), Some(4));
        assert_eq!(exact_div(&[3, 4], &[1, 1]), None);
        assert_eq!(exact_div(&[2, 0], &[1, 1]), None);
        assert_eq!(exact_div(&[0, 0], &[1, 1]), Some(0));
        assert_eq!(exact_div(&[3, 3], &[2, 2]), None, "non-integral multiple");
    }

    #[test]
    fn neighbourhood() {
        assert!(nb(&[1, -1, 0]));
        assert!(!nb(&[2, 0]));
        assert!(nb(&[]));
    }

    #[test]
    fn chord_membership() {
        assert!(on_chord(&[1, 1], &[2, 2]));
        assert!(on_chord(&[0, 0], &[5, -3]));
        assert!(on_chord(&[5, -3], &[5, -3]));
        assert!(!on_chord(&[3, 3], &[2, 2]));
        assert!(!on_chord(&[1, 2], &[2, 2]));
        assert!(!on_chord(&[-1, -1], &[2, 2]));
    }

    #[test]
    fn flow_denominators() {
        // flow.b = 1/2 in Appendix D.1 -> denominator 2, one internal buffer.
        let half = vec![Rational::new(1, 2)];
        assert_eq!(denominator(&half), 2);
        assert_eq!(neighbour_multiple(&half), Some(2));
        // flow.c = 2 for place (i - j) violates the neighbour restriction.
        let two = vec![Rational::int(2)];
        assert_eq!(neighbour_multiple(&two), None);
        // Stationary stream.
        assert_eq!(
            neighbour_multiple(&[Rational::ZERO, Rational::ZERO]),
            Some(1)
        );
        // Kung-Leiserson flow.c = (-1, -1).
        let kl = vec![Rational::int(-1), Rational::int(-1)];
        assert_eq!(neighbour_multiple(&kl), Some(1));
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_point(&[1, -2]), "(1,-2)");
        assert_eq!(fmt_point(&[7]), "7");
        assert_eq!(
            fmt_rat_point(&[Rational::new(1, 2), Rational::ZERO]),
            "(1/2,0)"
        );
    }
}
