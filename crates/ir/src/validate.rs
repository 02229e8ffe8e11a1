//! Validation of the paper's requirements and restrictions (Appendix A).
//!
//! "If the source program meets a set of restrictions, then a linear
//! systolic array ... is assured" (Sec. 1). The compiler front end checks
//! the envelope and reports violations instead of mis-compiling.

use crate::expr::{GuardedUpdate, MAX_EXPR_DEPTH};
use crate::program::SourceProgram;
use std::collections::HashSet;
use std::fmt;
use systolic_math::{Env, Matrix};

/// A diagnosed violation of Appendix A.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// Requirement: at least two loops.
    TooFewLoops { r: usize },
    /// Requirement: loop steps are +1 or -1.
    BadLoopStep { loop_index: usize, step: i64 },
    /// Requirement: each index map has rank r-1 (full pipelining).
    BadIndexMapRank {
        stream: usize,
        rank: usize,
        expected: usize,
    },
    /// Restriction: each index map is (r-1) x r.
    BadIndexMapShape {
        stream: usize,
        rows: usize,
        cols: usize,
    },
    /// Restriction: each indexed variable is (r-1)-dimensional.
    BadVariableDim {
        variable: usize,
        dims: usize,
        expected: usize,
    },
    /// Restriction: the basic statement accesses all of the streams.
    StreamNotAccessed { stream: usize },
    /// A stream id out of range in the body.
    UnknownStream { stream: usize },
    /// Loop bounds must satisfy lb <= rb (checked at a sample size).
    EmptyLoop { loop_index: usize },
    /// Requirement: each element of an indexed variable is accessed by
    /// some basic statement (checked at a sample size). Index maps whose
    /// rows mix loop indices can map the rectangular index space onto a
    /// non-rectangular region, leaving declared elements untouched.
    ElementsNotCovered {
        stream: usize,
        accessed: usize,
        declared: usize,
    },
    /// An update's guard or value nests deeper than [`MAX_EXPR_DEPTH`]
    /// levels (reported alone: every other check walks the statement).
    ExpressionTooDeep { update: usize },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::TooFewLoops { r } => {
                write!(f, "source program has {r} loop(s); at least 2 are required")
            }
            Violation::BadLoopStep { loop_index, step } => {
                write!(f, "loop {loop_index} has step {step}; must be +1 or -1")
            }
            Violation::BadIndexMapRank {
                stream,
                rank,
                expected,
            } => write!(
                f,
                "stream {stream}: index map has rank {rank}, expected {expected} (full pipelining)"
            ),
            Violation::BadIndexMapShape { stream, rows, cols } => write!(
                f,
                "stream {stream}: index map is {rows}x{cols}, expected (r-1) x r"
            ),
            Violation::BadVariableDim {
                variable,
                dims,
                expected,
            } => write!(
                f,
                "variable {variable} is {dims}-dimensional, expected {expected}"
            ),
            Violation::StreamNotAccessed { stream } => write!(
                f,
                "stream {stream} is never accessed by the basic statement"
            ),
            Violation::UnknownStream { stream } => {
                write!(f, "basic statement references unknown stream {stream}")
            }
            Violation::EmptyLoop { loop_index } => {
                write!(
                    f,
                    "loop {loop_index} has lb > rb at the sample problem size"
                )
            }
            Violation::ElementsNotCovered {
                stream,
                accessed,
                declared,
            } => write!(
                f,
                "stream {stream}: only {accessed} of {declared} declared elements are \
                 accessed by the basic statement (requirement A.1)"
            ),
            Violation::ExpressionTooDeep { update } => write!(
                f,
                "update {update} of the basic statement nests deeper than \
                 {MAX_EXPR_DEPTH} levels"
            ),
        }
    }
}

/// Check a program against Appendix A. Bounds feasibility (`lb <= rb`) is
/// semi-decidable symbolically, so it is checked at a sample binding with
/// every size symbol set to `sample_size`.
pub fn validate(program: &SourceProgram, sample_size: i64) -> Result<(), Vec<Violation>> {
    // First, and alone: every later check walks the statement.
    let too_deep = |u: &GuardedUpdate| {
        let guard = u.guard.as_ref();
        u.value.deeper_than(MAX_EXPR_DEPTH) || guard.is_some_and(|g| g.deeper_than(MAX_EXPR_DEPTH))
    };
    if let Some(update) = program.body.updates.iter().position(too_deep) {
        return Err(vec![Violation::ExpressionTooDeep { update }]);
    }
    let mut out = Vec::new();
    let r = program.r();
    if r < 2 {
        out.push(Violation::TooFewLoops { r });
    }
    for (i, l) in program.loops.iter().enumerate() {
        if l.step != 1 && l.step != -1 {
            out.push(Violation::BadLoopStep {
                loop_index: i,
                step: l.step,
            });
        }
    }
    for (k, s) in program.streams.iter().enumerate() {
        if s.index_map.rows() != r.saturating_sub(1) || s.index_map.cols() != r {
            out.push(Violation::BadIndexMapShape {
                stream: k,
                rows: s.index_map.rows(),
                cols: s.index_map.cols(),
            });
        } else if s.index_map.rank() != r - 1 {
            out.push(Violation::BadIndexMapRank {
                stream: k,
                rank: s.index_map.rank(),
                expected: r - 1,
            });
        }
        let dims = program.variables[s.variable].bounds.len();
        if dims != r.saturating_sub(1) {
            out.push(Violation::BadVariableDim {
                variable: s.variable,
                dims,
                expected: r - 1,
            });
        }
    }
    // Body stream references.
    let accessed = program.body.streams_accessed();
    for sid in &accessed {
        if sid.0 >= program.streams.len() {
            out.push(Violation::UnknownStream { stream: sid.0 });
        }
    }
    for k in 0..program.streams.len() {
        if !accessed.iter().any(|s| s.0 == k) {
            out.push(Violation::StreamNotAccessed { stream: k });
        }
    }
    // Sample-size bound feasibility.
    let mut env = Env::new();
    for &sz in &program.sizes {
        env.bind(sz, sample_size);
    }
    for (i, l) in program.loops.iter().enumerate() {
        if l.lb.eval_rat(&env) > l.rb.eval_rat(&env) {
            out.push(Violation::EmptyLoop { loop_index: i });
        }
    }
    // Requirement A.1 coverage: at the sample size, the index map must
    // touch every declared element (only checkable when shapes are
    // consistent, hence gated on `out` so far being clean for streams).
    if out.is_empty() {
        let space = program.concrete_bounds(&env);
        for (k, s) in program.streams.iter().enumerate() {
            let declared: Vec<(i64, i64)> = program.variables[s.variable]
                .bounds
                .iter()
                .map(|(lb, rb)| (lb.eval_int(&env), rb.eval_int(&env)))
                .collect();
            let elements: i64 = declared
                .iter()
                .map(|&(lb, rb)| (rb - lb + 1).max(0))
                .product();
            let accessed = distinct_images(&s.index_map, &space, &declared);
            if (accessed as i64) != elements {
                out.push(Violation::ElementsNotCovered {
                    stream: k,
                    accessed,
                    declared: elements.max(0) as usize,
                });
            }
        }
    }
    if out.is_empty() {
        Ok(())
    } else {
        Err(out)
    }
}

/// How many distinct points `map` sends the points of the box `space` to.
/// An image inside the box `declared` is counted by its row-major offset
/// there, so a covering map costs one integer per point and no
/// allocation per point; an image outside it, as the point itself.
fn distinct_images(map: &Matrix, space: &[(i64, i64)], declared: &[(i64, i64)]) -> usize {
    if space.iter().any(|&(lb, rb)| lb > rb) {
        return 0;
    }
    let coefficients: Vec<i64> = (0..map.rows())
        .flat_map(|row| map.row(row))
        .map(|c| c.to_integer().expect("non-integral matrix application"))
        .collect();
    let mut inside: Vec<i64> = Vec::new();
    let mut outside: HashSet<Vec<i64>> = HashSet::new();
    let mut x: Vec<i64> = space.iter().map(|&(lb, _)| lb).collect();
    let mut image = vec![0; map.rows()];
    loop {
        for (y, row) in image.iter_mut().zip(coefficients.chunks(x.len())) {
            *y = row.iter().zip(&x).fold(0i64, |acc, (&c, &xi)| {
                c.checked_mul(xi)
                    .and_then(|t| acc.checked_add(t))
                    .expect("index map overflows at the sample size")
            });
        }
        let mut offset = Some(0);
        for (&y, &(lb, rb)) in image.iter().zip(declared) {
            offset = offset
                .filter(|_| lb <= y && y <= rb)
                .map(|o| o * (rb - lb + 1) + y - lb);
        }
        match offset {
            Some(o) => inside.push(o),
            None => {
                outside.insert(image.clone());
            }
        }
        // The next point, like an odometer; the order is immaterial.
        let Some(d) = (0..x.len()).rev().find(|&d| x[d] < space[d].1) else {
            break;
        };
        x[d] += 1;
        for (xi, &(lb, _)) in x.iter_mut().zip(space).skip(d + 1) {
            *xi = lb;
        }
    }
    inside.sort_unstable();
    inside.dedup();
    inside.len() + outside.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{BasicStatement, StreamId};
    use crate::gallery;

    #[test]
    fn gallery_is_valid() {
        for p in gallery::all() {
            validate(&p, 4).unwrap_or_else(|v| panic!("{}: {v:?}", p.name));
        }
    }

    #[test]
    fn bad_step_detected() {
        let mut p = gallery::polynomial_product();
        p.loops[0].step = 2;
        let errs = validate(&p, 4).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, Violation::BadLoopStep { step: 2, .. })));
    }

    #[test]
    fn single_loop_detected() {
        let mut p = gallery::polynomial_product();
        p.loops.truncate(1);
        let errs = validate(&p, 4).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, Violation::TooFewLoops { r: 1 })));
    }

    #[test]
    fn rank_deficient_index_map_detected() {
        let mut p = gallery::matrix_product();
        // Map (i, i) has rank 1 < 2.
        p.streams[0].index_map = systolic_math::Matrix::from_rows(&[vec![1, 0, 0], vec![1, 0, 0]]);
        let errs = validate(&p, 4).unwrap_err();
        assert!(errs.iter().any(|e| matches!(
            e,
            Violation::BadIndexMapRank {
                stream: 0,
                rank: 1,
                ..
            }
        )));
    }

    #[test]
    fn unaccessed_stream_detected() {
        let mut p = gallery::polynomial_product();
        p.body = BasicStatement {
            updates: vec![crate::expr::build::assign(2, crate::expr::build::s(2))],
        };
        let errs = validate(&p, 4).unwrap_err();
        assert!(errs.contains(&Violation::StreamNotAccessed { stream: 0 }));
        assert!(errs.contains(&Violation::StreamNotAccessed { stream: 1 }));
        let _ = StreamId(0);
    }

    #[test]
    fn empty_loop_detected() {
        let mut p = gallery::polynomial_product();
        // lb = n, rb = 0: empty for n > 0.
        let n = p.sizes[0];
        p.loops[1].lb = systolic_math::Affine::var(n);
        p.loops[1].rb = systolic_math::Affine::zero();
        let errs = validate(&p, 4).unwrap_err();
        assert!(errs.contains(&Violation::EmptyLoop { loop_index: 1 }));
    }

    #[test]
    fn a_statement_past_the_depth_cap_is_refused_before_it_is_walked() {
        use crate::expr::build::*;
        let mut p = gallery::polynomial_product();
        // A left-deep sum of `levels` levels.
        let chain = |levels: usize| (1..levels).fold(s(0), |e, _| add(e, s(1)));
        p.body.updates[0].value = add(s(2), chain(MAX_EXPR_DEPTH - 1));
        validate(&p, 4).unwrap();
        p.body.updates[0].value = add(s(2), chain(1_000));
        let errs = validate(&p, 4).unwrap_err();
        assert_eq!(errs, vec![Violation::ExpressionTooDeep { update: 0 }]);
        assert!(errs[0].to_string().contains("deeper than 256"));
    }

    #[test]
    fn coverage_counts_each_touched_element_once_inside_the_box_or_out() {
        // Polynomial product at n = 4: `c[i+j]` touches 0..8, nine
        // elements, from 25 points.
        let mut p = gallery::polynomial_product();
        let n = systolic_math::Affine::var(p.sizes[0]);
        let zero = systolic_math::Affine::zero();
        let not_covered = |accessed, declared| {
            vec![Violation::ElementsNotCovered {
                stream: 2,
                accessed,
                declared,
            }]
        };
        p.variables[2].bounds = vec![(zero.clone(), n.clone() + n.clone() + n.clone())];
        assert_eq!(validate(&p, 4).unwrap_err(), not_covered(9, 13));
        // Five of the nine inside `0..n`, four past it.
        p.variables[2].bounds = vec![(zero, n)];
        assert_eq!(validate(&p, 4).unwrap_err(), not_covered(9, 5));
    }

    #[test]
    fn violations_display() {
        let v = Violation::BadLoopStep {
            loop_index: 0,
            step: 3,
        };
        assert!(v.to_string().contains("step 3"));
    }
}
