//! The I/O processes: layout (Secs. 6.3 / 7.3) and communications
//! (Secs. 6.4 / 7.4).

use crate::error::CompileError;
use crate::plan::IoDim;
use systolic_ir::{SourceProgram, StreamId};
use systolic_math::{
    affine::{matrix_apply, point_sub, AffinePoint},
    point, Affine, Chain, Guard, Piecewise, RatPoint, Rational,
};

/// `increment_s = M . increment` (Theorem 11) for a moving stream. The
/// caller substitutes the loading & recovery vector for stationary ones.
pub fn stream_increment(program: &SourceProgram, s: StreamId, increment: &[i64]) -> Vec<i64> {
    program.stream(s).index_map.apply_int(increment)
}

/// The i/o process layout for one stream (Sec. 7.3): one [`IoDim`] per
/// non-zero component of the stream's (i/o) flow, in increasing dimension
/// order, each later dimension omitting the boundary points already
/// claimed by earlier ones.
pub fn io_layout(io_flow: &[Rational]) -> Vec<IoDim> {
    let mut dims = Vec::new();
    let mut claimed = Vec::new();
    for (d, f) in io_flow.iter().enumerate() {
        if f.is_zero() {
            continue;
        }
        dims.push(IoDim {
            dim: d,
            input_at_min: f.signum() > 0,
            exclude_dims: claimed.clone(),
        });
        claimed.push(d);
    }
    dims
}

/// Solve `place . delta = v` (unique modulo `null.place`; pinned by
/// requiring `increment . delta = 0`) and return `M . delta` — the
/// variable-space element increment induced by loading a stationary
/// stream along process-space direction `v` (the loading & recovery
/// vector "plays the role of increment_s", Sec. 7.4; the two vectors
/// coincide in the paper's examples because their index maps align
/// process and variable space, but differ in general). `None` when the
/// result is not an integer vector (an unusable loading vector).
pub fn loading_increment(
    program: &SourceProgram,
    array: &systolic_synthesis::SystolicArray,
    increment: &[i64],
    s: StreamId,
    v: &[i64],
) -> Option<Vec<i64>> {
    let r = array.r();
    // Stack place over the increment row: square and invertible (the
    // two null spaces intersect trivially).
    let mut rows: Vec<Vec<Rational>> = (0..r - 1).map(|i| array.place.row(i).to_vec()).collect();
    rows.push(increment.iter().map(|&c| Rational::int(c)).collect());
    let stacked = systolic_math::Matrix::from_rat_rows(&rows);
    let mut rhs: Vec<Affine> = v.iter().map(|&c| Affine::int(c)).collect();
    rhs.push(Affine::zero());
    let delta = systolic_math::linsolve::solve(&stacked, &rhs)?;
    let delta: Option<Vec<Rational>> = delta.iter().map(|e| e.as_const()).collect();
    let m = &program.stream(s).index_map;
    m.apply_rat(&delta?)
        .iter()
        .map(|q| q.to_integer())
        .collect()
}

/// Which end of `first`/`last` to derive for the stream pipeline.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PipeEnd {
    FirstS,
    LastS,
}

/// Derive `first_s` or `last_s` (eqs. 6 / 7): the intersection of the
/// element line with the boundary of the variable space.
///
/// `x` is "an arbitrary basic statement expressed in the coordinates of
/// CS, e.g. from any of the alternatives for first or last" — the result
/// is independent of the choice because every such formula lands on the
/// same element line (the paper invites the reader to verify this; our
/// tests do). One alternative is produced per face of `VS.v` with a
/// non-zero `increment_s` component, guarded by substituting the derived
/// components into the variable-space bounds (Sec. 7.4).
pub fn derive_pipe_end(
    program: &SourceProgram,
    s: StreamId,
    x: &AffinePoint,
    increment_s: &[i64],
    which: PipeEnd,
) -> Result<Piecewise<AffinePoint>, CompileError> {
    let m = &program.stream(s).index_map;
    let mx = matrix_apply(m, x);
    let vs = program.stream_var_bounds(s);
    let dims = increment_s.len();
    assert_eq!(vs.len(), dims);

    let mut clauses = Vec::new();
    for face in 0..dims {
        if increment_s[face] == 0 {
            continue;
        }
        // The known component on this face: lower bound if walking
        // backwards along a positive increment_s (first_s), etc.
        let take_lb = (increment_s[face] > 0) == (which == PipeEnd::FirstS);
        let bound = if take_lb {
            vs[face].0.clone()
        } else {
            vs[face].1.clone()
        };
        // Eq. 6: M.x - ((M.x.face - bound) / increment_s.face) * increment_s
        // Eq. 7: M.x + ((bound - M.x.face) / increment_s.face) * increment_s
        // Both reduce to the same walk; write it once.
        let offset = (mx[face].clone() - &bound).scale(Rational::new(1, increment_s[face]));
        let step: AffinePoint = increment_s
            .iter()
            .map(|&c| offset.clone().scale(Rational::int(c)))
            .collect();
        let result = point_sub(&mx, &step);

        // Integrality of the symbolic coefficients (paper future work
        // otherwise).
        for e in &result {
            let ok = e.constant_part().is_integer() && e.vars().all(|v| e.coeff(v).is_integer());
            if !ok {
                return Err(CompileError::NonIntegerSolution {
                    face,
                    detail: format!("pipe end of stream {} not integral", s.0),
                });
            }
        }

        // Guard: derived components within the variable-space bounds.
        let mut guard = Guard::always();
        for (j, bnds) in vs.iter().enumerate() {
            if j == face {
                continue; // pinned to the bound by construction
            }
            guard = guard.and_chain(Chain::between(
                bnds.0.clone(),
                result[j].clone(),
                bnds.1.clone(),
            ));
        }
        if let Some(g) = guard.simplify() {
            clauses.push((g, result));
        }
    }
    Ok(Piecewise::new(clauses))
}

/// Eq. 10: the total number of elements in a pipe,
/// `((last_s - first_s) // increment_s) + 1`, piecewise.
pub fn derive_pass_total(
    s: StreamId,
    first_s: &Piecewise<AffinePoint>,
    last_s: &Piecewise<AffinePoint>,
    increment_s: &[i64],
) -> Result<Piecewise<Affine>, CompileError> {
    let mut failed = false;
    let total = first_s.cross(last_s, |f, l| match systolic_math::affine::point_exact_div(
        &point_sub(l, f),
        increment_s,
    ) {
        Some(q) => q + Affine::int(1),
        None => {
            failed = true;
            Affine::zero()
        }
    });
    if failed {
        return Err(CompileError::DivisionFailed {
            what: "pass_total",
            stream: Some(s.0),
        });
    }
    Ok(total)
}

/// The i/o flow of a stream: its `flow` when moving; the loading &
/// recovery vector (as rationals) when stationary.
pub fn io_flow(flow: &RatPoint, loading: Option<&[i64]>) -> RatPoint {
    match loading {
        Some(v) => point::to_rational(v),
        None => flow.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::firstlast::{derive_endpoint, derive_increment, Endpoint};
    use systolic_math::affine::display_point;
    use systolic_math::{Env, Var, VarTable};
    use systolic_synthesis::placement::paper;
    use systolic_synthesis::SystolicArray;

    type Ctx = (
        SourceProgram,
        SystolicArray,
        VarTable,
        Vec<Var>,
        Vec<i64>,
        Piecewise<AffinePoint>,
        Piecewise<AffinePoint>,
    );

    fn ctx(pair: (SourceProgram, SystolicArray)) -> Ctx {
        let (p, a) = pair;
        let mut vars = p.vars.clone();
        let coords: Vec<Var> = (0..p.r() - 1).map(|d| vars.coord(d)).collect();
        let inc = derive_increment(&a).unwrap();
        let first = derive_endpoint(&p, &a, &inc, &coords, Endpoint::First).unwrap();
        let last = derive_endpoint(&p, &a, &inc, &coords, Endpoint::Last).unwrap();
        (p, a, vars, coords, inc, first, last)
    }

    #[test]
    fn stream_increments_match_paper() {
        // D.1 (increment (0,1)): inc_a = 0, inc_b = 1, inc_c = 1.
        let (p, _, _, _, inc, _, _) = ctx(paper::polyprod_d1());
        assert_eq!(stream_increment(&p, StreamId(0), &inc), vec![0]);
        assert_eq!(stream_increment(&p, StreamId(1), &inc), vec![1]);
        assert_eq!(stream_increment(&p, StreamId(2), &inc), vec![1]);
        // D.2 (increment (1,-1)): 1, -1, 0.
        let (p, _, _, _, inc, _, _) = ctx(paper::polyprod_d2());
        assert_eq!(stream_increment(&p, StreamId(0), &inc), vec![1]);
        assert_eq!(stream_increment(&p, StreamId(1), &inc), vec![-1]);
        assert_eq!(stream_increment(&p, StreamId(2), &inc), vec![0]);
        // E.1 (increment (0,0,1)): (0,1), (1,0), (0,0).
        let (p, _, _, _, inc, _, _) = ctx(paper::matmul_e1());
        assert_eq!(stream_increment(&p, StreamId(0), &inc), vec![0, 1]);
        assert_eq!(stream_increment(&p, StreamId(1), &inc), vec![1, 0]);
        assert_eq!(stream_increment(&p, StreamId(2), &inc), vec![0, 0]);
        // E.2 (increment (1,1,1)): all (1,1).
        let (p, _, _, _, inc, _, _) = ctx(paper::matmul_e2());
        for k in 0..3 {
            assert_eq!(stream_increment(&p, StreamId(k), &inc), vec![1, 1]);
        }
    }

    #[test]
    fn e1_pipe_ends_match_the_summary_table() {
        // Appendix E.1.4's table: first_a = (col,0), last_a = (col,n),
        // first_b = (0,row), last_b = (n,row), first_c = (0,row),
        // last_c = (n,row) (with increment_c = loading vector (1,0)).
        let (p, _, vars, _, inc, first, _) = ctx(paper::matmul_e1());
        let x = &first.clauses()[0].1;

        let inc_a = stream_increment(&p, StreamId(0), &inc);
        let fa = derive_pipe_end(&p, StreamId(0), x, &inc_a, PipeEnd::FirstS).unwrap();
        let la = derive_pipe_end(&p, StreamId(0), x, &inc_a, PipeEnd::LastS).unwrap();
        assert_eq!(display_point(&fa.clauses()[0].1, &vars), "(col, 0)");
        assert_eq!(display_point(&la.clauses()[0].1, &vars), "(col, n)");

        let inc_b = stream_increment(&p, StreamId(1), &inc);
        let fb = derive_pipe_end(&p, StreamId(1), x, &inc_b, PipeEnd::FirstS).unwrap();
        let lb = derive_pipe_end(&p, StreamId(1), x, &inc_b, PipeEnd::LastS).unwrap();
        assert_eq!(display_point(&fb.clauses()[0].1, &vars), "(0, row)");
        assert_eq!(display_point(&lb.clauses()[0].1, &vars), "(n, row)");

        // Stationary c with loading vector (1,0).
        let fc = derive_pipe_end(&p, StreamId(2), x, &[1, 0], PipeEnd::FirstS).unwrap();
        let lc = derive_pipe_end(&p, StreamId(2), x, &[1, 0], PipeEnd::LastS).unwrap();
        assert_eq!(display_point(&fc.clauses()[0].1, &vars), "(0, row)");
        assert_eq!(display_point(&lc.clauses()[0].1, &vars), "(n, row)");
    }

    #[test]
    fn e2_pipe_ends_have_two_guarded_cases() {
        // Appendix E.2.4: first_a = if 0<=-col<=n -> (0,-col)
        //                           [] 0<=col<=n  -> (col,0) fi.
        let (p, _, vars, _, inc, first, _) = ctx(paper::matmul_e2());
        // Use the *second* clause as the paper does; any works.
        let x = &first.clauses()[1].1;
        let inc_a = stream_increment(&p, StreamId(0), &inc);
        let fa = derive_pipe_end(&p, StreamId(0), x, &inc_a, PipeEnd::FirstS).unwrap();
        let shown: Vec<(String, String)> = fa
            .clauses()
            .iter()
            .map(|(g, pt)| (g.display(&vars), display_point(pt, &vars)))
            .collect();
        assert_eq!(shown[0].1, "(0, -col)");
        assert_eq!(shown[0].0, "0 <= -col <= n");
        assert_eq!(shown[1].1, "(col, 0)");
        assert_eq!(shown[1].0, "0 <= col <= n");

        // last_a via the first clause of first (paper's x choice):
        // if 0<=n-col<=n -> (n, n-col)... paper E.2.4 lists
        // last_a = if 0<=n+col<=n -> (n+col, n) [] 0<=n-col<=n -> (n,n-col)
        // (order by face). Face 0 gives (n, n-col); face 1 gives (n+col, n).
        let x0 = &first.clauses()[0].1;
        let la = derive_pipe_end(&p, StreamId(0), x0, &inc_a, PipeEnd::LastS).unwrap();
        let shown: Vec<String> = la
            .clauses()
            .iter()
            .map(|(_, pt)| display_point(pt, &vars))
            .collect();
        assert!(shown.contains(&"(n, n - col)".to_string()), "{shown:?}");
        assert!(shown.contains(&"(n + col, n)".to_string()), "{shown:?}");
    }

    #[test]
    fn pipe_ends_independent_of_statement_choice() {
        // "The reader may verify that the same answers are obtained if
        // last is used for x; actually any basic statement could be used."
        let (p, _, _, coords, inc, first, last) = ctx(paper::matmul_e2());
        let mut env = Env::new();
        env.bind(p.sizes[0], 3);
        for s in p.stream_ids() {
            let inc_s = stream_increment(&p, s, &inc);
            let choices: Vec<&AffinePoint> = first
                .clauses()
                .iter()
                .map(|(_, pt)| pt)
                .chain(last.clauses().iter().map(|(_, pt)| pt))
                .collect();
            let reference = derive_pipe_end(&p, s, choices[0], &inc_s, PipeEnd::FirstS).unwrap();
            for x in &choices[1..] {
                let alt = derive_pipe_end(&p, s, x, &inc_s, PipeEnd::FirstS).unwrap();
                // Compare as evaluated functions over a grid of coords.
                for col in -3..=3 {
                    for row in -3..=3 {
                        let mut e = env.clone();
                        e.bind(coords[0], col).bind(coords[1], row);
                        let a = reference
                            .select(&e)
                            .map(|pt| systolic_math::affine::eval_point(pt, &e));
                        let b = alt
                            .select(&e)
                            .map(|pt| systolic_math::affine::eval_point(pt, &e));
                        assert_eq!(a, b, "stream {} at ({col},{row})", s.0);
                    }
                }
            }
        }
    }

    #[test]
    fn layout_dims_and_dedup() {
        // E.1: flow.a = (0,1) -> io on dim 1 only.
        let dims = io_layout(&[Rational::ZERO, Rational::ONE]);
        assert_eq!(
            dims,
            vec![IoDim {
                dim: 1,
                input_at_min: true,
                exclude_dims: vec![]
            }]
        );
        // E.2: flow.c = (-1,-1) -> dims 0 and 1, dim 1 excludes dim 0's
        // points; inputs at the max sides.
        let dims = io_layout(&[Rational::int(-1), Rational::int(-1)]);
        assert_eq!(
            dims,
            vec![
                IoDim {
                    dim: 0,
                    input_at_min: false,
                    exclude_dims: vec![]
                },
                IoDim {
                    dim: 1,
                    input_at_min: false,
                    exclude_dims: vec![0]
                },
            ]
        );
    }

    #[test]
    fn d1_io_repeaters() {
        // D.1.4: repeaters {0 n 1} for b and {0 2n 1} for c.
        let (p, _, vars, _, inc, first, _) = ctx(paper::polyprod_d1());
        let x = &first.clauses()[0].1;
        for (sid, expect_first, expect_last) in [(1usize, "0", "n"), (2, "0", "2*n")] {
            let inc_s = stream_increment(&p, StreamId(sid), &inc);
            let f = derive_pipe_end(&p, StreamId(sid), x, &inc_s, PipeEnd::FirstS).unwrap();
            let l = derive_pipe_end(&p, StreamId(sid), x, &inc_s, PipeEnd::LastS).unwrap();
            assert_eq!(display_point(&f.clauses()[0].1, &vars), expect_first);
            assert_eq!(display_point(&l.clauses()[0].1, &vars), expect_last);
        }
        // Stationary a with loading vector 1: {0 n 1}.
        let f = derive_pipe_end(&p, StreamId(0), x, &[1], PipeEnd::FirstS).unwrap();
        let l = derive_pipe_end(&p, StreamId(0), x, &[1], PipeEnd::LastS).unwrap();
        assert_eq!(display_point(&f.clauses()[0].1, &vars), "0");
        assert_eq!(display_point(&l.clauses()[0].1, &vars), "n");
    }

    #[test]
    fn d2_reversed_repeater_for_b() {
        // D.2.4: increment_b = -1 so the repeater is {n 0 -1}.
        let (p, _, vars, _, inc, first, _) = ctx(paper::polyprod_d2());
        let x = &first.clauses()[0].1;
        let inc_b = stream_increment(&p, StreamId(1), &inc);
        assert_eq!(inc_b, vec![-1]);
        let f = derive_pipe_end(&p, StreamId(1), x, &inc_b, PipeEnd::FirstS).unwrap();
        let l = derive_pipe_end(&p, StreamId(1), x, &inc_b, PipeEnd::LastS).unwrap();
        assert_eq!(display_point(&f.clauses()[0].1, &vars), "n");
        assert_eq!(display_point(&l.clauses()[0].1, &vars), "0");
    }

    #[test]
    fn non_unit_stream_increment_is_rejected() {
        // A hand-built increment_s with a magnitude-2 component makes the
        // eq. 6 walk land between lattice points in the other dimension:
        // the NonIntegerSolution error path.
        let (p, _, _, _, _, first, _) = ctx(paper::matmul_e1());
        let x = &first.clauses()[0].1;
        let err = derive_pipe_end(&p, StreamId(0), x, &[2, 1], PipeEnd::FirstS).unwrap_err();
        assert!(matches!(
            err,
            crate::error::CompileError::NonIntegerSolution { .. }
        ));
        assert!(err.to_string().contains("non-integer"));
    }

    #[test]
    fn loading_increment_general_case() {
        // place (j, k) for matmul: loading along process dim 0 moves the
        // element identity along VS dim 1 (the finding behind the
        // loading-vector generalization).
        let p = systolic_ir::gallery::matrix_product();
        let arr = SystolicArray::new(
            vec![1, 1, 1],
            systolic_math::Matrix::from_rows(&[vec![0, 1, 0], vec![0, 0, 1]]),
        );
        // b is stationary under this place (null M.b = (1,0,0) = null place).
        let inc = loading_increment(&p, &arr, &[1, 0, 0], StreamId(1), &[1, 0]).unwrap();
        assert_eq!(inc, vec![0, 1], "element increment lives in VS, not PS");
        // For E.1 the two spaces align and the vector passes through.
        let (p, arr) = paper::matmul_e1();
        let inc_e1 = loading_increment(&p, &arr, &[0, 0, 1], StreamId(2), &[1, 0]).unwrap();
        assert_eq!(inc_e1, vec![1, 0]);
    }

    #[test]
    fn pass_totals_e2() {
        // E.2.6: stream a passes n+col+1 or n-col+1 along the buffers.
        let (p, _, vars, _, inc, first, _) = ctx(paper::matmul_e2());
        let x = &first.clauses()[0].1;
        let inc_a = stream_increment(&p, StreamId(0), &inc);
        let f = derive_pipe_end(&p, StreamId(0), x, &inc_a, PipeEnd::FirstS).unwrap();
        let l = derive_pipe_end(&p, StreamId(0), x, &inc_a, PipeEnd::LastS).unwrap();
        let total = derive_pass_total(StreamId(0), &f, &l, &inc_a).unwrap();
        let shown: Vec<String> = total
            .clauses()
            .iter()
            .map(|(_, e)| e.display(&vars))
            .collect();
        assert!(shown.contains(&"n + col + 1".to_string()), "{shown:?}");
        assert!(shown.contains(&"n - col + 1".to_string()), "{shown:?}");
    }
}
