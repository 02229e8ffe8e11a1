//! The theorems of Appendix B as executable checks.
//!
//! The paper proves these once and for all; we *check* them on concrete
//! instances — every compiled plan can be audited, and the property-test
//! suites drive them across randomized programs and arrays.

use crate::plan::{StreamKind, SystolicProgram};
use systolic_ir::StreamId;
use systolic_math::{point, Env, Rational};

/// The outcome of auditing one plan against Appendix B.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TheoremReport {
    pub failures: Vec<String>,
}

impl TheoremReport {
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    fn check(&mut self, cond: bool, label: &str) {
        if !cond {
            self.failures.push(label.to_string());
        }
    }
}

/// Theorem 1: `dim(null.place) = 1`.
pub fn thm1_null_place_dim(plan: &SystolicProgram) -> bool {
    plan.array.place.null_space().len() == 1
}

/// Theorem 3: `step.null_p != 0`.
pub fn thm3_step_nonzero_on_null(plan: &SystolicProgram) -> bool {
    plan.array
        .place
        .null_generator()
        .is_some_and(|g| point::dot(&plan.array.step, &g) != 0)
}

/// Theorem 4: all points projected onto the same `y` lie on one line —
/// checked exhaustively at a problem size.
pub fn thm4_chords_are_lines(plan: &SystolicProgram, env: &Env) -> bool {
    use std::collections::HashMap;
    let mut groups: HashMap<Vec<i64>, Vec<Vec<i64>>> = HashMap::new();
    for x in plan.source.index_space_seq(env) {
        groups.entry(plan.array.place_at(&x)).or_default().push(x);
    }
    groups.values().all(|pts| {
        pts.iter().all(|x| {
            let d = point::sub(x, &pts[0]);
            point::is_zero(&d) || point::exact_div(&d, &plan.increment).is_some()
        })
    })
}

/// Theorem 5: `increment in null.place`.
pub fn thm5_increment_in_null_place(plan: &SystolicProgram) -> bool {
    plan.array
        .place
        .apply(&plan.increment)
        .iter()
        .all(|q| q.is_zero())
}

/// Theorem 6: `step.increment > 0`.
pub fn thm6_step_increment_positive(plan: &SystolicProgram) -> bool {
    point::dot(&plan.array.step, &plan.increment) > 0
}

/// Theorem 8: `sgn(x.i - x'.i) = sgn(step.x - step.x') * sgn(increment.i)`
/// whenever `place.x = place.x'` — checked at a problem size.
pub fn thm8_sign_relation(plan: &SystolicProgram, env: &Env) -> bool {
    use std::collections::HashMap;
    let mut groups: HashMap<Vec<i64>, Vec<Vec<i64>>> = HashMap::new();
    for x in plan.source.index_space_seq(env) {
        groups.entry(plan.array.place_at(&x)).or_default().push(x);
    }
    groups.values().all(|pts| {
        pts.iter().all(|x| {
            pts.iter().all(|x2| {
                (0..plan.r).all(|i| {
                    (x[i] - x2[i]).signum()
                        == (plan.array.step_at(x) - plan.array.step_at(x2)).signum()
                            * plan.increment[i].signum()
                })
            })
        })
    })
}

/// Theorem 9: if `increment.i != 0`, two distinct index points agreeing in
/// coordinate `i` have distinct places — checked at a problem size.
pub fn thm9_injective_on_faces(plan: &SystolicProgram, env: &Env) -> bool {
    let pts: Vec<Vec<i64>> = plan.source.index_space_seq(env).collect();
    (0..plan.r).filter(|&i| plan.increment[i] != 0).all(|i| {
        use std::collections::HashSet;
        // Group by the fixed coordinate; places must be unique per group.
        let mut seen: HashSet<(i64, Vec<i64>)> = HashSet::new();
        pts.iter()
            .all(|x| seen.insert((x[i], plan.array.place_at(x))))
    })
}

/// Theorem 10: `flow` is single-valued — the ratio is identical for every
/// pair of statements sharing a stream element (checked at a size).
pub fn thm10_flow_single_valued(plan: &SystolicProgram, env: &Env, s: StreamId) -> bool {
    use std::collections::HashMap;
    let m = &plan.source.stream(s).index_map;
    let mut by_elem: HashMap<Vec<i64>, Vec<Vec<i64>>> = HashMap::new();
    for x in plan.source.index_space_seq(env) {
        by_elem.entry(m.apply_int(&x)).or_default().push(x);
    }
    let flow = &plan.stream(s).flow;
    by_elem.values().all(|ops| {
        ops.iter().skip(1).all(|x| {
            let dt = plan.array.step_at(x) - plan.array.step_at(&ops[0]);
            if dt == 0 {
                return false; // would be a broadcast
            }
            let dp = point::sub(&plan.array.place_at(x), &plan.array.place_at(&ops[0]));
            let ratio: Vec<Rational> = dp.iter().map(|&c| Rational::new(c, dt)).collect();
            &ratio == flow
        })
    })
}

/// Theorem 11: `increment_s = M . increment` for moving streams; for
/// stationary streams, the variable-space image `M . delta` of the
/// loading & recovery vector (`place . delta = v`).
pub fn thm11_stream_increment(plan: &SystolicProgram, s: StreamId) -> bool {
    match &plan.stream(s).kind {
        StreamKind::Moving => {
            plan.stream(s).increment_s == plan.source.stream(s).index_map.apply_int(&plan.increment)
        }
        StreamKind::Stationary { loading_vector } => crate::iocomm::loading_increment(
            &plan.source,
            &plan.array,
            &plan.increment,
            s,
            loading_vector,
        )
        .is_some_and(|inc| inc == plan.stream(s).increment_s),
    }
}

/// Audit a compiled plan against every theorem, at a concrete size.
pub fn audit(plan: &SystolicProgram, env: &Env) -> TheoremReport {
    let mut rep = TheoremReport::default();
    rep.check(thm1_null_place_dim(plan), "thm1: dim(null.place) = 1");
    rep.check(thm3_step_nonzero_on_null(plan), "thm3: step.null_p != 0");
    rep.check(thm4_chords_are_lines(plan, env), "thm4: chords are lines");
    rep.check(
        thm5_increment_in_null_place(plan),
        "thm5: increment in null.place",
    );
    rep.check(
        thm6_step_increment_positive(plan),
        "thm6: step.increment > 0",
    );
    rep.check(thm8_sign_relation(plan, env), "thm8: sign relation");
    rep.check(
        thm9_injective_on_faces(plan, env),
        "thm9: injectivity on faces",
    );
    for s in plan.source.stream_ids() {
        if plan.stream(s).kind == StreamKind::Moving {
            rep.check(
                thm10_flow_single_valued(plan, env, s),
                &format!("thm10: flow single-valued (stream {})", s.0),
            );
        }
        rep.check(
            thm11_stream_increment(plan, s),
            &format!("thm11: increment_s = M.increment (stream {})", s.0),
        );
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, Options};
    use systolic_synthesis::placement::paper;

    #[test]
    fn all_paper_designs_pass_every_theorem() {
        for (label, p, a) in paper::all() {
            let plan = compile(&p, &a, &Options::default()).unwrap();
            for n in 1..=4 {
                let mut env = Env::new();
                env.bind(p.sizes[0], n);
                let rep = audit(&plan, &env);
                assert!(rep.ok(), "{label} at n={n}: {:?}", rep.failures);
            }
        }
    }

    #[test]
    fn gallery_designs_pass_every_theorem() {
        use systolic_ir::gallery;
        for p in gallery::all() {
            let Some(a) = systolic_synthesis::derive_array(&p, 2, 4) else {
                panic!("{}: no array", p.name)
            };
            let plan = compile(&p, &a, &Options::default()).unwrap();
            let mut env = Env::new();
            for &s in &p.sizes {
                env.bind(s, 3);
            }
            let rep = audit(&plan, &env);
            assert!(rep.ok(), "{}: {:?}", p.name, rep.failures);
        }
    }
}
