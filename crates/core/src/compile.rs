//! The compilation scheme, end to end (Sec. 7): from a source program and
//! a systolic array to the symbolic [`SystolicProgram`] plan.

use crate::basis::{is_simple_place, process_space_basis};
use crate::error::CompileError;
use crate::firstlast::{derive_count, derive_endpoint, derive_increment, Endpoint};
use crate::iocomm::{
    derive_pass_total, derive_pipe_end, io_flow, io_layout, stream_increment, PipeEnd,
};
use crate::plan::{StreamKind, StreamPlan, SystolicProgram};
use crate::propagation::{derive_drain, derive_soak};
use std::hash::{Hash, Hasher};
use systolic_ir::{SourceProgram, StreamId};
use systolic_math::affine::AffinePoint;
use systolic_math::{point, Affine, Guard, Piecewise, Var};
use systolic_synthesis::SystolicArray;

/// Drop guard chains that are implied by process-space membership: a
/// chain `lb <= coord <= rb` where `coord` is a bare coordinate variable
/// and `[lb, rb]` is exactly that dimension's `[PS_min, PS_max]` holds for
/// every process, so the paper omits it (e.g. the unguarded `first` of the
/// simple-place designs, and E.1's i/o repeaters).
fn prune_ps_implied(
    g: &Guard,
    coords: &[Var],
    ps_min: &AffinePoint,
    ps_max: &AffinePoint,
) -> Guard {
    let implied = |chain: &systolic_math::Chain| {
        let e = chain.exprs();
        if e.len() != 3 {
            return false;
        }
        let mid = &e[1];
        coords
            .iter()
            .enumerate()
            .any(|(d, &c)| *mid == Affine::var(c) && e[0] == ps_min[d] && e[2] == ps_max[d])
    };
    Guard::new(g.chains().iter().filter(|c| !implied(c)).cloned().collect())
}

fn prune_pw<T: Clone>(
    pw: &Piecewise<T>,
    coords: &[Var],
    ps_min: &AffinePoint,
    ps_max: &AffinePoint,
) -> Piecewise<T> {
    Piecewise::new(
        pw.clauses()
            .iter()
            .map(|(g, v)| (prune_ps_implied(g, coords, ps_min, ps_max), v.clone()))
            .collect(),
    )
}

/// How [`systolize`] obtains the systolic array, the scheme's second
/// input (Sec. 3.2).
#[derive(Clone, Debug, Default)]
pub enum PlaceChoice {
    /// Search for an optimal step and a compatible place automatically.
    #[default]
    Auto,
    /// Use the given projection direction (null space of `place`).
    Projection(Vec<i64>),
    /// Use an explicit array (step and place).
    Explicit(SystolicArray),
}

/// Compilation options. [`compile`] is given its array and reads only
/// the last two.
#[derive(Clone, Debug)]
pub struct Options {
    pub place: PlaceChoice,
    /// Coefficient bound for the schedule search.
    pub step_bound: i64,
    /// The problem-size sample used when validating the source program's
    /// bound feasibility and ranking schedules (at least 1).
    pub sample_size: i64,
    /// Loading & recovery vectors for stationary streams, by stream id
    /// (Sec. 4.2: "a loading & recovery vector must be supplied as part of
    /// the compilation process"). Missing entries default to the first
    /// axis of the process space, `(1, 0, ...)` — the paper's own choice
    /// in both D.1 and E.1.
    pub loading_vectors: Vec<(StreamId, Vec<i64>)>,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            place: PlaceChoice::Auto,
            step_bound: 2,
            sample_size: 4,
            loading_vectors: Vec::new(),
        }
    }
}

impl Options {
    pub fn with_loading_vector(mut self, s: StreamId, v: Vec<i64>) -> Options {
        self.loading_vectors.push((s, v));
        self
    }

    fn loading_vector(&self, s: StreamId, dims: usize) -> Vec<i64> {
        self.loading_vectors
            .iter()
            .find(|(id, _)| *id == s)
            .map(|(_, v)| v.clone())
            .unwrap_or_else(|| {
                let mut v = vec![0; dims];
                v[0] = 1;
                v
            })
    }
}

/// Run the full scheme on a given array: [`systolize`] with that array
/// for [`Options::place`].
pub fn compile(
    program: &SourceProgram,
    array: &SystolicArray,
    options: &Options,
) -> Result<SystolicProgram, CompileError> {
    let mut options = options.clone();
    options.place = PlaceChoice::Explicit(array.clone());
    systolize(program, &options)
}

/// The front door of the scheme, which every front end compiles through:
/// validate the Appendix A envelope (dependence extraction assumes rank
/// r-1 index maps), obtain the array as [`Options::place`] says and
/// check it (Sec. 3.2), derive the plan. The returned plan contains
/// every derived artifact of Secs. 6–7, symbolic in the problem sizes
/// and process coordinates.
pub fn systolize(
    program: &SourceProgram,
    options: &Options,
) -> Result<SystolicProgram, CompileError> {
    let sample = options.sample_size.max(1);
    systolic_ir::validate(program, sample).map_err(CompileError::Source)?;
    let array = match &options.place {
        PlaceChoice::Explicit(a) => Some(a.clone()),
        PlaceChoice::Projection(u) => {
            let step = systolic_synthesis::optimal_step(program, options.step_bound, sample);
            step.map(|s| SystolicArray::new(s, systolic_synthesis::place_from_projection(u)))
        }
        PlaceChoice::Auto => systolic_synthesis::derive_array(program, options.step_bound, sample),
    };
    let array = &array.ok_or(CompileError::NoArray)?;
    array.validate(program).map_err(CompileError::Array)?;

    let r = program.r();
    let dims = r - 1;
    let mut vars = program.vars.clone();
    let coords: Vec<Var> = (0..dims).map(|d| vars.coord(d)).collect();

    // Sec. 7.1: the process space basis.
    let (ps_min, ps_max) = process_space_basis(program, array);

    // Sec. 7.2: increment, first, last, count.
    let increment = derive_increment(array)?;
    let simple_place = is_simple_place(&increment);
    let first = derive_endpoint(program, array, &increment, &coords, Endpoint::First)?;
    let last = derive_endpoint(program, array, &increment, &coords, Endpoint::Last)?;
    let count = derive_count(&first, &last, &increment)?;
    let first = prune_pw(&first, &coords, &ps_min, &ps_max);
    let last = prune_pw(&last, &coords, &ps_min, &ps_max);
    let count = prune_pw(&count, &coords, &ps_min, &ps_max);

    // An arbitrary basic statement in process coordinates (Sec. 7.4 uses
    // one to anchor the element line of each pipe).
    let anchor = first
        .clauses()
        .first()
        .map(|(_, p)| p.clone())
        .expect("first always has at least one face");

    // Secs. 7.3-7.6 per stream.
    let mut streams = Vec::with_capacity(program.streams.len());
    for s in program.stream_ids() {
        let flow = array.flow(program, s);
        let stationary = point::rat_is_zero(&flow);
        let (kind, inc_s) = if stationary {
            let v = options.loading_vector(s, dims);
            if v.len() != dims || point::is_zero(&v) || !point::nb(&v) {
                return Err(CompileError::BadLoadingVector {
                    stream: s.0,
                    vector: v,
                });
            }
            // The loading & recovery vector is a *process-space*
            // direction; the element increment it induces lives in the
            // variable space: increment_s = M . delta where
            // place . delta = v (Sec. 7.4 "plays the role of
            // increment_s" — identical to v in the paper's examples
            // because their index maps align the two spaces, distinct in
            // general).
            let inc_s = crate::iocomm::loading_increment(program, array, &increment, s, &v)
                .ok_or_else(|| CompileError::BadLoadingVector {
                    stream: s.0,
                    vector: v.clone(),
                })?;
            (StreamKind::Stationary { loading_vector: v }, inc_s)
        } else {
            let inc_s = stream_increment(program, s, &increment);
            if point::is_zero(&inc_s) {
                return Err(CompileError::BadStreamIncrement {
                    stream: s.0,
                    increment_s: inc_s,
                });
            }
            (StreamKind::Moving, inc_s)
        };

        let io_fl = match &kind {
            StreamKind::Moving => io_flow(&flow, None),
            StreamKind::Stationary { loading_vector } => io_flow(&flow, Some(loading_vector)),
        };
        let denominator = point::neighbour_multiple(&io_fl).ok_or_else(|| {
            CompileError::Array(systolic_synthesis::ArrayError::FlowNotNeighbouring {
                stream: s.0,
                flow: io_fl.clone(),
            })
        })?;
        let unit_flow: Vec<i64> = io_fl
            .iter()
            .map(|q| {
                (*q * systolic_math::Rational::int(denominator))
                    .to_integer()
                    .unwrap()
            })
            .collect();

        let first_s = derive_pipe_end(program, s, &anchor, &inc_s, PipeEnd::FirstS)?;
        let last_s = derive_pipe_end(program, s, &anchor, &inc_s, PipeEnd::LastS)?;
        let soak = derive_soak(program, s, &first, &first_s, &inc_s)?;
        let drain = derive_drain(program, s, &last, &last_s, &inc_s)?;
        let pass_total = derive_pass_total(s, &first_s, &last_s, &inc_s)?;
        let io_dims = io_layout(&io_fl);
        // Drop guard conjuncts implied by PS membership (paper's
        // presentation-level simplification; also semantically inert).
        let first_s = prune_pw(&first_s, &coords, &ps_min, &ps_max);
        let last_s = prune_pw(&last_s, &coords, &ps_min, &ps_max);
        let soak = prune_pw(&soak, &coords, &ps_min, &ps_max);
        let drain = prune_pw(&drain, &coords, &ps_min, &ps_max);
        let pass_total = prune_pw(&pass_total, &coords, &ps_min, &ps_max);

        streams.push(StreamPlan {
            id: s,
            name: program.stream_name(s).to_string(),
            kind,
            flow,
            io_flow: io_fl,
            denominator,
            unit_flow,
            increment_s: inc_s,
            first_s,
            last_s,
            soak,
            drain,
            pass_total,
            io_dims,
        });
    }

    let mut plan = SystolicProgram {
        vars,
        coords,
        r,
        ps_min,
        ps_max,
        increment,
        simple_place,
        first,
        last,
        count,
        streams,
        source: program.clone(),
        array: array.clone(),
        fingerprint: 0,
    };
    let mut h = std::collections::hash_map::DefaultHasher::new();
    format!("{plan:?}").hash(&mut h);
    plan.fingerprint = h.finish();
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use systolic_math::Env;
    use systolic_synthesis::placement::paper;

    fn size_env(plan: &SystolicProgram, n: i64) -> Env {
        let mut env = Env::new();
        for &s in &plan.source.sizes {
            env.bind(s, n);
        }
        env
    }

    #[test]
    fn all_paper_designs_compile() {
        for (label, p, a) in paper::all() {
            compile(&p, &a, &Options::default()).unwrap_or_else(|e| panic!("{label}: {e}"));
        }
    }

    #[test]
    fn the_fingerprint_names_the_plan_and_nothing_else() {
        let fp = |(p, a): (SourceProgram, SystolicArray)| {
            compile(&p, &a, &Options::default()).unwrap().fingerprint
        };
        // A function of the derived plan: recompiling reproduces it,
        // another design (here: another array for the same program)
        // moves it.
        assert_eq!(fp(paper::polyprod_d1()), fp(paper::polyprod_d1()));
        assert_ne!(fp(paper::polyprod_d1()), fp(paper::polyprod_d2()));
        // It does not depend on itself: the rendering it hashes has the
        // field at zero, so hashing a finished plan the same way agrees.
        let (p, a) = paper::matmul_e1();
        let plan = compile(&p, &a, &Options::default()).unwrap();
        let mut blank = plan.clone();
        assert_eq!(blank.fingerprint, plan.fingerprint, "Clone carries it");
        blank.fingerprint = 0;
        let mut h = std::collections::hash_map::DefaultHasher::new();
        format!("{blank:?}").hash(&mut h);
        assert_eq!(h.finish(), plan.fingerprint);
    }

    #[test]
    fn d1_stream_classification() {
        let (p, a) = paper::polyprod_d1();
        let plan = compile(&p, &a, &Options::default()).unwrap();
        assert!(
            matches!(plan.streams[0].kind, StreamKind::Stationary { .. }),
            "a"
        );
        assert_eq!(plan.streams[1].kind, StreamKind::Moving, "b");
        assert_eq!(plan.streams[1].denominator, 2, "flow 1/2 needs one buffer");
        assert_eq!(plan.streams[2].denominator, 1);
        assert_eq!(plan.streams[1].unit_flow, vec![1]);
        assert!(plan.simple_place);
    }

    #[test]
    fn e2_stream_plans() {
        let (p, a) = paper::matmul_e2();
        let plan = compile(&p, &a, &Options::default()).unwrap();
        assert!(!plan.simple_place);
        for sp in &plan.streams {
            assert_eq!(sp.kind, StreamKind::Moving);
            assert_eq!(sp.denominator, 1);
        }
        assert_eq!(plan.streams[2].unit_flow, vec![-1, -1]);
        // c has two io dims (both flow components non-zero), deduped.
        assert_eq!(plan.streams[2].io_dims.len(), 2);
        assert_eq!(plan.streams[2].io_dims[1].exclude_dims, vec![0]);
    }

    #[test]
    fn chord_enumeration_round_trip() {
        let (p, a) = paper::matmul_e2();
        let plan = compile(&p, &a, &Options::default()).unwrap();
        let env = size_env(&plan, 2);
        // Union of all chords = the index space; chords are disjoint.
        let mut seen = std::collections::HashSet::new();
        for y in plan.ps_points(&env) {
            for x in plan.chord_at(&env, &y) {
                assert_eq!(plan.array.place_at(&x), y, "chord point projects home");
                assert!(seen.insert(x));
            }
        }
        assert_eq!(seen.len(), 27, "3^3 statements at n = 2");
    }

    #[test]
    fn null_processes_exist_only_off_the_diagonal_band() {
        let (p, a) = paper::matmul_e2();
        let plan = compile(&p, &a, &Options::default()).unwrap();
        let env = size_env(&plan, 2);
        for y in plan.ps_points(&env) {
            let in_cs = plan.in_cs(&env, &y);
            let band = (y[0] - y[1]).abs() <= 2;
            assert_eq!(in_cs, band, "at {y:?}");
        }
    }

    #[test]
    fn loading_vector_override() {
        let (p, a) = paper::matmul_e1();
        let opts = Options::default().with_loading_vector(StreamId(2), vec![0, 1]);
        let plan = compile(&p, &a, &opts).unwrap();
        match &plan.streams[2].kind {
            StreamKind::Stationary { loading_vector } => {
                assert_eq!(loading_vector, &vec![0, 1]);
            }
            _ => panic!("c must be stationary"),
        }
        assert_eq!(plan.streams[2].increment_s, vec![0, 1]);
    }

    #[test]
    fn bad_loading_vector_rejected() {
        let (p, a) = paper::matmul_e1();
        let opts = Options::default().with_loading_vector(StreamId(2), vec![0, 0]);
        assert!(matches!(
            compile(&p, &a, &opts),
            Err(CompileError::BadLoadingVector { stream: 2, .. })
        ));
        let opts = Options::default().with_loading_vector(StreamId(2), vec![2, 0]);
        assert!(matches!(
            compile(&p, &a, &opts),
            Err(CompileError::BadLoadingVector { stream: 2, .. })
        ));
    }

    #[test]
    fn invalid_array_reported() {
        let (p, _) = paper::polyprod_d1();
        let bad = SystolicArray::new(vec![2, 1], systolic_math::Matrix::from_rows(&[vec![1, -1]]));
        assert!(matches!(
            compile(&p, &bad, &Options::default()),
            Err(CompileError::Array(_))
        ));
    }

    #[test]
    fn invalid_source_reported() {
        let (mut p, a) = paper::polyprod_d1();
        p.loops[0].step = 3;
        assert!(matches!(
            compile(&p, &a, &Options::default()),
            Err(CompileError::Source(_))
        ));
    }
}
