//! The compiled systolic program *plan*: every derived quantity of
//! Secs. 6–7, fully symbolic in the problem-size symbols and process
//! coordinates. The plan is consumed by two back ends: the code generators
//! (`systolic-ast`) render it as a distributed program text; the elaborator
//! (`systolic-interp`) instantiates it at a concrete problem size and
//! executes it on the simulated processor network.

use systolic_ir::{SourceProgram, StreamId};
use systolic_math::{
    affine::{eval_point, AffinePoint},
    Affine, Env, Piecewise, RatPoint, Var, VarTable,
};
use systolic_synthesis::SystolicArray;

/// Whether a stream moves through the array or stays put (Sec. 4.2).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StreamKind {
    Moving,
    /// Stationary, with the user-supplied loading & recovery vector that
    /// "specifies the direction (and the definition) of the input and
    /// output" (Sec. 4.2).
    Stationary {
        loading_vector: Vec<i64>,
    },
}

/// Everything derived for one stream.
#[derive(Clone, Debug)]
pub struct StreamPlan {
    pub id: StreamId,
    /// The indexed variable's name.
    pub name: String,
    pub kind: StreamKind,
    /// `flow.s` (zero vector for stationary streams), length `r-1`.
    pub flow: RatPoint,
    /// The flow used for channel direction: `flow` for moving streams, the
    /// loading & recovery vector for stationary ones.
    pub io_flow: RatPoint,
    /// Smallest `d > 0` with `d * io_flow` integral; `d - 1` internal
    /// buffer processes sit on each incoming edge (Sec. 7.6).
    pub denominator: i64,
    /// `d * io_flow`: the integer neighbour vector the pipe advances by.
    pub unit_flow: Vec<i64>,
    /// `increment_s = M . increment` (Theorem 11), or the loading &
    /// recovery vector for stationary streams. Length `r-1`.
    pub increment_s: Vec<i64>,
    /// First element injected into the pipe (eq. 6), a point of `VS.v`
    /// symbolic in the i/o process coordinates.
    pub first_s: Piecewise<AffinePoint>,
    /// Last element (eq. 7).
    pub last_s: Piecewise<AffinePoint>,
    /// Elements arriving before the first used one (eq. 8). For stationary
    /// streams this is the *recovery* pass count.
    pub soak: Piecewise<Affine>,
    /// Elements arriving after the last used one (eq. 9). For stationary
    /// streams this is the *loading* pass count.
    pub drain: Piecewise<Affine>,
    /// Total pipe length `((last_s - first_s) // increment_s) + 1`
    /// (eq. 10) — what external buffers pass along.
    pub pass_total: Piecewise<Affine>,
    /// The boundary-dimension layout of i/o processes (eq. 5), in
    /// increasing dimension order with duplicates removed.
    pub io_dims: Vec<IoDim>,
}

/// One boundary dimension carrying i/o processes for a stream (eq. 5).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IoDim {
    /// The process-space dimension whose boundaries carry the processes.
    pub dim: usize,
    /// `io_flow.dim > 0`: inputs on the `PS_min` side, outputs on
    /// `PS_max`; reversed otherwise.
    pub input_at_min: bool,
    /// Dimensions with smaller index already claimed their boundary
    /// points; this dimension omits those duplicates (Sec. 7.3).
    pub exclude_dims: Vec<usize>,
}

/// The full compiled plan.
#[derive(Clone, Debug)]
pub struct SystolicProgram {
    /// Symbol table covering problem sizes and process coordinates.
    pub vars: VarTable,
    /// Process-coordinate variables, one per dimension of the process
    /// space (length `r-1`).
    pub coords: Vec<Var>,
    /// The nesting depth of the source program.
    pub r: usize,
    /// Process space basis (Sec. 6.1): the corners of the enclosing box,
    /// symbolic in the problem sizes.
    pub ps_min: AffinePoint,
    pub ps_max: AffinePoint,
    /// The repeater increment (Sec. 7.2.1), components in `{-1, 0, +1}`.
    pub increment: Vec<i64>,
    /// Is the place function *simple* (a single-axis projection,
    /// Sec. 7.2.3)?
    pub simple_place: bool,
    /// `first` / `last` of the computation repeater (Sec. 7.2.2): index
    /// points symbolic in the process coordinates. A process where no
    /// guard holds is a null process.
    pub first: Piecewise<AffinePoint>,
    pub last: Piecewise<AffinePoint>,
    /// `count = ((last - first) // increment) + 1` (eq. 4), piecewise over
    /// the crossed guards.
    pub count: Piecewise<Affine>,
    /// Per-stream plans, indexed by `StreamId`.
    pub streams: Vec<StreamPlan>,
    /// The inputs the plan was compiled from.
    pub source: SourceProgram,
    pub array: SystolicArray,
    /// Content hash of everything above: the `Debug` rendering of the
    /// plan (a pure value — no interior mutability, no addresses — so
    /// equal renderings mean interchangeable plans), taken once by
    /// `compile` with this field still zero. The module cache keys on
    /// it; nothing mutates a plan after `compile`.
    pub fingerprint: u64,
}

impl SystolicProgram {
    pub fn stream(&self, id: StreamId) -> &StreamPlan {
        &self.streams[id.0]
    }

    /// Bind the process coordinates of `y` into an environment that
    /// already binds the problem sizes.
    pub fn bind_coords(&self, env: &mut Env, y: &[i64]) {
        assert_eq!(y.len(), self.coords.len());
        for (&v, &val) in self.coords.iter().zip(y) {
            env.bind(v, val);
        }
    }

    /// The concrete process-space box at a problem size: inclusive
    /// `(min, max)` per dimension.
    pub fn ps_box(&self, env: &Env) -> Vec<(i64, i64)> {
        self.ps_min
            .iter()
            .zip(&self.ps_max)
            .map(|(lo, hi)| (lo.eval_int(env), hi.eval_int(env)))
            .collect()
    }

    /// All process-space points at a problem size, row-major.
    pub fn ps_points(&self, env: &Env) -> Vec<Vec<i64>> {
        systolic_math::point::box_points(&self.ps_box(env))
    }

    /// Evaluate `first` at a process position; `None` for null processes
    /// (points of `PS \ CS`).
    pub fn first_at(&self, env_sizes: &Env, y: &[i64]) -> Option<Vec<i64>> {
        let mut env = env_sizes.clone();
        self.bind_coords(&mut env, y);
        self.first.select(&env).map(|p| eval_point(p, &env))
    }

    /// Evaluate `last` at a process position.
    pub fn last_at(&self, env_sizes: &Env, y: &[i64]) -> Option<Vec<i64>> {
        let mut env = env_sizes.clone();
        self.bind_coords(&mut env, y);
        self.last.select(&env).map(|p| eval_point(p, &env))
    }

    /// Is `y` in the computation space?
    pub fn in_cs(&self, env_sizes: &Env, y: &[i64]) -> bool {
        self.first_at(env_sizes, y).is_some()
    }

    /// The repeater length at `y` (`count`), 0 for null processes.
    pub fn count_at(&self, env_sizes: &Env, y: &[i64]) -> i64 {
        let mut env = env_sizes.clone();
        self.bind_coords(&mut env, y);
        self.count.select(&env).map_or(0, |c| c.eval_int(&env))
    }

    /// The chord of index points process `y` executes, in step order.
    pub fn chord_at(&self, env_sizes: &Env, y: &[i64]) -> Vec<Vec<i64>> {
        let Some(first) = self.first_at(env_sizes, y) else {
            return Vec::new();
        };
        let n = self.count_at(env_sizes, y);
        let mut out = Vec::with_capacity(n.max(0) as usize);
        let mut x = first;
        for _ in 0..n {
            out.push(x.clone());
            x = systolic_math::point::add(&x, &self.increment);
        }
        out
    }

    /// Evaluate a stream's soak / drain / pass counts at `y` (0 when no
    /// clause matches — a process not involved with the stream).
    pub fn stream_count_at(&self, which: &Piecewise<Affine>, env_sizes: &Env, y: &[i64]) -> i64 {
        let mut env = env_sizes.clone();
        self.bind_coords(&mut env, y);
        which.select(&env).map_or(0, |c| c.eval_int(&env))
    }

    /// Evaluate `first_s` / `last_s` at an i/o process position.
    pub fn stream_point_at(
        &self,
        which: &Piecewise<AffinePoint>,
        env_sizes: &Env,
        y: &[i64],
    ) -> Option<Vec<i64>> {
        let mut env = env_sizes.clone();
        self.bind_coords(&mut env, y);
        which.select(&env).map(|p| eval_point(p, &env))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, Options};
    use systolic_synthesis::placement::paper;

    #[test]
    fn ps_points_enumerate_the_box() {
        let (p, a) = paper::matmul_e2();
        let plan = compile(&p, &a, &Options::default()).unwrap();
        let mut env = Env::new();
        env.bind(plan.source.sizes[0], 1);
        let pts = plan.ps_points(&env);
        assert_eq!(pts.len(), 9, "(2n+1)^2 at n = 1");
        assert!(pts.contains(&vec![-1, -1]));
        assert!(pts.contains(&vec![1, 1]));
    }
}
