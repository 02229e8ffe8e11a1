//! Sequential reference execution of the source program.
//!
//! "Interpreted as a sequential program, if the step is positive, the loop
//! is executed from the left bound to the right bound; if the step is
//! negative, it is executed from the right bound to the left bound"
//! (Sec. 3.1). The systolic program must be observationally equivalent to
//! this execution; every end-to-end experiment compares against it.
//!
//! The walk is an address generator. Index maps are linear and the
//! arrays are row-major, so each stream's position in one flat copy of
//! the arrays it uses is affine in the loop indices: it is computed once
//! at the first point and from then on only added to — by the stream's
//! innermost stride on every iteration of the innermost loop, which runs
//! as a counted loop, and by one constant per outer loop level when that
//! loop steps. Every access is proven in bounds before the first element
//! is written, at the `2^r` vertices of the index space (a linear image
//! of a box lies in a box iff its vertices do), and the flat copy is
//! written back only at the end.
//!
//! The basic statement is compiled once per call into a tree of closures
//! (`Statement`) whose stream, index and constant operands are read in
//! place by the node above them. The walk gathers only the streams whose
//! element the statement can see and scatters only those it writes. The
//! evaluator knows nothing of plans, processes or kernels and shares no
//! code with the system it checks: its compiled statement is held to
//! [`BasicStatement::execute`](crate::expr::BasicStatement::execute),
//! the definition the systolic side's kernel tape is held to as well,
//! and its own reference is the point-by-point walker
//! `tests/common::seq_reference`.

use crate::expr::{BasicStatement, BoolExpr, CmpOp, ScalarExpr, Value};
use crate::host::HostStore;
use crate::program::SourceProgram;
use systolic_math::Env;

/// Execute the program sequentially in place over the host store.
/// Returns the number of basic-statement instances executed. Panics,
/// leaving the store as it was, when a stream's variable is missing from
/// the store or too small for the stream's accesses.
pub fn run(program: &SourceProgram, env: &Env, store: &mut HostStore) -> usize {
    let bounds = program.concrete_bounds(env);
    if bounds.iter().any(|&(lb, rb)| lb > rb) {
        return 0;
    }
    let r = bounds.len();
    let step: Vec<i64> = program.loops.iter().map(|l| l.step).collect();
    // Per loop, in execution order: its first index value and its number
    // of iterations.
    let (first, trips): (Vec<i64>, Vec<i64>) = bounds
        .iter()
        .zip(&step)
        .map(|(&(lb, rb), &st)| (if st > 0 { lb } else { rb }, (rb - lb) / st.abs() + 1))
        .unzip();
    let last: Vec<i64> = (0..r)
        .map(|d| first[d] + (trips[d] - 1) * step[d])
        .collect();
    let n = program.streams.len();
    let body = Statement::compile(&program.body, n);

    // Every array of the store, by (sorted) name, and the flat copy: each
    // array the statement touches, once, from `base[slot]` on. Streams on
    // one variable share a slot, and their elements one place in `flat`,
    // so they alias as they do in the store.
    let mut arrays: Vec<_> = store.arrays_mut().collect();
    let mut flat: Vec<Value> = Vec::new();
    let mut base: Vec<Option<usize>> = vec![None; arrays.len()];
    // Per stream the statement touches: its slot, where its element is in
    // `flat` at the first point, and `advance[d * n + k]`, what that
    // position changes by when loop d steps — wrapping, so a negative
    // change is an addition too. The innermost loop steps after each of
    // its iterations, so its advance is the stream's stride; an outer
    // loop steps once every loop inside it has run its course.
    let mut slot = vec![0; n];
    let mut start = vec![0usize; n];
    let mut advance = vec![0usize; r * n];
    for (k, s) in program.streams.iter().enumerate() {
        let name = &program.variables[s.variable].name;
        let at = arrays
            .binary_search_by(|(n, _)| (*n).cmp(name))
            .unwrap_or_else(|_| panic!("no host array named {name}"));
        let arr = &*arrays[at].1;
        // The bounds proof: `get` for its panic alone, at every vertex.
        for vertex in 0..1usize << r {
            let x: Vec<i64> = (0..r)
                .map(|d| [first[d], last[d]][vertex >> d & 1])
                .collect();
            arr.get(&s.index_map.apply_int(&x));
        }
        if !body.touches(k) {
            continue;
        }
        let origin = *base[at].get_or_insert_with(|| {
            flat.extend_from_slice(arr.raw());
            flat.len() - arr.len()
        });
        // The offset is affine in the loop indices, so one step of loop d
        // moves it by the same `delta` wherever it is taken; the layout
        // itself stays `flat_offset`'s alone.
        let offset = |x: &[i64]| {
            let at = arr.flat_offset(&s.index_map.apply_int(x));
            at.expect("on an edge of the index space, proven in bounds") as i64
        };
        let first_offset = offset(&first);
        let mut rewind = 0;
        for d in (0..r).rev() {
            // A loop of one iteration steps only as the innermost one,
            // past its end: its delta is never taken.
            let mut x = first.clone();
            if trips[d] > 1 {
                x[d] += step[d];
            }
            let delta = offset(&x) - first_offset;
            advance[d * n + k] = (delta - rewind) as usize;
            let steps = if d + 1 == r { trips[d] } else { trips[d] - 1 };
            rewind += steps * delta;
        }
        slot[k] = at;
        start[k] = origin + first_offset as usize;
    }
    let inner = r.saturating_sub(1) * n;
    let accesses = |streams: &[usize]| -> Vec<Access> {
        streams
            .iter()
            .map(|&k| Access {
                local: k,
                at: start[k],
                stride: advance.get(inner + k).copied().unwrap_or(0),
            })
            .collect()
    };
    let mut gathers = accesses(&body.gathered);
    let mut scatters = accesses(&body.written);

    let mut locals: Vec<Value> = vec![0; n];
    let (inner_trips, inner_step) = match r {
        0 => (1, 0),
        _ => (trips[r - 1], step[r - 1]),
    };
    let mut x = first.clone();
    let mut count = 0;
    'walk: loop {
        // The innermost loop, counted.
        for _ in 0..inner_trips {
            for g in &mut gathers {
                locals[g.local] = flat[g.at];
                g.at = g.at.wrapping_add(g.stride);
            }
            body.execute(&mut locals, &x);
            for s in &mut scatters {
                flat[s.at] = locals[s.local];
                s.at = s.at.wrapping_add(s.stride);
            }
            if let Some(xi) = x.last_mut() {
                *xi += inner_step;
            }
        }
        count += inner_trips as usize;
        // Advance the outer loops like an odometer, from the innermost.
        let mut d = r.saturating_sub(1);
        loop {
            if d == 0 {
                break 'walk;
            }
            d -= 1;
            if x[d] != last[d] {
                x[d] += step[d];
                break;
            }
            x[d] = first[d];
        }
        x[r - 1] = first[r - 1];
        for a in gathers.iter_mut().chain(&mut scatters) {
            a.at = a.at.wrapping_add(advance[d * n + a.local]);
        }
    }
    let mut written: Vec<usize> = scatters.iter().map(|s| slot[s.local]).collect();
    written.sort_unstable();
    written.dedup();
    for at in written {
        let b = base[at].expect("a written stream's array is in the flat copy");
        let raw = arrays[at].1.raw_mut();
        raw.copy_from_slice(&flat[b..b + raw.len()]);
    }
    count
}

/// One gather or scatter of the walk: a stream local, and where its
/// element is in the flat copy at the current point.
struct Access {
    local: usize,
    at: usize,
    stride: usize,
}

/// The basic statement compiled for one run: each guarded update's guard
/// and value as a tree of closures, in update order, and which stream
/// locals the walk must gather before an instance and scatter after it.
struct Statement {
    updates: Vec<Update>,
    /// Streams whose gathered element the statement can see: read before
    /// an unguarded update assigns them, or written only under guards
    /// (a disabled update leaves the gathered value to be scattered).
    gathered: Vec<usize>,
    /// Streams some update writes, in the order of their first write —
    /// the scatter order, which decides between aliased streams.
    written: Vec<usize>,
}

struct Update {
    guard: Option<Guard>,
    target: usize,
    value: Node,
}

/// A compiled expression over the stream locals and the index point: a
/// scalar [`Node`] or a [`Guard`].
type Compiled<T> = Box<dyn Fn(&[Value], &[i64]) -> T>;
type Node = Compiled<Value>;
type Guard = Compiled<bool>;

impl Statement {
    fn compile(body: &BasicStatement, n_streams: usize) -> Statement {
        let mut assigned = vec![false; n_streams];
        let mut seen = vec![false; n_streams];
        for u in &body.updates {
            let mut reads = Vec::new();
            if let Some(g) = &u.guard {
                g.collect_streams(&mut reads);
            }
            u.value.collect_streams(&mut reads);
            for s in reads {
                seen[s.0] |= !assigned[s.0];
            }
            assigned[u.target.0] |= u.guard.is_none();
        }
        let written: Vec<usize> = body.streams_written().iter().map(|s| s.0).collect();
        for &k in &written {
            seen[k] |= !assigned[k];
        }
        Statement {
            updates: body
                .updates
                .iter()
                .map(|u| Update {
                    guard: u.guard.as_ref().map(guard),
                    target: u.target.0,
                    value: scalar(&u.value),
                })
                .collect(),
            gathered: (0..n_streams).filter(|&k| seen[k]).collect(),
            written,
        }
    }

    /// Whether the walk must move stream `k`'s offset: it is gathered or
    /// scattered.
    fn touches(&self, k: usize) -> bool {
        self.gathered.contains(&k) || self.written.contains(&k)
    }

    /// One instance, as [`BasicStatement::execute`] runs it.
    fn execute(&self, locals: &mut [Value], x: &[i64]) {
        for u in &self.updates {
            if u.guard.as_ref().is_none_or(|g| g(locals, x)) {
                locals[u.target] = (u.value)(locals, x);
            }
        }
    }
}

/// An operand a node reads in place: a leaf of the expression tree, or
/// the node compiled for a subtree.
trait Read: 'static {
    fn read(&self, locals: &[Value], x: &[i64]) -> Value;
}

struct Local(usize);
struct Index(usize);
struct Const(Value);

impl Read for Local {
    #[inline]
    fn read(&self, locals: &[Value], _: &[i64]) -> Value {
        locals[self.0]
    }
}

impl Read for Index {
    #[inline]
    fn read(&self, _: &[Value], x: &[i64]) -> Value {
        x[self.0]
    }
}

impl Read for Const {
    #[inline]
    fn read(&self, _: &[Value], _: &[i64]) -> Value {
        self.0
    }
}

impl Read for Node {
    #[inline]
    fn read(&self, locals: &[Value], x: &[i64]) -> Value {
        self(locals, x)
    }
}

/// `$body` with `$a` bound to expression `$e` as a [`Read`]: a leaf by
/// its own type, so the closure `$body` builds reads it without a call
/// or a match, and anything else as its compiled [`Node`].
macro_rules! with_operand {
    ($e:expr, |$a:ident| $body:expr) => {
        match $e {
            ScalarExpr::Stream(s) => {
                let $a = Local(s.0);
                $body
            }
            ScalarExpr::Index(d) => {
                let $a = Index(*d);
                $body
            }
            ScalarExpr::Const(c) => {
                let $a = Const(*c);
                $body
            }
            e => {
                let $a = scalar(e);
                $body
            }
        }
    };
}

/// [`ScalarExpr::eval`], compiled: the same arithmetic, wrapping
/// included.
fn scalar(e: &ScalarExpr) -> Node {
    match e {
        ScalarExpr::Add(a, b) => binary(a, b, Value::wrapping_add),
        ScalarExpr::Sub(a, b) => binary(a, b, Value::wrapping_sub),
        ScalarExpr::Mul(a, b) => binary(a, b, Value::wrapping_mul),
        ScalarExpr::Min(a, b) => binary(a, b, Value::min),
        ScalarExpr::Max(a, b) => binary(a, b, Value::max),
        ScalarExpr::Neg(a) => {
            with_operand!(&**a, |a| Box::new(move |l, x| a.read(l, x).wrapping_neg()))
        }
        ScalarExpr::Stream(s) => leaf(Local(s.0)),
        ScalarExpr::Index(d) => leaf(Index(*d)),
        ScalarExpr::Const(c) => leaf(Const(*c)),
    }
}

/// A leaf alone, as a whole update's value.
fn leaf(a: impl Read) -> Node {
    Box::new(move |l, x| a.read(l, x))
}

/// `op` over two operands, each read in place.
fn binary<T: 'static>(
    a: &ScalarExpr,
    b: &ScalarExpr,
    op: impl Fn(Value, Value) -> T + Copy + 'static,
) -> Compiled<T> {
    with_operand!(a, |a| with_operand!(b, |b| Box::new(move |l, x| op(
        a.read(l, x),
        b.read(l, x)
    ))))
}

/// [`BoolExpr::eval`], compiled: `and`/`or` short-circuit as there.
fn guard(g: &BoolExpr) -> Guard {
    match g {
        BoolExpr::Cmp(op, a, b) => match op {
            CmpOp::Eq => binary(a, b, |a, b| a == b),
            CmpOp::Ne => binary(a, b, |a, b| a != b),
            CmpOp::Lt => binary(a, b, |a, b| a < b),
            CmpOp::Le => binary(a, b, |a, b| a <= b),
            CmpOp::Gt => binary(a, b, |a, b| a > b),
            CmpOp::Ge => binary(a, b, |a, b| a >= b),
        },
        BoolExpr::And(p, q) => {
            let (p, q) = (guard(p), guard(q));
            Box::new(move |l, x| p(l, x) && q(l, x))
        }
        BoolExpr::Or(p, q) => {
            let (p, q) = (guard(p), guard(q));
            Box::new(move |l, x| p(l, x) || q(l, x))
        }
        BoolExpr::Not(p) => {
            let p = guard(p);
            Box::new(move |l, x| !p(l, x))
        }
        BoolExpr::True => Box::new(|_, _| true),
    }
}

/// Run on freshly allocated arrays, with the named inputs filled from
/// seeded pseudo-random data; returns the final store. Convenience wrapper
/// used by tests and benchmarks.
pub fn run_random(program: &SourceProgram, env: &Env, inputs: &[&str], seed: u64) -> HostStore {
    let mut store = HostStore::allocate(program, env);
    for (i, name) in inputs.iter().enumerate() {
        store.fill_random(name, seed.wrapping_add(i as u64), -9, 9);
    }
    let mut out = store.clone();
    run(program, env, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gallery;
    use crate::host::HostArray;

    #[test]
    fn polynomial_product_matches_direct_convolution() {
        let p = gallery::polynomial_product();
        let n = 4i64;
        let mut env = Env::new();
        env.bind(p.sizes[0], n);
        let mut store = HostStore::allocate(&p, &env);
        let av: Vec<i64> = vec![1, 2, 3, 4, 5];
        let bv: Vec<i64> = vec![2, -1, 0, 3, 1];
        store.insert("a", HostArray::from_fn(&[(0, n)], |p| av[p[0] as usize]));
        store.insert("b", HostArray::from_fn(&[(0, n)], |p| bv[p[0] as usize]));
        let ops = run(&p, &env, &mut store);
        assert_eq!(ops, 25);
        for k in 0..=2 * n {
            let mut expect = 0;
            for i in 0..=n {
                let j = k - i;
                if (0..=n).contains(&j) {
                    expect += av[i as usize] * bv[j as usize];
                }
            }
            assert_eq!(store.get("c").get(&[k]), expect, "coefficient {k}");
        }
    }

    #[test]
    fn matrix_product_matches_naive() {
        let p = gallery::matrix_product();
        let n = 3i64;
        let mut env = Env::new();
        env.bind(p.sizes[0], n);
        let mut store = HostStore::allocate(&p, &env);
        store.fill_random("a", 1, -4, 4);
        store.fill_random("b", 2, -4, 4);
        let a = store.get("a").clone();
        let b = store.get("b").clone();
        run(&p, &env, &mut store);
        for i in 0..=n {
            for j in 0..=n {
                let mut expect = 0;
                for k in 0..=n {
                    expect += a.get(&[i, k]) * b.get(&[k, j]);
                }
                assert_eq!(store.get("c").get(&[i, j]), expect);
            }
        }
    }

    /// Polynomial product at n = 3 over seeded inputs, with `c` declared
    /// one element short of the last access `c[2n]`.
    fn short_c() -> (SourceProgram, Env, HostStore) {
        let p = gallery::polynomial_product();
        let mut env = Env::new();
        env.bind(p.sizes[0], 3);
        let mut store = HostStore::allocate(&p, &env);
        store.fill_random("a", 1, 1, 9);
        store.fill_random("b", 2, 1, 9);
        store.insert("c", HostArray::zeros(&[(0, 5)]));
        (p, env, store)
    }

    #[test]
    #[should_panic(expected = "index [6] out of bounds [(0, 5)]")]
    fn too_small_variable_panics() {
        let (p, env, mut store) = short_c();
        run(&p, &env, &mut store);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn bounds_panic_leaves_the_store_unmodified() {
        // The bad access is the very last point; every earlier one would
        // have written a non-zero product into `c`.
        let (p, env, mut store) = short_c();
        let before = store.clone();
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run(&p, &env, &mut store);
        }))
        .expect_err("c[6] is out of bounds");
        assert_eq!(store, before, "no element written before the bounds proof");
        std::panic::resume_unwind(panic);
    }

    #[test]
    fn loop_direction_affects_noncommutative_bodies() {
        // s1 := s0 (copy forward): with reversed inner loop the final c
        // differs when the body depends on visit order. Use convolution
        // (commutative) to check it does NOT differ -- a sanity check that
        // direction handling at least runs.
        let mut p = gallery::polynomial_product();
        let mut env = Env::new();
        env.bind(p.sizes[0], 3);
        let fwd = run_random(&p, &env, &["a", "b"], 9);
        p.loops[1].step = -1;
        let bwd = run_random(&p, &env, &["a", "b"], 9);
        assert_eq!(fwd.get("c"), bwd.get("c"));
    }
}
