//! Sequential reference execution of the source program.
//!
//! "Interpreted as a sequential program, if the step is positive, the loop
//! is executed from the left bound to the right bound; if the step is
//! negative, it is executed from the right bound to the left bound"
//! (Sec. 3.1). The systolic program must be observationally equivalent to
//! this execution; every end-to-end experiment compares against it.
//!
//! The walk is an address generator. Index maps are linear and the
//! arrays are row-major, so each stream's position in
//! [`HostArray::raw`](crate::host::HostArray::raw) is affine in the loop
//! indices: it is computed once at the first point and from then on
//! only added to, by one constant per loop level. Every access is proven
//! in bounds before the first element is written, at the `2^r` vertices
//! of the index space (a linear image of a box lies in a box iff its
//! vertices do). The evaluator knows nothing of arrays, plans or
//! processes — all it shares with the system it checks is
//! [`BasicStatement::execute`](crate::expr::BasicStatement::execute) —
//! and its own reference is the point-by-point walker
//! `tests/common::seq_reference`.

use crate::expr::Value;
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
    let n_streams = program.streams.len();
    let step: Vec<i64> = program.loops.iter().map(|l| l.step).collect();
    // The first and last value of each loop index, in execution order.
    let (first, last): (Vec<i64>, Vec<i64>) = bounds
        .iter()
        .zip(&step)
        .map(|(&(lb, rb), &st)| {
            let first = if st > 0 { lb } else { rb };
            (first, first + (rb - lb) / st.abs() * st)
        })
        .unzip();

    // Every array of the store, by (sorted) name: streams on one variable
    // share a slot, so they alias as they do in the store.
    let mut arrays: Vec<_> = store.arrays_mut().collect();
    // Per stream: its slot and its flat offset at the current point.
    let mut slot = Vec::with_capacity(n_streams);
    let mut off = Vec::with_capacity(n_streams);
    // `advance[d * n_streams + k]`: what stream k's offset changes by when
    // loop d steps and every loop inside it returns to its first value.
    let mut advance = vec![0i64; r * n_streams];
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
        // The offset is affine in the loop indices, so one step of loop d
        // moves it by the same `delta` wherever it is taken; the layout
        // itself stays `flat_offset`'s alone.
        let offset = |x: &[i64]| {
            let at = arr.flat_offset(&s.index_map.apply_int(x));
            at.expect("on an edge of the index space, proven in bounds") as i64
        };
        let start = offset(&first);
        let mut rewind = 0;
        for d in (0..r).rev() {
            // A loop of one iteration never steps: its delta is unused.
            let mut x = first.clone();
            if first[d] != last[d] {
                x[d] += step[d];
            }
            let delta = offset(&x) - start;
            advance[d * n_streams + k] = delta - rewind;
            rewind += (last[d] - first[d]) / step[d] * delta;
        }
        slot.push(at);
        off.push(start);
    }

    let mut data: Vec<&mut [Value]> = arrays.iter_mut().map(|(_, a)| a.raw_mut()).collect();
    let written: Vec<usize> = program.body.streams_written().iter().map(|s| s.0).collect();
    let mut locals: Vec<Value> = vec![0; n_streams];
    let mut x = first.clone();
    let mut count = 0;
    loop {
        // Gather the element of each stream selected by its index map.
        for k in 0..n_streams {
            locals[k] = data[slot[k]][off[k] as usize];
        }
        program.body.execute(&mut locals, &x);
        // Scatter back the streams the body writes.
        for &k in &written {
            data[slot[k]][off[k] as usize] = locals[k];
        }
        count += 1;
        // Advance like an odometer from the innermost loop.
        let mut d = r;
        loop {
            if d == 0 {
                return count;
            }
            d -= 1;
            if x[d] != last[d] {
                x[d] += step[d];
                break;
            }
            x[d] = first[d];
        }
        for (o, a) in off.iter_mut().zip(&advance[d * n_streams..]) {
            *o += a;
        }
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
