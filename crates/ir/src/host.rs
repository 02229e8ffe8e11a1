//! The host's view of data (Sec. 4.2): indexed variables living in ordinary
//! arrays. The systolic program's input processes read elements out of the
//! host store and its output processes restore them.

use crate::expr::Value;
use crate::program::SourceProgram;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use systolic_math::Env;

/// A dense integer array with inclusive per-dimension bounds — one indexed
/// variable instantiated at a concrete problem size.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HostArray {
    lb: Vec<i64>,
    extent: Vec<i64>,
    data: Vec<Value>,
}

impl HostArray {
    /// A zero-filled array with the given inclusive bounds.
    pub fn zeros(bounds: &[(i64, i64)]) -> HostArray {
        let lb: Vec<i64> = bounds.iter().map(|&(l, _)| l).collect();
        let extent: Vec<i64> = bounds.iter().map(|&(l, r)| (r - l + 1).max(0)).collect();
        let len = extent.iter().product::<i64>().max(0) as usize;
        HostArray {
            lb,
            extent,
            data: vec![0; len],
        }
    }

    /// Build from a generator over index points.
    pub fn from_fn(bounds: &[(i64, i64)], mut f: impl FnMut(&[i64]) -> Value) -> HostArray {
        let mut a = HostArray::zeros(bounds);
        let HostArray { lb, extent, data } = &mut a;
        walk_points(lb, extent, data.len(), |off, p| data[off] = f(p));
        a
    }

    pub fn dims(&self) -> usize {
        self.lb.len()
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    pub fn bounds(&self) -> Vec<(i64, i64)> {
        self.lb
            .iter()
            .zip(&self.extent)
            .map(|(&l, &e)| (l, l + e - 1))
            .collect()
    }

    pub fn contains(&self, p: &[i64]) -> bool {
        p.len() == self.lb.len()
            && p.iter()
                .zip(self.lb.iter().zip(&self.extent))
                .all(|(&x, (&l, &e))| x >= l && x < l + e)
    }

    /// Row-major position of `p` in [`HostArray::raw`]; `None` when `p`
    /// lies outside the array. A function of the bounds alone, so it
    /// holds in every array of the same shape.
    pub fn flat_offset(&self, p: &[i64]) -> Option<usize> {
        if !self.contains(p) {
            return None;
        }
        let mut off = 0i64;
        for ((&x, &l), &e) in p.iter().zip(&self.lb).zip(&self.extent) {
            off = off * e + (x - l);
        }
        Some(off as usize)
    }

    fn offset(&self, p: &[i64]) -> usize {
        self.flat_offset(p)
            .unwrap_or_else(|| panic!("index {p:?} out of bounds {:?}", self.bounds()))
    }

    pub fn get(&self, p: &[i64]) -> Value {
        self.data[self.offset(p)]
    }

    /// `get` without the bounds panic; `None` when `p` lies outside the
    /// array.
    pub fn checked_get(&self, p: &[i64]) -> Option<Value> {
        self.flat_offset(p).map(|off| self.data[off])
    }

    pub fn set(&mut self, p: &[i64], v: Value) {
        let off = self.offset(p);
        self.data[off] = v;
    }

    /// All index points in row-major order.
    pub fn points(&self) -> Vec<Vec<i64>> {
        let mut out = Vec::with_capacity(self.len());
        walk_points(&self.lb, &self.extent, self.len(), |_, p| {
            out.push(p.to_vec())
        });
        out
    }

    pub fn raw(&self) -> &[Value] {
        &self.data
    }

    pub fn raw_mut(&mut self) -> &mut [Value] {
        &mut self.data
    }
}

/// Visit the `len` index points of an array in row-major order — the
/// order of [`HostArray::raw`] — as (flat offset, point), the point in
/// one reused buffer.
fn walk_points(lb: &[i64], extent: &[i64], len: usize, mut f: impl FnMut(usize, &[i64])) {
    let mut p = lb.to_vec();
    for off in 0..len {
        f(off, &p);
        for d in (0..p.len()).rev() {
            p[d] += 1;
            if p[d] < lb[d] + extent[d] {
                break;
            }
            p[d] = lb[d];
        }
    }
}

/// The complete host memory: one array per indexed variable, by name
/// (kept sorted, so iteration and the fingerprints are deterministic).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HostStore {
    arrays: BTreeMap<String, HostArray>,
}

impl HostStore {
    pub fn new() -> HostStore {
        HostStore::default()
    }

    /// Allocate zero-filled arrays for every variable of a program at the
    /// given problem size.
    pub fn allocate(program: &SourceProgram, env: &Env) -> HostStore {
        let mut store = HostStore::new();
        for v in &program.variables {
            let bounds: Vec<(i64, i64)> = v
                .bounds
                .iter()
                .map(|(lb, rb)| (lb.eval_int(env), rb.eval_int(env)))
                .collect();
            store.insert(&v.name, HostArray::zeros(&bounds));
        }
        store
    }

    pub fn insert(&mut self, name: &str, array: HostArray) {
        self.arrays.insert(name.to_string(), array);
    }

    pub fn get(&self, name: &str) -> &HostArray {
        self.arrays
            .get(name)
            .unwrap_or_else(|| panic!("no host array named {name}"))
    }

    /// `get` without the missing-variable panic.
    pub fn try_get(&self, name: &str) -> Option<&HostArray> {
        self.arrays.get(name)
    }

    pub fn get_mut(&mut self, name: &str) -> &mut HostArray {
        self.arrays
            .get_mut(name)
            .unwrap_or_else(|| panic!("no host array named {name}"))
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.arrays.keys().map(|s| s.as_str())
    }

    /// Every array at once, in name order (what `seq::run` walks).
    pub(crate) fn arrays_mut(&mut self) -> impl Iterator<Item = (&str, &mut HostArray)> {
        self.arrays.iter_mut().map(|(n, a)| (n.as_str(), a))
    }

    /// A content hash of the whole store — names, bounds, and every
    /// value: same data → same fingerprint, any edit → another. Nothing
    /// in the pipeline keys on it (the module cache keys on
    /// [`HostStore::shape_fingerprint`]: values are gathered per run);
    /// it identifies a data set in tests and reports.
    pub fn fingerprint(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for (name, arr) in &self.arrays {
            name.hash(&mut h);
            arr.bounds().hash(&mut h);
            arr.raw().hash(&mut h);
        }
        h.finish()
    }

    /// A hash of the store's *shape* — names and bounds, no values. Two
    /// stores of one shape place every element at the same
    /// [`HostArray::flat_offset`], which is what lets the interpreter's
    /// module cache serve one instantiated module to every data set of a
    /// (program, size) and gather the values per run.
    pub fn shape_fingerprint(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for (name, arr) in &self.arrays {
            name.hash(&mut h);
            arr.lb.hash(&mut h);
            arr.extent.hash(&mut h);
        }
        h.finish()
    }

    /// Fill an array with uniform pseudo-random values from a seeded LCG —
    /// deterministic workloads for the equivalence experiments.
    pub fn fill_random(&mut self, name: &str, seed: u64, lo: Value, hi: Value) {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let span = (hi - lo + 1).max(1) as u64;
        // In `raw()` order, which is the row-major order of `points()`.
        for v in self.get_mut(name).raw_mut() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *v = lo + ((state >> 33) % span) as i64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn array_roundtrip() {
        let mut a = HostArray::zeros(&[(0, 2), (-1, 1)]);
        assert_eq!(a.len(), 9);
        a.set(&[1, 0], 42);
        assert_eq!(a.get(&[1, 0]), 42);
        assert_eq!(a.get(&[0, -1]), 0);
        assert!(a.contains(&[2, 1]));
        assert!(!a.contains(&[3, 0]));
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_panics() {
        let a = HostArray::zeros(&[(0, 1)]);
        a.get(&[2]);
    }

    #[test]
    fn points_cover_all() {
        let a = HostArray::zeros(&[(0, 1), (5, 6)]);
        let pts = a.points();
        assert_eq!(pts, vec![vec![0, 5], vec![0, 6], vec![1, 5], vec![1, 6]]);
    }

    #[test]
    fn from_fn_generator() {
        let a = HostArray::from_fn(&[(0, 2)], |p| p[0] * 10);
        assert_eq!(a.raw(), &[0, 10, 20]);
    }

    #[test]
    fn fills_in_raw_order_equal_a_points_driven_fill() {
        // 3-D, non-zero lower bounds: the fills write `raw_mut()` in
        // place; element by element through `points()`/`set` must give
        // the same array, value for value, per (name, seed).
        let bounds = [(-2, 1), (3, 5), (-1, 0)];
        let gen = |p: &[i64]| p[0] * 100 + p[1] * 10 + p[2];
        let mut by_points = HostArray::zeros(&bounds);
        for p in by_points.points() {
            by_points.set(&p, gen(&p));
        }
        assert_eq!(HostArray::from_fn(&bounds, gen), by_points);

        let (seed, lo, hi) = (11u64, -9, 9);
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        for p in by_points.points() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            by_points.set(&p, lo + ((state >> 33) % 19) as i64);
        }
        let mut store = HostStore::new();
        store.insert("v", HostArray::zeros(&bounds));
        store.fill_random("v", seed, lo, hi);
        assert_eq!(store.get("v"), &by_points);
    }

    #[test]
    fn store_allocation_and_random_fill() {
        use crate::gallery;
        let p = gallery::polynomial_product();
        let mut env = Env::new();
        env.bind(p.sizes[0], 3);
        let mut store = HostStore::allocate(&p, &env);
        assert_eq!(store.get("a").len(), 4);
        assert_eq!(store.get("c").len(), 7);
        store.fill_random("a", 7, -5, 5);
        assert!(store.get("a").raw().iter().all(|&v| (-5..=5).contains(&v)));
        // Deterministic for equal seeds.
        let mut store2 = HostStore::allocate(&p, &env);
        store2.fill_random("a", 7, -5, 5);
        assert_eq!(store.get("a"), store2.get("a"));
    }

    #[test]
    fn fingerprint_tracks_content_not_insertion_order() {
        let mut s1 = HostStore::new();
        s1.insert("a", HostArray::zeros(&[(0, 3)]));
        s1.insert("b", HostArray::zeros(&[(0, 2)]));
        let mut s2 = HostStore::new();
        s2.insert("b", HostArray::zeros(&[(0, 2)]));
        s2.insert("a", HostArray::zeros(&[(0, 3)]));
        assert_eq!(s1.fingerprint(), s2.fingerprint());
        // Any value edit moves the fingerprint.
        let before = s1.fingerprint();
        s1.get_mut("a").set(&[1], 9);
        assert_ne!(before, s1.fingerprint());
        // So does a bounds change at identical data.
        let mut s3 = HostStore::new();
        s3.insert("a", HostArray::zeros(&[(1, 4)]));
        s3.insert("b", HostArray::zeros(&[(0, 2)]));
        assert_ne!(s2.fingerprint(), s3.fingerprint());
        // The shape forgets the values and nothing else.
        assert_eq!(s1.shape_fingerprint(), s2.shape_fingerprint());
        assert_ne!(s2.shape_fingerprint(), s3.shape_fingerprint());
        s3.insert("c", HostArray::zeros(&[(0, 0)]));
        let with_c = s3.shape_fingerprint();
        s3.get_mut("c").set(&[0], 5);
        assert_eq!(with_c, s3.shape_fingerprint());
    }
}
