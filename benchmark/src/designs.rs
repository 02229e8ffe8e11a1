//! The designs the workloads run: a compiled plan at a fixed problem
//! size, the seeded host data for it, and the sequential oracle every
//! result is compared with.

use systolic_core::SystolicProgram;
use systolic_ir::{seq, HostStore};
use systolic_math::Env;

/// A compiled plan bound to one problem size.
pub struct Design {
    /// The suffix this design carries in per-layer metric names.
    pub label: &'static str,
    pub plan: SystolicProgram,
    pub sizes: Vec<i64>,
    pub env: Env,
    /// Variables filled from the data seed, `fill_random(name, seed + i)`
    /// in this order — the convention of the CLI and the service, so
    /// their results can be checked against [`Design::oracle`].
    pub inputs: Vec<String>,
}

impl Design {
    fn new(
        label: &'static str,
        plan: SystolicProgram,
        sizes: &[i64],
        inputs: Vec<String>,
    ) -> Design {
        assert_eq!(sizes.len(), plan.source.sizes.len(), "{label}: size arity");
        let mut env = Env::new();
        for (&v, &n) in plan.source.sizes.iter().zip(sizes) {
            env.bind(v, n);
        }
        Design {
            label,
            plan,
            sizes: sizes.to_vec(),
            env,
            inputs,
        }
    }

    /// A gallery design by its service key (`D.1`, `D.2`, `E.1`, `E.2`,
    /// `fir`), compiled exactly as the service compiles it.
    pub fn gallery(label: &'static str, key: &str, sizes: &[i64]) -> Design {
        let r = systolic_service::compile_design(key)
            .unwrap_or_else(|e| panic!("gallery design {key}: {}", e.message));
        Design::new(label, r.plan, sizes, r.default_inputs)
    }

    /// A `.sys` program compiled by the pipeline behind `systolizer run`
    /// (parse, validate, `derive_array(p, 2, 4)`, compile); like the
    /// CLI, every variable is seeded.
    pub fn from_sys(label: &'static str, src: &str, sizes: &[i64]) -> Design {
        let sys = systolizer::systolize_source(src, &Default::default())
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        let inputs = sys
            .source
            .variables
            .iter()
            .map(|v| v.name.clone())
            .collect();
        Design::new(label, sys.plan, sizes, inputs)
    }

    /// Inline `.sys` source compiled exactly as the service compiles a
    /// request's `source` member; `inputs` is the request's input list.
    pub fn inline(label: &'static str, src: &str, sizes: &[i64], inputs: &[&str]) -> Design {
        let r = systolic_service::compile_source(src)
            .unwrap_or_else(|e| panic!("{label}: {}", e.message));
        let inputs = inputs.iter().map(|s| s.to_string()).collect();
        Design::new(label, r.plan, sizes, inputs)
    }

    /// The host store holding this design's input data for `seed`.
    pub fn store(&self, seed: u64) -> HostStore {
        let mut store = HostStore::allocate(&self.plan.source, &self.env);
        for (i, name) in self.inputs.iter().enumerate() {
            store.fill_random(name, seed.wrapping_add(i as u64), -9, 9);
        }
        store
    }

    /// What the sequential evaluator makes of `store`.
    pub fn oracle(&self, store: &HostStore) -> HostStore {
        let mut expected = store.clone();
        seq::run(&self.plan.source, &self.env, &mut expected);
        expected
    }
}

/// Whether `got` holds every variable of `expected` with equal contents.
pub fn stores_equal(got: &HostStore, expected: &HostStore) -> bool {
    expected
        .names()
        .all(|name| got.try_get(name) == Some(expected.get(name)))
}

/// Read a shipped program; the benchmark runs from the repository root.
pub fn read_program(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: cannot read {path}: {e} (run from the repository root)");
        std::process::exit(2);
    })
}

pub fn e1_n24() -> Design {
    Design::gallery("e1_n24", "E.1", &[24])
}

pub fn mmsys_n24() -> Design {
    Design::from_sys("mmsys_n24", &read_program("programs/matmul.sys"), &[24])
}

pub fn e2_n16() -> Design {
    Design::gallery("e2_n16", "E.2", &[16])
}

pub fn d2_n64() -> Design {
    Design::gallery("d2_n64", "D.2", &[64])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_store_is_not_equal_to_the_oracle() {
        let d = Design::gallery("e1_n4", "E.1", &[4]);
        let store = d.store(3);
        let expected = d.oracle(&store);
        assert!(stores_equal(&expected.clone(), &expected));
        let mut corrupted = expected.clone();
        let old = corrupted.get("c").get(&[1, 1]);
        corrupted.get_mut("c").set(&[1, 1], old + 1);
        assert!(!stores_equal(&corrupted, &expected));
        // A store that lacks a variable is wrong, not a panic.
        assert!(!stores_equal(&HostStore::new(), &expected));
        // The input store itself is not the result: the oracle computed
        // something.
        assert!(!stores_equal(&store, &expected));
    }

    #[test]
    fn data_is_a_function_of_the_seed() {
        let d = Design::gallery("d1_n8", "D.1", &[8]);
        assert_eq!(d.store(5).fingerprint(), d.store(5).fingerprint());
        assert_ne!(d.store(5).fingerprint(), d.store(6).fingerprint());
    }
}
