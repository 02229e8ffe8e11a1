//! Offline shim for the `criterion` API subset used by this workspace.
//!
//! The build environment has no network access to crates.io, so the
//! workspace patches `criterion` to this crate (see `[patch.crates-io]`
//! in the root `Cargo.toml`). Benchmarks compile and run unchanged:
//! each `bench_function` warms up, auto-scales an iteration count so a
//! sample is long enough to time, collects bounded samples, and prints
//! best/mean ns per iteration. There are no statistical reports, plots,
//! or baselines — the point is that bench code keeps compiling and gives
//! a usable smoke timing, while real runs use `BENCH_simulate.json`.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

// Stop sampling a benchmark once this much measurement time is spent,
// even if fewer than `sample_size` samples were taken: `cargo bench`
// in CI must stay fast.
const MAX_TOTAL_PER_BENCH: Duration = Duration::from_millis(300);
const TARGET_SAMPLE_TIME: Duration = Duration::from_micros(500);
const MAX_SAMPLES: usize = 30;

pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 100 }
    }
}

impl Criterion {
    /// Builder-style, matching `Criterion::default().sample_size(20)`.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n;
        self
    }

    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let sample_size = self.sample_size;
        BenchmarkGroup {
            _criterion: self,
            name: name.into(),
            sample_size,
        }
    }

    pub fn bench_function<F>(&mut self, id: impl Into<String>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_benchmark(&id.into(), self.sample_size, f);
        self
    }
}

pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n;
        self
    }

    pub fn bench_function<F>(&mut self, id: impl std::fmt::Display, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_benchmark(&format!("{}/{}", self.name, id), self.sample_size, f);
        self
    }

    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        run_benchmark(&format!("{}/{}", self.name, id), self.sample_size, |b| {
            f(b, input)
        });
        self
    }

    pub fn finish(self) {}
}

pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    pub fn new(name: impl Into<String>, param: impl std::fmt::Display) -> Self {
        BenchmarkId {
            id: format!("{}/{}", name.into(), param),
        }
    }

    pub fn from_parameter(param: impl std::fmt::Display) -> Self {
        BenchmarkId {
            id: param.to_string(),
        }
    }
}

impl std::fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.id)
    }
}

/// How to amortize setup cost in `iter_batched`. The shim runs one batch
/// per sample regardless, so the variants only exist for API parity.
#[derive(Clone, Copy, Debug)]
pub enum BatchSize {
    SmallInput,
    LargeInput,
    PerIteration,
}

pub struct Bencher {
    sample_size: usize,
    samples: Vec<f64>, // ns per iteration, one entry per sample
}

impl Bencher {
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        black_box(routine()); // warm-up, also primes caches/allocs
                              // Scale iterations-per-sample so one sample is long enough for
                              // the clock to resolve even for nanosecond routines.
        let t0 = Instant::now();
        black_box(routine());
        let once = t0.elapsed().max(Duration::from_nanos(1));
        let iters = (TARGET_SAMPLE_TIME.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as u64;

        let mut total = Duration::ZERO;
        while self.samples.len() < self.sample_size.min(MAX_SAMPLES) && total < MAX_TOTAL_PER_BENCH
        {
            let t0 = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            let dt = t0.elapsed();
            total += dt;
            self.samples.push(dt.as_nanos() as f64 / iters as f64);
        }
    }

    pub fn iter_batched<I, O, S, F>(&mut self, mut setup: S, mut routine: F, _size: BatchSize)
    where
        S: FnMut() -> I,
        F: FnMut(I) -> O,
    {
        black_box(routine(setup())); // warm-up
        let mut total = Duration::ZERO;
        while self.samples.len() < self.sample_size.min(MAX_SAMPLES) && total < MAX_TOTAL_PER_BENCH
        {
            let input = setup();
            let t0 = Instant::now();
            black_box(routine(input));
            let dt = t0.elapsed();
            total += dt;
            self.samples.push(dt.as_nanos() as f64);
        }
    }
}

fn run_benchmark<F: FnMut(&mut Bencher)>(id: &str, sample_size: usize, mut f: F) {
    let mut bencher = Bencher {
        sample_size,
        samples: Vec::new(),
    };
    f(&mut bencher);
    if bencher.samples.is_empty() {
        println!("{id:<40} (no samples)");
        return;
    }
    let best = bencher
        .samples
        .iter()
        .cloned()
        .fold(f64::INFINITY, f64::min);
    let mean = bencher.samples.iter().sum::<f64>() / bencher.samples.len() as f64;
    println!(
        "{id:<40} best {best:>12.1} ns/iter  mean {mean:>12.1} ns/iter  ({} samples)",
        bencher.samples.len()
    );
}

#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group! {
            name = $name;
            config = <$crate::Criterion as ::core::default::Default>::default();
            targets = $($target),+
        }
    };
}

#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            // `cargo bench` passes flags like `--bench`/`--quick`; the
            // shim has no tunables, so arguments are ignored.
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_collects_samples() {
        let mut c = Criterion::default().sample_size(5);
        c.bench_function("smoke", |b| b.iter(|| black_box(2u64) + 2));
        let mut g = c.benchmark_group("grp");
        g.sample_size(5);
        g.bench_with_input(BenchmarkId::new("sq", 4), &4u64, |b, &n| {
            b.iter(|| black_box(n) * n)
        });
        g.bench_function("batched", |b| {
            b.iter_batched(|| vec![1u8; 64], |v| v.len(), BatchSize::SmallInput)
        });
        g.finish();
    }
}
