//! Arithmetic every workload shares: order statistics, the timed loop,
//! repeated set-up, and the process's own memory high-water mark.

use std::time::{Duration, Instant};

/// How long a workload measures: wall-clock seconds (what the driver
/// passes) or a fixed operation count (`--smoke`, `--check-determinism`
/// and the traced pass, where counts must repeat exactly).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Budget {
    Seconds(f64),
    Ops(u64),
}

/// One operation's measurement: its latency and whether its result was
/// right. The check itself runs outside the timed interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    pub ns: u64,
    pub ok: bool,
}

/// What one workload run produced, before it is reduced to metrics.
pub struct Outcome {
    pub setup_s: f64,
    /// Every attempted operation, in the order the blocks of
    /// [`quiet_pool`] are cut from.
    pub ops: Vec<Op>,
    /// Operations per block: a whole number of the workload's rotation,
    /// sized to last 100–250 ms.
    pub block_ops: usize,
    /// The workload's latency limit in milliseconds; an operation that
    /// fails, or takes longer, misses it.
    pub limit_ms: f64,
    /// Correct responses per second of schedule span, where operations
    /// overlap and the sum of their latencies is not the time spent
    /// (`service_open`): goodput at the offered rate. `None` takes the
    /// rate from [`reduce`].
    pub span_rate: Option<f64>,
    /// Workload-specific figures for the human-readable report.
    pub notes: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    pub fn attempted(&self) -> u64 {
        self.ops.len() as u64
    }

    pub fn failed(&self) -> u64 {
        self.ops.iter().filter(|o| !o.ok).count() as u64
    }
}

/// Share of `ops` that were correct and within the latency limit.
pub fn slo_met_share(ops: &[Op], limit_ms: f64) -> f64 {
    let met = ops.iter().filter(|o| !slo_missed(o, limit_ms)).count();
    met as f64 / ops.len().max(1) as f64
}

/// Whether an operation missed a latency limit. A failed operation
/// misses any limit.
pub fn slo_missed(op: &Op, limit_ms: f64) -> bool {
    !op.ok || op.ns as f64 / 1e6 > limit_ms
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` percent of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method)
/// returns them — the driver judges run-to-run spread with that
/// function, so the A/A check must use the same arithmetic.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median: the spread the
/// driver compares with a metric's bound.
pub fn spread(values: &[f64]) -> f64 {
    let q = quartiles(values);
    (q[2] - q[0]) / median(values).abs().max(f64::MIN_POSITIVE)
}

/// A block joins the quiet pool when its median latency is within this
/// factor of the reference block's.
pub const QUIET_SLACK: f64 = 1.10;

/// The reference is the block with this rank among the scores, fastest
/// first: the third, so that one or two blocks that were merely lucky
/// (an open-loop block that drew only cheap requests) do not set a level
/// no other block can reach. With fewer blocks it is the slowest.
const QUIET_REFERENCE_RANK: usize = 3;

/// The samples of the run's quiet blocks.
///
/// This host is shared. Its speed switches, every few hundred
/// milliseconds to every few seconds, between an idle level and levels
/// 20–70 % slower, with under 2 % steal: a neighbour on the same core.
/// The share of a run spent at the idle level ranges from a tenth to
/// nine tenths, so a median over the whole run flips between the levels
/// (spread 30 % over twelve 15 s runs of `warm_kernel`), while the idle
/// level itself repeats within 4–6 %. Every timing is therefore taken
/// over the *quiet pool*: the run is cut into contiguous blocks of
/// `block_ops` operations, a block is scored by its median latency, and
/// the blocks within [`QUIET_SLACK`] of the third fastest are pooled. The
/// median is the score because one slow operation in a quiet block is
/// tail latency the program caused and must stay in the pool. A change
/// that slows the program slows its fastest block too; what the pool
/// hides is a slowdown lasting whole blocks that is not the host's. So
/// only `ops_per_s` is gated over the pool: the gated `slo_met_share`
/// counts every attempted operation, and the whole-run percentiles are
/// printed beside the pool's.
pub fn quiet_pool<T: Copy>(samples: &[T], block_ops: usize, ns: impl Fn(&T) -> u64) -> Vec<T> {
    assert!(!samples.is_empty(), "no samples to pool");
    // A trailing partial block is dropped, unless it is all there is.
    let block_ops = block_ops.clamp(1, samples.len());
    let blocks: Vec<&[T]> = samples.chunks_exact(block_ops).collect();
    let scores: Vec<f64> = blocks
        .iter()
        .map(|b| median(&b.iter().map(|s| ns(s) as f64).collect::<Vec<_>>()))
        .collect();
    let mut ranked = scores.clone();
    ranked.sort_by(f64::total_cmp);
    let reference = ranked[QUIET_REFERENCE_RANK.min(ranked.len()) - 1];
    blocks
        .iter()
        .zip(&scores)
        .filter(|(_, &score)| score <= reference * QUIET_SLACK)
        .flat_map(|(b, _)| b.iter().copied())
        .collect()
}

/// The end-to-end figures of a sequence of operations.
#[derive(Clone, Copy, Debug)]
pub struct Reduced {
    /// Correct operations per second of timed-op wall, quiet pool.
    pub ops_per_s: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    /// Share of the pool's operations that were correct and within the
    /// workload's latency limit. Printed, never gated: the pool leaves
    /// out exactly the blocks in which a stall would be counted.
    pub quiet_slo_met_share: f64,
    /// Operations in the quiet pool, the sample count behind the four
    /// figures above.
    pub pooled: usize,
    /// Over every operation of the run.
    pub whole_p50_ms: f64,
    pub whole_p99_ms: f64,
    /// Share of all attempted operations that were correct and within
    /// the limit: the gated figure.
    pub slo_met_share: f64,
}

pub fn reduce(ops: &[Op], block_ops: usize, limit_ms: f64) -> Reduced {
    let sorted_ms = |ops: &[Op]| {
        let mut ms: Vec<f64> = ops.iter().map(|o| o.ns as f64 / 1e6).collect();
        ms.sort_by(f64::total_cmp);
        ms
    };
    let pool = quiet_pool(ops, block_ops, |o| o.ns);
    let ok = pool.iter().filter(|o| o.ok).count() as f64;
    let secs = pool.iter().map(|o| o.ns).sum::<u64>() as f64 / 1e9;
    let (quiet, whole) = (sorted_ms(&pool), sorted_ms(ops));
    Reduced {
        ops_per_s: ok / secs.max(1e-12),
        p50_ms: percentile(&quiet, 50.0),
        p99_ms: percentile(&quiet, 99.0),
        quiet_slo_met_share: slo_met_share(&pool, limit_ms),
        pooled: pool.len(),
        whole_p50_ms: percentile(&whole, 50.0),
        whole_p99_ms: percentile(&whole, 99.0),
        slo_met_share: slo_met_share(ops, limit_ms),
    }
}

/// Whole-run median latency in milliseconds of each slot of a rotation
/// of `labels.len()` kinds of operation, as notes for the report.
pub fn rotation_notes(ops: &[Op], labels: &[&str]) -> Vec<(String, f64, &'static str)> {
    labels
        .iter()
        .enumerate()
        .filter_map(|(k, label)| {
            let ms: Vec<f64> = ops
                .iter()
                .skip(k)
                .step_by(labels.len())
                .map(|o| o.ns as f64 / 1e6)
                .collect();
            (!ms.is_empty()).then(|| (format!("p50_ms.{label}"), median(&ms), "ms"))
        })
        .collect()
}

/// Run `op(i)` for i = 0, 1, … until the budget is spent. `op` times
/// itself, so result checks stay outside the measured interval.
pub fn timed_loop(budget: Budget, mut op: impl FnMut(u64) -> Op) -> Vec<Op> {
    let start = Instant::now();
    let mut ops = Vec::new();
    loop {
        let i = ops.len() as u64;
        match budget {
            Budget::Ops(n) if i >= n => break,
            Budget::Seconds(s) if i > 0 && start.elapsed() >= Duration::from_secs_f64(s) => break,
            _ => {}
        }
        ops.push(op(i));
    }
    ops
}

/// Set-up is repeated at least this often in each of its two windows…
pub const SETUP_REPEATS: usize = 5;
/// …and, in a run that is timed, until the window has lasted this long,
/// so that a 15 ms set-up is sampled over half a second of the host's
/// moods and not over 75 ms.
const SETUP_WINDOW: Duration = Duration::from_millis(500);
const SETUP_REPEATS_MAX: usize = 60;

/// Build the workload's state repeatedly, dropping each before the next
/// is built, and keep the last. Returns the state and the fastest
/// set-up in seconds: the repeats are too few to cut into blocks, and the
/// fastest is their quiet pool (see [`quiet_pool`]); it also leaves out
/// the first repeat's page faults.
fn repeat_setup<S>(budget: Budget, setup: &mut impl FnMut() -> S) -> (S, f64) {
    let least = match budget {
        Budget::Seconds(_) => SETUP_WINDOW,
        // A run of a fixed operation count judges results, not times.
        Budget::Ops(_) => Duration::ZERO,
    };
    let window = Instant::now();
    let mut fastest = f64::INFINITY;
    let mut state = None;
    let mut repeats = 0;
    while repeats < SETUP_REPEATS || (repeats < SETUP_REPEATS_MAX && window.elapsed() < least) {
        drop(state.take());
        let t = Instant::now();
        state = Some(setup());
        fastest = fastest.min(t.elapsed().as_secs_f64());
        repeats += 1;
    }
    (state.expect("SETUP_REPEATS is positive"), fastest)
}

/// Set up, measure, set up again: `setup_s` is the fastest set-up of two
/// windows that lie the whole measurement apart. One window of a few
/// repeats sits inside a single state of the host; medians of ten such
/// runs drifted 41 % between the two sets of an A/A check.
pub fn with_setup<S, R>(
    budget: Budget,
    mut setup: impl FnMut() -> S,
    measure: impl FnOnce(&mut S) -> R,
) -> (R, f64) {
    let (mut state, before) = repeat_setup(budget, &mut setup);
    let result = measure(&mut state);
    drop(state);
    let (_, after) = repeat_setup(budget, &mut setup);
    (result, before.min(after))
}

/// `VmHWM` of this process in megabytes (0 where `/proc` is absent).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    parse_vm_hwm_kb(&status) as f64 / 1024.0
}

fn parse_vm_hwm_kb(status: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
        .unwrap_or(0)
}

/// The smallest non-zero difference between two consecutive clock
/// readings: the resolution below which a span's duration is noise.
pub fn timer_floor_ns() -> f64 {
    let mut floor = u64::MAX;
    for _ in 0..10_000 {
        let a = Instant::now();
        let d = a.elapsed().as_nanos() as u64;
        if d > 0 {
            floor = floor.min(d);
        }
    }
    floor as f64
}

/// SplitMix64: the benchmark's own generator, so that every input is a
/// function of `--seed` alone and no library under test is asked to
/// make its own inputs.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        // 1000 samples leave exactly ten beyond the 99th percentile.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = percentile(&v, 99.0);
        assert_eq!(v.iter().filter(|&&x| x > p99).count(), 10);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 2, 38, 23, 38, 23, 21], n=4)
        assert_eq!(
            quartiles(&[10.0, 2.0, 38.0, 23.0, 38.0, 23.0, 21.0]),
            [10.0, 23.0, 38.0]
        );
        // statistics.quantiles([1, 2], n=4)
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn the_quiet_pool_drops_slow_blocks_and_keeps_a_slow_operation_in_a_quiet_one() {
        let mut ns = vec![1000u64; 1000];
        // Blocks 2 and 3 run on a contended host; block 5 has one stall.
        for n in &mut ns[200..400] {
            *n = 1500;
        }
        ns[555] = 90_000;
        let pool = quiet_pool(&ns, 100, |&n| n);
        assert_eq!(pool.len(), 800);
        assert!(pool.contains(&90_000) && !pool.contains(&1500));
        // Two lucky blocks do not empty the pool: the third fastest
        // block sets the level.
        let mut ns = vec![1000u64; 1000];
        for n in &mut ns[..200] {
            *n = 700;
        }
        assert_eq!(quiet_pool(&ns, 100, |&n| n).len(), 1000);
        // Within the slack, a block stays.
        let mut ns = vec![1000u64; 300];
        for n in &mut ns[100..200] {
            *n = 1099;
        }
        assert_eq!(quiet_pool(&ns, 100, |&n| n).len(), 300);
        // A trailing partial block is dropped; fewer samples than one
        // block are one block.
        assert_eq!(quiet_pool(&[1000u64; 250], 100, |&n| n).len(), 200);
        assert_eq!(quiet_pool(&[1000u64; 7], 100, |&n| n).len(), 7);
    }

    #[test]
    fn reduce_counts_only_correct_operations_and_reports_both_views() {
        let fast = Op {
            ns: 1_000_000,
            ok: true,
        };
        let mut ops = vec![fast; 1000];
        for o in &mut ops[..500] {
            o.ns = 2_000_000;
        }
        // A slow block misses the 1.5 ms limit. The pool does not hold
        // it; the gated share is over the whole run and does.
        let r = reduce(&ops, 100, 1.5);
        assert_eq!((r.slo_met_share, r.quiet_slo_met_share), (0.5, 1.0));
        assert_eq!(r.pooled, 500);
        assert!((r.ops_per_s - 1000.0).abs() < 1e-6);
        assert_eq!((r.p50_ms, r.p99_ms), (1.0, 1.0));
        assert_eq!((r.whole_p50_ms, r.whole_p99_ms), (1.0, 2.0));
        // A failed operation spends its time and earns nothing.
        let mut ops = vec![fast; 1000];
        for o in ops.iter_mut().step_by(2) {
            o.ok = false;
        }
        let r = reduce(&ops, 100, 1.5);
        assert!((r.ops_per_s - 500.0).abs() < 1e-6);
        assert_eq!(r.slo_met_share, 0.5);
    }

    #[test]
    fn failures_and_over_limit_latencies_miss_the_slo() {
        let op = |ns, ok| Op { ns, ok };
        assert!(!slo_missed(&op(20_000_000, true), 20.0));
        assert!(slo_missed(&op(20_000_001, true), 20.0));
        assert!(slo_missed(&op(1, false), 20.0));
        let ops = [op(1, true), op(1, false), op(30_000_000, true), op(2, true)];
        assert_eq!(slo_met_share(&ops, 20.0), 0.5);
    }

    #[test]
    fn timed_loop_honours_both_budgets() {
        let op = |_| Op { ns: 1, ok: true };
        assert_eq!(timed_loop(Budget::Ops(17), op).len(), 17);
        assert_eq!(timed_loop(Budget::Ops(0), op).len(), 0);
        // A time budget always attempts at least one operation.
        assert!(!timed_loop(Budget::Seconds(0.0), op).is_empty());
    }

    #[test]
    fn set_up_runs_in_two_windows_around_the_measurement() {
        let mut built = 0;
        let mut at_measure = 0;
        let (seen, secs) = with_setup(
            Budget::Ops(1),
            || {
                built += 1;
                built
            },
            |state| {
                at_measure = *state;
                *state
            },
        );
        // The measurement sees the last state of the first window, and
        // the second window builds at least as many again.
        assert_eq!(seen, at_measure);
        assert!(at_measure >= SETUP_REPEATS && built >= at_measure + SETUP_REPEATS);
        assert!(secs >= 0.0);
    }

    #[test]
    fn vm_hwm_is_parsed_from_proc_status() {
        assert_eq!(parse_vm_hwm_kb("Name:\tx\nVmHWM:\t   20480 kB\n"), 20480);
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), 0);
    }

    #[test]
    fn the_generator_is_a_function_of_its_seed() {
        let a: Vec<u64> = std::iter::repeat_with({
            let mut g = SplitMix64::new(7);
            move || g.next_u64()
        })
        .take(4)
        .collect();
        let b: Vec<u64> = std::iter::repeat_with({
            let mut g = SplitMix64::new(7);
            move || g.next_u64()
        })
        .take(4)
        .collect();
        assert_eq!(a, b);
        let mut g = SplitMix64::new(8);
        assert_ne!(a[0], g.next_u64());
        for _ in 0..1000 {
            let u = g.unit();
            assert!(u > 0.0 && u <= 1.0);
            assert!(g.below(5) < 5);
        }
    }
}
