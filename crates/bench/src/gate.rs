//! The measurements the CI perf gates share: two workloads, strictly
//! interleaved, reduced either to each side's fastest run ([`floors`])
//! or to the median of the per-round ratios ([`paired_overhead`]).

use std::time::Instant;

/// Wall seconds `f` takes; its result is kept from the optimizer.
pub fn timed<T>(f: impl FnOnce() -> T) -> f64 {
    let start = Instant::now();
    std::hint::black_box(f());
    start.elapsed().as_secs_f64()
}

/// The floor (fastest of `rounds` runs) of two workloads that each
/// return their own elapsed seconds. Rounds alternate `a`, `b`, so
/// machine drift hits both sides equally; the minimum is the standard
/// low-noise estimator (variance is one-sided). Both sides run once
/// untimed first — thread spawn, allocator, page cache.
pub fn floors(
    rounds: usize,
    mut a: impl FnMut() -> f64,
    mut b: impl FnMut() -> f64,
) -> (f64, f64) {
    a();
    b();
    let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..rounds {
        best_a = best_a.min(a());
        best_b = best_b.min(b());
    }
    (best_a, best_b)
}

/// The overhead of `a` over `b` — `a / b - 1` — as the median of the
/// per-round ratios, with each side's median seconds beside it. Rounds
/// alternate `a`, `b`, so a ratio compares two runs adjacent in time:
/// the fast and slow phases of a shared host cancel within the pair, and
/// the median ignores the rare run that was preempted — or that had both
/// cores to itself, which is the one a minimum latches on to. On 2 vCPUs
/// a ratio of floors over ~1.5 ms threaded runs strays past ±5 % about
/// one time in six on unchanged code; this stays inside ±2 %. Both sides
/// run once untimed first, as in [`floors`].
pub fn paired_overhead(
    rounds: usize,
    mut a: impl FnMut() -> f64,
    mut b: impl FnMut() -> f64,
) -> (f64, f64, f64) {
    a();
    b();
    let (mut xs, mut ys, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..rounds.max(1) {
        let (x, y) = (a(), b());
        xs.push(x);
        ys.push(y);
        ratios.push(x / y);
    }
    let median = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    (median(&mut xs), median(&mut ys), median(&mut ratios) - 1.0)
}
