//! The measurement every CI perf gate shares: two workloads, strictly
//! interleaved, each reduced to its fastest run.

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
