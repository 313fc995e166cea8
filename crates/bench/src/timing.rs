//! Minimal wall-clock timing harness for the `harness = false` benches.
//!
//! The build runs fully offline, so instead of criterion the benches use
//! this shim: warm up, double the batch size until a batch takes long
//! enough to measure, then report mean ns/iter. Good enough to compare
//! hot paths release-to-release; not a statistics suite.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Time `f` and print one line: `name  <mean> ns/iter (<iters> iters)`.
pub fn bench<R>(name: &str, f: impl FnMut() -> R) {
    bench_ns(name, f);
}

/// As [`bench`](fn@bench), additionally returning the measured mean
/// ns/iter (for benches that persist snapshots, e.g. `hot_path` writing
/// `BENCH_compiled.json`).
pub fn bench_ns<R>(name: &str, mut f: impl FnMut() -> R) -> f64 {
    for _ in 0..3 {
        black_box(f());
    }
    let mut iters: u64 = 1;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let elapsed = start.elapsed();
        if elapsed >= Duration::from_millis(40) || iters >= (1 << 22) {
            let per = elapsed.as_nanos() as f64 / iters as f64;
            println!("{name:<44} {per:>14.0} ns/iter ({iters} iters)");
            return per;
        }
        iters = iters.saturating_mul(2);
    }
}
