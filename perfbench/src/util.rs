//! Statistics, environment facts, and the host-speed probe.

use std::hint::black_box;
use std::time::Instant;

/// SplitMix64 finalizer: derives independent sub-seeds from the run seed.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// An independent sub-seed of `seed` for the stream named `tag`.
pub fn derive(seed: u64, tag: u64) -> u64 {
    mix(mix(seed) ^ tag)
}

/// Nearest-rank percentile (`p` in 0..=100) of an unsorted sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median (nearest-rank p50).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of an empty sample");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Arithmetic mean (0 for an empty sample).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Process peak resident set size in MB (`VmHWM`), or `None` off Linux.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// A fixed CPU kernel owned by the benchmark: 2²² rounds of an integer
/// hash chain plus a 64 KiB table walk. Its best-of-5 wall time, taken
/// before and after a workload, flags runs made in a slow host phase.
/// It never scales or gates any metric.
pub fn probe_ms() -> f64 {
    let mut best = f64::INFINITY;
    let mut table = vec![0u64; 8192];
    for _ in 0..5 {
        let t = Instant::now();
        let mut h = 0x1234_5678_u64;
        for i in 0..(1u64 << 22) {
            h = mix(h ^ i);
            let slot = (h as usize) & (table.len() - 1);
            table[slot] = table[slot].wrapping_add(h);
        }
        black_box(&table);
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Facts about the build and host printed with every run.
pub struct EnvFacts {
    pub commit: String,
    pub rustc: String,
    pub nproc: usize,
    pub cpu: String,
}

impl EnvFacts {
    pub fn collect() -> EnvFacts {
        let run = |cmd: &str, args: &[&str]| -> Option<String> {
            let out = std::process::Command::new(cmd)
                .args(args)
                .stderr(std::process::Stdio::null())
                .output()
                .ok()?;
            out.status
                .success()
                .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        };
        // A benchmark checkout need not be a git repository; fall back
        // to a digest of the sources the benchmark builds.
        let commit = run("git", &["rev-parse", "--short=12", "HEAD"])
            .unwrap_or_else(|| format!("src-{:016x}", source_digest()));
        let rustc = run("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string());
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        EnvFacts {
            commit,
            rustc,
            nproc,
            cpu,
        }
    }
}

/// FNV-1a over the relative paths and bytes of every `.rs` and
/// `Cargo.toml` file under `crates/`, `vendor/` and `perfbench/`,
/// visited in sorted order.
fn source_digest() -> u64 {
    fn walk(dir: &std::path::Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if path.extension().is_some_and(|e| e == "rs")
                || path.file_name().is_some_and(|n| n == "Cargo.toml")
            {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for root in ["crates", "vendor", "perfbench/src"] {
        walk(std::path::Path::new(root), &mut files);
    }
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}
