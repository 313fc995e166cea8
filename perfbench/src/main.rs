//! The LJQO benchmark: one command, four workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <solve_paper|solve_large|serve_warm|serve_churn> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Inputs are generated from `--seed`;
//! every answer is checked. Human-readable lines (an environment block,
//! each metric with its unit and sample count) come first; the last line
//! of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. With `--trace 0` the metrics are the
//! end-to-end ones; with `--trace 1` the workload runs in four alternating
//! untraced and traced quarters of `--seconds`, then per-layer drills, and
//! the metrics are the per-layer ones plus the tracing overhead. Spans are
//! written to `perfbench/out/`. The exit code is non-zero when any answer
//! is wrong. `perfbench/LAYERS.md` documents workloads and metrics.

mod check;
mod layers;
mod serve;
mod solve;
mod trace;
mod util;

use std::process::ExitCode;

use ljqo::Method;
use ljqo_json::Value;

use crate::serve::Served;
use crate::solve::SolveKind;
use crate::trace::Tracer;
use crate::util::{peak_rss_mb, probe_ms, EnvFacts};

/// One reported number.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
    pub note: Option<String>,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
            note: None,
        }
    }

    pub fn with_note(mut self, note: String) -> Metric {
        self.note = Some(note);
        self
    }
}

/// What one workload run measured and checked.
#[derive(Default)]
pub struct E2e {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
    /// The workload's headline time (solve_s or p50 latency), for the
    /// tracing-overhead comparison.
    pub primary: f64,
    pub notes: Vec<String>,
    /// Checked figures printed with the metrics but not in the result
    /// line (deterministic per seed, or redundant with a metric).
    pub info: Vec<Metric>,
    /// Open-loop generator lateness, where there is a schedule.
    pub late_ms_max: Option<f64>,
}

impl E2e {
    /// Count one wrong or missing answer.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        self.fail_msg(msg);
    }

    /// Keep the first few failure messages.
    pub fn fail_msg(&mut self, msg: String) {
        if self.errors.len() < 10 {
            self.errors.push(msg);
        }
    }
}

const WORKLOADS: [&str; 4] = ["solve_paper", "solve_large", "serve_warm", "serve_churn"];

/// Per-layer self time is reported for these layers (crates).
const LAYERS: [&str; 8] = [
    "core",
    "cost",
    "plan",
    "heuristics",
    "catalog",
    "cache",
    "json",
    "server",
];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10.0f64, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(*WORKLOADS.iter().find(|w| **w == value.as_str()).ok_or(
                    format!("unknown workload {value} ({})", WORKLOADS.join("|")),
                )?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => trace = value.parse::<u8>().map_err(|_| bad())? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Run one workload; solve workloads set up at least `min_setups` times.
fn run_workload(
    w: &str,
    seed: u64,
    seconds: f64,
    min_setups: usize,
    tracer: &mut Tracer,
    served: &mut Served,
) -> E2e {
    match w {
        "solve_paper" => solve::run(SolveKind::Paper, seed, seconds, min_setups, tracer),
        "solve_large" => solve::run(SolveKind::Large, seed, seconds, min_setups, tracer),
        "serve_warm" => serve::run_warm(seed, seconds, tracer, served),
        _ => serve::run_churn(seed, seconds, tracer, served),
    }
}

/// The traced run's per-layer metrics: drills on the workload's queries,
/// the serving layer (from the run itself, or a short serve drill for
/// solve workloads), and per-layer self time from the spans.
fn layer_metrics(
    w: &str,
    seed: u64,
    tracer: &mut Tracer,
    served: Served,
) -> Result<Vec<Metric>, String> {
    let (mut out, served, served_queries, tau) = match w {
        "solve_paper" | "solve_large" => {
            let kind = if w == "solve_paper" {
                SolveKind::Paper
            } else {
                SolveKind::Large
            };
            let queries = solve::SolveSet::generate(kind, seed).drill_queries();
            let out = layers::drill(&queries, |m| kind.base_config(m), seed, tracer);
            // The serve drill's budget: the workload's budget at its
            // largest query, as a server τ.
            let largest = queries.iter().map(|q| q.n_joins()).max().unwrap_or(1);
            let cfg = kind.base_config(Method::Iai);
            let tau = cfg.budget_units(largest) as f64 / (cfg.kappa * (largest * largest) as f64);
            // The server decodes each request's JSON, which for 1000
            // relations takes seconds; the drill serves up to 512 and
            // leaves that cost to `json.parse_us`.
            let servable: Vec<_> = queries
                .into_iter()
                .filter(|q| q.n_relations() <= 512)
                .collect();
            let served = serve::drill(&servable, tau, tracer)?;
            (out, served, servable, tau)
        }
        _ => {
            let churn = w == "serve_churn";
            let config = serve::server_opt_config();
            let out = layers::drill(
                &serve::drill_queries(churn, seed),
                |method| ljqo::OptimizerConfig { method, ..config },
                seed,
                tracer,
            );
            (
                out,
                served,
                serve::pool_queries(churn, seed),
                config.time_limit.tau,
            )
        }
    };
    out.extend(serve::serving_metrics(&served, &served_queries, tau));
    let times = tracer.layer_times();
    for layer in LAYERS {
        let t = times.get(layer).copied().unwrap_or_default();
        out.push(Metric::new(
            &format!("{layer}.self_ms"),
            t.self_ns as f64 / 1e6,
            "ms",
            t.spans as usize,
        ));
    }
    Ok(out)
}

fn json_metrics(metrics: &[Metric]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Value::Object(vec![
                        ("value".to_string(), Value::from(m.value)),
                        ("unit".to_string(), Value::from(m.unit)),
                    ]),
                )
            })
            .collect(),
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let env = EnvFacts::collect();
    let probe_before = probe_ms();
    let mut served = Served::default();

    let (mut run, metrics) = if args.trace {
        // Untraced and traced quarters alternate, so a slow host phase is
        // less likely to land on one side only; the overhead compares the
        // best of each. One set-up per quarter: set-up time is an
        // end-to-end figure, not a layer one.
        let quarter = (args.seconds / 4.0).max(1.0);
        let mut tracer = Tracer::new(true);
        let mut traced = E2e::default();
        let (mut best_untraced, mut best_traced) = (f64::INFINITY, f64::INFINITY);
        let (mut attempted, mut failed, mut errors) = (0, 0, Vec::new());
        for i in 0..4 {
            let run = if i % 2 == 0 {
                let r = run_workload(
                    args.workload,
                    args.seed,
                    quarter,
                    1,
                    &mut Tracer::new(false),
                    &mut Served::default(),
                );
                best_untraced = best_untraced.min(r.primary);
                r
            } else {
                served = Served::default();
                let r = run_workload(
                    args.workload,
                    args.seed,
                    quarter,
                    1,
                    &mut tracer,
                    &mut served,
                );
                best_traced = best_traced.min(r.primary);
                r
            };
            attempted += run.attempted;
            failed += run.failed;
            errors.extend(run.errors.iter().cloned());
            traced = run;
        }
        traced.attempted = attempted;
        traced.failed = failed;
        traced.errors = errors;
        let overhead = (best_traced / best_untraced - 1.0) * 100.0;
        let mut metrics = match layer_metrics(args.workload, args.seed, &mut tracer, served) {
            Ok(m) => m,
            Err(e) => {
                traced.fail(format!("serve drill: {e}"));
                Vec::new()
            }
        };
        if let Some(ratio) = traced.info.iter().find(|m| m.name == "cost_ratio") {
            metrics.push(Metric::new(
                "core.cost_ratio",
                ratio.value,
                ratio.unit,
                ratio.samples,
            ));
        }
        metrics.push(
            Metric::new("trace.overhead_pct", overhead, "%", 4).with_note(format!(
                "best traced {best_traced:.6} vs best untraced {best_untraced:.6}"
            )),
        );
        let path = std::path::PathBuf::from(format!(
            "perfbench/out/trace-{}-seed{}.tsv",
            args.workload, args.seed
        ));
        match tracer.write_tsv(&path) {
            Ok(()) => traced
                .notes
                .push(format!("spans written to {}", path.display())),
            Err(e) => traced.notes.push(format!("spans not written: {e}")),
        }
        (traced, metrics)
    } else {
        let mut run = run_workload(
            args.workload,
            args.seed,
            args.seconds,
            solve::MIN_SETUPS,
            &mut Tracer::new(false),
            &mut served,
        );
        let mut metrics = std::mem::take(&mut run.metrics);
        if let Some(rss) = peak_rss_mb() {
            metrics.push(Metric::new("peak_rss_mb", rss, "MB", 1));
        }
        (run, metrics)
    };
    let probe_after = probe_ms();

    run.attempted = run.attempted.max(run.failed).max(1);
    let complete = !metrics.is_empty() && metrics.iter().all(|m| m.value.is_finite());
    let correct = run.failed == 0 && complete;

    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "env: commit {} | {} | nproc {} | cpu {} | env.probe_ms {:.3} before, {:.3} after | clock {} ns",
        env.commit,
        env.rustc,
        env.nproc,
        env.cpu,
        probe_before,
        probe_after,
        layers::clock_overhead_ns()
    );
    if let Some(late) = run.late_ms_max {
        println!("env: gen.late_ms_max {late:.3}");
    }
    for note in &run.notes {
        println!("note: {note}");
    }
    let line = |kind: &str, m: &Metric| {
        let note = m
            .note
            .as_deref()
            .map_or(String::new(), |n| format!("  ({n})"));
        println!(
            "{kind} {:<28} {:>16.6} {:<9} n={}{note}",
            m.name, m.value, m.unit, m.samples
        );
    };
    metrics.iter().for_each(|m| line("metric", m));
    run.info.iter().for_each(|m| line("info  ", m));
    println!(
        "fail_frac {:.6} ({} failed of {} attempted)",
        run.failed as f64 / run.attempted as f64,
        run.failed,
        run.attempted
    );
    for e in &run.errors {
        println!("error: {e}");
    }
    if !complete {
        println!("error: a metric could not be measured");
    }
    let result = Value::Object(vec![
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::from(run.attempted)),
        ("failed".to_string(), Value::from(run.failed)),
        ("metrics".to_string(), json_metrics(&metrics)),
    ]);
    println!("{}", result.to_string_compact());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
