//! `solve_paper` and `solve_large`: library solves timed as per-solve
//! minima over round-robin passes.
//!
//! Every solve is a pure function of (query, method, seed, unit budget),
//! so its minimum over many interleaved repetitions estimates its time on
//! a quiet host. Each pass also re-runs the set-up (JSON decode and lower
//! bound over the whole set) once.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use ljqo::bound::{bound_report, BoundReport};
use ljqo::{try_optimize, try_optimize_bushy, Method, OptimizerConfig};
use ljqo_catalog::Query;
use ljqo_cli::QueryFile;
use ljqo_cost::{BudgetSchedule, MemoryCostModel};
use ljqo_workload::{generate_query, Benchmark};

use crate::trace::Tracer;
use crate::util::{derive, geomean, mean, median, percentile};
use crate::{E2e, Metric};

/// Fewest round-robin passes, whatever `--seconds` says.
const MIN_PASSES: usize = 15;
/// Fewest set-up repetitions; more run while set-up has taken under
/// `SETUP_SHARE` of `--seconds`.
pub const MIN_SETUPS: usize = 3;
const SETUP_SHARE: f64 = 0.2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveKind {
    /// `Benchmark::Default` at N ∈ {10..50}, the paper's τ = 9 budget.
    Paper,
    /// `Benchmark::Default` at 256, 512 and 1000 relations, one capped
    /// budget for every size.
    Large,
}

/// One timed solve.
#[derive(Debug, Clone, Copy)]
pub struct Job {
    pub query: usize,
    pub method: Method,
    pub bushy: bool,
    pub config: OptimizerConfig,
}

/// The generated inputs of a solve workload.
pub struct SolveSet {
    first_of_size: Vec<usize>,
    /// Each query as the JSON text the set-up decodes.
    pub texts: Vec<String>,
    pub queries: Vec<Query>,
    pub jobs: Vec<Job>,
}

impl SolveKind {
    /// (join count, queries of that size). One 1000-relation query, as
    /// its JSON decode alone takes seconds.
    fn sizes(self) -> &'static [(usize, usize)] {
        match self {
            SolveKind::Paper => &[(10, 3), (20, 3), (30, 3), (40, 3), (50, 3)],
            // 255/511/999 joins = 256/512/1000 relations; 256 relations is
            // the bushy arena's capacity, so tree moves stay measurable.
            SolveKind::Large => &[(255, 2), (511, 2), (999, 1)],
        }
    }

    /// Every configuration a solve in this workload runs under (before
    /// the per-job seed).
    pub fn base_config(self, method: Method) -> OptimizerConfig {
        match self {
            SolveKind::Paper => OptimizerConfig::new(method),
            // τ·8²·κ = 2 880 units whatever N: per-unit search cost at
            // large N without an N-dependent budget.
            SolveKind::Large => {
                OptimizerConfig::new(method).with_schedule(BudgetSchedule::Capped { threshold: 8 })
            }
        }
    }

    fn methods(self, n_joins: usize) -> Vec<(Method, bool)> {
        match self {
            SolveKind::Paper => {
                let mut m = vec![
                    (Method::Iai, false),
                    (Method::Kbi, false),
                    (Method::Sa, false),
                ];
                if n_joins <= 30 {
                    m.push((Method::BushyIi, true));
                }
                m
            }
            SolveKind::Large => vec![(Method::Ii, false), (Method::Sa, false)],
        }
    }
}

impl SolveSet {
    /// The first query of each size, for the traced run's drills.
    pub fn drill_queries(&self) -> Vec<Query> {
        self.first_of_size
            .iter()
            .map(|&i| self.queries[i].clone())
            .collect()
    }

    pub fn generate(kind: SolveKind, seed: u64) -> SolveSet {
        let spec = Benchmark::Default.spec();
        let mut queries = Vec::new();
        let mut jobs = Vec::new();
        let mut first_of_size = Vec::new();
        for &(n, count) in kind.sizes() {
            first_of_size.push(queries.len());
            for k in 0..count {
                let q = generate_query(
                    &spec,
                    n,
                    derive(seed, 1 << 40 | (n as u64) << 16 | k as u64),
                );
                for (method, bushy) in kind.methods(n) {
                    let solve_seed = derive(seed, 2 << 40 | jobs.len() as u64);
                    jobs.push(Job {
                        query: queries.len(),
                        method,
                        bushy,
                        config: kind.base_config(method).with_seed(solve_seed),
                    });
                }
                queries.push(q);
            }
        }
        let texts = queries
            .iter()
            .map(|q| QueryFile::from_query(q).to_json().to_string_compact())
            .collect();
        SolveSet {
            first_of_size,
            texts,
            queries,
            jobs,
        }
    }
}

/// Decode every query text and compute its lower bounds: the set-up a
/// caller pays before planning the set.
fn setup(
    set: &SolveSet,
    model: &MemoryCostModel,
    tracer: &mut Tracer,
) -> Result<Vec<BoundReport>, String> {
    let mut bounds = Vec::with_capacity(set.texts.len());
    for (i, text) in set.texts.iter().enumerate() {
        let q = tracer
            .time("json.decode", i as u64, || {
                QueryFile::from_json(text).and_then(QueryFile::into_query)
            })
            .map_err(|e| format!("query {i} does not decode: {e}"))?;
        if q.n_relations() != set.queries[i].n_relations() {
            return Err(format!("query {i} decodes to a different catalog"));
        }
        bounds.push(tracer.time("core.bound", i as u64, || bound_report(&q, model)));
    }
    Ok(bounds)
}

/// A solve's answer, linear or bushy.
enum Answer {
    Linear(ljqo::Optimized),
    Bushy(ljqo::BushyOptimized),
}

impl Answer {
    fn cost(&self) -> f64 {
        match self {
            Answer::Linear(r) => r.cost,
            Answer::Bushy(r) => r.cost,
        }
    }

    fn check(&self, q: &Query, model: &MemoryCostModel) -> Result<(), String> {
        match self {
            Answer::Linear(r) => crate::check::optimized(q, model, r),
            Answer::Bushy(r) => crate::check::bushy(q, model, r),
        }
    }
}

/// Run one solve (the timed call).
fn solve(set: &SolveSet, job: &Job, model: &MemoryCostModel) -> Result<Answer, String> {
    let q = &set.queries[job.query];
    let r = if job.bushy {
        try_optimize_bushy(q, model, &job.config).map(Answer::Bushy)
    } else {
        try_optimize(q, model, &job.config).map(Answer::Linear)
    };
    r.map_err(|e| e.to_string())
}

/// Run the workload. `min_setups` is the fewest set-up repetitions.
pub fn run(
    kind: SolveKind,
    seed: u64,
    seconds: f64,
    min_setups: usize,
    tracer: &mut Tracer,
) -> E2e {
    let model = MemoryCostModel::default();
    let set = SolveSet::generate(kind, seed);
    let mut out = E2e::default();
    let n_jobs = set.jobs.len();
    let mut best = vec![f64::INFINITY; n_jobs];
    let mut first_cost: Vec<Option<f64>> = vec![None; n_jobs];
    let mut setup_s = Vec::new();
    let mut bounds = Vec::new();

    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut passes = 0;
    while passes < MIN_PASSES || Instant::now() < deadline {
        tracer.enter("bench.pass", passes as u64);
        if setup_s.len() < min_setups || setup_s.iter().sum::<f64>() < SETUP_SHARE * seconds {
            let t = Instant::now();
            match setup(&set, &model, tracer) {
                Ok(b) => bounds = b,
                Err(e) => {
                    out.fail(e);
                    tracer.exit();
                    break;
                }
            }
            setup_s.push(t.elapsed().as_secs_f64());
        }
        for (j, job) in set.jobs.iter().enumerate() {
            let t = Instant::now();
            let result = solve(&set, job, &model);
            let end = Instant::now();
            tracer.leaf("core.solve", j as u64, t, end);
            best[j] = best[j].min((end - t).as_secs_f64());
            out.attempted += 1;
            // The first pass checks each answer in full; later passes
            // check that the solve repeats bit for bit.
            let checked = result.and_then(|a| match first_cost[j] {
                None => a.check(&set.queries[job.query], &model).map(|()| a.cost()),
                Some(c) if c.to_bits() != a.cost().to_bits() => {
                    Err(format!("not deterministic: {c:e} then {:e}", a.cost()))
                }
                Some(c) => Ok(c),
            });
            match checked {
                Ok(c) => first_cost[j] = Some(c),
                Err(e) => out.fail(format!("solve {j} ({}): {e}", job.method.name())),
            }
        }
        tracer.exit();
        passes += 1;
    }
    if out.failed > 0 || bounds.len() != set.queries.len() {
        return out;
    }

    let ratios: Vec<f64> = set
        .jobs
        .iter()
        .zip(&first_cost)
        .map(|(job, c)| {
            let b = bounds[job.query];
            c.unwrap_or(f64::NAN) / if job.bushy { b.tree } else { b.linear }
        })
        .collect();
    let solve_s: f64 = best.iter().sum();
    // Latency percentiles run over (size, method) groups, each the mean
    // of its queries' per-solve minima: a percentile of single solves
    // would follow whichever query lands at that rank.
    let mut groups: BTreeMap<(usize, &str), Vec<f64>> = BTreeMap::new();
    for (job, &b) in set.jobs.iter().zip(&best) {
        let key = (set.queries[job.query].n_joins(), job.method.name());
        groups.entry(key).or_default().push(b * 1e3);
    }
    let ms: Vec<f64> = groups.values().map(|v| mean(v)).collect();
    out.metrics = vec![
        Metric::new("setup_s", median(&setup_s), "s", setup_s.len()),
        Metric::new("qps", n_jobs as f64 / solve_s, "1/s", n_jobs),
        Metric::new("lat_p50_ms", median(&ms), "ms", ms.len()),
    ];
    out.info = vec![
        Metric::new("lat_p95_ms", percentile(&ms, 95.0), "ms", ms.len()),
        Metric::new("lat_p99_ms", percentile(&ms, 99.0), "ms", ms.len()),
        Metric::new("solve_s", solve_s, "s", passes),
        Metric::new("cost_ratio", geomean(&ratios), "ratio", n_jobs),
    ];
    out.primary = solve_s;
    out.notes.push(format!(
        "{n_jobs} solves over {} queries, each the minimum of {passes} round-robin passes",
        set.queries.len()
    ));
    out
}
