//! Per-layer drills for the traced run.
//!
//! The search layers run inside `try_optimize`, out of the benchmark's
//! reach, so the drill drives them itself through their public APIs on
//! the workload's own queries, seeds and budgets: the incremental
//! evaluator and move generator in an iterative-improvement loop, tree
//! moves, the heuristics, the catalog compiler, the cache and the JSON
//! codec, plus one solve per method. Every call is timed on its own and
//! recorded as a span (calls below a microsecond as batch spans), with
//! the clock's own overhead subtracted.

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use ljqo::bound::bound_report;
use ljqo::{optimize_cached, try_optimize, try_optimize_bushy, Method, OptimizerConfig};
use ljqo_cache::{fingerprint, FingerprintConfig, PlanCache, PlanCacheConfig};
use ljqo_catalog::{BlockMask, CompiledQuery, Query, RelId};
use ljqo_cli::QueryFile;
use ljqo_cost::{Evaluator, MemoryCostModel};
use ljqo_heuristics::{AugmentationHeuristic, KbzHeuristic};
use ljqo_plan::{random_valid_order, MoveGenerator, MoveSet, TreeMoveSet, TreePlan};

use crate::trace::Tracer;
use crate::util::{derive, mean, median};
use crate::Metric;

/// Iterations of the propose → evaluate → commit/rollback loop, and tree
/// proposals, per query.
const LOOP_ITERS: usize = 2000;
/// Repetitions of each sub-millisecond call per query.
const REPS: usize = 5;
/// The methods whose solve time is reported: (method, span, metric).
const METHODS: [(Method, &str, &str); 5] = [
    (Method::Iai, "core.solve.iai", "core.solve_ms.iai"),
    (Method::Kbi, "core.solve.kbi", "core.solve_ms.kbi"),
    (Method::Sa, "core.solve.sa", "core.solve_ms.sa"),
    (
        Method::BushyIi,
        "core.solve.bushyii",
        "core.solve_ms.bushyii",
    ),
    (Method::Ii, "core.solve.ii", "core.solve_ms.ii"),
];

/// Smallest observed cost of one `Instant::now()` pair, in ns.
pub fn clock_overhead_ns() -> f64 {
    let mut best = u128::MAX;
    for _ in 0..1000 {
        let a = Instant::now();
        let b = Instant::now();
        best = best.min((b - a).as_nanos());
    }
    best as f64
}

/// Summed per-call times of one kind of call.
#[derive(Default)]
struct Acc {
    ns: f64,
    calls: u64,
    start: Option<Instant>,
    end: Option<Instant>,
}

impl Acc {
    fn add(&mut self, a: Instant, b: Instant, clock: f64) {
        self.ns += ((b - a).as_nanos() as f64 - clock).max(0.0);
        self.calls += 1;
        self.start.get_or_insert(a);
        self.end = Some(b);
    }

    fn per_call(&self) -> f64 {
        if self.calls == 0 {
            f64::NAN
        } else {
            self.ns / self.calls as f64
        }
    }

    /// Record this query's calls as one batch span and fold them into
    /// `total`.
    fn record(self, tracer: &mut Tracer, name: &'static str, req: u64, total: &mut Acc) {
        if let (Some(s), Some(e)) = (self.start, self.end) {
            tracer.batch(name, req, s, e, self.calls, self.ns as u64);
        }
        total.ns += self.ns;
        total.calls += self.calls;
    }
}

/// Time `f` as leaf spans, `REPS` times or until a second has passed
/// (slow calls such as decoding a 1000-relation query run once); returns
/// the median in µs.
fn timed<T>(tracer: &mut Tracer, name: &'static str, req: u64, mut f: impl FnMut() -> T) -> f64 {
    let mut us = Vec::with_capacity(REPS);
    let begin = Instant::now();
    while us.len() < REPS && (us.is_empty() || begin.elapsed().as_secs_f64() < 1.0) {
        let t = Instant::now();
        std::hint::black_box(f());
        let e = Instant::now();
        tracer.leaf(name, req, t, e);
        us.push((e - t).as_secs_f64() * 1e6);
    }
    median(&us)
}

/// The largest join-graph component.
fn main_component(q: &Query) -> Vec<RelId> {
    q.graph()
        .components()
        .into_iter()
        .max_by_key(Vec::len)
        .expect("a query has at least one relation")
}

/// Drill every layer on `queries` with `config(method)` as the solve
/// configuration; returns the per-layer metrics.
pub fn drill(
    queries: &[Query],
    config: impl Fn(Method) -> OptimizerConfig,
    seed: u64,
    tracer: &mut Tracer,
) -> Vec<Metric> {
    let model = MemoryCostModel::default();
    let clock = clock_overhead_ns();
    let fp_config = FingerprintConfig::default();
    let mut m: Vec<(&'static str, Vec<f64>)> = Vec::new();
    let mut push = |name: &'static str, v: f64| match m.iter_mut().find(|(n, _)| *n == name) {
        Some((_, vs)) => vs.push(v),
        None => m.push((name, vec![v])),
    };
    let (mut propose, mut eval, mut commit, mut rollback, mut tree) = (
        Acc::default(),
        Acc::default(),
        Acc::default(),
        Acc::default(),
        Acc::default(),
    );
    let (mut proposals, mut attempts, mut window) = (0u64, 0u64, 0u64);
    let (mut units, mut evals) = (0u64, 0u64);
    let mut ii_rate: Vec<(usize, f64)> = Vec::new();

    for (qi, q) in queries.iter().enumerate() {
        let req = qi as u64;
        tracer.enter("bench.drill", req);
        let comp = main_component(q);
        let text = QueryFile::from_query(q).to_json().to_string_compact();

        push(
            "catalog.compile_us",
            timed(tracer, "catalog.compile", req, || CompiledQuery::new(q)),
        );
        push(
            "core.bound_us",
            timed(tracer, "core.bound", req, || bound_report(q, &model)),
        );
        push(
            "json.encode_us",
            timed(tracer, "json.encode", req, || {
                QueryFile::from_query(q).to_json().to_string_compact()
            }),
        );
        push(
            "json.parse_us",
            timed(tracer, "json.parse", req, || ljqo_json::parse(&text)),
        );
        push(
            "cache.fingerprint_us",
            timed(tracer, "cache.fingerprint", req, || {
                fingerprint(q, &fp_config)
            }),
        );

        let cache = PlanCache::new(PlanCacheConfig::with_entries(16));
        let cfg = config(Method::Iai).with_seed(derive(seed, 6 << 40 | req));
        let _ = optimize_cached(q, &model, &cfg, &cache, &fp_config);
        push(
            "core.cached_hit_us",
            timed(tracer, "core.cached_hit", req, || {
                optimize_cached(q, &model, &cfg, &cache, &fp_config)
            }),
        );
        let key = fingerprint(q, &fp_config);
        push(
            "cache.lookup_us",
            timed(tracer, "cache.lookup", req, || cache.get(key.fingerprint())),
        );

        let aug = AugmentationHeuristic::default();
        let first = AugmentationHeuristic::first_relations(q, &comp)[0];
        push(
            "heuristics.augment_us",
            timed(tracer, "heuristics.augment", req, || {
                aug.generate(q, &comp, first)
            }),
        );
        let kbz = KbzHeuristic::default();
        push(
            "heuristics.kbz_us",
            timed(tracer, "heuristics.kbz", req, || {
                kbz.generate(&mut Evaluator::new(q, &model), &comp)
            }),
        );
        let start_order = aug.generate(q, &comp, first);
        let mut ev = Evaluator::new(q, &model);
        push(
            "cost.full_eval_us",
            timed(tracer, "cost.full_eval", req, || {
                ev.cost_slice(start_order.rels())
            }),
        );

        // Iterative-improvement loop through the incremental evaluator.
        let mut rng = SmallRng::seed_from_u64(derive(seed, 7 << 40 | req));
        let (mut q_propose, mut q_eval, mut q_commit, mut q_rollback, mut q_tree) = (
            Acc::default(),
            Acc::default(),
            Acc::default(),
            Acc::default(),
            Acc::default(),
        );
        let mut ev = Evaluator::new(q, &model);
        let mut gen = MoveGenerator::with_compiled(Arc::clone(ev.compiled()), MoveSet::default());
        let mut inc = ev.begin_incremental(random_valid_order(q.graph(), &comp, &mut rng));
        let mut current = inc.current_cost();
        let graph = q.graph();
        for _ in 0..LOOP_ITERS {
            let t0 = Instant::now();
            let proposed = gen.propose_counted(graph, inc.order_mut(), &mut rng);
            let t1 = Instant::now();
            let Some((mv, tries)) = proposed else { break };
            q_propose.add(t0, t1, clock);
            proposals += 1;
            attempts += u64::from(tries);
            window += (inc.order().len() - mv.first_touched()) as u64;
            let t2 = Instant::now();
            let c = ev.cost_move(&mut inc, &mv);
            let t3 = Instant::now();
            q_eval.add(t2, t3, clock);
            if c < current {
                current = c;
                inc.commit();
                q_commit.add(t3, Instant::now(), clock);
            } else {
                inc.rollback();
                q_rollback.add(t3, Instant::now(), clock);
            }
        }
        q_propose.record(tracer, "plan.propose", req, &mut propose);
        q_eval.record(tracer, "cost.move_eval", req, &mut eval);
        q_commit.record(tracer, "cost.commit", req, &mut commit);
        q_rollback.record(tracer, "cost.rollback", req, &mut rollback);

        // Tree moves, proposed and undone, on the augmentation order's
        // left-deep tree (within the arena's capacity).
        if q.n_relations() <= BlockMask::CAPACITY && comp.len() >= 2 {
            let compiled = CompiledQuery::new(q);
            let mut plan = TreePlan::from_order(&compiled, start_order.rels());
            let moves = TreeMoveSet::default();
            for _ in 0..LOOP_ITERS {
                let t0 = Instant::now();
                let got = plan.propose(&moves, &mut rng);
                let t1 = Instant::now();
                if got.is_none() {
                    break;
                }
                q_tree.add(t0, t1, clock);
                plan.undo_last();
            }
        }
        q_tree.record(tracer, "plan.tree_propose", req, &mut tree);

        // One solve per method at the workload's budget.
        for (method, span, metric) in METHODS {
            let cfg = config(method).with_seed(derive(seed, 8 << 40 | req));
            let t = Instant::now();
            let (u, e) = if method == Method::BushyIi {
                try_optimize_bushy(q, &model, &cfg).map(|r| (r.units_used, r.n_evals))
            } else {
                try_optimize(q, &model, &cfg).map(|r| (r.units_used, r.n_evals))
            }
            .unwrap_or((0, 0));
            let end = Instant::now();
            tracer.leaf(span, req, t, end);
            let secs = (end - t).as_secs_f64();
            push(metric, secs * 1e3);
            units += u;
            evals += e;
            if method == Method::Ii {
                ii_rate.push((q.n_joins(), u as f64 / secs));
            }
        }
        tracer.exit();
    }

    let mut out: Vec<Metric> = m
        .iter()
        .map(|(name, vs)| Metric::new(name, mean(vs), unit_of(name), vs.len()))
        .collect();
    out.push(Metric::new(
        "cost.move_eval_ns",
        eval.per_call(),
        "ns",
        eval.calls as usize,
    ));
    out.push(Metric::new(
        "cost.commit_ns",
        commit.per_call(),
        "ns",
        commit.calls as usize,
    ));
    out.push(Metric::new(
        "cost.window_len",
        window as f64 / proposals.max(1) as f64,
        "positions",
        proposals as usize,
    ));
    out.push(Metric::new(
        "plan.propose_ns",
        propose.per_call(),
        "ns",
        propose.calls as usize,
    ));
    out.push(Metric::new(
        "plan.valid_frac",
        proposals as f64 / attempts.max(1) as f64,
        "ratio",
        attempts as usize,
    ));
    out.push(Metric::new(
        "plan.tree_propose_ns",
        tree.per_call(),
        "ns",
        tree.calls as usize,
    ));
    out.push(Metric::new(
        "core.evals_per_unit",
        evals as f64 / units.max(1) as f64,
        "ratio",
        queries.len(),
    ));
    // II units per second at the smallest, middle and largest query.
    ii_rate.sort_by_key(|&(n, _)| n);
    for (name, idx) in [
        ("core.units_per_s.small", 0),
        ("core.units_per_s.mid", ii_rate.len() / 2),
        ("core.units_per_s.large", ii_rate.len().saturating_sub(1)),
    ] {
        let (n, rate) = ii_rate.get(idx).copied().unwrap_or((0, f64::NAN));
        out.push(Metric::new(name, rate, "1/s", 1).with_note(format!("N={n}")));
    }
    out
}

fn unit_of(name: &str) -> &'static str {
    if name.ends_with("_us") {
        "us"
    } else if name.contains("_ms") {
        "ms"
    } else {
        "count"
    }
}
