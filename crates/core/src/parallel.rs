//! Parallel multi-start, cooperative, and portfolio search — a modern
//! extension.
//!
//! The paper's methods are inherently multi-start (II restarts, the
//! augmentation sweep, SA re-heats); on 1988 hardware they ran
//! sequentially under one clock. On a multicore machine the restarts are
//! embarrassingly parallel: this module fans a budget out over worker
//! threads and keeps the best result. Semantics: a run with `k` workers
//! and budget `B` *allots* at most `B` total units (worker `i` receives
//! `⌊B/k⌋` plus one of the `B mod k` remainder units), so results are
//! comparable to a sequential run at the same budget — the speedup is
//! wall-clock only, exactly like giving the paper's optimizer `k`
//! workstations. As everywhere else, a worker may overrun its share by
//! one indivisible step (one heuristic generation or one move proposal
//! with its validity-check retries).
//!
//! Three orthogonal extensions on top of the plain fan-out:
//!
//! * **Cooperation** ([`Cooperation`]): in [`Cooperation::SharedBest`]
//!   mode every worker publishes its best cost to a lock-free
//!   [`SharedBest`] cell and polls it on the evaluator's amortized
//!   cadence. When a stop threshold is set, the first worker to reach it
//!   winds *every* worker down — the cooperative analog of the paper's
//!   "stop when sufficiently close to the lower bound".
//! * **Portfolio** ([`run_portfolio`] with several methods): workers run
//!   *heterogeneous* methods (the [`PORTFOLIO`] default rotates II, SA,
//!   AGI, and KBZ-seeded II) instead of clones of one method, and the
//!   best survivor wins. Complementary heuristics hedge each other:
//!   augmentation-seeded workers dominate at small budgets, II/SA at
//!   large ones.
//! * **Batching**: [`crate::optimize_batch`] shards many *queries*
//!   across a thread pool with per-query deadlines — throughput-oriented
//!   parallelism one level above this module's latency-oriented kind.
//!
//! # Determinism
//!
//! [`Cooperation::Isolated`] (the default) is bit-deterministic in
//! `(seed, workers)`: worker `i` uses seed `seed ⊕ splitmix(i+1)` and
//! shares nothing, so results do not depend on scheduling.
//! [`Cooperation::SharedBest`] is **timing-dependent** — which worker
//! publishes first, and when others observe it, depends on the OS
//! scheduler — but *quality-monotone*: until a wind-down triggers, every
//! worker's search is unit-for-unit identical to its isolated twin, and
//! a wind-down only fires once the configured quality bar is met. With
//! no stop threshold configured, `SharedBest` returns exactly the
//! isolated result.

use std::panic::{catch_unwind, AssertUnwindSafe};

use ljqo_catalog::{Query, RelId};
use ljqo_cost::{sanitize_cost, CostModel, Deadline, Evaluator, SharedBest};
use ljqo_heuristics::CardFreeHeuristic;
use ljqo_plan::validity::is_valid;
use ljqo_plan::JoinOrder;

use crate::methods::{Method, MethodRunner};

/// How parallel workers interact during the search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Cooperation {
    /// Workers share nothing. Bit-deterministic in `(seed, workers)`.
    #[default]
    Isolated,
    /// Workers publish best costs to a [`SharedBest`] cell and poll it on
    /// the evaluator's amortized cadence; any worker reaching the stop
    /// threshold (see [`ParallelOptions::stop_threshold`]) winds every
    /// worker down early. Timing-dependent but quality-monotone (see the
    /// module docs).
    SharedBest,
}

/// The default heterogeneous portfolio, ordered so small worker counts
/// get the strongest complementary pair first: iterative improvement
/// (the paper's best general technique), simulated annealing, the
/// augmentation-first AGI (the paper's winner at small time limits), and
/// KBZ-seeded II.
pub const PORTFOLIO: [Method; 4] = [Method::Ii, Method::Sa, Method::Agi, Method::Kbi];

/// The robustness portfolio: the uniform [`PORTFOLIO`] with the
/// cardinality-free structural method registered on top. The listed
/// methods are what rotates across workers — identical to the uniform
/// portfolio, so the worker searches are bit-for-bit the same — and
/// [`Method::Cardfree`] enters as a *challenger*: its single structural
/// order is evaluated against the portfolio winner after the workers
/// finish (see [`run_portfolio_robust`]). Keeping the rotation unchanged
/// is what makes the `SharedBest`-style contract provable: the robust
/// run can only replace the winner with something cheaper, never perturb
/// the searches themselves, so at equal budget it is never worse than
/// the uniform portfolio.
pub const ROBUST_PORTFOLIO: [Method; 4] = PORTFOLIO;

/// Options for [`run_portfolio`] (and, via the compatibility wrapper,
/// [`run_parallel`]).
#[derive(Debug, Clone, Copy)]
pub struct ParallelOptions {
    /// Total budget units allotted across all workers.
    pub budget: u64,
    /// Worker threads (clamped to at least 1).
    pub workers: usize,
    /// Base RNG seed; worker `i` derives `seed ⊕ splitmix(i+1)`.
    pub seed: u64,
    /// Worker interaction mode.
    pub cooperation: Cooperation,
    /// Early-stop threshold installed in every worker's evaluator. Under
    /// [`Cooperation::SharedBest`] this is also the global wind-down bar.
    pub stop_threshold: Option<f64>,
    /// Wall-clock deadline installed in every worker's evaluator.
    pub deadline: Option<Deadline>,
}

impl ParallelOptions {
    /// Isolated fan-out with no early stop and no deadline.
    pub fn new(budget: u64, workers: usize, seed: u64) -> Self {
        ParallelOptions {
            budget,
            workers,
            seed,
            cooperation: Cooperation::Isolated,
            stop_threshold: None,
            deadline: None,
        }
    }

    /// Set the cooperation mode.
    #[must_use]
    pub fn with_cooperation(mut self, cooperation: Cooperation) -> Self {
        self.cooperation = cooperation;
        self
    }

    /// Install an early-stop threshold in every worker.
    #[must_use]
    pub fn with_stop_threshold(mut self, threshold: f64) -> Self {
        self.stop_threshold = Some(threshold);
        self
    }

    /// Install a wall-clock deadline in every worker.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// Per-worker accounting of one parallel run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkerReport {
    /// The method this worker ran.
    pub method: Method,
    /// The worker's own best cost (`None` if it was allotted no budget,
    /// produced no state, or panicked).
    pub best_cost: Option<f64>,
    /// Budget units the worker consumed.
    pub units_used: u64,
    /// Plan evaluations the worker performed.
    pub n_evals: u64,
    /// Whether the worker died (panicked) before reporting.
    pub panicked: bool,
}

/// Outcome of a parallel run.
#[derive(Debug, Clone)]
pub struct ParallelResult {
    /// The best order across all workers.
    pub order: JoinOrder,
    /// Its cost.
    pub cost: f64,
    /// The method run by the worker that produced the best order (always
    /// the input method for homogeneous runs; informative under
    /// portfolio mode).
    pub method: Method,
    /// Total budget units consumed across workers.
    pub units_used: u64,
    /// Total evaluations across workers.
    pub n_evals: u64,
    /// Evaluations that went through the incremental (delta) path, summed
    /// across workers.
    pub n_inc_evals: u64,
    /// Workers that died (panicked) before reporting a result. The run
    /// degrades to the survivors' best rather than propagating the panic.
    pub workers_failed: usize,
    /// Whether any worker's wall-clock deadline expired during its search.
    pub deadline_expired: bool,
    /// Final value of the cooperative best-cost cell
    /// (`Some` only under [`Cooperation::SharedBest`]). Never worse than
    /// any worker's own best, including workers that panicked after
    /// publishing.
    pub shared_cost: Option<f64>,
    /// One report per configured worker, in worker order.
    pub per_worker: Vec<WorkerReport>,
}

/// Split `budget` into `workers` shares that sum to exactly `budget`:
/// every worker gets `⌊budget/workers⌋` and the first `budget mod
/// workers` workers get one remainder unit each. When
/// `budget < workers`, trailing workers receive zero (and are not
/// spawned by the runners) — the budget is *never* oversubscribed.
pub fn shard_budget(budget: u64, workers: usize) -> Vec<u64> {
    let workers = workers.max(1);
    let base = budget / workers as u64;
    let remainder = (budget % workers as u64) as usize;
    (0..workers)
        .map(|w| base + u64::from(w < remainder))
        .collect()
}

/// Split `budget` into shares proportional to `weights`, conserving the
/// total exactly: each worker gets `⌊budget·wᵢ/Σw⌋` and the leftover
/// units go one each to the workers with the largest fractional parts
/// (ties toward the lowest index, matching every other tie-break in
/// this module). Non-finite or negative weights are treated as zero; a
/// zero-weight worker receives exactly zero units. When the weights are
/// all equal — or absent, or all zero — the result is **bit-identical**
/// to [`shard_budget`], so the uniform path is unchanged by
/// construction.
pub fn shard_budget_weighted(budget: u64, weights: &[f64]) -> Vec<u64> {
    let sanitized: Vec<f64> = weights
        .iter()
        .map(|&w| if w.is_finite() && w > 0.0 { w } else { 0.0 })
        .collect();
    let total: f64 = sanitized.iter().sum();
    if sanitized.is_empty() || total <= 0.0 {
        return shard_budget(budget, weights.len());
    }
    let first = sanitized[0];
    if sanitized.iter().all(|&w| w == first) {
        return shard_budget(budget, weights.len());
    }
    let mut shares: Vec<u64> = Vec::with_capacity(sanitized.len());
    let mut fracs: Vec<(f64, usize)> = Vec::with_capacity(sanitized.len());
    let mut allotted = 0u64;
    for (i, &w) in sanitized.iter().enumerate() {
        let exact = budget as f64 * (w / total);
        // The `min` guards the (float-rounding) edge where the floors
        // alone would oversubscribe; conservation must be exact.
        let share = (exact.floor() as u64).min(budget - allotted);
        shares.push(share);
        allotted += share;
        fracs.push((exact - exact.floor(), i));
    }
    // Largest fractional part first, lowest index on ties; only
    // positive-weight workers may receive remainder units.
    fracs.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1)));
    let eligible: Vec<usize> = fracs
        .iter()
        .filter(|&&(_, i)| sanitized[i] > 0.0)
        .map(|&(_, i)| i)
        .collect();
    let mut remainder = budget - allotted;
    let mut k = 0usize;
    while remainder > 0 {
        shares[eligible[k % eligible.len()]] += 1;
        remainder -= 1;
        k += 1;
    }
    shares
}

/// Run `method` with `workers` independent deterministic searches over
/// `component`, splitting `budget` exactly (see [`shard_budget`]), and
/// return the best result. Compatibility wrapper over [`run_portfolio`]
/// with a homogeneous method list and [`Cooperation::Isolated`].
///
/// Deterministic in `(seed, workers)`: worker `i` uses seed
/// `seed ⊕ splitmix(i+1)`, so results do not depend on scheduling.
///
/// Workers are panic-isolated: a worker that panics (a buggy cost model,
/// poisoned statistics) is counted in
/// [`ParallelResult::workers_failed`] and the best state among the
/// survivors is returned. Returns `None` only if no worker produced a
/// state — every worker panicked, or the budget is smaller than one
/// evaluation per worker.
#[allow(clippy::too_many_arguments)] // mirrors the sequential run signature plus (budget, workers)
pub fn run_parallel(
    query: &Query,
    model: &(dyn CostModel + Sync),
    runner: &MethodRunner,
    method: Method,
    component: &[RelId],
    budget: u64,
    workers: usize,
    seed: u64,
) -> Option<ParallelResult> {
    run_portfolio(
        query,
        model,
        runner,
        &[method],
        component,
        &ParallelOptions::new(budget, workers, seed),
    )
}

/// What one spawned worker reports back.
type WorkerOutcome = (Option<(JoinOrder, f64)>, u64, u64, u64, bool);

/// How one worker slot ended.
enum Slot {
    /// Allotted zero budget; never spawned.
    Skipped,
    /// Spawned but panicked before reporting.
    Panicked,
    /// Reported normally.
    Done(WorkerOutcome),
}

/// Run a *portfolio* of methods over `component`: worker `i` runs
/// `methods[i mod methods.len()]` under its budget share (see
/// [`shard_budget`]), and the best state across workers wins. With a
/// single-element `methods` this is plain homogeneous fan-out
/// ([`run_parallel`]).
///
/// Cooperation, early stopping, and deadlines are configured via
/// [`ParallelOptions`]; panic isolation and the `None` contract match
/// [`run_parallel`]. Ties between workers are broken toward the lowest
/// worker index, which keeps [`Cooperation::Isolated`] runs
/// bit-deterministic in `(seed, workers)`.
pub fn run_portfolio(
    query: &Query,
    model: &(dyn CostModel + Sync),
    runner: &MethodRunner,
    methods: &[Method],
    component: &[RelId],
    opts: &ParallelOptions,
) -> Option<ParallelResult> {
    assert!(!methods.is_empty(), "portfolio needs at least one method");
    let shares = shard_budget(opts.budget, opts.workers.max(1));
    run_portfolio_shares(query, model, runner, methods, component, opts, shares)
}

/// Run the portfolio with a *weighted* budget split: method `m`'s total
/// share of the budget is `method_weights[m] / Σ method_weights`,
/// divided evenly among the workers rotating that method, and the exact
/// split comes from [`shard_budget_weighted`] (total conserved to the
/// unit). Everything else — worker seeds, rotation, tie-breaks,
/// cooperation, panic isolation — is identical to [`run_portfolio`];
/// in particular worker `i`'s seed does not depend on the weights, so
/// changing shares only truncates or extends each worker's anytime
/// search. With equal weights this *is* [`run_portfolio`], bit for bit.
pub fn run_portfolio_weighted(
    query: &Query,
    model: &(dyn CostModel + Sync),
    runner: &MethodRunner,
    methods: &[Method],
    component: &[RelId],
    opts: &ParallelOptions,
    method_weights: &[f64],
) -> Option<ParallelResult> {
    assert!(!methods.is_empty(), "portfolio needs at least one method");
    assert_eq!(
        method_weights.len(),
        methods.len(),
        "one weight per portfolio method"
    );
    // Uniform (or degenerate) weights delegate to the plain uniform
    // path so existing baselines stay bit-identical.
    let finite_positive = method_weights.iter().any(|w| w.is_finite() && *w > 0.0);
    let uniform = method_weights
        .iter()
        .all(|w| *w == method_weights[0] && w.is_finite());
    if !finite_positive || uniform {
        return run_portfolio(query, model, runner, methods, component, opts);
    }
    let workers = opts.workers.max(1);
    // Workers per method under the `w mod K` rotation.
    let mut counts = vec![0u64; methods.len()];
    for w in 0..workers {
        counts[w % methods.len()] += 1;
    }
    let per_worker: Vec<f64> = (0..workers)
        .map(|w| {
            let m = w % methods.len();
            let weight = method_weights[m];
            if weight.is_finite() && weight > 0.0 && counts[m] > 0 {
                weight / counts[m] as f64
            } else {
                0.0
            }
        })
        .collect();
    let shares = shard_budget_weighted(opts.budget, &per_worker);
    run_portfolio_shares(query, model, runner, methods, component, opts, shares)
}

/// The common portfolio body: spawn one worker per share, rotate
/// methods, aggregate. `shares` must have one entry per worker.
fn run_portfolio_shares(
    query: &Query,
    model: &(dyn CostModel + Sync),
    runner: &MethodRunner,
    methods: &[Method],
    component: &[RelId],
    opts: &ParallelOptions,
    shares: Vec<u64>,
) -> Option<ParallelResult> {
    let workers = opts.workers.max(1);
    debug_assert_eq!(shares.len(), workers);
    let shared = match opts.cooperation {
        Cooperation::Isolated => None,
        Cooperation::SharedBest => Some(SharedBest::new()),
    };
    let (seed, stop_threshold, deadline) = (opts.seed, opts.stop_threshold, opts.deadline);

    let slots: Vec<(Method, Slot)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let method = methods[w % methods.len()];
                let share = shares[w];
                if share == 0 {
                    return (method, None);
                }
                let shared = shared.clone();
                let handle = scope.spawn(move || {
                    let mut ev = Evaluator::with_budget(query, model, share);
                    if let Some(d) = deadline {
                        ev.set_deadline(d);
                    }
                    if let Some(t) = stop_threshold {
                        ev.set_stop_threshold(t);
                    }
                    if let Some(s) = shared {
                        ev.set_shared_best(s);
                    }
                    let worker_seed = seed ^ splitmix(w as u64 + 1);
                    let mut rng = {
                        use rand::SeedableRng;
                        rand::rngs::SmallRng::seed_from_u64(worker_seed)
                    };
                    runner.run(method, &mut ev, component, &mut rng);
                    let best = ev.best().map(|(o, c)| (o.clone(), c));
                    (
                        best,
                        ev.used(),
                        ev.n_evals(),
                        ev.n_inc_evals(),
                        ev.deadline_expired(),
                    )
                });
                (method, Some(handle))
            })
            .collect();
        // A panicked worker surfaces as `Err` from `join`; swallowing it
        // here (rather than propagating) is the isolation boundary. Its
        // partial spend dies with its evaluator and is reported as zero.
        handles
            .into_iter()
            .map(|(method, handle)| {
                let slot = match handle {
                    None => Slot::Skipped,
                    Some(h) => match h.join() {
                        Ok(outcome) => Slot::Done(outcome),
                        Err(_) => Slot::Panicked,
                    },
                };
                (method, slot)
            })
            .collect()
    });

    let mut per_worker = Vec::with_capacity(workers);
    let mut workers_failed = 0usize;
    let mut units_used = 0u64;
    let mut n_evals = 0u64;
    let mut n_inc_evals = 0u64;
    let mut deadline_expired = false;
    let mut winner: Option<(JoinOrder, f64, Method)> = None;
    for (method, slot) in slots {
        match slot {
            Slot::Skipped => per_worker.push(WorkerReport {
                method,
                best_cost: None,
                units_used: 0,
                n_evals: 0,
                panicked: false,
            }),
            Slot::Panicked => {
                workers_failed += 1;
                per_worker.push(WorkerReport {
                    method,
                    best_cost: None,
                    units_used: 0,
                    n_evals: 0,
                    panicked: true,
                });
            }
            Slot::Done((best, used, evals, inc_evals, hit_deadline)) => {
                units_used += used;
                n_evals += evals;
                n_inc_evals += inc_evals;
                deadline_expired |= hit_deadline;
                per_worker.push(WorkerReport {
                    method,
                    best_cost: best.as_ref().map(|&(_, c)| c),
                    units_used: used,
                    n_evals: evals,
                    panicked: false,
                });
                if let Some((order, cost)) = best {
                    // Strict `<` breaks ties toward the lowest worker index.
                    if winner.as_ref().is_none_or(|&(_, c, _)| cost < c) {
                        winner = Some((order, cost, method));
                    }
                }
            }
        }
    }
    let (order, cost, method) = winner?;
    Some(ParallelResult {
        order,
        cost,
        method,
        units_used,
        n_evals,
        n_inc_evals,
        workers_failed,
        deadline_expired,
        shared_cost: shared.map(|s| s.get()),
        per_worker,
    })
}

/// Run the portfolio exactly as [`run_portfolio`] would, then let the
/// cardinality-free structural order ([`CardFreeHeuristic`]) *challenge*
/// the winner: the component's structural order is generated (it reads
/// no statistics, so this cannot be defeated by a poisoned catalog),
/// priced best-effort under panic isolation, and replaces the portfolio
/// winner only when strictly cheaper.
///
/// # Never-worse contract
///
/// The worker searches are bit-for-bit identical to the plain portfolio
/// at the same [`ParallelOptions`] — the challenger runs *after* they
/// finish and never feeds back into them — so
/// `run_portfolio_robust(...).cost ≤ run_portfolio(...).cost` holds by
/// construction whenever both return a result. The challenger's spend is
/// accounted on top: `component.len() + 1` budget units (one structural
/// generation plus one evaluation), the same indivisible-step overrun
/// slack every method already carries.
///
/// When the portfolio itself produces nothing (every worker panicked or
/// the budget was zero), the challenger alone can still rescue the run:
/// if its order prices to a finite cost, a challenger-only result is
/// returned; otherwise `None`, exactly like [`run_portfolio`].
pub fn run_portfolio_robust(
    query: &Query,
    model: &(dyn CostModel + Sync),
    runner: &MethodRunner,
    methods: &[Method],
    component: &[RelId],
    opts: &ParallelOptions,
) -> Option<ParallelResult> {
    let base = run_portfolio(query, model, runner, methods, component, opts);
    challenge_with_cardfree(query, model, component, base)
}

/// The challenger step of [`run_portfolio_robust`], applied to the result
/// of any portfolio run (uniform or weighted): the cardinality-free
/// structural order replaces `base`'s winner only when strictly cheaper.
/// It runs after the workers and never feeds back, so the never-worse
/// contract holds whatever budget split produced `base`.
pub(crate) fn challenge_with_cardfree(
    query: &Query,
    model: &(dyn CostModel + Sync),
    component: &[RelId],
    base: Option<ParallelResult>,
) -> Option<ParallelResult> {
    // The structural challenger. Generation is pure graph traversal and
    // cannot consult statistics, but it is still panic-isolated — the
    // robust path must never be *less* reliable than the plain one.
    let Some(order) = catch_unwind(AssertUnwindSafe(|| {
        CardFreeHeuristic.generate(query.graph(), component)
    }))
    .ok()
    .filter(|o| is_valid(query.graph(), o.rels())) else {
        // Structural generation itself failed (should be unreachable on a
        // validated query): fall back to the plain portfolio result.
        return base;
    };
    let challenger_cost = catch_unwind(AssertUnwindSafe(|| {
        sanitize_cost(model.order_cost(query, order.rels()))
    }))
    .unwrap_or(f64::MAX);
    let challenger_units = component.len() as u64 + 1;

    match base {
        Some(mut r) => {
            r.units_used += challenger_units;
            r.n_evals += 1;
            r.per_worker.push(WorkerReport {
                method: Method::Cardfree,
                best_cost: Some(challenger_cost),
                units_used: challenger_units,
                n_evals: 1,
                panicked: false,
            });
            // Strict `<`: on a tie the portfolio winner stands, mirroring
            // the lowest-worker-index tie-break inside `run_portfolio`.
            if challenger_cost < r.cost {
                r.order = order;
                r.cost = challenger_cost;
                r.method = Method::Cardfree;
            }
            Some(r)
        }
        // Challenger-only rescue. The base run reported nothing, so no
        // per-worker accounting is available; the report carries the
        // challenger alone (workers that panicked or were skipped for
        // lack of budget are indistinguishable here).
        None if challenger_cost < f64::MAX => Some(ParallelResult {
            order,
            cost: challenger_cost,
            method: Method::Cardfree,
            units_used: challenger_units,
            n_evals: 1,
            n_inc_evals: 0,
            workers_failed: 0,
            deadline_expired: false,
            shared_cost: None,
            per_worker: vec![WorkerReport {
                method: Method::Cardfree,
                best_cost: Some(challenger_cost),
                units_used: challenger_units,
                n_evals: 1,
                panicked: false,
            }],
        }),
        None => None,
    }
}

/// Parallel-search configuration for the driver-level entry point
/// [`crate::try_optimize_parallel`].
#[derive(Debug, Clone)]
pub struct Parallelism {
    /// Worker threads per component (clamped to at least 1).
    pub workers: usize,
    /// Worker interaction mode.
    pub cooperation: Cooperation,
    /// Methods rotated across workers; empty means "the configured
    /// method on every worker" (homogeneous fan-out). Use
    /// [`Parallelism::portfolio`] for the [`PORTFOLIO`] default.
    pub methods: Vec<Method>,
    /// When set, every component's run goes through
    /// [`run_portfolio_robust`]: the cardinality-free structural order
    /// challenges the portfolio winner, so the result is never worse
    /// than the same configuration without the backstop at equal budget.
    /// Use [`Parallelism::robust_portfolio`] for the default.
    pub structural_backstop: bool,
    /// Learned budget routing: when set (and the portfolio rotates more
    /// than one method), each query's [`ljqo_cache::QueryClass`] is
    /// looked up in the shared [`ljqo_cache::BanditRouter`], the
    /// emitted share
    /// vector drives [`run_portfolio_weighted`], and the outcome is fed
    /// back into the router online. `None` (the default) keeps the
    /// uniform split.
    pub router: Option<std::sync::Arc<ljqo_cache::BanditRouter>>,
}

impl PartialEq for Parallelism {
    fn eq(&self, other: &Self) -> bool {
        self.workers == other.workers
            && self.cooperation == other.cooperation
            && self.methods == other.methods
            && self.structural_backstop == other.structural_backstop
            && match (&self.router, &other.router) {
                (None, None) => true,
                (Some(a), Some(b)) => std::sync::Arc::ptr_eq(a, b),
                _ => false,
            }
    }
}

impl Parallelism {
    /// Homogeneous isolated fan-out over `workers` threads.
    pub fn workers(workers: usize) -> Self {
        Parallelism {
            workers,
            cooperation: Cooperation::Isolated,
            methods: Vec::new(),
            structural_backstop: false,
            router: None,
        }
    }

    /// The default heterogeneous portfolio over `workers` threads.
    pub fn portfolio(workers: usize) -> Self {
        Parallelism {
            workers,
            cooperation: Cooperation::Isolated,
            methods: PORTFOLIO.to_vec(),
            structural_backstop: false,
            router: None,
        }
    }

    /// The robustness portfolio over `workers` threads: the
    /// [`ROBUST_PORTFOLIO`] rotation with the cardinality-free
    /// structural challenger enabled (see [`run_portfolio_robust`]).
    pub fn robust_portfolio(workers: usize) -> Self {
        Parallelism {
            workers,
            cooperation: Cooperation::Isolated,
            methods: ROBUST_PORTFOLIO.to_vec(),
            structural_backstop: true,
            router: None,
        }
    }

    /// Set the cooperation mode.
    #[must_use]
    pub fn with_cooperation(mut self, cooperation: Cooperation) -> Self {
        self.cooperation = cooperation;
        self
    }

    /// Attach a learned budget router (shared, updated online). The
    /// router only takes effect on multi-method portfolios; homogeneous
    /// fan-outs have nothing to route between.
    #[must_use]
    pub fn with_router(mut self, router: std::sync::Arc<ljqo_cache::BanditRouter>) -> Self {
        self.router = Some(router);
        self
    }
}

/// SplitMix64 finalizer, used to derive independent worker seeds.
pub(crate) fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ljqo_catalog::QueryBuilder;
    use ljqo_cost::MemoryCostModel;
    use ljqo_plan::validity::is_valid;

    fn query() -> Query {
        QueryBuilder::new()
            .relation("a", 3000)
            .relation("b", 12)
            .relation("c", 700)
            .relation("d", 55)
            .relation("e", 1400)
            .relation("f", 90)
            .join("a", "b", 0.01)
            .join("b", "c", 0.002)
            .join("c", "d", 0.05)
            .join("d", "e", 0.001)
            .join("e", "f", 0.02)
            .build()
            .unwrap()
    }

    #[test]
    fn parallel_run_is_deterministic_and_budgeted() {
        let q = query();
        let model = MemoryCostModel::default();
        let comp: Vec<RelId> = q.rel_ids().collect();
        let runner = MethodRunner::default();
        let a = run_parallel(&q, &model, &runner, Method::Ii, &comp, 4_000, 4, 9).unwrap();
        let b = run_parallel(&q, &model, &runner, Method::Ii, &comp, 4_000, 4, 9).unwrap();
        assert_eq!(a.order, b.order);
        assert_eq!(a.cost, b.cost);
        assert_eq!(a.units_used, b.units_used);
        assert_eq!(a.method, Method::Ii);
        assert!(is_valid(q.graph(), a.order.rels()));
        // Each worker may overrun its share by one indivisible step.
        assert!(a.units_used <= 4_000 + 4 * (64 + 4 * 6 + 7));
    }

    #[test]
    fn shard_budget_conserves_and_spreads_the_remainder() {
        // budget = 100, workers = 8: 4 workers of 13, 4 of 12 — no unit
        // dropped (the old `(budget / workers).max(1)` handed out 8 × 12
        // and silently lost 4).
        assert_eq!(shard_budget(100, 8), vec![13, 13, 13, 13, 12, 12, 12, 12]);
        // budget < workers: first `budget` workers get one unit, the rest
        // get zero — never `workers` units against a budget of less.
        assert_eq!(shard_budget(3, 8), vec![1, 1, 1, 0, 0, 0, 0, 0]);
        assert_eq!(shard_budget(0, 4), vec![0, 0, 0, 0]);
        for (budget, workers) in [(1u64, 1usize), (7, 3), (64, 64), (1000, 7), (5, 9)] {
            let shares = shard_budget(budget, workers);
            assert_eq!(shares.iter().sum::<u64>(), budget, "{budget}/{workers}");
            let (min, max) = (shares.iter().min().unwrap(), shares.iter().max().unwrap());
            assert!(max - min <= 1, "{budget}/{workers}: uneven {shares:?}");
        }
    }

    #[test]
    fn tiny_budget_is_never_oversubscribed() {
        // Regression: budget 3 over 8 workers used to allot max(3/8,1) = 1
        // unit to *each* worker, spending up to 8 units against a budget
        // of 3. Now only the first 3 workers run, one unit each.
        let q = query();
        let model = MemoryCostModel::default();
        let comp: Vec<RelId> = q.rel_ids().collect();
        let runner = MethodRunner::default();
        let r = run_parallel(&q, &model, &runner, Method::Ii, &comp, 3, 8, 5).unwrap();
        assert!(
            r.units_used <= 3,
            "budget 3 oversubscribed: {} units spent",
            r.units_used
        );
        assert!(r.cost.is_finite());
        let active = r.per_worker.iter().filter(|w| w.units_used > 0).count();
        assert_eq!(active, 3);
    }

    #[test]
    fn remainder_units_are_distributed_not_dropped() {
        // Regression: budget 100 over 8 workers used to hand out only
        // 12 × 8 = 96 units. II runs until exhaustion, so the full 100
        // allotted units must now be consumed (up to per-worker overrun).
        let q = query();
        let model = MemoryCostModel::default();
        let comp: Vec<RelId> = q.rel_ids().collect();
        let runner = MethodRunner::default();
        let r = run_parallel(&q, &model, &runner, Method::Ii, &comp, 100, 8, 5).unwrap();
        assert!(
            r.units_used >= 100,
            "remainder dropped: only {} of 100 units consumed",
            r.units_used
        );
        let slack = 8 * (64 + 4 * 6);
        assert!(r.units_used <= 100 + slack);
    }

    #[test]
    fn more_workers_do_not_break_quality() {
        let q = query();
        let model = MemoryCostModel::default();
        let comp: Vec<RelId> = q.rel_ids().collect();
        let runner = MethodRunner::default();
        let solo = run_parallel(&q, &model, &runner, Method::Iai, &comp, 6_000, 1, 5).unwrap();
        let quad = run_parallel(&q, &model, &runner, Method::Iai, &comp, 6_000, 4, 5).unwrap();
        // Both must find reasonable plans; neither dominates in general,
        // but both should be within 2x of each other on this small query.
        let ratio = (solo.cost / quad.cost).max(quad.cost / solo.cost);
        assert!(ratio < 2.0, "solo {} vs quad {}", solo.cost, quad.cost);
    }

    #[test]
    fn zero_worker_count_is_clamped() {
        let q = query();
        let model = MemoryCostModel::default();
        let comp: Vec<RelId> = q.rel_ids().collect();
        let runner = MethodRunner::default();
        let r = run_parallel(&q, &model, &runner, Method::Agi, &comp, 1_000, 0, 1).unwrap();
        assert!(r.cost.is_finite());
    }

    #[test]
    fn shared_best_without_threshold_matches_isolated_exactly() {
        let q = query();
        let model = MemoryCostModel::default();
        let comp: Vec<RelId> = q.rel_ids().collect();
        let runner = MethodRunner::default();
        let base = ParallelOptions::new(4_000, 4, 9);
        let iso = run_portfolio(&q, &model, &runner, &[Method::Ii], &comp, &base).unwrap();
        let coop = run_portfolio(
            &q,
            &model,
            &runner,
            &[Method::Ii],
            &comp,
            &base.with_cooperation(Cooperation::SharedBest),
        )
        .unwrap();
        // With no stop threshold, cooperation only observes — every
        // worker's search is bit-identical to its isolated twin.
        assert_eq!(iso.order, coop.order);
        assert_eq!(iso.cost, coop.cost);
        assert_eq!(iso.units_used, coop.units_used);
        // The shared cell ends at the winning cost, never worse than any
        // worker's own best.
        let shared = coop.shared_cost.unwrap();
        assert_eq!(shared, coop.cost);
        for w in &coop.per_worker {
            if let Some(c) = w.best_cost {
                assert!(shared <= c);
            }
        }
        assert!(iso.shared_cost.is_none());
    }

    #[test]
    fn shared_best_winddown_saves_budget() {
        let q = query();
        let model = MemoryCostModel::default();
        let comp: Vec<RelId> = q.rel_ids().collect();
        let runner = MethodRunner::default();
        // A generous threshold every descent reaches quickly: the cost of
        // the best augmentation state times 4 (II descends well below it).
        let mut pilot = Evaluator::new(&q, &model);
        let firsts = ljqo_heuristics::AugmentationHeuristic::first_relations(&q, &comp);
        let pilot_order = runner.augmentation.generate(&q, &comp, firsts[0]);
        let threshold = pilot.cost(&pilot_order) * 4.0;
        let base = ParallelOptions::new(400_000, 4, 9).with_stop_threshold(threshold);
        let iso = run_portfolio(&q, &model, &runner, &[Method::Ii], &comp, &base).unwrap();
        let coop = run_portfolio(
            &q,
            &model,
            &runner,
            &[Method::Ii],
            &comp,
            &base.with_cooperation(Cooperation::SharedBest),
        )
        .unwrap();
        // Both runs reach the quality bar...
        assert!(iso.cost <= threshold);
        assert!(coop.cost <= threshold);
        // ...and the cooperative run never spends more than the isolated
        // one (a worker stops at its own bar in both modes; cooperation
        // can only stop *earlier* on a foreign publish).
        assert!(
            coop.units_used <= iso.units_used,
            "coop {} > iso {}",
            coop.units_used,
            iso.units_used
        );
    }

    #[test]
    fn portfolio_rotates_methods_and_reports_the_winner() {
        let q = query();
        let model = MemoryCostModel::default();
        let comp: Vec<RelId> = q.rel_ids().collect();
        let runner = MethodRunner::default();
        let r = run_portfolio(
            &q,
            &model,
            &runner,
            &PORTFOLIO,
            &comp,
            &ParallelOptions::new(8_000, 6, 3),
        )
        .unwrap();
        assert!(is_valid(q.graph(), r.order.rels()));
        assert_eq!(r.per_worker.len(), 6);
        for (w, report) in r.per_worker.iter().enumerate() {
            assert_eq!(report.method, PORTFOLIO[w % PORTFOLIO.len()]);
            assert!(report.best_cost.is_some());
        }
        assert!(PORTFOLIO.contains(&r.method));
        // The portfolio's winner is the minimum across workers.
        let min = r
            .per_worker
            .iter()
            .filter_map(|w| w.best_cost)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(r.cost, min);
    }

    #[test]
    fn robust_portfolio_is_never_worse_than_plain() {
        let q = query();
        let model = MemoryCostModel::default();
        let comp: Vec<RelId> = q.rel_ids().collect();
        let runner = MethodRunner::default();
        for (budget, workers, seed) in [(200u64, 2usize, 1u64), (2_000, 4, 7), (8_000, 6, 42)] {
            let opts = ParallelOptions::new(budget, workers, seed);
            let plain = run_portfolio(&q, &model, &runner, &PORTFOLIO, &comp, &opts).unwrap();
            let robust =
                run_portfolio_robust(&q, &model, &runner, &ROBUST_PORTFOLIO, &comp, &opts).unwrap();
            assert!(
                robust.cost <= plain.cost,
                "robust {} worse than plain {} at budget {budget}",
                robust.cost,
                plain.cost
            );
            assert!(is_valid(q.graph(), robust.order.rels()));
            // Challenger spend is accounted on top of the identical base.
            assert_eq!(robust.units_used, plain.units_used + comp.len() as u64 + 1);
            assert_eq!(robust.n_evals, plain.n_evals + 1);
            // The challenger appears as one extra per-worker report.
            assert_eq!(robust.per_worker.len(), plain.per_worker.len() + 1);
            let last = robust.per_worker.last().unwrap();
            assert_eq!(last.method, Method::Cardfree);
            assert!(last.best_cost.is_some());
        }
    }

    #[test]
    fn robust_portfolio_rescues_an_empty_base_run() {
        // Budget 0: no worker is ever spawned, so the plain portfolio
        // returns None — but the challenger needs no budget share and
        // rescues the run with the structural order.
        let q = query();
        let model = MemoryCostModel::default();
        let comp: Vec<RelId> = q.rel_ids().collect();
        let runner = MethodRunner::default();
        let opts = ParallelOptions::new(0, 3, 11);
        assert!(run_portfolio(&q, &model, &runner, &PORTFOLIO, &comp, &opts).is_none());
        let r = run_portfolio_robust(&q, &model, &runner, &ROBUST_PORTFOLIO, &comp, &opts).unwrap();
        assert_eq!(r.method, Method::Cardfree);
        assert!(r.cost.is_finite());
        assert!(is_valid(q.graph(), r.order.rels()));
        assert_eq!(r.units_used, comp.len() as u64 + 1);
    }

    #[test]
    fn robust_portfolio_stays_none_when_pricing_is_impossible() {
        struct AlwaysPanic;
        impl CostModel for AlwaysPanic {
            fn join_cost(&self, _ctx: &ljqo_cost::JoinCtx) -> f64 {
                panic!("poisoned model");
            }
            fn name(&self) -> &'static str {
                "always-panic"
            }
        }
        let q = query();
        let comp: Vec<RelId> = q.rel_ids().collect();
        let runner = MethodRunner::default();
        let opts = ParallelOptions::new(1_000, 3, 11);
        // Plain portfolio: every worker dies, no result at all.
        assert!(run_portfolio(&q, &AlwaysPanic, &runner, &PORTFOLIO, &comp, &opts).is_none());
        // Robust: the challenger's pricing also panics, so its cost is
        // f64::MAX — not finite enough to claim a rescue either. The
        // degradation ladder in the driver handles this case instead.
        assert!(
            run_portfolio_robust(&q, &AlwaysPanic, &runner, &ROBUST_PORTFOLIO, &comp, &opts)
                .is_none()
        );
    }

    #[test]
    fn robust_constructor_sets_the_backstop() {
        let p = Parallelism::robust_portfolio(4);
        assert!(p.structural_backstop);
        assert_eq!(p.methods, ROBUST_PORTFOLIO.to_vec());
        assert!(!Parallelism::portfolio(4).structural_backstop);
        assert!(!Parallelism::workers(4).structural_backstop);
        assert!(p.router.is_none());
    }

    #[test]
    fn weighted_sharding_conserves_the_budget_exhaustively() {
        // The conservation property over a dense grid of corner cases:
        // remainders in every residue class, budget < workers, zero
        // weights, tiny and skewed weights. The sum must equal the
        // budget *exactly* in every cell.
        let weight_sets: [&[f64]; 9] = [
            &[1.0],
            &[1.0, 1.0, 1.0, 1.0],
            &[0.7, 0.1, 0.1, 0.1],
            &[0.125, 0.625, 0.125, 0.125],
            &[0.0, 1.0, 0.0, 3.0],
            &[1e-9, 1.0, 1e-9],
            &[3.0, 2.0, 1.0, 1.0, 1.0, 1.0, 1.0],
            &[f64::NAN, 1.0, f64::INFINITY, 2.0],
            &[-1.0, 0.5, 0.5],
        ];
        for budget in (0u64..40).chain([97, 100, 101, 1000, 12_345]) {
            for weights in weight_sets {
                let shares = shard_budget_weighted(budget, weights);
                assert_eq!(shares.len(), weights.len());
                assert_eq!(
                    shares.iter().sum::<u64>(),
                    budget,
                    "budget {budget} not conserved for {weights:?}: {shares:?}"
                );
                // Sanitized-to-zero weights must receive exactly zero.
                for (i, &w) in weights.iter().enumerate() {
                    if !(w.is_finite() && w > 0.0) {
                        assert_eq!(shares[i], 0, "zero-weight worker {i} got budget");
                    }
                }
            }
        }
    }

    #[test]
    fn weighted_sharding_uniform_path_is_bit_identical_to_shard_budget() {
        for budget in [0u64, 1, 3, 7, 100, 101, 4096, 99_999] {
            for workers in 1usize..10 {
                for w in [1.0f64, 0.25, 1e-6, 1e9] {
                    let weights = vec![w; workers];
                    assert_eq!(
                        shard_budget_weighted(budget, &weights),
                        shard_budget(budget, workers),
                        "uniform weights {w} diverged at {budget}/{workers}"
                    );
                }
                // All-zero and all-garbage weight vectors also fall back
                // to the uniform split rather than erroring.
                assert_eq!(
                    shard_budget_weighted(budget, &vec![0.0; workers]),
                    shard_budget(budget, workers)
                );
                assert_eq!(
                    shard_budget_weighted(budget, &vec![f64::NAN; workers]),
                    shard_budget(budget, workers)
                );
            }
        }
    }

    #[test]
    fn weighted_sharding_is_proportional_and_breaks_ties_low() {
        // 100 units at weights 70/10/10/10.
        assert_eq!(
            shard_budget_weighted(100, &[7.0, 1.0, 1.0, 1.0]),
            vec![70, 10, 10, 10]
        );
        // 10 units at weights 1/1/2: floors 2/2/5, one remainder unit to
        // the largest fraction (0.5 twice → lowest index wins).
        assert_eq!(shard_budget_weighted(10, &[1.0, 1.0, 2.0]), vec![3, 2, 5]);
        // budget < positive workers: units go to the heaviest workers
        // first (largest fractional part of the exact share).
        assert_eq!(shard_budget_weighted(1, &[1.0, 3.0, 1.0]), vec![0, 1, 0]);
        // Scale invariance: weights are shares, not magnitudes.
        assert_eq!(
            shard_budget_weighted(1000, &[0.7, 0.1, 0.1, 0.1]),
            shard_budget_weighted(1000, &[7e9, 1e9, 1e9, 1e9])
        );
    }

    #[test]
    fn weighted_portfolio_with_uniform_weights_is_bit_identical() {
        let q = query();
        let model = MemoryCostModel::default();
        let comp: Vec<RelId> = q.rel_ids().collect();
        let runner = MethodRunner::default();
        // Worker count NOT divisible by the method count, so per-method
        // worker groups are uneven — the uniform fast path must still
        // delegate to the plain per-worker split.
        let opts = ParallelOptions::new(6_000, 6, 17);
        let plain = run_portfolio(&q, &model, &runner, &PORTFOLIO, &comp, &opts).unwrap();
        let weighted = run_portfolio_weighted(
            &q,
            &model,
            &runner,
            &PORTFOLIO,
            &comp,
            &opts,
            &[0.25, 0.25, 0.25, 0.25],
        )
        .unwrap();
        assert_eq!(plain.order, weighted.order);
        assert_eq!(plain.cost, weighted.cost);
        assert_eq!(plain.units_used, weighted.units_used);
        assert_eq!(plain.per_worker.len(), weighted.per_worker.len());
    }

    #[test]
    fn weighted_portfolio_respects_method_level_shares() {
        let q = query();
        let model = MemoryCostModel::default();
        let comp: Vec<RelId> = q.rel_ids().collect();
        let runner = MethodRunner::default();
        // 8 workers over 4 methods, II boosted to 5/8 of the budget with
        // an ε floor of 1/8 for the rest.
        let opts = ParallelOptions::new(8_000, 8, 23);
        let r = run_portfolio_weighted(
            &q,
            &model,
            &runner,
            &PORTFOLIO,
            &comp,
            &opts,
            &[0.625, 0.125, 0.125, 0.125],
        )
        .unwrap();
        assert!(is_valid(q.graph(), r.order.rels()));
        // Each method has 2 workers; II's pair together must hold 5/8 of
        // the allotment. II runs to exhaustion, so consumed units track
        // the allotment closely.
        let ii_units: u64 = r
            .per_worker
            .iter()
            .filter(|w| w.method == Method::Ii)
            .map(|w| w.units_used)
            .sum();
        assert!(
            ii_units >= 4_500,
            "II workers consumed only {ii_units} of an expected ~5000"
        );
    }

    #[test]
    fn weighted_robust_portfolio_keeps_the_challenger_contract() {
        let q = query();
        let model = MemoryCostModel::default();
        let comp: Vec<RelId> = q.rel_ids().collect();
        let runner = MethodRunner::default();
        let opts = ParallelOptions::new(4_000, 4, 31);
        let weights = [0.625, 0.125, 0.125, 0.125];
        // The composition the driver runs for a routed robust portfolio.
        let plain = run_portfolio_weighted(&q, &model, &runner, &PORTFOLIO, &comp, &opts, &weights)
            .unwrap();
        let robust = challenge_with_cardfree(&q, &model, &comp, Some(plain.clone())).unwrap();
        assert!(robust.cost <= plain.cost);
        assert_eq!(robust.units_used, plain.units_used + comp.len() as u64 + 1);
        assert_eq!(robust.per_worker.last().unwrap().method, Method::Cardfree);
    }
}
