//! Zero-allocation guarantee for the steady-state move-evaluation loop.
//!
//! The compiled hot path (bitset-filtered move proposals + incremental
//! cost evaluation with reusable scratch state) is designed so that after
//! the evaluator and generator are constructed, a propose → evaluate →
//! commit/rollback cycle performs **no heap allocation at all**. This test
//! wires a counting `#[global_allocator]` around the real loop and asserts
//! exactly that, for both the static and the propagated estimator.
//!
//! The last three tests drive the production II descent itself — the one
//! loop the linear and bushy search spaces share — rather than the
//! generator and evaluators by hand.
//!
//! The counter is per-thread (other test threads must not bleed into the
//! measurement) and counts allocation *events* — `alloc`, `alloc_zeroed`
//! and growing `realloc` all bump it, so a single `Vec` regrowth anywhere
//! in the loop fails the test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use ljqo::{IterativeImprovement, Method, MethodRunner};
use ljqo_catalog::{CompiledQuery, Query, QueryBuilder, RelId};
use ljqo_cost::{
    CostModel, Estimator, Evaluator, IncrementalEvaluator, JoinCtx, MemoryCostModel, TreeEvaluator,
};
use ljqo_plan::{random_valid_order, MoveGenerator, MoveSet, TreeMoveSet, TreePlan};

struct CountingAlloc;

thread_local! {
    /// Allocation events observed on this thread. `const` init so reading
    /// the counter never itself triggers lazy initialization mid-count.
    static ALLOC_EVENTS: Cell<u64> = const { Cell::new(0) };
}

#[inline]
fn bump() {
    // `try_with` instead of `with`: the allocator is called during TLS
    // destruction at thread exit, when the key is no longer accessible.
    let _ = ALLOC_EVENTS.try_with(|c| c.set(c.get() + 1));
}

fn alloc_events() -> u64 {
    ALLOC_EVENTS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// A 12-relation chain with a few extra edges: large enough that moves hit
/// reused tails, recomputed tails, cross-product rejections and multi-edge
/// selectivity folds.
fn test_query() -> Query {
    let mut b = QueryBuilder::new();
    let cards = [3000u64, 12, 700, 55, 1400, 9, 250, 8000, 33, 510, 77, 2600];
    for (i, card) in cards.iter().enumerate() {
        b = b.relation(format!("r{i}"), *card);
    }
    for i in 1..cards.len() {
        b = b.join(
            &format!("r{}", i - 1),
            &format!("r{i}"),
            0.003 + 0.01 * i as f64,
        );
    }
    // Extra edges so the graph is not a pure chain (cycles + a star-ish hub).
    b = b.join("r0", "r5", 0.02);
    b = b.join("r3", "r9", 0.004);
    b = b.join("r3", "r11", 0.05);
    b.build().unwrap()
}

/// A 200-relation chain with periodic chords: big enough that every
/// bitset in the hot loop is multi-word (stride 4 — one full block),
/// so the steady-state guarantee covers the large-N kernel tier, not
/// just the single-word fast path the 12-relation query exercises.
fn large_query() -> Query {
    const N: usize = 200;
    let mut b = QueryBuilder::new();
    for i in 0..N {
        b = b.relation(format!("r{i}"), 10 + ((i as u64 * 37) % 5000));
    }
    for i in 1..N {
        b = b.join(
            &format!("r{}", i - 1),
            &format!("r{i}"),
            0.001 + 0.0004 * (i % 17) as f64,
        );
    }
    // Chords every 13 relations so neighbor rows span several words.
    for i in (13..N).step_by(13) {
        b = b.join(&format!("r{}", i - 13), &format!("r{i}"), 0.01);
    }
    b.build().unwrap()
}

fn all_kinds() -> MoveSet {
    MoveSet {
        adjacent_swap: 0.25,
        swap: 0.35,
        three_cycle: 0.2,
        reinsert: 0.2,
    }
}

/// Allocation events per `ITERS` steady-state iterations of the raw
/// propose → eval → commit/rollback loop on the compiled path.
fn steady_state_events_on(q: &Query, estimator: Estimator, seed: u64) -> u64 {
    const WARMUP: usize = 64;
    const ITERS: usize = 512;

    let model = MemoryCostModel::default();
    let compiled = Arc::new(CompiledQuery::new(q));
    let comp: Vec<RelId> = q.rel_ids().collect();
    let mut rng = SmallRng::seed_from_u64(seed);
    let order = random_valid_order(q.graph(), &comp, &mut rng);
    let mut inc =
        IncrementalEvaluator::with_compiled(q, &model, estimator, order, Arc::clone(&compiled));
    let mut gen = MoveGenerator::with_compiled(compiled, all_kinds());
    let mut current = inc.current_cost();
    let graph = q.graph();

    let mut before = 0u64;
    for iter in 0..WARMUP + ITERS {
        if iter == WARMUP {
            before = alloc_events();
        }
        if let Some((mv, _attempts)) = gen.propose_counted(graph, inc.order_mut(), &mut rng) {
            let candidate = inc.eval_applied(&mv);
            if candidate < current {
                inc.commit();
                current = candidate;
            } else {
                inc.rollback();
            }
        }
    }
    alloc_events() - before
}

/// The static-estimator hot loop is allocation-free at steady state — in
/// debug and release builds alike (its debug assertions stay on the
/// pre-sized scratch buffers).
#[test]
fn static_move_loop_is_allocation_free() {
    let events = steady_state_events_on(&test_query(), Estimator::Static, 0xa110c);
    assert_eq!(
        events, 0,
        "static steady-state move loop performed {events} heap allocations"
    );
}

/// The propagated-estimator hot loop is also allocation-free: snapshot
/// resume (`DistinctState::copy_from`), the sparse present-set shrink and
/// the post-commit snapshot rebuild all reuse full-capacity buffers.
#[test]
fn propagated_move_loop_is_allocation_free() {
    let events = steady_state_events_on(&test_query(), Estimator::Propagated, 0xa110c);
    assert_eq!(
        events, 0,
        "propagated steady-state move loop performed {events} heap allocations"
    );
}

/// At N = 200 every mask is one full 4-word block: the windowed
/// validity kernel, the prefix-mask cache and both estimators' scratch
/// state must still run allocation-free at steady state — in debug and
/// release builds alike. This is the load-bearing guarantee of the
/// large-N regime: proposal cost stays O(window), with no hidden heap
/// traffic as N grows.
#[test]
fn static_move_loop_is_allocation_free_at_n200() {
    let events = steady_state_events_on(&large_query(), Estimator::Static, 0xa110c + 3);
    assert_eq!(
        events, 0,
        "static N=200 steady-state move loop performed {events} heap allocations"
    );
}

/// Propagated-estimator counterpart of the N = 200 guarantee.
#[test]
fn propagated_move_loop_is_allocation_free_at_n200() {
    let events = steady_state_events_on(&large_query(), Estimator::Propagated, 0xa110c + 4);
    assert_eq!(
        events, 0,
        "propagated N=200 steady-state move loop performed {events} heap allocations"
    );
}

/// The bushy tree-evaluator loop (propose → `eval_pending` →
/// commit/rollback with path-to-root re-costing) is allocation-free at
/// steady state in release builds: the candidate/memo arrays, the dirty
/// list and the plan's undo log all reuse their warmed-up capacity.
/// Debug builds intentionally run the full bottom-up agreement
/// assertion on every `eval_pending`, which prices the whole tree into
/// temporary buffers — so there the assertion is skipped rather than
/// weakened, mirroring the `cost_move` test below.
#[test]
fn tree_evaluator_move_loop_is_allocation_free_in_release() {
    const WARMUP: usize = 64;
    const ITERS: usize = 512;

    let q = test_query();
    let model = MemoryCostModel::default();
    let compiled = Arc::new(CompiledQuery::new(&q));
    let comp: Vec<RelId> = q.rel_ids().collect();
    let mut rng = SmallRng::seed_from_u64(0xa110c + 2);
    let order = random_valid_order(q.graph(), &comp, &mut rng);
    let plan = TreePlan::from_order(&compiled, order.rels());
    let mut te = TreeEvaluator::new(&model, Arc::clone(&compiled), plan);
    let moves = TreeMoveSet::default();
    let mut current = te.current_cost();
    let mut committed = 0u64;

    let mut before = 0u64;
    for iter in 0..WARMUP + ITERS {
        if iter == WARMUP {
            before = alloc_events();
        }
        if te.propose(&moves, &mut rng).is_some() {
            let candidate = te.eval_pending();
            if candidate < current {
                te.commit();
                current = candidate;
                committed += 1;
            } else {
                te.rollback();
            }
        }
    }
    let events = alloc_events() - before;
    // The loop must have genuinely exercised both resolutions.
    assert!(committed > 0, "no move was ever committed");
    if !cfg!(debug_assertions) {
        assert_eq!(
            events, 0,
            "tree-evaluator steady-state move loop performed {events} heap allocations"
        );
    }
}

/// The full budgeted driver path (`Evaluator::cost_move` with best-order
/// tracking) is allocation-free at steady state in release builds. Debug
/// builds intentionally run a from-scratch agreement assertion on every
/// move (`full_eval`), which walks the order with temporary buffers — so
/// there the assertion is skipped rather than weakened.
#[test]
fn evaluator_cost_move_is_allocation_free_in_release() {
    const WARMUP: usize = 64;
    const ITERS: usize = 512;

    let q = test_query();
    let model = MemoryCostModel::default();
    let mut ev = Evaluator::new(&q, &model);
    let comp: Vec<RelId> = q.rel_ids().collect();
    let mut rng = SmallRng::seed_from_u64(0xa110c + 1);
    let order = random_valid_order(q.graph(), &comp, &mut rng);
    let mut gen = MoveGenerator::with_compiled(ev.compiled().clone(), all_kinds());
    let mut inc = ev.begin_incremental(order);
    let mut current = inc.current_cost();
    let graph = q.graph();

    let mut before = 0u64;
    for iter in 0..WARMUP + ITERS {
        if iter == WARMUP {
            before = alloc_events();
        }
        if let Some((mv, attempts)) = gen.propose_counted(graph, inc.order_mut(), &mut rng) {
            ev.charge(u64::from(attempts) - 1);
            let candidate = ev.cost_move(&mut inc, &mv);
            if candidate < current {
                inc.commit();
                current = candidate;
            } else {
                inc.rollback();
            }
        }
    }
    let events = alloc_events() - before;
    if cfg!(debug_assertions) {
        // The loop still must have run; the count is unconstrained here.
        assert!(ev.n_inc_evals() > 0);
    } else {
        assert_eq!(
            events, 0,
            "Evaluator::cost_move steady-state loop performed {events} heap allocations"
        );
    }
}

/// The memory model with incremental evaluation switched off, so the
/// linear search state re-walks the whole order for every candidate.
struct FullWalkOnly(MemoryCostModel);

impl CostModel for FullWalkOnly {
    fn join_cost(&self, ctx: &JoinCtx) -> f64 {
        self.0.join_cost(ctx)
    }

    fn name(&self) -> &'static str {
        "full-walk-only"
    }

    fn supports_incremental(&self) -> bool {
        false
    }
}

/// Allocation events spent by the steady state of the production II
/// descent (the one loop both search spaces share), driven through
/// [`MethodRunner`] on `q` with `model`.
///
/// A fail limit no run reaches makes every run a single descent, so two
/// runs from one seed agree on everything up to the shorter budget: the
/// start state, the evaluator and state set-up, the first iterations.
/// The difference of their allocation counts is what the extra
/// propose → cost → commit/rollback iterations of the longer run
/// allocated. The longer run must also end on a cheaper state, so those
/// iterations committed moves as well as rolling them back.
fn descend_steady_state_events(q: &Query, model: &dyn CostModel, bushy: bool) -> u64 {
    let runner = MethodRunner {
        ii: IterativeImprovement {
            fail_factor: 1e12,
            ..IterativeImprovement::default()
        },
        ..MethodRunner::default()
    };
    let comp: Vec<RelId> = q.rel_ids().collect();
    let run = |budget: u64| {
        let mut ev = Evaluator::with_budget(q, model, budget);
        let mut rng = SmallRng::seed_from_u64(0xa110c + 5);
        let before = alloc_events();
        let cost = if bushy {
            let best = runner.run_bushy(Method::BushyIi, &mut ev, &comp, &mut rng);
            best.map(|(_, cost)| cost)
        } else {
            runner.run(Method::Ii, &mut ev, &comp, &mut rng);
            ev.best().map(|(_, cost)| cost)
        };
        let events = alloc_events() - before;
        (events, cost.expect("a run evaluates its start state"))
    };
    let (short_events, short_cost) = run(1_000);
    let (long_events, long_cost) = run(4_000);
    assert!(
        long_cost < short_cost,
        "the extra budget must keep descending ({long_cost} vs {short_cost})"
    );
    long_events - short_events
}

/// The linear descent under incremental costing, at N = 200: the
/// compiled windowed filter, `Evaluator::cost_move` and best-order
/// tracking allocate nothing at steady state. Release builds only: debug
/// builds re-cost every candidate from scratch into temporary buffers
/// (see `evaluator_cost_move_is_allocation_free_in_release`).
#[test]
fn linear_descent_is_allocation_free_at_n200_in_release() {
    let events = descend_steady_state_events(&large_query(), &MemoryCostModel::default(), false);
    if !cfg!(debug_assertions) {
        assert_eq!(
            events, 0,
            "linear II descent (incremental) performed {events} heap allocations"
        );
    }
}

/// The linear descent under full-walk costing (a model that opts out of
/// incremental evaluation), at N = 200. Release builds only: debug builds
/// check every newly recorded best order for duplicates in a temporary
/// copy (`JoinOrder::copy_from_rels`).
#[test]
fn full_walk_descent_is_allocation_free_at_n200_in_release() {
    let model = FullWalkOnly(MemoryCostModel::default());
    let events = descend_steady_state_events(&large_query(), &model, false);
    if !cfg!(debug_assertions) {
        assert_eq!(
            events, 0,
            "linear II descent (full walk) performed {events} heap allocations"
        );
    }
}

/// The bushy descent at N = 200: tree moves, path-to-root re-costing and
/// best-tree recording allocate nothing at steady state. Release builds
/// only, for the debug-only full re-cost of every candidate (see
/// `tree_evaluator_move_loop_is_allocation_free_in_release`).
#[test]
fn bushy_descent_is_allocation_free_at_n200_in_release() {
    let events = descend_steady_state_events(&large_query(), &MemoryCostModel::default(), true);
    if !cfg!(debug_assertions) {
        assert_eq!(
            events, 0,
            "bushy II descent performed {events} heap allocations"
        );
    }
}
