//! The search states the local-search loops run over.
//!
//! Iterative improvement ([`crate::IterativeImprovement`]) and simulated
//! annealing ([`crate::SimulatedAnnealing`]) are each written once, over
//! [`SearchState`]: propose a move (applied in place), cost the candidate,
//! then commit or roll it back. Two states implement it, statically
//! dispatched:
//!
//! * [`OrderState`] — the paper's space of outer-linear join orders.
//!   Proposals are filtered by the compiled windowed checker
//!   ([`MoveGenerator::with_compiled`]); candidates are costed
//!   incrementally ([`IncrementalEvaluator`]) unless the model opts out
//!   ([`CostModel::supports_incremental`]), when each one re-walks the
//!   whole order. The best state is the evaluator's ([`Evaluator::best`]).
//! * [`TreeState`] — bushy join trees ([`TreePlan`]), re-costed along the
//!   path from the moved subtree to the root ([`TreeEvaluator`]). The
//!   evaluator's best-state channel is typed to join orders, so the tree
//!   state records its best tree itself on every improving start or
//!   commit; early stopping against the model lower bound is therefore a
//!   linear-only feature.
//!
//! Both states charge alike: one unit per evaluated state (start or
//! candidate), because a unit prices a *candidate considered* (the paper's
//! wall-clock analog), not the instructions spent computing it. The loops
//! add one unit per validity-rejected proposal attempt. So a bushy run at
//! budget `τ·N²·κ` is directly comparable to a linear run at that budget.

use std::sync::Arc;

use rand::Rng;

use ljqo_catalog::{CompiledQuery, JoinGraph};
use ljqo_cost::{CostModel, Evaluator, IncrementalEvaluator, TreeEvaluator};
use ljqo_plan::{JoinOrder, Move, MoveGenerator, MoveSet, TreeMoveSet, TreePlan};

/// One evolving search state: the interface the II and SA loops are
/// written against.
pub(crate) trait SearchState<'a> {
    /// A copy of the current state, for [`SearchState::restore`].
    type Snapshot;

    /// Jump to `start` (a valid order of the component) and evaluate it,
    /// charging one unit. Returns its cost.
    fn start(&mut self, ev: &mut Evaluator<'a>, start: JoinOrder) -> f64;

    /// Sample, apply and validate one random move. Returns how many
    /// proposals were tried (1 = the first was valid), or `None` when no
    /// valid neighbor was found (a component too small to perturb).
    fn propose<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<u32>;

    /// Cost of the applied move, charging one unit. Follow with
    /// [`SearchState::commit`] or [`SearchState::rollback`].
    fn cost_pending(&mut self, ev: &mut Evaluator<'a>) -> f64;

    /// Keep the evaluated move.
    fn commit(&mut self);

    /// Undo the evaluated move.
    fn rollback(&mut self);

    /// A copy of the current (resolved) state.
    fn snapshot(&self) -> Self::Snapshot;

    /// Return to a snapshot taken earlier. Its cost was paid when it was
    /// first evaluated, so nothing is charged.
    fn restore(&mut self, snapshot: Self::Snapshot);

    /// Move to the best state found so far, uncharged like
    /// [`SearchState::restore`]. Returns its cost, or `None` when nothing
    /// has been evaluated.
    fn restart_from_best(&mut self, ev: &Evaluator<'a>) -> Option<f64>;

    /// Cost of the best state found so far.
    fn best_cost(&self, ev: &Evaluator<'a>) -> f64;
}

/// How the linear state costs candidates.
// One MovePath lives in each linear state and is replaced at every start;
// boxing the evaluator would only add indirection to the hot loop.
#[allow(clippy::large_enum_variant)]
enum MovePath<'a> {
    /// Re-evaluate the full order for every candidate: models with
    /// [`CostModel::supports_incremental`]` == false` (e.g. fault
    /// injectors that hook the whole-order evaluation).
    Full { order: JoinOrder },
    /// Delta evaluation against memoized prefix state
    /// ([`IncrementalEvaluator`]): a move is costed in `O(window)`
    /// instead of `O(N)`.
    Inc { inc: IncrementalEvaluator<'a> },
}

impl MovePath<'_> {
    fn order(&self) -> &JoinOrder {
        match self {
            MovePath::Full { order } => order,
            MovePath::Inc { inc } => inc.order(),
        }
    }
}

/// The linear search state: a join order, its move generator and its
/// costing path.
pub(crate) struct OrderState<'a> {
    graph: &'a JoinGraph,
    gen: MoveGenerator,
    path: MovePath<'a>,
    /// The applied, not yet resolved move (the full path undoes it).
    pending: Option<Move>,
}

impl<'a> OrderState<'a> {
    /// A state proposing `moves` through the compiled windowed filter.
    pub(crate) fn new(ev: &Evaluator<'a>, moves: MoveSet) -> Self {
        Self::with_generator(
            ev,
            MoveGenerator::with_compiled(ev.compiled().clone(), moves),
        )
    }

    /// A state proposing through `gen`, which must be built for `ev`'s
    /// query.
    pub(crate) fn with_generator(ev: &Evaluator<'a>, gen: MoveGenerator) -> Self {
        OrderState {
            graph: ev.query().graph(),
            gen,
            path: MovePath::Full {
                order: JoinOrder::new(Vec::new()),
            },
            pending: None,
        }
    }
}

impl<'a> SearchState<'a> for OrderState<'a> {
    type Snapshot = JoinOrder;

    /// Chooses the costing path from the model.
    fn start(&mut self, ev: &mut Evaluator<'a>, start: JoinOrder) -> f64 {
        // Any windowed validity cache inside the generator refers to the
        // previous state.
        self.gen.reset();
        if ev.model().supports_incremental() {
            let inc = ev.begin_incremental(start);
            let cost = inc.current_cost();
            self.path = MovePath::Inc { inc };
            cost
        } else {
            let cost = ev.cost(&start);
            self.path = MovePath::Full { order: start };
            cost
        }
    }

    fn propose<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<u32> {
        let order = match &mut self.path {
            MovePath::Full { order } => order,
            MovePath::Inc { inc } => inc.order_mut(),
        };
        let (mv, attempts) = self.gen.propose_counted(self.graph, order, rng)?;
        self.pending = Some(mv);
        Some(attempts)
    }

    /// Updates the evaluator's best-so-far.
    fn cost_pending(&mut self, ev: &mut Evaluator<'a>) -> f64 {
        match &mut self.path {
            MovePath::Full { order } => ev.cost(order),
            MovePath::Inc { inc } => {
                let mv = self
                    .pending
                    .as_ref()
                    .expect("cost_pending without a proposal");
                ev.cost_move(inc, mv)
            }
        }
    }

    fn commit(&mut self) {
        self.pending = None;
        if let MovePath::Inc { inc } = &mut self.path {
            inc.commit();
        }
    }

    fn rollback(&mut self) {
        let mv = self.pending.take().expect("rollback without a proposal");
        match &mut self.path {
            MovePath::Full { order } => mv.undo(order),
            MovePath::Inc { inc } => inc.rollback(),
        }
    }

    fn snapshot(&self) -> JoinOrder {
        self.path.order().clone()
    }

    /// The incremental path rebuilds its memoized state.
    fn restore(&mut self, snapshot: JoinOrder) {
        match &mut self.path {
            MovePath::Full { order } => *order = snapshot,
            MovePath::Inc { inc } => inc.reset(snapshot),
        }
        self.gen.reset();
    }

    fn restart_from_best(&mut self, ev: &Evaluator<'a>) -> Option<f64> {
        let (best, cost) = ev.best()?;
        self.restore(best.clone());
        Some(cost)
    }

    fn best_cost(&self, ev: &Evaluator<'a>) -> f64 {
        ev.best_cost()
    }
}

/// The bushy search state: a tree under path-to-root incremental costing,
/// and the best tree it has visited.
pub(crate) struct TreeState<'a> {
    model: &'a dyn CostModel,
    compiled: Arc<CompiledQuery>,
    moves: TreeMoveSet,
    /// The current tree and the best one visited, from the first start
    /// on (later starts reuse the evaluator's buffers).
    trees: Option<(TreeEvaluator<'a>, TreePlan)>,
    best_cost: f64,
}

impl<'a> TreeState<'a> {
    /// A state proposing tree moves from `moves`.
    pub(crate) fn new(ev: &Evaluator<'a>, moves: TreeMoveSet) -> Self {
        TreeState {
            model: ev.model(),
            compiled: ev.compiled().clone(),
            moves,
            trees: None,
            best_cost: f64::INFINITY,
        }
    }

    /// The best tree visited and its cost, if any state was started.
    pub(crate) fn into_best(self) -> Option<(TreePlan, f64)> {
        self.trees.map(|(_, best)| (best, self.best_cost))
    }

    fn te(&mut self) -> &mut TreeEvaluator<'a> {
        &mut self
            .trees
            .as_mut()
            .expect("tree state used before its first start")
            .0
    }

    /// Record the current tree as the best if `cost` beats it.
    fn note(&mut self, cost: f64) {
        if let Some((te, best)) = &mut self.trees {
            if cost < self.best_cost {
                self.best_cost = cost;
                best.copy_from(te.plan());
            }
        }
    }
}

impl<'a> SearchState<'a> for TreeState<'a> {
    type Snapshot = TreePlan;

    fn start(&mut self, ev: &mut Evaluator<'a>, start: JoinOrder) -> f64 {
        let plan = TreePlan::from_order(&self.compiled, start.rels());
        match &mut self.trees {
            Some((te, _)) => te.reset(plan),
            None => {
                let te = TreeEvaluator::new(self.model, self.compiled.clone(), plan);
                let best = te.plan().clone();
                self.trees = Some((te, best));
            }
        }
        let cost = self.te().current_cost();
        ev.charge_eval();
        self.note(cost);
        cost
    }

    fn propose<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<u32> {
        let moves = self.moves;
        self.te()
            .propose(&moves, rng)
            .map(|(_mv, attempts)| attempts)
    }

    fn cost_pending(&mut self, ev: &mut Evaluator<'a>) -> f64 {
        let cost = self.te().eval_pending();
        ev.charge_eval();
        cost
    }

    fn commit(&mut self) {
        self.te().commit();
        let cost = self.te().current_cost();
        self.note(cost);
    }

    fn rollback(&mut self) {
        self.te().rollback();
    }

    fn snapshot(&self) -> TreePlan {
        let (te, _) = self.trees.as_ref().expect("a started tree state");
        te.plan().clone()
    }

    fn restore(&mut self, snapshot: TreePlan) {
        self.te().reset_from(&snapshot);
    }

    fn restart_from_best(&mut self, _ev: &Evaluator<'a>) -> Option<f64> {
        let (te, best) = self.trees.as_mut()?;
        te.reset_from(best);
        Some(self.best_cost)
    }

    fn best_cost(&self, _ev: &Evaluator<'a>) -> f64 {
        self.best_cost
    }
}
