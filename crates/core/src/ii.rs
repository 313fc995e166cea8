//! Iterative improvement (paper Figure 1; SG88).
//!
//! One *run* starts from a valid state and repeatedly samples a random
//! adjacent state, moving there whenever it is cheaper, until a local
//! minimum is reached. Because the neighborhood is too large to enumerate
//! at `N = 100`, a state is *declared* a local minimum after a configurable
//! number of consecutive non-improving sampled moves (SG88's sampling
//! criterion). The surrounding method repeats runs from fresh start states
//! and keeps the best local minimum — which the search state tracks (see
//! [`crate::search`]), since within a run the accepted states decrease
//! monotonically. The same loop searches join orders and bushy trees.

use rand::Rng;

use ljqo_catalog::RelId;
use ljqo_cost::Evaluator;
use ljqo_plan::{random_valid_order, JoinOrder, MoveGenerator, MoveSet};

use crate::search::{OrderState, SearchState};

/// Iterative improvement parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterativeImprovement {
    /// Move-set composition used to sample adjacent join orders (bushy
    /// runs sample [`MethodRunner::tree_moves`](crate::MethodRunner::tree_moves)).
    pub move_set: MoveSet,
    /// Local-minimum declaration threshold, as a fraction of `n²`: a run
    /// ends after `max(32, fail_factor·n²)` consecutive failed moves.
    /// Larger values descend deeper but finish fewer runs per budget.
    pub fail_factor: f64,
}

impl Default for IterativeImprovement {
    fn default() -> Self {
        IterativeImprovement {
            move_set: MoveSet::default(),
            fail_factor: 0.25,
        }
    }
}

impl IterativeImprovement {
    /// Consecutive-failure threshold for an `n`-relation component.
    pub fn fail_limit(&self, n: usize) -> u64 {
        let by_factor = (self.fail_factor * (n * n) as f64) as u64;
        by_factor.max(32)
    }

    /// One greedy descent of `state` from `start` (charged one unit).
    /// Returns the cost of the local minimum reached (or of the last
    /// state when the budget ran out first).
    pub(crate) fn descend<'a, S: SearchState<'a>, R: Rng + ?Sized>(
        &self,
        ev: &mut Evaluator<'a>,
        state: &mut S,
        start: JoinOrder,
        rng: &mut R,
    ) -> f64 {
        let fail_limit = self.fail_limit(start.len());
        let mut current = state.start(ev, start);
        let mut fails = 0u64;
        while fails < fail_limit && !ev.exhausted() {
            let Some(attempts) = state.propose(rng) else {
                break; // no perturbable neighborhood (tiny component)
            };
            // Rejected proposals each performed an O(N) validity check;
            // charge them like the paper's wall clock would.
            ev.charge(u64::from(attempts) - 1);
            let candidate = state.cost_pending(ev);
            if candidate < current {
                state.commit();
                current = candidate;
                fails = 0;
            } else {
                state.rollback();
                // Every sampled perturbation that failed to improve —
                // including the validity-rejected ones — counts toward
                // declaring a local minimum, mirroring the sampled
                // local-minimum test of SG88's wall-clock implementation.
                fails += u64::from(attempts);
            }
        }
        current
    }

    /// The full II method: repeated descents of `state` from random valid
    /// start states until the budget is exhausted. The best local minimum
    /// is the state's best.
    pub(crate) fn run<'a, S: SearchState<'a>, R: Rng + ?Sized>(
        &self,
        ev: &mut Evaluator<'a>,
        state: &mut S,
        component: &[RelId],
        rng: &mut R,
    ) {
        while !ev.exhausted() {
            let start = random_valid_order(ev.query().graph(), component, rng);
            self.descend(ev, state, start, rng);
            if component.len() < 3 {
                // Nothing more to explore: at most two states exist.
                break;
            }
        }
    }

    /// The II method over join orders with a caller-built move
    /// generator, tracked by the evaluator like
    /// [`MethodRunner::run`](crate::MethodRunner::run) with [`Method::Ii`](crate::Method::Ii),
    /// which uses the compiled generator
    /// ([`MoveGenerator::with_compiled`]). Benchmarks hand in the
    /// full-scan reference filter ([`MoveGenerator::new`]) to measure
    /// what the compiled one saves; both propose the same moves.
    pub fn run_with_generator<R: Rng + ?Sized>(
        &self,
        ev: &mut Evaluator<'_>,
        gen: MoveGenerator,
        component: &[RelId],
        rng: &mut R,
    ) {
        let mut state = OrderState::with_generator(ev, gen);
        self.run(ev, &mut state, component, rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::TreeState;
    use ljqo_catalog::{Query, QueryBuilder};
    use ljqo_cost::MemoryCostModel;
    use ljqo_plan::validity::is_valid;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn chain_query() -> Query {
        QueryBuilder::new()
            .relation("a", 3000)
            .relation("b", 12)
            .relation("c", 700)
            .relation("d", 55)
            .relation("e", 1400)
            .relation("f", 9)
            .join("a", "b", 0.01)
            .join("b", "c", 0.002)
            .join("c", "d", 0.05)
            .join("d", "e", 0.001)
            .join("e", "f", 0.2)
            .build()
            .unwrap()
    }

    #[test]
    fn descend_is_monotone() {
        let q = chain_query();
        let model = MemoryCostModel::default();
        let mut ev = Evaluator::new(&q, &model);
        let mut rng = SmallRng::seed_from_u64(5);
        let comp: Vec<RelId> = q.rel_ids().collect();
        let order = random_valid_order(q.graph(), &comp, &mut rng);
        let start_cost = ev.cost_uncharged(&order);
        let ii = IterativeImprovement::default();
        let mut state = OrderState::new(&ev, ii.move_set);
        let end_cost = ii.descend(&mut ev, &mut state, order, &mut rng);
        assert!(end_cost <= start_cost);
        // The descent's final state is the evaluator's best state.
        let (best, best_cost) = ev.best().unwrap();
        assert!(is_valid(q.graph(), best.rels()));
        assert_eq!(best_cost, end_cost);
    }

    #[test]
    fn tree_descend_is_monotone_and_ends_at_the_best_tree() {
        let q = chain_query();
        let model = MemoryCostModel::default();
        let mut ev = Evaluator::new(&q, &model);
        let mut rng = SmallRng::seed_from_u64(5);
        let comp: Vec<RelId> = q.rel_ids().collect();
        let order = random_valid_order(q.graph(), &comp, &mut rng);
        let start_cost = ev.cost_uncharged(&order);
        let mut state = TreeState::new(&ev, ljqo_plan::TreeMoveSet::default());
        let end_cost =
            IterativeImprovement::default().descend(&mut ev, &mut state, order, &mut rng);
        // A left-deep start prices like its order, and a descent only
        // accepts improvements, so it ends at the best tree it visited.
        assert!(end_cost <= start_cost);
        let (best, best_cost) = state.into_best().unwrap();
        assert_eq!(best_cost, end_cost);
        assert!(best.audit(ev.compiled()).is_ok());
        // Tree candidates are charged but never feed the order channel.
        assert!(ev.best().is_none());
        assert!(ev.n_evals() > 1 && ev.used() >= ev.n_evals());
    }

    #[test]
    fn tree_start_alone_is_the_best_tree_when_the_budget_ends_there() {
        let q = chain_query();
        let model = MemoryCostModel::default();
        let mut ev = Evaluator::with_budget(&q, &model, 1);
        let mut rng = SmallRng::seed_from_u64(5);
        let comp: Vec<RelId> = q.rel_ids().collect();
        let order = random_valid_order(q.graph(), &comp, &mut rng);
        let start_cost = ev.cost_uncharged(&order);
        let mut state = TreeState::new(&ev, ljqo_plan::TreeMoveSet::default());
        let end_cost =
            IterativeImprovement::default().descend(&mut ev, &mut state, order, &mut rng);
        assert_eq!((ev.used(), ev.n_evals()), (1, 1));
        assert_eq!(end_cost, start_cost);
        assert_eq!(state.into_best().map(|(_, cost)| cost), Some(start_cost));
    }

    #[test]
    fn run_respects_budget_and_finds_good_plans() {
        let q = chain_query();
        let model = MemoryCostModel::default();
        let mut ev = Evaluator::with_budget(&q, &model, 3_000);
        let mut rng = SmallRng::seed_from_u64(17);
        let comp: Vec<RelId> = q.rel_ids().collect();
        let ii = IterativeImprovement::default();
        let mut state = OrderState::new(&ev, ii.move_set);
        ii.run(&mut ev, &mut state, &comp, &mut rng);
        assert!(ev.exhausted());
        let (best, cost) = ev.best().unwrap();
        assert_eq!(best.len(), 6);
        assert!(is_valid(q.graph(), best.rels()));
        // Must clearly beat the average random state.
        let mut sum = 0.0;
        for _ in 0..50 {
            let o = random_valid_order(q.graph(), &comp, &mut rng);
            sum += ev.cost_uncharged(&o);
        }
        assert!(cost < sum / 50.0);
    }

    #[test]
    fn fail_limit_scales_with_n() {
        let ii = IterativeImprovement::default();
        assert_eq!(ii.fail_limit(5), 32); // floor
        assert_eq!(ii.fail_limit(50), 625);
    }

    #[test]
    fn tiny_component_terminates() {
        let q = QueryBuilder::new()
            .relation("a", 10)
            .relation("b", 20)
            .join("a", "b", 0.1)
            .build()
            .unwrap();
        let model = MemoryCostModel::default();
        let mut ev = Evaluator::with_budget(&q, &model, 10_000);
        let mut rng = SmallRng::seed_from_u64(2);
        let comp: Vec<RelId> = q.rel_ids().collect();
        let ii = IterativeImprovement::default();
        let mut state = OrderState::new(&ev, ii.move_set);
        ii.run(&mut ev, &mut state, &comp, &mut rng);
        // Must not spin forever nor necessarily exhaust the budget.
        assert!(ev.best().is_some());
    }
}
