//! Simulated annealing (paper Figure 2; SG88; Johnson et al. 1987).
//!
//! The variant SG88 adopted from Johnson, Aragon, McGeoch & Schevon:
//!
//! * the initial temperature is calibrated by sampling random moves so
//!   that a target fraction of uphill moves would be accepted;
//! * each temperature runs an equilibrium *chain* of `sizeFactor · N`
//!   proposed moves;
//! * geometric cooling (`T ← r·T`);
//! * the system is *frozen* when the best solution has not improved for a
//!   number of consecutive chains and the acceptance ratio has collapsed.
//!
//! The paper's stopping condition includes the overall time limit; as an
//! anytime extension, a frozen annealer with budget remaining can re-heat
//! from the best state found (`restart_on_frozen`), so that SA never idles
//! while its competitors keep searching.
//!
//! The same loop anneals join orders and bushy trees (see
//! [`crate::search`]).

use rand::Rng;

use ljqo_catalog::RelId;
use ljqo_cost::Evaluator;
use ljqo_plan::{random_valid_order, JoinOrder, MoveSet};

use crate::search::SearchState;

/// Simulated annealing parameters (defaults follow SG88 / JAMS87).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimulatedAnnealing {
    /// Move-set composition for join orders (bushy runs sample
    /// [`MethodRunner::tree_moves`](crate::MethodRunner::tree_moves)).
    pub move_set: MoveSet,
    /// Chain length multiplier: each temperature proposes
    /// `size_factor · N` moves.
    pub size_factor: usize,
    /// Geometric cooling rate `r` in `T ← r·T`.
    pub cooling: f64,
    /// Target acceptance probability for uphill moves at the initial
    /// temperature.
    pub init_accept: f64,
    /// Frozen after this many consecutive chains without improving the
    /// best solution (with collapsed acceptance).
    pub frozen_chains: usize,
    /// Acceptance ratio below which a chain counts as collapsed.
    pub min_accept_ratio: f64,
    /// Re-heat from the best state instead of stopping when frozen with
    /// budget to spare.
    pub restart_on_frozen: bool,
}

impl Default for SimulatedAnnealing {
    fn default() -> Self {
        SimulatedAnnealing {
            move_set: MoveSet::default(),
            size_factor: 16,
            cooling: 0.95,
            init_accept: 0.4,
            frozen_chains: 5,
            min_accept_ratio: 0.02,
            restart_on_frozen: true,
        }
    }
}

impl SimulatedAnnealing {
    /// Calibrate the initial temperature by a short always-accepting
    /// random walk from `state`'s current state (already paid for, at
    /// `start_cost`): `T₀ = mean(uphill Δ) / −ln(p₀)` makes the average
    /// uphill move acceptable with probability `p₀`. The walk consumes
    /// budget like any other search work; the state is then returned to
    /// its start for free, so the annealing loop continues on the same
    /// evaluated state without charging it twice.
    pub(crate) fn initial_temperature<'a, S: SearchState<'a>, R: Rng + ?Sized>(
        &self,
        ev: &mut Evaluator<'a>,
        state: &mut S,
        start_cost: f64,
        rng: &mut R,
    ) -> f64 {
        let home = state.snapshot();
        let mut current = start_cost;
        let mut uphill_sum = 0.0f64;
        let mut uphill_n = 0u32;
        for _ in 0..20 {
            if ev.exhausted() {
                break;
            }
            let Some(attempts) = state.propose(rng) else {
                break;
            };
            ev.charge(u64::from(attempts) - 1);
            let c = state.cost_pending(ev);
            let delta = c - current;
            if delta > 0.0 && delta.is_finite() {
                uphill_sum += delta;
                uphill_n += 1;
            }
            state.commit(); // random walk: always accept during calibration
            current = c;
        }
        state.restore(home);
        if uphill_n == 0 {
            1.0
        } else {
            (uphill_sum / uphill_n as f64) / -(self.init_accept.ln())
        }
    }

    /// Anneal `state` from `start` (charged one unit) until frozen (and
    /// out of restarts) or the budget is exhausted. The best visited state
    /// is the state's best.
    pub(crate) fn anneal<'a, S: SearchState<'a>, R: Rng + ?Sized>(
        &self,
        ev: &mut Evaluator<'a>,
        state: &mut S,
        start: JoinOrder,
        rng: &mut R,
    ) {
        let n = start.len();
        let mut current = state.start(ev, start);
        if n < 2 {
            return;
        }
        let t0 = self.initial_temperature(ev, state, current, rng);
        let chain_length = (self.size_factor * n).max(4);

        let mut temp = t0;
        let mut stale_chains = 0usize;

        while !ev.exhausted() {
            let best_before = state.best_cost(ev);
            let mut accepted = 0usize;
            for _ in 0..chain_length {
                if ev.exhausted() {
                    break;
                }
                let Some(attempts) = state.propose(rng) else {
                    break;
                };
                ev.charge(u64::from(attempts) - 1);
                let candidate = state.cost_pending(ev);
                let delta = candidate - current;
                let accept = delta <= 0.0 || rng.gen::<f64>() < (-delta / temp).exp();
                if accept {
                    state.commit();
                    current = candidate;
                    accepted += 1;
                } else {
                    state.rollback();
                }
            }
            temp *= self.cooling;
            let improved = state.best_cost(ev) < best_before;
            let collapsed = (accepted as f64) < self.min_accept_ratio * chain_length as f64;
            if improved {
                stale_chains = 0;
            } else {
                stale_chains += 1;
            }
            if stale_chains >= self.frozen_chains && collapsed {
                if self.restart_on_frozen && !ev.exhausted() {
                    // Re-heat from the best state found so far. Its cost
                    // was already paid when it was first evaluated, so the
                    // restart itself charges nothing.
                    if let Some(best_cost) = state.restart_from_best(ev) {
                        current = best_cost;
                    }
                    temp = (t0 * 0.5).max(f64::MIN_POSITIVE);
                    stale_chains = 0;
                } else {
                    break;
                }
            }
        }
    }

    /// The plain SA method: anneal `state` from a random valid start.
    pub(crate) fn run<'a, S: SearchState<'a>, R: Rng + ?Sized>(
        &self,
        ev: &mut Evaluator<'a>,
        state: &mut S,
        component: &[RelId],
        rng: &mut R,
    ) {
        let start = random_valid_order(ev.query().graph(), component, rng);
        self.anneal(ev, state, start, rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::OrderState;
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
    fn sa_finds_good_plans_within_budget() {
        let q = chain_query();
        let model = MemoryCostModel::default();
        let mut ev = Evaluator::with_budget(&q, &model, 5_000);
        let mut rng = SmallRng::seed_from_u64(23);
        let comp: Vec<RelId> = q.rel_ids().collect();
        let sa = SimulatedAnnealing::default();
        let mut state = OrderState::new(&ev, sa.move_set);
        sa.run(&mut ev, &mut state, &comp, &mut rng);
        let (best, cost) = ev.best().unwrap();
        assert!(is_valid(q.graph(), best.rels()));
        // Should clearly beat an average random state.
        let mut sum = 0.0;
        for _ in 0..50 {
            let o = random_valid_order(q.graph(), &comp, &mut rng);
            sum += ev.cost_uncharged(&o);
        }
        assert!(cost < sum / 50.0);
        // One indivisible step (propose retries + eval) may overrun.
        assert!(ev.used() <= 5_000 + 64 + 4 * 6);
    }

    #[test]
    fn sa_without_restart_freezes_before_budget() {
        let q = chain_query();
        let model = MemoryCostModel::default();
        let mut ev = Evaluator::with_budget(&q, &model, 2_000_000);
        let mut rng = SmallRng::seed_from_u64(3);
        let comp: Vec<RelId> = q.rel_ids().collect();
        let sa = SimulatedAnnealing {
            restart_on_frozen: false,
            ..SimulatedAnnealing::default()
        };
        let mut state = OrderState::new(&ev, sa.move_set);
        sa.run(&mut ev, &mut state, &comp, &mut rng);
        assert!(
            !ev.exhausted(),
            "a non-restarting annealer must freeze long before 2M units"
        );
        assert!(ev.best().is_some());
    }

    #[test]
    fn singleton_component_is_trivial() {
        let q = chain_query();
        let model = MemoryCostModel::default();
        let mut ev = Evaluator::new(&q, &model);
        let mut rng = SmallRng::seed_from_u64(1);
        let sa = SimulatedAnnealing::default();
        let mut state = OrderState::new(&ev, sa.move_set);
        sa.run(&mut ev, &mut state, &[RelId(4)], &mut rng);
        assert_eq!(ev.best().unwrap().0.rels(), &[RelId(4)]);
    }

    #[test]
    fn initial_temperature_is_positive_and_finite() {
        let q = chain_query();
        let model = MemoryCostModel::default();
        let mut ev = Evaluator::new(&q, &model);
        let mut rng = SmallRng::seed_from_u64(7);
        let comp: Vec<RelId> = q.rel_ids().collect();
        let sa = SimulatedAnnealing::default();
        let mut state = OrderState::new(&ev, sa.move_set);
        let start = random_valid_order(q.graph(), &comp, &mut rng);
        let start_cost = state.start(&mut ev, start.clone());
        let t0 = sa.initial_temperature(&mut ev, &mut state, start_cost, &mut rng);
        assert!(t0.is_finite() && t0 > 0.0);
        assert!(start_cost.is_finite());
        // The state comes back parked on the start state, ready to anneal.
        assert_eq!(state.snapshot(), start);
    }

    #[test]
    fn start_state_is_charged_exactly_once() {
        // Regression: temperature calibration once evaluated the start
        // state and `anneal` then evaluated it again — charging the start
        // twice. With a budget of one unit the whole run performs exactly
        // one evaluation (the start) and stops, instead of spending a
        // unit it never had.
        let q = chain_query();
        let model = MemoryCostModel::default();
        let mut ev = Evaluator::with_budget(&q, &model, 1);
        let mut rng = SmallRng::seed_from_u64(5);
        let comp: Vec<RelId> = q.rel_ids().collect();
        let sa = SimulatedAnnealing::default();
        let mut state = OrderState::new(&ev, sa.move_set);
        sa.run(&mut ev, &mut state, &comp, &mut rng);
        assert_eq!(ev.used(), 1);
        assert_eq!(ev.n_evals(), 1);
        assert!(ev.best().is_some());
    }
}
