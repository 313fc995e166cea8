//! Random sampling — the strawman baseline from SG88.
//!
//! Swami & Gupta's 1988 comparison included the simplest conceivable
//! technique: draw random valid states and keep the best. It loses to
//! iterative improvement (which is why the 1989 paper drops it), but it
//! calibrates the others — a method that cannot beat random sampling at
//! equal budget is doing worse than no search strategy at all. The
//! `baseline_dp` bench includes it for exactly that purpose.

use rand::Rng;

use ljqo_catalog::RelId;
use ljqo_cost::Evaluator;
use ljqo_plan::random_valid_order;

/// Pure random sampling of the valid-plan space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RandomSampling;

impl RandomSampling {
    /// Draw and evaluate random valid states until the budget runs out.
    /// The best state is tracked by the evaluator.
    pub fn run<R: Rng + ?Sized>(&self, ev: &mut Evaluator<'_>, component: &[RelId], rng: &mut R) {
        while !ev.exhausted() {
            let order = random_valid_order(ev.query().graph(), component, rng);
            ev.cost(&order);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Method, MethodRunner};
    use ljqo_cost::MemoryCostModel;
    use ljqo_plan::validity::is_valid;
    use ljqo_workload_testutil::default_query;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    // A tiny local stand-in for the workload generator (core cannot
    // depend on ljqo-workload without a cycle), shared by this module.
    mod ljqo_workload_testutil {
        use ljqo_catalog::{Query, QueryBuilder};

        pub fn default_query() -> Query {
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
                .join("b", "e", 0.03)
                .build()
                .unwrap()
        }
    }

    #[test]
    fn sampling_respects_budget_and_finds_valid_states() {
        let q = default_query();
        let model = MemoryCostModel::default();
        let mut ev = Evaluator::with_budget(&q, &model, 500);
        let comp: Vec<RelId> = q.rel_ids().collect();
        let mut rng = SmallRng::seed_from_u64(1);
        RandomSampling.run(&mut ev, &comp, &mut rng);
        assert!(ev.exhausted());
        assert_eq!(ev.n_evals(), 500);
        let (best, _) = ev.best().unwrap();
        assert!(is_valid(q.graph(), best.rels()));
    }

    #[test]
    fn iterative_improvement_beats_random_sampling() {
        // The SG88 headline at matched budget: II's best local minimum is
        // at least as good as the best of the same number of random
        // samples — usually strictly better on average.
        let q = default_query();
        let model = MemoryCostModel::default();
        let comp: Vec<RelId> = q.rel_ids().collect();
        let budget = 2_000;
        let mut wins = 0;
        let trials = 10;
        for seed in 0..trials {
            let mut ev_rs = Evaluator::with_budget(&q, &model, budget);
            let mut rng = SmallRng::seed_from_u64(seed);
            RandomSampling.run(&mut ev_rs, &comp, &mut rng);

            let mut ev_ii = Evaluator::with_budget(&q, &model, budget);
            let mut rng = SmallRng::seed_from_u64(seed ^ 0xffff);
            MethodRunner::default().run(Method::Ii, &mut ev_ii, &comp, &mut rng);

            if ev_ii.best_cost() <= ev_rs.best_cost() * (1.0 + 1e-12) {
                wins += 1;
            }
        }
        assert!(
            wins >= 8,
            "II beat random sampling on only {wins}/{trials} trials"
        );
    }

    #[test]
    fn methods_beat_random_sampling_at_equal_budget() {
        let q = default_query();
        let model = MemoryCostModel::default();
        let comp: Vec<RelId> = q.rel_ids().collect();
        let budget = 2_000;

        let mut ev_rs = Evaluator::with_budget(&q, &model, budget);
        let mut rng = SmallRng::seed_from_u64(9);
        RandomSampling.run(&mut ev_rs, &comp, &mut rng);

        for method in [Method::Iai, Method::Agi] {
            let mut ev = Evaluator::with_budget(&q, &model, budget);
            let mut rng = SmallRng::seed_from_u64(9);
            MethodRunner::default().run(method, &mut ev, &comp, &mut rng);
            assert!(
                ev.best_cost() <= ev_rs.best_cost() * 1.05,
                "{method} lost badly to random sampling"
            );
        }
    }
}
