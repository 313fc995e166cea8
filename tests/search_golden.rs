//! Golden search fixture: every method, in both search spaces, pinned bit
//! for bit.
//!
//! Each row runs one [`Method`] end to end — linear rows through
//! [`try_optimize`], bushy rows through [`try_optimize_bushy`] — on one of
//! three queries (a default-benchmark query with 20 joins, a JOB star with
//! 12 joins, a hub-and-chains query with 12 joins) under two seeds, and
//! records the plan, the total cost's bit pattern, the budget units used
//! and the number of plan evaluations. Two extra linear rows run under a
//! model that opts out of incremental evaluation, which pins the
//! full-evaluation arm of the search loops as well, and two annealing
//! rows at a long time limit pin the re-heat from the best state.
//!
//! The expected values were recorded at commit `f4f099b`, before the
//! linear and bushy iterative-improvement and annealing loops were merged
//! into one generic loop each. A refactor of the search loops must draw
//! the same random numbers in the same order and charge the same units,
//! so every row here must stay identical.

use ljqo::prelude::*;
use ljqo_workload::{
    generate_hub_chains_query, generate_job_query, generate_query, Benchmark, JobShape, JobSpec,
};

/// The memory model with incremental evaluation switched off, so the
/// search loops cost every candidate by a full walk of the order.
struct FullWalkOnly(MemoryCostModel);

impl CostModel for FullWalkOnly {
    fn join_cost(&self, ctx: &JoinCtx) -> f64 {
        self.0.join_cost(ctx)
    }

    fn name(&self) -> &'static str {
        "full-walk-only"
    }

    fn lower_bound(&self, query: &Query, component: &[RelId]) -> f64 {
        self.0.lower_bound(query, component)
    }

    fn supports_incremental(&self) -> bool {
        false
    }
}

const SEEDS: [u64; 2] = [7, 1989];

fn methods() -> impl Iterator<Item = Method> {
    Method::ALL
        .into_iter()
        .chain([Method::Cardfree, Method::BushyIi, Method::BushySa])
}

fn queries() -> Vec<(&'static str, Query)> {
    vec![
        (
            "default20",
            generate_query(&Benchmark::Default.spec(), 20, 0x5ea7),
        ),
        (
            "star12",
            generate_job_query(&JobSpec::new(JobShape::Star), 12, 0x5ea7),
        ),
        ("hub12", generate_hub_chains_query(12, 0x5ea7)),
    ]
}

fn linear_row(
    label: &str,
    query: &Query,
    model: &dyn CostModel,
    config: &OptimizerConfig,
) -> String {
    let (method, seed) = (config.method, config.seed);
    let r = try_optimize(query, model, config).expect("linear search must succeed");
    let plan: Vec<String> = r
        .plan
        .segments
        .iter()
        .map(|s| {
            s.rels()
                .iter()
                .map(|r| r.0.to_string())
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect();
    format!(
        "linear {label} {method} seed={seed} units={} evals={} cost={:016x} plan={}",
        r.units_used,
        r.n_evals,
        r.cost.to_bits(),
        plan.join(" | ")
    )
}

fn bushy_row(
    label: &str,
    query: &Query,
    model: &dyn CostModel,
    config: &OptimizerConfig,
) -> String {
    let (method, seed) = (config.method, config.seed);
    let r = try_optimize_bushy(query, model, config).expect("bushy search must succeed");
    let trees: Vec<String> = r.trees.iter().map(|t| t.to_string()).collect();
    format!(
        "bushy {label} {method} seed={seed} units={} evals={} cost={:016x} plan={}",
        r.units_used,
        r.n_evals,
        r.cost.to_bits(),
        trees.join(" | ")
    )
}

fn actual_rows() -> Vec<String> {
    let model = MemoryCostModel::default();
    let mut rows = Vec::new();
    for (label, query) in queries() {
        for method in methods() {
            for seed in SEEDS {
                let config = OptimizerConfig::new(method).with_seed(seed);
                rows.push(linear_row(label, &query, &model, &config));
                rows.push(bushy_row(label, &query, &model, &config));
            }
        }
    }
    let full = FullWalkOnly(MemoryCostModel::default());
    let (label, query) = &queries()[0];
    for method in [Method::Iai, Method::Sa] {
        let config = OptimizerConfig::new(method).with_seed(SEEDS[0]);
        rows.push(linear_row(&format!("{label}-full"), query, &full, &config));
    }
    // At τ = 9 annealing never freezes. A 6-relation query at τ = 3000
    // freezes it repeatedly, so these rows pin the re-heat from the best
    // state in both spaces.
    let small = generate_query(&Benchmark::Default.spec(), 5, 0x5ea7);
    let config = OptimizerConfig::new(Method::Sa)
        .with_seed(SEEDS[0])
        .with_time_limit(3000.0);
    rows.push(linear_row("default5-tau3000", &small, &model, &config));
    rows.push(bushy_row("default5-tau3000", &small, &model, &config));
    rows
}

#[test]
fn every_method_in_both_spaces_matches_the_golden_rows() {
    let actual = actual_rows();
    let expected: Vec<&str> = GOLDEN.lines().filter(|l| !l.is_empty()).collect();
    let mismatches: Vec<String> = actual
        .iter()
        .zip(
            expected
                .iter()
                .map(|s| Some(*s))
                .chain(std::iter::repeat(None)),
        )
        .filter(|(a, e)| Some(a.as_str()) != *e)
        .map(|(a, e)| format!("  want {}\n   got {a}", e.unwrap_or("<missing>")))
        .collect();
    assert!(
        mismatches.is_empty() && actual.len() == expected.len(),
        "{} of {} rows differ ({} expected):\n{}\n\nfull actual table:\n{}",
        mismatches.len(),
        actual.len(),
        expected.len(),
        mismatches.join("\n"),
        actual.join("\n")
    );
}

const GOLDEN: &str = "
linear default20 II seed=7 units=18007 evals=8138 cost=40e7c1a3ee31d610 plan=1 0 12 7 2 9 6 20 15 16 13 11 18 14 5 3 19 17 8 10 4
bushy default20 II seed=7 units=18006 evals=3370 cost=40e4e0c1fa9e6264 plan=((R10 ⋈ (R8 ⋈ (R18 ⋈ (R17 ⋈ (R19 ⋈ (R11 ⋈ (R3 ⋈ (R5 ⋈ ((R16 ⋈ (R6 ⋈ (R13 ⋈ (R9 ⋈ (R2 ⋈ ((R7 ⋈ ((R1 ⋈ R0) ⋈ R12)) ⋈ (R20 ⋈ R15))))))) ⋈ R14))))))))) ⋈ R4)
linear default20 II seed=1989 units=18001 evals=8410 cost=40e7c1a9b1bc65e8 plan=1 0 12 7 20 15 2 9 6 16 13 11 18 14 5 3 19 17 8 10 4
bushy default20 II seed=1989 units=18005 evals=3349 cost=40e4e31a3761ca54 plan=((R10 ⋈ (R8 ⋈ (R17 ⋈ (R3 ⋈ (R11 ⋈ (R5 ⋈ (R14 ⋈ (R19 ⋈ (R18 ⋈ (R13 ⋈ ((R20 ⋈ R15) ⋈ (R16 ⋈ (R6 ⋈ (R9 ⋈ (R7 ⋈ ((R12 ⋈ (R1 ⋈ R0)) ⋈ R2)))))))))))))))) ⋈ R4)
linear default20 SA seed=7 units=18000 evals=9880 cost=40e7d875b8c7a886 plan=1 0 7 20 2 15 9 14 12 13 5 8 16 3 6 10 18 17 19 11 4
bushy default20 SA seed=7 units=18008 evals=3168 cost=40e62721482ff53a plan=(((R14 ⋈ (((((R17 ⋈ (((R2 ⋈ (R19 ⋈ ((R20 ⋈ (R18 ⋈ (R11 ⋈ (R0 ⋈ (R12 ⋈ (R1 ⋈ R7)))))) ⋈ R15))) ⋈ (R6 ⋈ R16)) ⋈ R9)) ⋈ R8) ⋈ R13) ⋈ R3) ⋈ R5)) ⋈ R10) ⋈ R4)
linear default20 SA seed=1989 units=18000 evals=9968 cost=40ea502b62272366 plan=0 1 12 18 2 7 11 9 20 6 19 13 15 3 5 16 17 14 8 10 4
bushy default20 SA seed=1989 units=18000 evals=3497 cost=40e9508bb066d310 plan=(((R18 ⋈ (((((((R12 ⋈ (((((((R20 ⋈ ((R1 ⋈ R7) ⋈ (R13 ⋈ R0))) ⋈ R2) ⋈ R15) ⋈ R6) ⋈ R14) ⋈ R5) ⋈ R16)) ⋈ R3) ⋈ R9) ⋈ R8) ⋈ R17) ⋈ R19) ⋈ R10)) ⋈ R4) ⋈ R11)
linear default20 SAA seed=7 units=18001 evals=10032 cost=40e7dd27e0b907c9 plan=1 0 7 20 12 15 8 2 17 10 13 6 16 9 14 3 5 11 18 19 4
bushy default20 SAA seed=7 units=18008 evals=3168 cost=40e62721482ff53a plan=(((R14 ⋈ (((((R17 ⋈ (((R2 ⋈ (R19 ⋈ ((R20 ⋈ (R18 ⋈ (R11 ⋈ (R0 ⋈ (R12 ⋈ (R1 ⋈ R7)))))) ⋈ R15))) ⋈ (R6 ⋈ R16)) ⋈ R9)) ⋈ R8) ⋈ R13) ⋈ R3) ⋈ R5)) ⋈ R10) ⋈ R4)
linear default20 SAA seed=1989 units=18001 evals=10059 cost=40e7c4e17c4b5530 plan=1 0 12 13 7 20 15 16 2 17 9 18 8 6 14 5 3 19 11 10 4
bushy default20 SAA seed=1989 units=18000 evals=3497 cost=40e9508bb066d310 plan=(((R18 ⋈ (((((((R12 ⋈ (((((((R20 ⋈ ((R1 ⋈ R7) ⋈ (R13 ⋈ R0))) ⋈ R2) ⋈ R15) ⋈ R6) ⋈ R14) ⋈ R5) ⋈ R16)) ⋈ R3) ⋈ R9) ⋈ R8) ⋈ R17) ⋈ R19) ⋈ R10)) ⋈ R4) ⋈ R11)
linear default20 SAK seed=7 units=18000 evals=9896 cost=40e7c28375de38dc plan=1 0 12 7 2 20 9 6 15 16 3 8 5 11 14 13 18 19 10 17 4
bushy default20 SAK seed=7 units=18008 evals=3168 cost=40e62721482ff53a plan=(((R14 ⋈ (((((R17 ⋈ (((R2 ⋈ (R19 ⋈ ((R20 ⋈ (R18 ⋈ (R11 ⋈ (R0 ⋈ (R12 ⋈ (R1 ⋈ R7)))))) ⋈ R15))) ⋈ (R6 ⋈ R16)) ⋈ R9)) ⋈ R8) ⋈ R13) ⋈ R3) ⋈ R5)) ⋈ R10) ⋈ R4)
linear default20 SAK seed=1989 units=18001 evals=9845 cost=40e81efb4c193d4a plan=1 12 2 0 7 13 18 20 15 8 9 10 3 6 16 19 5 14 17 11 4
bushy default20 SAK seed=1989 units=18000 evals=3497 cost=40e9508bb066d310 plan=(((R18 ⋈ (((((((R12 ⋈ (((((((R20 ⋈ ((R1 ⋈ R7) ⋈ (R13 ⋈ R0))) ⋈ R2) ⋈ R15) ⋈ R6) ⋈ R14) ⋈ R5) ⋈ R16)) ⋈ R3) ⋈ R9) ⋈ R8) ⋈ R17) ⋈ R19) ⋈ R10)) ⋈ R4) ⋈ R11)
linear default20 IAI seed=7 units=18001 evals=8184 cost=40e7c20c28482f58 plan=1 0 12 7 2 18 13 16 6 9 3 5 14 15 20 11 19 17 8 10 4
bushy default20 IAI seed=7 units=18006 evals=3370 cost=40e4e0c1fa9e6264 plan=((R10 ⋈ (R8 ⋈ (R18 ⋈ (R17 ⋈ (R19 ⋈ (R11 ⋈ (R3 ⋈ (R5 ⋈ ((R16 ⋈ (R6 ⋈ (R13 ⋈ (R9 ⋈ (R2 ⋈ ((R7 ⋈ ((R1 ⋈ R0) ⋈ R12)) ⋈ (R20 ⋈ R15))))))) ⋈ R14))))))))) ⋈ R4)
linear default20 IAI seed=1989 units=18000 evals=8173 cost=40e7c23061947fec plan=1 0 12 7 2 13 20 15 16 6 9 11 18 17 14 5 3 19 8 10 4
bushy default20 IAI seed=1989 units=18005 evals=3349 cost=40e4e31a3761ca54 plan=((R10 ⋈ (R8 ⋈ (R17 ⋈ (R3 ⋈ (R11 ⋈ (R5 ⋈ (R14 ⋈ (R19 ⋈ (R18 ⋈ (R13 ⋈ ((R20 ⋈ R15) ⋈ (R16 ⋈ (R6 ⋈ (R9 ⋈ (R7 ⋈ ((R12 ⋈ (R1 ⋈ R0)) ⋈ R2)))))))))))))))) ⋈ R4)
linear default20 IKI seed=7 units=18001 evals=7829 cost=40e7c199b4650e5f plan=1 0 12 7 2 20 15 9 6 16 13 14 5 3 11 18 19 17 8 10 4
bushy default20 IKI seed=7 units=18006 evals=3370 cost=40e4e0c1fa9e6264 plan=((R10 ⋈ (R8 ⋈ (R18 ⋈ (R17 ⋈ (R19 ⋈ (R11 ⋈ (R3 ⋈ (R5 ⋈ ((R16 ⋈ (R6 ⋈ (R13 ⋈ (R9 ⋈ (R2 ⋈ ((R7 ⋈ ((R1 ⋈ R0) ⋈ R12)) ⋈ (R20 ⋈ R15))))))) ⋈ R14))))))))) ⋈ R4)
linear default20 IKI seed=1989 units=18000 evals=7960 cost=40e7c199b4650e5c plan=1 0 12 7 2 20 15 9 6 16 13 14 5 3 11 18 19 17 8 10 4
bushy default20 IKI seed=1989 units=18005 evals=3349 cost=40e4e31a3761ca54 plan=((R10 ⋈ (R8 ⋈ (R17 ⋈ (R3 ⋈ (R11 ⋈ (R5 ⋈ (R14 ⋈ (R19 ⋈ (R18 ⋈ (R13 ⋈ ((R20 ⋈ R15) ⋈ (R16 ⋈ (R6 ⋈ (R9 ⋈ (R7 ⋈ ((R12 ⋈ (R1 ⋈ R0)) ⋈ R2)))))))))))))))) ⋈ R4)
linear default20 IAL seed=7 units=18000 evals=8370 cost=40e7c194ea5e3d54 plan=1 0 12 7 2 9 6 16 13 20 15 14 5 3 11 18 19 17 8 10 4
bushy default20 IAL seed=7 units=18006 evals=3370 cost=40e4e0c1fa9e6264 plan=((R10 ⋈ (R8 ⋈ (R18 ⋈ (R17 ⋈ (R19 ⋈ (R11 ⋈ (R3 ⋈ (R5 ⋈ ((R16 ⋈ (R6 ⋈ (R13 ⋈ (R9 ⋈ (R2 ⋈ ((R7 ⋈ ((R1 ⋈ R0) ⋈ R12)) ⋈ (R20 ⋈ R15))))))) ⋈ R14))))))))) ⋈ R4)
linear default20 IAL seed=1989 units=18004 evals=8518 cost=40e7c194ea5e3d54 plan=1 0 12 7 2 9 6 16 13 20 15 14 5 3 11 18 19 17 8 10 4
bushy default20 IAL seed=1989 units=18005 evals=3349 cost=40e4e31a3761ca54 plan=((R10 ⋈ (R8 ⋈ (R17 ⋈ (R3 ⋈ (R11 ⋈ (R5 ⋈ (R14 ⋈ (R19 ⋈ (R18 ⋈ (R13 ⋈ ((R20 ⋈ R15) ⋈ (R16 ⋈ (R6 ⋈ (R9 ⋈ (R7 ⋈ ((R12 ⋈ (R1 ⋈ R0)) ⋈ R2)))))))))))))))) ⋈ R4)
linear default20 AGI seed=7 units=18002 evals=7964 cost=40e7c1a3ee31d610 plan=1 0 12 7 2 9 6 20 15 16 13 11 18 14 5 3 19 17 8 10 4
bushy default20 AGI seed=7 units=18006 evals=3370 cost=40e4e0c1fa9e6264 plan=((R10 ⋈ (R8 ⋈ (R18 ⋈ (R17 ⋈ (R19 ⋈ (R11 ⋈ (R3 ⋈ (R5 ⋈ ((R16 ⋈ (R6 ⋈ (R13 ⋈ (R9 ⋈ (R2 ⋈ ((R7 ⋈ ((R1 ⋈ R0) ⋈ R12)) ⋈ (R20 ⋈ R15))))))) ⋈ R14))))))))) ⋈ R4)
linear default20 AGI seed=1989 units=18000 evals=8203 cost=40e7c1a9b1bc65e8 plan=1 0 12 7 20 15 2 9 6 16 13 11 18 14 5 3 19 17 8 10 4
bushy default20 AGI seed=1989 units=18005 evals=3349 cost=40e4e31a3761ca54 plan=((R10 ⋈ (R8 ⋈ (R17 ⋈ (R3 ⋈ (R11 ⋈ (R5 ⋈ (R14 ⋈ (R19 ⋈ (R18 ⋈ (R13 ⋈ ((R20 ⋈ R15) ⋈ (R16 ⋈ (R6 ⋈ (R9 ⋈ (R7 ⋈ ((R12 ⋈ (R1 ⋈ R0)) ⋈ R2)))))))))))))))) ⋈ R4)
linear default20 KBI seed=7 units=18000 evals=7953 cost=40e7c1a3ee31d610 plan=1 0 12 7 2 9 6 20 15 16 13 11 18 14 5 3 19 17 8 10 4
bushy default20 KBI seed=7 units=18006 evals=3370 cost=40e4e0c1fa9e6264 plan=((R10 ⋈ (R8 ⋈ (R18 ⋈ (R17 ⋈ (R19 ⋈ (R11 ⋈ (R3 ⋈ (R5 ⋈ ((R16 ⋈ (R6 ⋈ (R13 ⋈ (R9 ⋈ (R2 ⋈ ((R7 ⋈ ((R1 ⋈ R0) ⋈ R12)) ⋈ (R20 ⋈ R15))))))) ⋈ R14))))))))) ⋈ R4)
linear default20 KBI seed=1989 units=18000 evals=8193 cost=40e7c1a9b1bc65e8 plan=1 0 12 7 20 15 2 9 6 16 13 11 18 14 5 3 19 17 8 10 4
bushy default20 KBI seed=1989 units=18005 evals=3349 cost=40e4e31a3761ca54 plan=((R10 ⋈ (R8 ⋈ (R17 ⋈ (R3 ⋈ (R11 ⋈ (R5 ⋈ (R14 ⋈ (R19 ⋈ (R18 ⋈ (R13 ⋈ ((R20 ⋈ R15) ⋈ (R16 ⋈ (R6 ⋈ (R9 ⋈ (R7 ⋈ ((R12 ⋈ (R1 ⋈ R0)) ⋈ R2)))))))))))))))) ⋈ R4)
linear default20 CARDFREE seed=7 units=22 evals=1 cost=40f60b98a2f5cc77 plan=0 1 7 2 6 9 3 5 8 13 16 14 15 20 4 10 11 12 17 18 19
bushy default20 CARDFREE seed=7 units=18006 evals=3370 cost=40e4e0c1fa9e6264 plan=((R10 ⋈ (R8 ⋈ (R18 ⋈ (R17 ⋈ (R19 ⋈ (R11 ⋈ (R3 ⋈ (R5 ⋈ ((R16 ⋈ (R6 ⋈ (R13 ⋈ (R9 ⋈ (R2 ⋈ ((R7 ⋈ ((R1 ⋈ R0) ⋈ R12)) ⋈ (R20 ⋈ R15))))))) ⋈ R14))))))))) ⋈ R4)
linear default20 CARDFREE seed=1989 units=22 evals=1 cost=40f60b98a2f5cc77 plan=0 1 7 2 6 9 3 5 8 13 16 14 15 20 4 10 11 12 17 18 19
bushy default20 CARDFREE seed=1989 units=18005 evals=3349 cost=40e4e31a3761ca54 plan=((R10 ⋈ (R8 ⋈ (R17 ⋈ (R3 ⋈ (R11 ⋈ (R5 ⋈ (R14 ⋈ (R19 ⋈ (R18 ⋈ (R13 ⋈ ((R20 ⋈ R15) ⋈ (R16 ⋈ (R6 ⋈ (R9 ⋈ (R7 ⋈ ((R12 ⋈ (R1 ⋈ R0)) ⋈ R2)))))))))))))))) ⋈ R4)
linear default20 BUSHYII seed=7 units=18007 evals=8138 cost=40e7c1a3ee31d610 plan=1 0 12 7 2 9 6 20 15 16 13 11 18 14 5 3 19 17 8 10 4
bushy default20 BUSHYII seed=7 units=18006 evals=3370 cost=40e4e0c1fa9e6264 plan=((R10 ⋈ (R8 ⋈ (R18 ⋈ (R17 ⋈ (R19 ⋈ (R11 ⋈ (R3 ⋈ (R5 ⋈ ((R16 ⋈ (R6 ⋈ (R13 ⋈ (R9 ⋈ (R2 ⋈ ((R7 ⋈ ((R1 ⋈ R0) ⋈ R12)) ⋈ (R20 ⋈ R15))))))) ⋈ R14))))))))) ⋈ R4)
linear default20 BUSHYII seed=1989 units=18001 evals=8410 cost=40e7c1a9b1bc65e8 plan=1 0 12 7 20 15 2 9 6 16 13 11 18 14 5 3 19 17 8 10 4
bushy default20 BUSHYII seed=1989 units=18005 evals=3349 cost=40e4e31a3761ca54 plan=((R10 ⋈ (R8 ⋈ (R17 ⋈ (R3 ⋈ (R11 ⋈ (R5 ⋈ (R14 ⋈ (R19 ⋈ (R18 ⋈ (R13 ⋈ ((R20 ⋈ R15) ⋈ (R16 ⋈ (R6 ⋈ (R9 ⋈ (R7 ⋈ ((R12 ⋈ (R1 ⋈ R0)) ⋈ R2)))))))))))))))) ⋈ R4)
linear default20 BUSHYSA seed=7 units=18000 evals=9880 cost=40e7d875b8c7a886 plan=1 0 7 20 2 15 9 14 12 13 5 8 16 3 6 10 18 17 19 11 4
bushy default20 BUSHYSA seed=7 units=18008 evals=3168 cost=40e62721482ff53a plan=(((R14 ⋈ (((((R17 ⋈ (((R2 ⋈ (R19 ⋈ ((R20 ⋈ (R18 ⋈ (R11 ⋈ (R0 ⋈ (R12 ⋈ (R1 ⋈ R7)))))) ⋈ R15))) ⋈ (R6 ⋈ R16)) ⋈ R9)) ⋈ R8) ⋈ R13) ⋈ R3) ⋈ R5)) ⋈ R10) ⋈ R4)
linear default20 BUSHYSA seed=1989 units=18000 evals=9968 cost=40ea502b62272366 plan=0 1 12 18 2 7 11 9 20 6 19 13 15 3 5 16 17 14 8 10 4
bushy default20 BUSHYSA seed=1989 units=18000 evals=3497 cost=40e9508bb066d310 plan=(((R18 ⋈ (((((((R12 ⋈ (((((((R20 ⋈ ((R1 ⋈ R7) ⋈ (R13 ⋈ R0))) ⋈ R2) ⋈ R15) ⋈ R6) ⋈ R14) ⋈ R5) ⋈ R16)) ⋈ R3) ⋈ R9) ⋈ R8) ⋈ R17) ⋈ R19) ⋈ R10)) ⋈ R4) ⋈ R11)
linear star12 II seed=7 units=6480 evals=5797 cost=4382d2cd582f10cc plan=0 3 9 1 12 6 5 10 11 7 2 4 8
bushy star12 II seed=7 units=6483 evals=2438 cost=4382d2cd582f10cd plan=((((((((((((R0 ⋈ R3) ⋈ R9) ⋈ R1) ⋈ R12) ⋈ R6) ⋈ R5) ⋈ R10) ⋈ R11) ⋈ R7) ⋈ R2) ⋈ R4) ⋈ R8)
linear star12 II seed=1989 units=6480 evals=5801 cost=4382d2cd582f10cc plan=0 3 9 1 12 6 5 10 11 7 2 4 8
bushy star12 II seed=1989 units=6482 evals=2391 cost=4382d2cd5834d0ef plan=((((((((((((R0 ⋈ R3) ⋈ R9) ⋈ R6) ⋈ R12) ⋈ R1) ⋈ R5) ⋈ R10) ⋈ R11) ⋈ R7) ⋈ R2) ⋈ R4) ⋈ R8)
linear star12 SA seed=7 units=6480 evals=5776 cost=4382d2cd5ead3b7a plan=9 0 6 5 1 12 3 11 10 7 2 4 8
bushy star12 SA seed=7 units=6480 evals=2556 cost=4382d2cd9d0dfb3b plan=(((((((((((R9 ⋈ (R0 ⋈ R1)) ⋈ R11) ⋈ R7) ⋈ R6) ⋈ R3) ⋈ R12) ⋈ R5) ⋈ R10) ⋈ R2) ⋈ R4) ⋈ R8)
linear star12 SA seed=1989 units=6480 evals=5748 cost=4382d2cd65c99b85 plan=0 11 5 12 9 3 10 1 6 7 2 4 8
bushy star12 SA seed=1989 units=6486 evals=2646 cost=4382d2d7bf6a1553 plan=((((((((R5 ⋈ ((R12 ⋈ ((R6 ⋈ R0) ⋈ R9)) ⋈ R11)) ⋈ R1) ⋈ R10) ⋈ R7) ⋈ R3) ⋈ R2) ⋈ R4) ⋈ R8)
linear star12 SAA seed=7 units=6480 evals=5756 cost=4382d2cd71c99503 plan=3 0 10 5 9 12 6 1 7 11 2 4 8
bushy star12 SAA seed=7 units=6480 evals=2556 cost=4382d2cd9d0dfb3b plan=(((((((((((R9 ⋈ (R0 ⋈ R1)) ⋈ R11) ⋈ R7) ⋈ R6) ⋈ R3) ⋈ R12) ⋈ R5) ⋈ R10) ⋈ R2) ⋈ R4) ⋈ R8)
linear star12 SAA seed=1989 units=6480 evals=5792 cost=4382d2cd8b7464c2 plan=0 10 5 7 12 9 3 1 6 11 2 4 8
bushy star12 SAA seed=1989 units=6486 evals=2646 cost=4382d2d7bf6a1553 plan=((((((((R5 ⋈ ((R12 ⋈ ((R6 ⋈ R0) ⋈ R9)) ⋈ R11)) ⋈ R1) ⋈ R10) ⋈ R7) ⋈ R3) ⋈ R2) ⋈ R4) ⋈ R8)
linear star12 SAK seed=7 units=6480 evals=5579 cost=4382d2cd582f20da plan=3 0 9 1 12 6 5 10 11 7 2 4 8
bushy star12 SAK seed=7 units=6480 evals=2556 cost=4382d2cd9d0dfb3b plan=(((((((((((R9 ⋈ (R0 ⋈ R1)) ⋈ R11) ⋈ R7) ⋈ R6) ⋈ R3) ⋈ R12) ⋈ R5) ⋈ R10) ⋈ R2) ⋈ R4) ⋈ R8)
linear star12 SAK seed=1989 units=6480 evals=5626 cost=4382d2cd582f20da plan=3 0 9 1 12 6 5 10 11 7 2 4 8
bushy star12 SAK seed=1989 units=6486 evals=2646 cost=4382d2d7bf6a1553 plan=((((((((R5 ⋈ ((R12 ⋈ ((R6 ⋈ R0) ⋈ R9)) ⋈ R11)) ⋈ R1) ⋈ R10) ⋈ R7) ⋈ R3) ⋈ R2) ⋈ R4) ⋈ R8)
linear star12 IAI seed=7 units=6481 evals=5640 cost=4382d2cd582f10cc plan=0 3 9 1 12 6 5 10 11 7 2 4 8
bushy star12 IAI seed=7 units=6483 evals=2438 cost=4382d2cd582f10cd plan=((((((((((((R0 ⋈ R3) ⋈ R9) ⋈ R1) ⋈ R12) ⋈ R6) ⋈ R5) ⋈ R10) ⋈ R11) ⋈ R7) ⋈ R2) ⋈ R4) ⋈ R8)
linear star12 IAI seed=1989 units=6481 evals=5644 cost=4382d2cd582f10cc plan=0 3 9 1 12 6 5 10 11 7 2 4 8
bushy star12 IAI seed=1989 units=6482 evals=2391 cost=4382d2cd5834d0ef plan=((((((((((((R0 ⋈ R3) ⋈ R9) ⋈ R6) ⋈ R12) ⋈ R1) ⋈ R5) ⋈ R10) ⋈ R11) ⋈ R7) ⋈ R2) ⋈ R4) ⋈ R8)
linear star12 IKI seed=7 units=6480 evals=5628 cost=4382d2cd582f10cc plan=0 3 9 1 12 6 5 10 11 7 2 4 8
bushy star12 IKI seed=7 units=6483 evals=2438 cost=4382d2cd582f10cd plan=((((((((((((R0 ⋈ R3) ⋈ R9) ⋈ R1) ⋈ R12) ⋈ R6) ⋈ R5) ⋈ R10) ⋈ R11) ⋈ R7) ⋈ R2) ⋈ R4) ⋈ R8)
linear star12 IKI seed=1989 units=6480 evals=5638 cost=4382d2cd582f10cc plan=0 3 9 1 12 6 5 10 11 7 2 4 8
bushy star12 IKI seed=1989 units=6482 evals=2391 cost=4382d2cd5834d0ef plan=((((((((((((R0 ⋈ R3) ⋈ R9) ⋈ R6) ⋈ R12) ⋈ R1) ⋈ R5) ⋈ R10) ⋈ R11) ⋈ R7) ⋈ R2) ⋈ R4) ⋈ R8)
linear star12 IAL seed=7 units=6480 evals=5688 cost=4382d2cd582f10cc plan=0 3 9 1 12 6 5 10 11 7 2 4 8
bushy star12 IAL seed=7 units=6483 evals=2438 cost=4382d2cd582f10cd plan=((((((((((((R0 ⋈ R3) ⋈ R9) ⋈ R1) ⋈ R12) ⋈ R6) ⋈ R5) ⋈ R10) ⋈ R11) ⋈ R7) ⋈ R2) ⋈ R4) ⋈ R8)
linear star12 IAL seed=1989 units=6480 evals=5676 cost=4382d2cd582f10cc plan=0 3 9 1 12 6 5 10 11 7 2 4 8
bushy star12 IAL seed=1989 units=6482 evals=2391 cost=4382d2cd5834d0ef plan=((((((((((((R0 ⋈ R3) ⋈ R9) ⋈ R6) ⋈ R12) ⋈ R1) ⋈ R5) ⋈ R10) ⋈ R11) ⋈ R7) ⋈ R2) ⋈ R4) ⋈ R8)
linear star12 AGI seed=7 units=6480 evals=5660 cost=4382d2cd582f10cc plan=0 3 9 1 12 6 5 10 11 7 2 4 8
bushy star12 AGI seed=7 units=6483 evals=2438 cost=4382d2cd582f10cd plan=((((((((((((R0 ⋈ R3) ⋈ R9) ⋈ R1) ⋈ R12) ⋈ R6) ⋈ R5) ⋈ R10) ⋈ R11) ⋈ R7) ⋈ R2) ⋈ R4) ⋈ R8)
linear star12 AGI seed=1989 units=6480 evals=5652 cost=4382d2cd582f10cc plan=0 3 9 1 12 6 5 10 11 7 2 4 8
bushy star12 AGI seed=1989 units=6482 evals=2391 cost=4382d2cd5834d0ef plan=((((((((((((R0 ⋈ R3) ⋈ R9) ⋈ R6) ⋈ R12) ⋈ R1) ⋈ R5) ⋈ R10) ⋈ R11) ⋈ R7) ⋈ R2) ⋈ R4) ⋈ R8)
linear star12 KBI seed=7 units=6480 evals=5650 cost=4382d2cd582f10cc plan=0 3 9 1 12 6 5 10 11 7 2 4 8
bushy star12 KBI seed=7 units=6483 evals=2438 cost=4382d2cd582f10cd plan=((((((((((((R0 ⋈ R3) ⋈ R9) ⋈ R1) ⋈ R12) ⋈ R6) ⋈ R5) ⋈ R10) ⋈ R11) ⋈ R7) ⋈ R2) ⋈ R4) ⋈ R8)
linear star12 KBI seed=1989 units=6480 evals=5640 cost=4382d2cd582f10cc plan=0 3 9 1 12 6 5 10 11 7 2 4 8
bushy star12 KBI seed=1989 units=6482 evals=2391 cost=4382d2cd5834d0ef plan=((((((((((((R0 ⋈ R3) ⋈ R9) ⋈ R6) ⋈ R12) ⋈ R1) ⋈ R5) ⋈ R10) ⋈ R11) ⋈ R7) ⋈ R2) ⋈ R4) ⋈ R8)
linear star12 CARDFREE seed=7 units=14 evals=1 cost=43872955e277d975 plan=0 1 2 3 4 5 6 7 8 9 10 11 12
bushy star12 CARDFREE seed=7 units=6483 evals=2438 cost=4382d2cd582f10cd plan=((((((((((((R0 ⋈ R3) ⋈ R9) ⋈ R1) ⋈ R12) ⋈ R6) ⋈ R5) ⋈ R10) ⋈ R11) ⋈ R7) ⋈ R2) ⋈ R4) ⋈ R8)
linear star12 CARDFREE seed=1989 units=14 evals=1 cost=43872955e277d975 plan=0 1 2 3 4 5 6 7 8 9 10 11 12
bushy star12 CARDFREE seed=1989 units=6482 evals=2391 cost=4382d2cd5834d0ef plan=((((((((((((R0 ⋈ R3) ⋈ R9) ⋈ R6) ⋈ R12) ⋈ R1) ⋈ R5) ⋈ R10) ⋈ R11) ⋈ R7) ⋈ R2) ⋈ R4) ⋈ R8)
linear star12 BUSHYII seed=7 units=6480 evals=5797 cost=4382d2cd582f10cc plan=0 3 9 1 12 6 5 10 11 7 2 4 8
bushy star12 BUSHYII seed=7 units=6483 evals=2438 cost=4382d2cd582f10cd plan=((((((((((((R0 ⋈ R3) ⋈ R9) ⋈ R1) ⋈ R12) ⋈ R6) ⋈ R5) ⋈ R10) ⋈ R11) ⋈ R7) ⋈ R2) ⋈ R4) ⋈ R8)
linear star12 BUSHYII seed=1989 units=6480 evals=5801 cost=4382d2cd582f10cc plan=0 3 9 1 12 6 5 10 11 7 2 4 8
bushy star12 BUSHYII seed=1989 units=6482 evals=2391 cost=4382d2cd5834d0ef plan=((((((((((((R0 ⋈ R3) ⋈ R9) ⋈ R6) ⋈ R12) ⋈ R1) ⋈ R5) ⋈ R10) ⋈ R11) ⋈ R7) ⋈ R2) ⋈ R4) ⋈ R8)
linear star12 BUSHYSA seed=7 units=6480 evals=5776 cost=4382d2cd5ead3b7a plan=9 0 6 5 1 12 3 11 10 7 2 4 8
bushy star12 BUSHYSA seed=7 units=6480 evals=2556 cost=4382d2cd9d0dfb3b plan=(((((((((((R9 ⋈ (R0 ⋈ R1)) ⋈ R11) ⋈ R7) ⋈ R6) ⋈ R3) ⋈ R12) ⋈ R5) ⋈ R10) ⋈ R2) ⋈ R4) ⋈ R8)
linear star12 BUSHYSA seed=1989 units=6480 evals=5748 cost=4382d2cd65c99b85 plan=0 11 5 12 9 3 10 1 6 7 2 4 8
bushy star12 BUSHYSA seed=1989 units=6486 evals=2646 cost=4382d2d7bf6a1553 plan=((((((((R5 ⋈ ((R12 ⋈ ((R6 ⋈ R0) ⋈ R9)) ⋈ R11)) ⋈ R1) ⋈ R10) ⋈ R7) ⋈ R3) ⋈ R2) ⋈ R4) ⋈ R8)
linear hub12 II seed=7 units=6490 evals=957 cost=41189dc4e4808bee plan=2 3 4 5 6 1 0 7 8 9 10 11 12
bushy hub12 II seed=7 units=6488 evals=860 cost=41109a3d1d5ad470 plan=(R12 ⋈ (((R2 ⋈ (R3 ⋈ R4)) ⋈ (R1 ⋈ ((R0 ⋈ (R7 ⋈ ((R9 ⋈ R10) ⋈ R8))) ⋈ R11))) ⋈ (R5 ⋈ R6)))
linear hub12 II seed=1989 units=6487 evals=1019 cost=41189dc4e4808bed plan=2 3 4 5 6 1 0 7 8 9 10 11 12
bushy hub12 II seed=1989 units=6482 evals=819 cost=4112c00ed5dceeeb plan=(((R0 ⋈ (((R2 ⋈ (R3 ⋈ R4)) ⋈ R1) ⋈ R5)) ⋈ (R7 ⋈ (R8 ⋈ (R9 ⋈ ((R11 ⋈ R10) ⋈ R12))))) ⋈ R6)
linear hub12 SA seed=7 units=6485 evals=1182 cost=41189f2ca1945243 plan=8 9 10 11 12 7 0 1 2 3 4 5 6
bushy hub12 SA seed=7 units=6485 evals=764 cost=411070948b507c2f plan=((R0 ⋈ (R6 ⋈ (R1 ⋈ (R2 ⋈ ((R3 ⋈ R4) ⋈ R5))))) ⋈ (R7 ⋈ (R8 ⋈ ((R9 ⋈ R10) ⋈ (R12 ⋈ R11)))))
linear hub12 SA seed=1989 units=6481 evals=1267 cost=41189f31e11cc6c9 plan=8 9 10 11 7 12 0 1 2 3 4 5 6
bushy hub12 SA seed=1989 units=6491 evals=790 cost=411099d476819162 plan=((((R1 ⋈ (R5 ⋈ ((R4 ⋈ R3) ⋈ R2))) ⋈ (R0 ⋈ (R7 ⋈ (R11 ⋈ ((R10 ⋈ R9) ⋈ R8))))) ⋈ R6) ⋈ R12)
linear hub12 SAA seed=7 units=6481 evals=920 cost=4118a83a79be965b plan=3 4 5 6 2 1 0 7 8 9 10 11 12
bushy hub12 SAA seed=7 units=6485 evals=764 cost=411070948b507c2f plan=((R0 ⋈ (R6 ⋈ (R1 ⋈ (R2 ⋈ ((R3 ⋈ R4) ⋈ R5))))) ⋈ (R7 ⋈ (R8 ⋈ ((R9 ⋈ R10) ⋈ (R12 ⋈ R11)))))
linear hub12 SAA seed=1989 units=6485 evals=832 cost=41189dc4e4808bed plan=2 3 4 5 6 1 0 7 8 9 10 11 12
bushy hub12 SAA seed=1989 units=6491 evals=790 cost=411099d476819162 plan=((((R1 ⋈ (R5 ⋈ ((R4 ⋈ R3) ⋈ R2))) ⋈ (R0 ⋈ (R7 ⋈ (R11 ⋈ ((R10 ⋈ R9) ⋈ R8))))) ⋈ R6) ⋈ R12)
linear hub12 SAK seed=7 units=6505 evals=899 cost=4118a83a79be965b plan=3 4 5 6 2 1 0 7 8 9 10 11 12
bushy hub12 SAK seed=7 units=6485 evals=764 cost=411070948b507c2f plan=((R0 ⋈ (R6 ⋈ (R1 ⋈ (R2 ⋈ ((R3 ⋈ R4) ⋈ R5))))) ⋈ (R7 ⋈ (R8 ⋈ ((R9 ⋈ R10) ⋈ (R12 ⋈ R11)))))
linear hub12 SAK seed=1989 units=6480 evals=809 cost=41189dc4e4808bed plan=2 3 4 5 6 1 0 7 8 9 10 11 12
bushy hub12 SAK seed=1989 units=6491 evals=790 cost=411099d476819162 plan=((((R1 ⋈ (R5 ⋈ ((R4 ⋈ R3) ⋈ R2))) ⋈ (R0 ⋈ (R7 ⋈ (R11 ⋈ ((R10 ⋈ R9) ⋈ R8))))) ⋈ R6) ⋈ R12)
linear hub12 IAI seed=7 units=6483 evals=882 cost=41189dc4e4808bee plan=2 3 4 5 6 1 0 7 8 9 10 11 12
bushy hub12 IAI seed=7 units=6488 evals=860 cost=41109a3d1d5ad470 plan=(R12 ⋈ (((R2 ⋈ (R3 ⋈ R4)) ⋈ (R1 ⋈ ((R0 ⋈ (R7 ⋈ ((R9 ⋈ R10) ⋈ R8))) ⋈ R11))) ⋈ (R5 ⋈ R6)))
linear hub12 IAI seed=1989 units=6480 evals=925 cost=41189dc4e4808bed plan=2 3 4 5 6 1 0 7 8 9 10 11 12
bushy hub12 IAI seed=1989 units=6482 evals=819 cost=4112c00ed5dceeeb plan=(((R0 ⋈ (((R2 ⋈ (R3 ⋈ R4)) ⋈ R1) ⋈ R5)) ⋈ (R7 ⋈ (R8 ⋈ (R9 ⋈ ((R11 ⋈ R10) ⋈ R12))))) ⋈ R6)
linear hub12 IKI seed=7 units=6487 evals=891 cost=41189dc4e4808bee plan=2 3 4 5 6 1 0 7 8 9 10 11 12
bushy hub12 IKI seed=7 units=6488 evals=860 cost=41109a3d1d5ad470 plan=(R12 ⋈ (((R2 ⋈ (R3 ⋈ R4)) ⋈ (R1 ⋈ ((R0 ⋈ (R7 ⋈ ((R9 ⋈ R10) ⋈ R8))) ⋈ R11))) ⋈ (R5 ⋈ R6)))
linear hub12 IKI seed=1989 units=6497 evals=945 cost=41189dc4e4808bed plan=2 3 4 5 6 1 0 7 8 9 10 11 12
bushy hub12 IKI seed=1989 units=6482 evals=819 cost=4112c00ed5dceeeb plan=(((R0 ⋈ (((R2 ⋈ (R3 ⋈ R4)) ⋈ R1) ⋈ R5)) ⋈ (R7 ⋈ (R8 ⋈ (R9 ⋈ ((R11 ⋈ R10) ⋈ R12))))) ⋈ R6)
linear hub12 IAL seed=7 units=6485 evals=523 cost=41189dc4e4808bee plan=2 3 4 5 6 1 0 7 8 9 10 11 12
bushy hub12 IAL seed=7 units=6488 evals=860 cost=41109a3d1d5ad470 plan=(R12 ⋈ (((R2 ⋈ (R3 ⋈ R4)) ⋈ (R1 ⋈ ((R0 ⋈ (R7 ⋈ ((R9 ⋈ R10) ⋈ R8))) ⋈ R11))) ⋈ (R5 ⋈ R6)))
linear hub12 IAL seed=1989 units=6480 evals=510 cost=41189dc4e4808bed plan=2 3 4 5 6 1 0 7 8 9 10 11 12
bushy hub12 IAL seed=1989 units=6482 evals=819 cost=4112c00ed5dceeeb plan=(((R0 ⋈ (((R2 ⋈ (R3 ⋈ R4)) ⋈ R1) ⋈ R5)) ⋈ (R7 ⋈ (R8 ⋈ (R9 ⋈ ((R11 ⋈ R10) ⋈ R12))))) ⋈ R6)
linear hub12 AGI seed=7 units=6490 evals=947 cost=41189dc4e4808bee plan=2 3 4 5 6 1 0 7 8 9 10 11 12
bushy hub12 AGI seed=7 units=6488 evals=860 cost=41109a3d1d5ad470 plan=(R12 ⋈ (((R2 ⋈ (R3 ⋈ R4)) ⋈ (R1 ⋈ ((R0 ⋈ (R7 ⋈ ((R9 ⋈ R10) ⋈ R8))) ⋈ R11))) ⋈ (R5 ⋈ R6)))
linear hub12 AGI seed=1989 units=6495 evals=1019 cost=41189dc4e4808bed plan=2 3 4 5 6 1 0 7 8 9 10 11 12
bushy hub12 AGI seed=1989 units=6482 evals=819 cost=4112c00ed5dceeeb plan=(((R0 ⋈ (((R2 ⋈ (R3 ⋈ R4)) ⋈ R1) ⋈ R5)) ⋈ (R7 ⋈ (R8 ⋈ (R9 ⋈ ((R11 ⋈ R10) ⋈ R12))))) ⋈ R6)
linear hub12 KBI seed=7 units=6503 evals=947 cost=41189dc4e4808bee plan=2 3 4 5 6 1 0 7 8 9 10 11 12
bushy hub12 KBI seed=7 units=6488 evals=860 cost=41109a3d1d5ad470 plan=(R12 ⋈ (((R2 ⋈ (R3 ⋈ R4)) ⋈ (R1 ⋈ ((R0 ⋈ (R7 ⋈ ((R9 ⋈ R10) ⋈ R8))) ⋈ R11))) ⋈ (R5 ⋈ R6)))
linear hub12 KBI seed=1989 units=6508 evals=1019 cost=41189dc4e4808bed plan=2 3 4 5 6 1 0 7 8 9 10 11 12
bushy hub12 KBI seed=1989 units=6482 evals=819 cost=4112c00ed5dceeeb plan=(((R0 ⋈ (((R2 ⋈ (R3 ⋈ R4)) ⋈ R1) ⋈ R5)) ⋈ (R7 ⋈ (R8 ⋈ (R9 ⋈ ((R11 ⋈ R10) ⋈ R12))))) ⋈ R6)
linear hub12 CARDFREE seed=7 units=14 evals=1 cost=413f0d99bb723afc plan=0 1 2 3 4 5 7 8 9 10 11 6 12
bushy hub12 CARDFREE seed=7 units=6488 evals=860 cost=41109a3d1d5ad470 plan=(R12 ⋈ (((R2 ⋈ (R3 ⋈ R4)) ⋈ (R1 ⋈ ((R0 ⋈ (R7 ⋈ ((R9 ⋈ R10) ⋈ R8))) ⋈ R11))) ⋈ (R5 ⋈ R6)))
linear hub12 CARDFREE seed=1989 units=14 evals=1 cost=413f0d99bb723afc plan=0 1 2 3 4 5 7 8 9 10 11 6 12
bushy hub12 CARDFREE seed=1989 units=6482 evals=819 cost=4112c00ed5dceeeb plan=(((R0 ⋈ (((R2 ⋈ (R3 ⋈ R4)) ⋈ R1) ⋈ R5)) ⋈ (R7 ⋈ (R8 ⋈ (R9 ⋈ ((R11 ⋈ R10) ⋈ R12))))) ⋈ R6)
linear hub12 BUSHYII seed=7 units=6490 evals=957 cost=41189dc4e4808bee plan=2 3 4 5 6 1 0 7 8 9 10 11 12
bushy hub12 BUSHYII seed=7 units=6488 evals=860 cost=41109a3d1d5ad470 plan=(R12 ⋈ (((R2 ⋈ (R3 ⋈ R4)) ⋈ (R1 ⋈ ((R0 ⋈ (R7 ⋈ ((R9 ⋈ R10) ⋈ R8))) ⋈ R11))) ⋈ (R5 ⋈ R6)))
linear hub12 BUSHYII seed=1989 units=6487 evals=1019 cost=41189dc4e4808bed plan=2 3 4 5 6 1 0 7 8 9 10 11 12
bushy hub12 BUSHYII seed=1989 units=6482 evals=819 cost=4112c00ed5dceeeb plan=(((R0 ⋈ (((R2 ⋈ (R3 ⋈ R4)) ⋈ R1) ⋈ R5)) ⋈ (R7 ⋈ (R8 ⋈ (R9 ⋈ ((R11 ⋈ R10) ⋈ R12))))) ⋈ R6)
linear hub12 BUSHYSA seed=7 units=6485 evals=1182 cost=41189f2ca1945243 plan=8 9 10 11 12 7 0 1 2 3 4 5 6
bushy hub12 BUSHYSA seed=7 units=6485 evals=764 cost=411070948b507c2f plan=((R0 ⋈ (R6 ⋈ (R1 ⋈ (R2 ⋈ ((R3 ⋈ R4) ⋈ R5))))) ⋈ (R7 ⋈ (R8 ⋈ ((R9 ⋈ R10) ⋈ (R12 ⋈ R11)))))
linear hub12 BUSHYSA seed=1989 units=6481 evals=1267 cost=41189f31e11cc6c9 plan=8 9 10 11 7 12 0 1 2 3 4 5 6
bushy hub12 BUSHYSA seed=1989 units=6491 evals=790 cost=411099d476819162 plan=((((R1 ⋈ (R5 ⋈ ((R4 ⋈ R3) ⋈ R2))) ⋈ (R0 ⋈ (R7 ⋈ (R11 ⋈ ((R10 ⋈ R9) ⋈ R8))))) ⋈ R6) ⋈ R12)
linear default20-full IAI seed=7 units=18000 evals=8188 cost=40e7c2120b937986 plan=1 0 12 7 2 3 5 14 15 20 13 16 6 9 11 18 19 17 8 10 4
linear default20-full SA seed=7 units=18000 evals=9880 cost=40e7d875b8c7a886 plan=1 0 7 20 2 15 9 14 12 13 5 8 16 3 6 10 18 17 19 11 4
linear default5-tau3000 SA seed=7 units=375000 evals=223151 cost=40c45bc92259aa9a plan=1 0 3 2 5 4
bushy default5-tau3000 SA seed=7 units=375004 evals=97964 cost=40c3d5d857622b37 plan=(R4 ⋈ (R5 ⋈ (R2 ⋈ ((R1 ⋈ R0) ⋈ R3))))
";
