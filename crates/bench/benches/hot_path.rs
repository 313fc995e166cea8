//! Compiled hot-path microbenchmarks: the gains of the `CompiledQuery`
//! snapshot over the pointer-chasing slow paths it replaces.
//!
//! Measures, per query size N ∈ {20, 50, 100}:
//!
//! * **validity** — one full validity check of a valid order: the
//!   edge-chasing [`ValidityChecker`] scan vs the [`BitsetChecker`]'s
//!   neighbor-bitset walk over the compiled snapshot.
//! * **move filtering** — one `propose_counted` (sample + apply +
//!   validity-filter + undo): the legacy full-scan filter vs the compiled
//!   windowed filter, which revalidates only the move's touched window.
//! * **move evaluation** — apply a pre-sampled valid move, cost it, undo:
//!   a from-scratch `order_cost` walk vs the compiled incremental
//!   evaluator (`eval_move` + `rollback`).
//! * **end-to-end II** — a complete II run at a fixed unit budget:
//!   full evaluation (a model that opts out of incremental costing) with
//!   legacy move filtering, incremental evaluation with legacy move
//!   filtering (the full-scan [`MoveGenerator::new`]), and the
//!   production configuration (compiled filter, incremental costing).
//!
//! Writes the snapshot consumed by EXPERIMENTS.md to
//! `BENCH_compiled.json` at the workspace root (override the location
//! with `BENCH_COMPILED_OUT`; set `HOT_PATH_SMOKE=1` for a seconds-long
//! CI smoke run).

use std::io::Write as _;
use std::sync::Arc;

use ljqo_bench::timing::{bench_ns, black_box};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use ljqo::IterativeImprovement;
use ljqo_catalog::CompiledQuery;
use ljqo_catalog::{Query, RelId};
use ljqo_cost::estimate::SizeWalker;
use ljqo_cost::{CostModel, Estimator, Evaluator, IncrementalEvaluator, JoinCtx, MemoryCostModel};
use ljqo_plan::validity::ValidityChecker;
use ljqo_plan::{random_valid_order, BitsetChecker, Move, MoveGenerator, MoveSet};
use ljqo_workload::{generate_query, Benchmark};

const MOVE_POOL: usize = 256;

/// The memory model with incremental evaluation switched off, so the
/// search loop re-walks the whole order for every candidate.
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

fn json_num(x: f64) -> ljqo_json::Value {
    ljqo_json::Value::Number((x * 1000.0).round() / 1000.0)
}

fn main() {
    let smoke = std::env::var("HOT_PATH_SMOKE").is_ok();
    let (sizes, ii_budget): (Vec<usize>, u64) = if smoke {
        (vec![12], 2_000)
    } else {
        (vec![20, 50, 100], 40_000)
    };

    let model = MemoryCostModel::default();
    let mut validity_rows: Vec<ljqo_json::Value> = Vec::new();
    let mut filter_rows: Vec<ljqo_json::Value> = Vec::new();
    let mut eval_rows: Vec<ljqo_json::Value> = Vec::new();
    let mut e2e_rows: Vec<ljqo_json::Value> = Vec::new();

    for &n in &sizes {
        let query = generate_query(&Benchmark::Default.spec(), n, 3);
        let compiled = Arc::new(CompiledQuery::new(&query));
        let comp: Vec<_> = query.rel_ids().collect();
        let mut rng = SmallRng::seed_from_u64(21);
        let order = random_valid_order(query.graph(), &comp, &mut rng);

        // --- Validity: full check, scalar scan vs compiled bitsets -----
        let mut scalar = ValidityChecker::new(query.n_relations());
        let scalar_ns = bench_ns(&format!("validity/scalar/{n}"), || {
            black_box(scalar.is_valid(query.graph(), order.rels()))
        });
        let mut bitset = BitsetChecker::new(query.n_relations());
        let bitset_ns = bench_ns(&format!("validity/bitset/{n}"), || {
            black_box(bitset.is_valid(&compiled, order.rels()))
        });
        let validity_speedup = scalar_ns / bitset_ns;
        println!("validity/speedup/{n}{:>38.2}x", validity_speedup);
        validity_rows.push(ljqo_json::json!({
            "n": n,
            "scalar_ns_per_check": json_num(scalar_ns),
            "bitset_ns_per_check": json_num(bitset_ns),
            "speedup": json_num(validity_speedup),
        }));

        // --- Move filtering: full-scan vs windowed revalidation --------
        // The work `propose_counted` does per sampled move: apply it, test
        // the perturbed order, undo. Raw (unfiltered) moves from the II/SA
        // swap distribution, so the pool mixes valid and invalid
        // perturbations exactly like the proposal loop sees them. Both
        // arms filter the *same* pool against the *same* valid base order,
        // which is the windowed filter's precondition.
        let mut raw_rng = SmallRng::seed_from_u64(33);
        let raw_pool: Vec<Move> = (0..MOVE_POOL)
            .map(|_| {
                use rand::Rng as _;
                let i = raw_rng.gen_range(0..n);
                let mut j = raw_rng.gen_range(0..n - 1);
                if j >= i {
                    j += 1;
                }
                Move::Swap {
                    i: i.min(j),
                    j: i.max(j),
                }
            })
            .collect();
        let mut legacy_checker = ValidityChecker::new(query.n_relations());
        let mut legacy_order = order.clone();
        let mut k = 0usize;
        let legacy_ns = bench_ns(&format!("filter/legacy/{n}"), || {
            let mv = raw_pool[k % MOVE_POOL];
            k += 1;
            mv.apply(&mut legacy_order);
            let ok = legacy_checker.is_valid(query.graph(), legacy_order.rels());
            mv.undo(&mut legacy_order);
            black_box(ok)
        });
        let mut window_checker = BitsetChecker::new(query.n_relations());
        let mut window_order = order.clone();
        let mut l = 0usize;
        let compiled_ns = bench_ns(&format!("filter/compiled/{n}"), || {
            let mv = raw_pool[l % MOVE_POOL];
            l += 1;
            mv.apply(&mut window_order);
            let ok = window_checker.window_valid(
                &compiled,
                window_order.rels(),
                mv.first_touched(),
                mv.last_touched(),
            );
            mv.undo(&mut window_order);
            black_box(ok)
        });
        let filter_speedup = legacy_ns / compiled_ns;
        println!("filter/speedup/{n}{:>40.2}x", filter_speedup);
        filter_rows.push(ljqo_json::json!({
            "n": n,
            "legacy_ns_per_move": json_num(legacy_ns),
            "windowed_ns_per_move": json_num(compiled_ns),
            "speedup": json_num(filter_speedup),
        }));

        // --- Move evaluation: full walk vs compiled incremental --------
        let mut pool_order = order.clone();
        let mut gen = MoveGenerator::new(query.n_relations(), MoveSet::default());
        let mut pool: Vec<Move> = Vec::with_capacity(MOVE_POOL);
        while pool.len() < MOVE_POOL {
            if let Some((mv, _)) = gen.propose_counted(query.graph(), &mut pool_order, &mut rng) {
                mv.undo(&mut pool_order);
                pool.push(mv);
            }
        }
        let mut walker = SizeWalker::new(query.n_relations());
        let mut i = 0usize;
        let mut full_order = order.clone();
        let full_ns = bench_ns(&format!("move_eval/full/{n}"), || {
            let mv = pool[i % MOVE_POOL];
            i += 1;
            mv.apply(&mut full_order);
            let c = model.order_cost_with(&query, full_order.rels(), &mut walker);
            mv.undo(&mut full_order);
            black_box(c)
        });
        let mut inc = IncrementalEvaluator::with_compiled(
            &query,
            &model,
            Estimator::Static,
            order.clone(),
            Arc::clone(&compiled),
        );
        let mut j = 0usize;
        let inc_ns = bench_ns(&format!("move_eval/compiled/{n}"), || {
            let mv = pool[j % MOVE_POOL];
            j += 1;
            let c = inc.eval_move(&mv);
            inc.rollback();
            black_box(c)
        });
        let eval_speedup = full_ns / inc_ns;
        println!("move_eval/speedup/{n}{:>37.2}x", eval_speedup);
        eval_rows.push(ljqo_json::json!({
            "n": n,
            "full_ns_per_move": json_num(full_ns),
            "compiled_ns_per_move": json_num(inc_ns),
            "speedup": json_num(eval_speedup),
        }));
    }

    // --- End-to-end II: same seeds and unit charges at every size, only
    // the hot-path configuration differs --------------------------------
    for &n in &sizes {
        let query = generate_query(&Benchmark::Default.spec(), n, 3);
        let comp: Vec<_> = query.rel_ids().collect();
        let full_model = FullWalkOnly(model);
        // (label, model, legacy full-scan filter?)
        let configs: [(&str, &dyn CostModel, bool); 3] = [
            ("full", &full_model, true),
            ("incremental", &model, true),
            ("compiled", &model, false),
        ];
        let ii = IterativeImprovement::default();
        let mut e2e_ns = [0.0f64; 3];
        for (slot, &(label, run_model, legacy_filter)) in configs.iter().enumerate() {
            e2e_ns[slot] = bench_ns(&format!("ii_run/{label}/{n}"), || {
                let mut ev = Evaluator::with_budget(&query, run_model, ii_budget);
                let gen = if legacy_filter {
                    MoveGenerator::new(query.n_relations(), ii.move_set)
                } else {
                    MoveGenerator::with_compiled(ev.compiled().clone(), ii.move_set)
                };
                let mut run_rng = SmallRng::seed_from_u64(7);
                ii.run_with_generator(&mut ev, gen, &comp, &mut run_rng);
                black_box(ev.best_cost())
            });
        }
        println!("ii_run/speedup_vs_full/{n}{:>33.2}x", e2e_ns[0] / e2e_ns[2]);
        println!(
            "ii_run/speedup_vs_incremental/{n}{:>26.2}x",
            e2e_ns[1] / e2e_ns[2]
        );
        e2e_rows.push(ljqo_json::json!({
            "n": n,
            "budget_units": ii_budget,
            "full_ns_per_run": json_num(e2e_ns[0]),
            "incremental_ns_per_run": json_num(e2e_ns[1]),
            "compiled_ns_per_run": json_num(e2e_ns[2]),
            "speedup_vs_full": json_num(e2e_ns[0] / e2e_ns[2]),
            "speedup_vs_incremental": json_num(e2e_ns[1] / e2e_ns[2]),
        }));
    }

    let report = ljqo_json::json!({
        "bench": "hot_path",
        "description": "Compiled query snapshot vs the slow paths it replaces: validity checks, move filtering, move evaluation, end-to-end II",
        "model": "memory",
        "workload": "Benchmark::Default (random graphs), MoveSet::default()",
        "units": "ns (mean over the timing shim's batches)",
        "smoke": smoke,
        "validity": ljqo_json::Value::Array(validity_rows),
        "move_filtering": ljqo_json::Value::Array(filter_rows),
        "move_evaluation": ljqo_json::Value::Array(eval_rows),
        "end_to_end_ii": ljqo_json::Value::Array(e2e_rows),
    });

    let out = std::env::var("BENCH_COMPILED_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_compiled.json", env!("CARGO_MANIFEST_DIR")));
    let mut f = std::fs::File::create(&out).expect("create BENCH_compiled.json");
    f.write_all(report.to_string_pretty().as_bytes())
        .and_then(|_| f.write_all(b"\n"))
        .expect("write BENCH_compiled.json");
    println!("wrote {out}");
}
