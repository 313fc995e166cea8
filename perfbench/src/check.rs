//! Answer checks: every plan must be valid and re-price to the cost the
//! optimizer (or the server) reported. Linear costs come from incremental
//! evaluation, whose re-association may differ from a from-scratch walk
//! in the last bits, so they must agree within the library's own
//! `costs_agree` tolerance; bushy trees must re-price bit for bit.

use std::collections::HashMap;
use std::sync::Arc;

use ljqo::{bushy_tree_cost, recost_plan, BushyOptimized, Optimized};
use ljqo_catalog::{CompiledQuery, Query, RelId};
use ljqo_cost::{costs_agree, CostModel};
use ljqo_json::Value;
use ljqo_plan::validity::is_valid;
use ljqo_plan::{JoinOrder, Plan};

/// Every relation appears exactly once across the plan's segments.
fn covers_once(query: &Query, segments: &[&[RelId]]) -> Result<(), String> {
    let mut seen = vec![false; query.n_relations()];
    for seg in segments {
        for r in *seg {
            if std::mem::replace(&mut seen[r.index()], true) {
                return Err(format!("relation {} placed twice", r.index()));
            }
        }
    }
    if seen.iter().all(|&s| s) {
        Ok(())
    } else {
        Err("plan misses a relation".to_string())
    }
}

/// A linear plan: each segment valid, the whole re-prices to `cost`.
pub fn linear_plan(
    query: &Query,
    model: &dyn CostModel,
    plan: &Plan,
    cost: f64,
) -> Result<(), String> {
    let segs: Vec<&[RelId]> = plan.segments.iter().map(JoinOrder::rels).collect();
    covers_once(query, &segs)?;
    if let Some(bad) = segs.iter().position(|s| !is_valid(query.graph(), s)) {
        return Err(format!("segment {bad} is not a valid join order"));
    }
    let repriced = recost_plan(query, model, plan);
    if !costs_agree(repriced, cost) {
        return Err(format!("reported cost {cost:e} re-prices to {repriced:e}"));
    }
    Ok(())
}

/// A linear solve result.
pub fn optimized(query: &Query, model: &dyn CostModel, r: &Optimized) -> Result<(), String> {
    linear_plan(query, model, &r.plan, r.cost)
}

/// A bushy solve result: every tree cross-product free and priced at its
/// reported segment cost; a single-tree plan costs its tree.
pub fn bushy(query: &Query, model: &dyn CostModel, r: &BushyOptimized) -> Result<(), String> {
    let leaves: Vec<Vec<RelId>> = r.trees.iter().map(|t| t.leaves()).collect();
    let segs: Vec<&[RelId]> = leaves.iter().map(Vec::as_slice).collect();
    covers_once(query, &segs)?;
    let compiled = Arc::new(CompiledQuery::new(query));
    for (i, (tree, &seg_cost)) in r.trees.iter().zip(&r.segment_costs).enumerate() {
        if tree.n_leaves() > 1 {
            tree.to_plan(&compiled)
                .audit(&compiled)
                .map_err(|e| format!("tree {i}: {e}"))?;
        }
        let repriced = bushy_tree_cost(query, model, tree);
        if repriced.to_bits() != seg_cost.to_bits() {
            return Err(format!(
                "tree {i} costs {seg_cost:e}, re-prices to {repriced:e}"
            ));
        }
    }
    if r.trees.len() == 1 && r.cost.to_bits() != r.segment_costs[0].to_bits() {
        return Err("single-tree plan cost differs from its tree".to_string());
    }
    Ok(())
}

/// Relation-name lookup for decoding served plans.
pub fn name_index(query: &Query) -> HashMap<String, RelId> {
    query
        .rel_ids()
        .map(|r| (query.relation(r).name.clone(), r))
        .collect()
}

/// A server response: `ok`, and its `segments` (relation names) form a
/// valid plan that re-prices to its `cost`. Returns the cost.
pub fn served(
    query: &Query,
    names: &HashMap<String, RelId>,
    model: &dyn CostModel,
    reply: &Value,
) -> Result<f64, String> {
    if reply.get("ok").and_then(Value::as_bool) != Some(true) {
        return Err(format!("request failed: {reply}"));
    }
    let cost = reply
        .get("cost")
        .and_then(Value::as_f64)
        .ok_or("response has no cost")?;
    let segments = reply
        .get("segments")
        .and_then(Value::as_array)
        .ok_or("response has no segments")?;
    let mut orders = Vec::with_capacity(segments.len());
    for seg in segments {
        let rels = seg
            .as_array()
            .ok_or("segment is not an array")?
            .iter()
            .map(|n| {
                n.as_str()
                    .and_then(|s| names.get(s).copied())
                    .ok_or("unknown relation name")
            })
            .collect::<Result<Vec<RelId>, _>>()?;
        orders.push(JoinOrder::new(rels));
    }
    let plan = Plan { segments: orders };
    linear_plan(query, model, &plan, cost)?;
    Ok(cost)
}
