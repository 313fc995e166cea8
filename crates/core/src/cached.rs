//! Cache-aware serving drivers.
//!
//! Wires the plan cache (`ljqo-cache`) through the optimization path:
//! [`optimize_cached`] consults a shared [`PlanCache`] before paying the
//! cold combinatorial search, and [`optimize_batch_cached`] additionally
//! dedupes fingerprint-equal queries *within* a batch so each equivalence
//! class is solved at most once.
//!
//! # Safety of a warm hit
//!
//! A cached entry stores join orders in canonical coordinates plus the
//! costs they were found at. Serving from it never trusts the entry:
//!
//! 1. every segment is rehydrated through the *current* query's canonical
//!    mapping, with out-of-range indices rejected;
//! 2. the rehydrated segments must partition the query's relations
//!    exactly (no duplicates, no gaps) and each multi-relation segment
//!    must be a valid order of the live join graph;
//! 3. every segment is re-priced under the live catalog and cost model
//!    (panic-isolated).
//!
//! If the fresh prices agree with the stored ones
//! ([`ljqo_cost::costs_agree`]) the stored costs are kept, so the served
//! result is **bit-identical** to the cold solve that produced the entry
//! (plan assembly is a pure function of the `(order, cost)` pairs). If
//! they differ materially — the same fingerprint covering a
//! within-bucket-different query, or catalog statistics drifting under a
//! resident entry — the plan structure is reused at freshly computed
//! costs ([`CacheOutcome::HitRecosted`]). Entries that fail any check are
//! invalidated and the query falls through to the cold path
//! ([`CacheOutcome::Stale`]), so a poisoned cache can cost latency but
//! never correctness.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use ljqo_cache::{
    fingerprint, CachedPlan, CachedSegment, FingerprintConfig, Fingerprinted, PlanCache,
};
use ljqo_catalog::Query;
use ljqo_cost::{costs_agree, sanitize_cost, CostModel, Deadline};
use ljqo_plan::validity::is_valid;
use ljqo_plan::JoinOrder;

use crate::driver::{
    assemble_plan, BatchOptions, BatchReport, Optimized, OptimizerConfig, ServedVia,
};
use crate::error::{Degradation, OptError};
use crate::parallel::{splitmix, Parallelism};
use crate::{try_optimize, try_optimize_parallel};

/// How a cache-aware driver answered a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from the cache; fresh per-segment prices agreed with the
    /// stored ones, so the result is bit-identical to the cold solve that
    /// produced the entry.
    Hit,
    /// Served from the cache structurally, but re-priced: the entry's
    /// stored costs disagreed with the live catalog (within-bucket
    /// statistics drift), so the returned cost is freshly computed.
    HitRecosted,
    /// A resident entry failed validity re-checks against the live
    /// catalog; it was invalidated and the query was solved cold.
    Stale,
    /// No resident entry; the query was solved cold.
    Miss,
}

impl CacheOutcome {
    /// Whether the plan structure came from the cache.
    pub fn is_hit(self) -> bool {
        matches!(self, CacheOutcome::Hit | CacheOutcome::HitRecosted)
    }

    /// Stable lower-case name, for JSON output and logs.
    pub fn name(self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::HitRecosted => "hit_recosted",
            CacheOutcome::Stale => "stale",
            CacheOutcome::Miss => "miss",
        }
    }
}

/// Try to serve `query` from `entry`. `None` means the entry failed a
/// validity re-check (structurally foreign or unpriceable under the live
/// catalog) and must be treated as stale.
fn serve_from_entry(
    query: &Query,
    model: &dyn CostModel,
    fp: &Fingerprinted,
    entry: &CachedPlan,
) -> Option<(Optimized, CacheOutcome)> {
    if entry.segments.is_empty() {
        return None;
    }
    let n = query.n_relations();
    let mut seen = vec![false; n];
    let mut orders: Vec<Vec<ljqo_catalog::RelId>> = Vec::with_capacity(entry.segments.len());
    for seg in &entry.segments {
        let order = fp.rehydrate_order(&seg.canon_order)?;
        for r in &order {
            if std::mem::replace(&mut seen[r.index()], true) {
                return None; // duplicate relation across/within segments
            }
        }
        if order.len() > 1 && !is_valid(query.graph(), &order) {
            return None;
        }
        orders.push(order);
    }
    if !seen.iter().all(|&s| s) {
        return None; // entry does not cover every relation
    }

    // Re-price every segment under the live catalog; a model fault or a
    // saturated price marks the entry stale rather than serving garbage.
    let mut agree = true;
    let mut segments: Vec<(JoinOrder, f64)> = Vec::with_capacity(orders.len());
    for (order, seg) in orders.into_iter().zip(&entry.segments) {
        let fresh = catch_unwind(AssertUnwindSafe(|| {
            sanitize_cost(model.order_cost(query, &order))
        }))
        .ok()?;
        if !fresh.is_finite() || fresh == f64::MAX {
            return None;
        }
        agree &= costs_agree(fresh, seg.cost);
        segments.push((JoinOrder::new(order), fresh));
    }
    let outcome = if agree {
        // Keep the stored prices: assembly is deterministic in the
        // `(order, cost)` pairs, so the total is bit-identical to the
        // cold solve that produced this entry.
        for (s, seg) in segments.iter_mut().zip(&entry.segments) {
            s.1 = seg.cost;
        }
        CacheOutcome::Hit
    } else {
        CacheOutcome::HitRecosted
    };

    let n_segments = segments.len() as u64;
    let (plan, total_cost, segment_costs) = assemble_plan(query, model, segments);
    if !total_cost.is_finite() || total_cost == f64::MAX {
        return None;
    }
    Some((
        Optimized {
            plan,
            cost: total_cost,
            segment_costs,
            units_used: n_segments,
            n_evals: n_segments,
            degradation: Degradation::None,
            deadline_expired: false,
            workers_failed: 0,
            winner: None,
        },
        outcome,
    ))
}

/// Build the cache entry for a cold result, in canonical coordinates.
/// The producer credit prefers the portfolio winner when the cold path
/// was a multi-method parallel run; sequential solves credit the
/// configured method as before.
fn entry_for(fp: &Fingerprinted, result: &Optimized, config: &OptimizerConfig) -> CachedPlan {
    CachedPlan {
        segments: result
            .plan
            .segments
            .iter()
            .zip(&result.segment_costs)
            .map(|(order, &cost)| CachedSegment {
                canon_order: fp.canonize_order(order.rels()),
                cost,
            })
            .collect(),
        total_cost: result.cost,
        producer: result
            .winner
            .map(|m| m.name())
            .unwrap_or(config.method.name()),
    }
}

/// Whether a cold result is worth caching: only full-quality plans are
/// stored, so a degraded or deadline-truncated answer can never be
/// replayed to future queries.
fn cacheable(result: &Optimized) -> bool {
    !result.degradation.is_degraded() && !result.deadline_expired && result.cost.is_finite()
}

/// Look up `query` in `cache`; on a miss (or a stale entry) run `cold`
/// and insert the result if it is full-quality. The shared core of the
/// cached drivers.
fn optimize_cached_with(
    query: &Query,
    model: &dyn CostModel,
    config: &OptimizerConfig,
    cache: &PlanCache,
    fp_config: &FingerprintConfig,
    cold: impl FnOnce() -> Result<Optimized, OptError>,
) -> Result<(Optimized, CacheOutcome), OptError> {
    query.validate()?;
    let fp = fingerprint(query, fp_config);
    let mut outcome = CacheOutcome::Miss;
    if let Some(entry) = cache.get(fp.fingerprint()) {
        match serve_from_entry(query, model, &fp, &entry) {
            Some(served) => return Ok(served),
            None => {
                cache.invalidate(fp.fingerprint());
                outcome = CacheOutcome::Stale;
            }
        }
    }
    let result = cold()?;
    if cacheable(&result) {
        cache.insert(fp.fingerprint().clone(), entry_for(&fp, &result, config));
    }
    Ok((result, outcome))
}

/// [`try_optimize`](crate::try_optimize) behind a plan cache.
///
/// On a warm hit the cached join order is re-validated and re-priced
/// against the live catalog (see the module docs for the exact
/// contract); on a miss the cold result is inserted if it is
/// full-quality (no degradation, no deadline expiry). The returned
/// [`CacheOutcome`] says which path answered.
pub fn optimize_cached(
    query: &Query,
    model: &dyn CostModel,
    config: &OptimizerConfig,
    cache: &PlanCache,
    fp_config: &FingerprintConfig,
) -> Result<(Optimized, CacheOutcome), OptError> {
    optimize_cached_with(query, model, config, cache, fp_config, || {
        try_optimize(query, model, config)
    })
}

/// [`try_optimize_parallel`](crate::try_optimize_parallel) behind a plan
/// cache: identical serving contract to [`optimize_cached`], with the
/// cold path searched by a parallel worker pool.
pub fn optimize_cached_parallel(
    query: &Query,
    model: &(dyn CostModel + Sync),
    config: &OptimizerConfig,
    parallelism: &Parallelism,
    cache: &PlanCache,
    fp_config: &FingerprintConfig,
) -> Result<(Optimized, CacheOutcome), OptError> {
    optimize_cached_with(query, model, config, cache, fp_config, || {
        try_optimize_parallel(query, model, config, parallelism)
    })
}

/// [`optimize_batch`](crate::optimize_batch) behind a plan cache, with
/// in-batch dedup.
///
/// `queries` may be owned (`&[Query]`) or borrowed (`&[&Query]`), so a
/// caller that holds its queries elsewhere need not clone them.
/// Queries are fingerprinted up front and grouped; each group is served
/// by one pool thread, and the caller's own thread is one of them (so
/// [`BatchOptions::threads`] = 1 spawns none):
///
/// * a group whose fingerprint is already resident serves every member
///   from the cache (counted in [`BatchReport::n_cache_hits`]);
/// * otherwise the lowest-index member is solved cold — with the *same*
///   per-query seed `splitmix(config.seed ⊕ index)` the plain batch
///   driver would use, so representatives are bit-identical to an
///   uncached run — and the remaining members reuse the entry
///   ([`BatchReport::n_dedup_reuses`]);
/// * any member that cannot be served from the entry (stale under its
///   own statistics) falls back to its own cold solve, again with its
///   plain-batch seed.
///
/// So a batch of `Q` queries with `F` distinct fingerprints performs at
/// most `F` cold solves (plus per-member fallbacks, which only fire on
/// validity failures), and [`BatchReport::n_cold_solves`] says how many
/// actually ran.
pub fn optimize_batch_cached<Q: Borrow<Query> + Sync>(
    queries: &[Q],
    model: &(dyn CostModel + Sync),
    config: &OptimizerConfig,
    options: &BatchOptions,
    cache: &PlanCache,
    fp_config: &FingerprintConfig,
) -> BatchReport {
    optimize_batch_cached_with(
        queries,
        model,
        config,
        options,
        cache,
        fp_config,
        &|q, cfg| try_optimize(q, model, cfg),
    )
}

/// [`optimize_batch_cached`] with each cold solve searched by
/// [`try_optimize_parallel`](crate::try_optimize_parallel) under
/// `parallelism` — including, when
/// [`Parallelism::router`](crate::Parallelism) is set, the learned
/// per-class budget split with online feedback. The caching, dedup,
/// seeding, and reporting contracts are identical to
/// [`optimize_batch_cached`]; only the cold path differs.
pub fn optimize_batch_cached_routed<Q: Borrow<Query> + Sync>(
    queries: &[Q],
    model: &(dyn CostModel + Sync),
    config: &OptimizerConfig,
    options: &BatchOptions,
    cache: &PlanCache,
    fp_config: &FingerprintConfig,
    parallelism: &Parallelism,
) -> BatchReport {
    optimize_batch_cached_with(
        queries,
        model,
        config,
        options,
        cache,
        fp_config,
        &|q, cfg| try_optimize_parallel(q, model, cfg, parallelism),
    )
}

/// The shared batch body: `cold` is the per-query cold solver (already
/// closed over the model), invoked with the member's derived config.
fn optimize_batch_cached_with<Q: Borrow<Query> + Sync>(
    queries: &[Q],
    model: &(dyn CostModel + Sync),
    config: &OptimizerConfig,
    options: &BatchOptions,
    cache: &PlanCache,
    fp_config: &FingerprintConfig,
    cold: ColdSolver<'_>,
) -> BatchReport {
    let started = Instant::now();

    // Fingerprint everything up front (cheap, linear in query size) and
    // group indices by fingerprint. Invalid queries keep their error and
    // never reach the pool.
    let mut prints: Vec<Option<Fingerprinted>> = Vec::with_capacity(queries.len());
    let mut errors: Vec<Option<OptError>> = Vec::with_capacity(queries.len());
    for q in queries {
        let q = q.borrow();
        match q.validate() {
            Ok(()) => {
                prints.push(Some(fingerprint(q, fp_config)));
                errors.push(None);
            }
            Err(e) => {
                prints.push(None);
                errors.push(Some(OptError::from(e)));
            }
        }
    }
    let mut groups: HashMap<&ljqo_cache::QueryFingerprint, Vec<usize>> = HashMap::new();
    for (i, fp) in prints.iter().enumerate() {
        if let Some(fp) = fp {
            groups.entry(fp.fingerprint()).or_default().push(i);
        }
    }
    // Deterministic group order (by lowest member index) for the pool.
    let mut group_list: Vec<Vec<usize>> = groups.into_values().collect();
    group_list.sort_by_key(|g| g[0]);

    let threads = if options.threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        options.threads
    }
    .min(group_list.len().max(1))
    .max(1);

    let cold_config = |i: usize| {
        let mut cfg = *config;
        cfg.seed = splitmix(config.seed ^ i as u64);
        if let Some(d) = options.per_query_deadline {
            cfg.deadline = Some(Deadline::after(d));
        }
        cfg
    };

    let serve_groups = |next: &AtomicUsize| {
        let mut out: Vec<(usize, Served)> = Vec::new();
        loop {
            let g = next.fetch_add(1, Ordering::Relaxed);
            let Some(group) = group_list.get(g) else {
                break;
            };
            serve_group(
                queries,
                model,
                cache,
                &prints,
                group,
                &cold_config,
                cold,
                &mut out,
            );
        }
        out
    };
    let next = AtomicUsize::new(0);
    // The caller takes one worker's share, so one thread (the serving
    // daemon's setting) spawns nothing.
    let mut collected: Vec<(usize, Served)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..threads)
            .map(|_| scope.spawn(|| serve_groups(&next)))
            .collect();
        let mut out = serve_groups(&next);
        for h in handles {
            out.extend(h.join().expect("cold paths are panic-isolated internally"));
        }
        out
    });

    // Queries that failed catalog validation never entered a group.
    for (i, err) in errors.into_iter().enumerate() {
        if let Some(e) = err {
            collected.push((
                i,
                Served {
                    result: Err(e),
                    outcome: CacheOutcome::Miss,
                    reused: false,
                    producer: config.method.name(),
                },
            ));
        }
    }
    collected.sort_by_key(|&(i, _)| i);

    let mut report = BatchReport {
        results: Vec::with_capacity(queries.len()),
        outcomes: Vec::with_capacity(queries.len()),
        n_failed: 0,
        n_degraded: 0,
        n_deadline_expired: 0,
        n_cold_solves: 0,
        n_cache_hits: 0,
        n_dedup_reuses: 0,
        units_used: 0,
        wall: Duration::ZERO,
    };
    for (_, served) in collected {
        match &served.result {
            Ok(r) => {
                report.units_used += r.units_used;
                if r.degradation.is_degraded() {
                    report.n_degraded += 1;
                }
                if r.deadline_expired {
                    report.n_deadline_expired += 1;
                }
                match served.outcome {
                    CacheOutcome::Hit | CacheOutcome::HitRecosted if served.reused => {
                        report.n_dedup_reuses += 1
                    }
                    CacheOutcome::Hit | CacheOutcome::HitRecosted => report.n_cache_hits += 1,
                    CacheOutcome::Stale | CacheOutcome::Miss => report.n_cold_solves += 1,
                }
            }
            Err(_) => report.n_failed += 1,
        }
        report.outcomes.push(ServedVia {
            outcome: served.outcome,
            producer: served.producer,
        });
        report.results.push(served.result);
    }
    report.wall = started.elapsed();
    report
}

/// One query's answer within a cached batch, tagged with how it was
/// produced (for the [`BatchReport`] counters).
struct Served {
    result: Result<Optimized, OptError>,
    outcome: CacheOutcome,
    /// Whether a hit reused an entry produced by this batch's own cold
    /// solve (a dedup reuse) rather than a pre-existing one.
    reused: bool,
    /// Method credited with the served plan (the entry's producer on a
    /// hit, the configured method on a cold solve).
    producer: &'static str,
}

/// The cold-path solver a cached batch runs for a group representative:
/// sequential [`try_optimize`] for [`optimize_batch_cached`], the
/// parallel driver for [`optimize_batch_cached_routed`].
type ColdSolver<'a> = &'a (dyn Fn(&Query, &OptimizerConfig) -> Result<Optimized, OptError> + Sync);

/// Serve one fingerprint group: at most one cold solve, members reuse
/// the resulting entry (or fall back to their own cold solve).
#[allow(clippy::too_many_arguments)]
fn serve_group<Q: Borrow<Query>>(
    queries: &[Q],
    model: &(dyn CostModel + Sync),
    cache: &PlanCache,
    prints: &[Option<Fingerprinted>],
    group: &[usize],
    cold_config: &(dyn Fn(usize) -> OptimizerConfig + Sync),
    cold: ColdSolver<'_>,
    out: &mut Vec<(usize, Served)>,
) {
    let mut entry: Option<CachedPlan> = None;
    let mut from_batch = false; // entry produced by this group's own cold solve
    for (pos, &i) in group.iter().enumerate() {
        let fp = prints[i].as_ref().expect("grouped queries fingerprinted");
        let query = queries[i].borrow();
        // Representative (first member): consult the shared cache.
        if pos == 0 {
            entry = cache.get(fp.fingerprint());
        }
        if let Some(e) = &entry {
            if let Some((result, outcome)) = serve_from_entry(query, model, fp, e) {
                out.push((
                    i,
                    Served {
                        result: Ok(result),
                        outcome,
                        reused: from_batch,
                        producer: e.producer,
                    },
                ));
                continue;
            }
            // Stale for this member. Only evict the shared entry if it
            // came from the cache; a sibling-produced entry may still
            // fit other members.
            if !from_batch {
                cache.invalidate(fp.fingerprint());
                entry = None;
            }
        }
        // Cold solve with the exact seed the plain batch driver would use
        // for this index.
        let cfg = cold_config(i);
        let result = cold(query, &cfg);
        let mut producer = cfg.method.name();
        if let Ok(r) = &result {
            if let Some(m) = r.winner {
                producer = m.name();
            }
            if cacheable(r) {
                let e = entry_for(fp, r, &cfg);
                cache.insert(fp.fingerprint().clone(), e.clone());
                if entry.is_none() {
                    entry = Some(e);
                    from_batch = true;
                }
            }
        }
        out.push((
            i,
            Served {
                result,
                outcome: CacheOutcome::Miss,
                reused: false,
                producer,
            },
        ));
    }
}
