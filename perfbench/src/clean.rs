//! `tpch_clean`: the paper's operation, `assert[·]`, in cleaning sessions.
//!
//! The prior is the TPC-H database plus a few dirty duplicates: customers
//! and orders whose key reappears with another value, each duplicate with
//! its own Boolean variable. A session starts from the prior and applies a
//! seeded sequence of evidence sets with `ProbDbService::assert_all`, each
//! on the previous posterior. A set is a row filter on `lineitem` (a bulk
//! quantity check on a window of orders; tens to ~150 violating tuples),
//! and some sets add the key of `customer` or `orders` (a few violating
//! pairs). Violating tuples are disjoint across the sets of a session.
//! After each assertion the session reads safe Q2-shaped queries on the
//! posterior. Every session starts from its own prior, generated from the
//! run's seed.

use std::sync::Arc;
use std::time::Instant;

use uprob_core::{condition, ConditioningOptions, ParallelOptions, SharedDecompositionCache};
use uprob_datagen::tpch::{lineitem_columns, MARKET_SEGMENTS};
use uprob_datagen::tpch::{TpchConfig, TpchDatabase};
use uprob_query::{
    planned_answer_confidences_with_options, AssertOutcome, Constraint, ProbDbService,
    ServiceOptions, Snapshot,
};
use uprob_urel::{Comparison, DeltaBuilder, Expr, Plan, Predicate, ProbDb, Tuple, Value};
use uprob_wsd::{WsDescriptor, WsSet};

use crate::check::{answers_identical, close, databases_identical};
use crate::metrics::{peak_rss_mb, set_up_batch, Report, Samples};
use crate::oracle::{tuple_probability, Expected};
use crate::rng::Rng;
use crate::serve::{finish_fold_counters, replay_read};
use crate::tpch::{q2_grid, Read};
use crate::trace::Layers;
use crate::RunConfig;

/// Size of the workload.
struct Shape {
    row_scale: f64,
    /// Violating-tuple targets of a session's row filters, one per set.
    row_filter_targets: &'static [usize],
    customer_duplicates: usize,
    order_duplicates: usize,
    reads_per_assert: usize,
    /// Set-ups per timed batch; one takes about 1.6 ms at full size.
    setups_per_batch: usize,
    min_rounds: usize,
}

fn shape(config: &RunConfig) -> Shape {
    if config.quick {
        Shape {
            row_scale: 0.005,
            row_filter_targets: &[6, 12],
            customer_duplicates: 1,
            order_duplicates: 1,
            reads_per_assert: 3,
            setups_per_batch: 1,
            min_rounds: 1,
        }
    } else {
        Shape {
            row_scale: 0.02,
            row_filter_targets: &[20, 50, 80, 120],
            customer_duplicates: 2,
            order_duplicates: 2,
            reads_per_assert: 6,
            setups_per_batch: 64,
            min_rounds: 3,
        }
    }
}

/// A dirty duplicate: a key held by two rows, their probabilities, a query
/// on the key and the two tuples it answers.
struct Pair {
    p: f64,
    q: f64,
    plan: Plan,
    original: Tuple,
    duplicate: Tuple,
}

/// The prior: TPC-H plus dirty duplicates.
struct Prior {
    db: ProbDb,
    customer_pairs: Vec<Pair>,
    order_pairs: Vec<Pair>,
}

fn build_prior(seed: u64, shape: &Shape) -> Result<Prior, String> {
    let data = TpchDatabase::generate(
        TpchConfig::scale(0.01)
            .with_row_scale(shape.row_scale)
            .with_seed(seed),
    );
    let mut rng = Rng::new(seed, "clean-duplicates");
    let mut delta = DeltaBuilder::new(&data.db);
    let mut customer_pairs = Vec::new();
    let mut order_pairs = Vec::new();
    let customers = data.config.num_customers();
    let orders = data.config.num_orders();
    let mut keys: Vec<usize> = (0..customers).collect();
    rng.shuffle(&mut keys);
    for (i, &key) in keys.iter().take(shape.customer_duplicates).enumerate() {
        let (tuple, descriptor) = data
            .db
            .relation("customer")
            .map_err(|e| e.to_string())?
            .rows()[key]
            .clone();
        let segment = tuple
            .get(2)
            .and_then(Value::as_str)
            .unwrap_or_default()
            .to_string();
        let other = MARKET_SEGMENTS
            .iter()
            .find(|s| **s != segment)
            .expect("five segments");
        let duplicate = Tuple::new(vec![
            Value::Int(key as i64),
            tuple.get(1).cloned().unwrap_or(Value::Null),
            Value::str(*other),
        ]);
        let q = 0.05 + 0.9 * rng.unit();
        push_duplicate(
            &mut delta,
            "customer",
            &format!("dc{i}"),
            q,
            duplicate.clone(),
        )?;
        customer_pairs.push(Pair {
            p: tuple_probability(&descriptor, data.db.world_table()),
            q,
            plan: Plan::scan("customer")
                .select(Predicate::col_eq("custkey", key as i64))
                .project(&["custkey", "mktsegment"]),
            original: Tuple::new(vec![Value::Int(key as i64), Value::str(segment)]),
            duplicate: Tuple::new(vec![Value::Int(key as i64), Value::str(*other)]),
        });
    }
    let mut keys: Vec<usize> = (0..orders).collect();
    rng.shuffle(&mut keys);
    for (i, &key) in keys.iter().take(shape.order_duplicates).enumerate() {
        let (tuple, descriptor) = data
            .db
            .relation("orders")
            .map_err(|e| e.to_string())?
            .rows()[key]
            .clone();
        let custkey = tuple.get(1).and_then(Value::as_int).unwrap_or(0);
        let other = (custkey + 1) % customers as i64;
        let orderdate = tuple.get(2).and_then(Value::as_int).unwrap_or(0);
        let duplicate = Tuple::new(vec![
            Value::Int(key as i64),
            Value::Int(other),
            Value::Int(orderdate),
        ]);
        let q = 0.05 + 0.9 * rng.unit();
        push_duplicate(&mut delta, "orders", &format!("do{i}"), q, duplicate)?;
        order_pairs.push(Pair {
            p: tuple_probability(&descriptor, data.db.world_table()),
            q,
            plan: Plan::scan("orders")
                .select(Predicate::col_eq("orderkey", key as i64))
                .project(&["orderkey", "custkey"]),
            original: Tuple::new(vec![Value::Int(key as i64), Value::Int(custkey)]),
            duplicate: Tuple::new(vec![Value::Int(key as i64), Value::Int(other)]),
        });
    }
    let (db, _) = delta.finish();
    Ok(Prior {
        db,
        customer_pairs,
        order_pairs,
    })
}

fn push_duplicate(
    delta: &mut DeltaBuilder,
    relation: &str,
    name: &str,
    p: f64,
    tuple: Tuple,
) -> Result<(), String> {
    let var = delta.add_boolean(name, p).map_err(|e| e.to_string())?;
    let descriptor =
        WsDescriptor::from_pairs(delta.world_table(), &[(var, 1)]).map_err(|e| e.to_string())?;
    delta
        .append(relation, tuple, descriptor)
        .map_err(|e| e.to_string())
}

/// The kinds of evidence set: a row filter with a target number of
/// violating tuples, or the key of `customer` (true) or `orders` (false).
#[derive(Clone, Copy)]
enum Kind {
    RowFilter(usize),
    Key(bool),
}

/// One evidence set with its closed form.
struct Evidence {
    constraints: Vec<Constraint>,
    /// Prior `lineitem` row positions the row filter rejects.
    violators: Vec<usize>,
    /// The key this set asserts: `customer` (true) or `orders` (false).
    customer_key: Option<bool>,
    /// `P(C)` on the previous posterior.
    confidence: f64,
}

/// The evidence sets of one session and its reads.
struct Session {
    evidence: Vec<Evidence>,
    reads: Vec<Read>,
}

/// Quantity above which the bulk check rejects a line.
const BULK_QUANTITY: i64 = 25;

fn draw_session(rng: &mut Rng, prior: &Prior, shape: &Shape) -> Session {
    let lineitem = prior.db.relation("lineitem").expect("lineitem exists");
    let orders = prior.db.relation("orders").expect("orders exist").len() as i64;
    // Candidate violators per order key.
    let mut bulk: Vec<Vec<usize>> = vec![Vec::new(); orders as usize];
    for (i, (tuple, _)) in lineitem.iter().enumerate() {
        let key = tuple
            .get(lineitem_columns::ORDERKEY)
            .and_then(Value::as_int)
            .unwrap_or(0);
        let quantity = tuple
            .get(lineitem_columns::QUANTITY)
            .and_then(Value::as_int)
            .unwrap_or(0);
        if quantity > BULK_QUANTITY && (0..orders).contains(&key) {
            bulk[key as usize].push(i);
        }
    }
    // A session's sets: one row filter per target, then one key set per
    // relation with duplicates, each group in a seeded order. Keys come
    // last because a row filter asserted on a posterior of key evidence
    // costs several times more time and memory (see the README).
    let mut kinds: Vec<Kind> = shape
        .row_filter_targets
        .iter()
        .map(|&target| Kind::RowFilter(target))
        .collect();
    rng.shuffle(&mut kinds);
    let mut keys = [Kind::Key(true), Kind::Key(false)];
    rng.shuffle(&mut keys);
    kinds.extend(keys);
    let mut next = rng.below((orders / 4).max(1) as usize) as i64;
    let table = prior.db.world_table();
    let mut evidence = Vec::with_capacity(kinds.len());
    for kind in kinds {
        evidence.push(match kind {
            Kind::RowFilter(target) => {
                let from = next;
                let mut violators = Vec::new();
                while violators.len() < target && next < orders {
                    violators.extend(&bulk[next as usize]);
                    next += 1;
                }
                let filter = Predicate::between("orderkey", from, next - 1)
                    .and(Predicate::cmp(
                        Expr::col("quantity"),
                        Comparison::Gt,
                        Expr::val(BULK_QUANTITY),
                    ))
                    .not();
                let confidence = violators
                    .iter()
                    .map(|&i: &usize| 1.0 - tuple_probability(&lineitem.rows()[i].1, table))
                    .product();
                Evidence {
                    constraints: vec![Constraint::row_filter("lineitem", filter)],
                    violators,
                    customer_key: None,
                    confidence,
                }
            }
            Kind::Key(customer) => {
                let (constraint, pairs) = if customer {
                    (
                        Constraint::key("customer", &["custkey"]),
                        &prior.customer_pairs,
                    )
                } else {
                    (Constraint::key("orders", &["orderkey"]), &prior.order_pairs)
                };
                Evidence {
                    constraints: vec![constraint],
                    violators: Vec::new(),
                    customer_key: Some(customer),
                    confidence: pairs.iter().map(|pair| 1.0 - pair.p * pair.q).product(),
                }
            }
        });
    }
    let mut reads = q2_grid();
    rng.shuffle(&mut reads);
    reads.truncate(shape.reads_per_assert);
    Session { evidence, reads }
}

/// Checks the posterior of one assertion against the closed forms: P(C),
/// the key pairs' posteriors, and confidence 0 for every violation query.
fn check_posterior(
    service: &ProbDbService,
    outcome: &AssertOutcome,
    evidence: &Evidence,
    prior: &Prior,
    report: &mut Report,
) -> Result<(), String> {
    report.check(close(outcome.confidence, evidence.confidence, 1e-9), || {
        format!(
            "P(C) = {} but the closed form gives {}",
            outcome.confidence, evidence.confidence
        )
    });
    let db = outcome.snapshot.db();
    for constraint in &evidence.constraints {
        let plan = constraint
            .violation_plan(db)
            .map_err(|e| e.to_string())?
            .ok_or("row filters and keys have violation plans")?;
        let violation = service
            .conf_pinned(&outcome.snapshot, &plan)
            .map_err(|e| e.to_string())?;
        report.check(violation.boolean == 0.0, || {
            format!(
                "violation query of {} has confidence {} on its posterior",
                constraint.describe(),
                violation.boolean
            )
        });
    }
    if let Some(customer) = evidence.customer_key {
        let pairs = if customer {
            &prior.customer_pairs
        } else {
            &prior.order_pairs
        };
        for pair in pairs {
            let answer = service
                .conf_pinned(&outcome.snapshot, &pair.plan)
                .map_err(|e| e.to_string())?;
            let norm = 1.0 - pair.p * pair.q;
            let mut want = Expected::new();
            want.insert(pair.original.clone(), pair.p * (1.0 - pair.q) / norm);
            want.insert(pair.duplicate.clone(), pair.q * (1.0 - pair.p) / norm);
            let boolean = (pair.p + pair.q - 2.0 * pair.p * pair.q) / norm;
            let verdict =
                crate::oracle::compare(&answer.tuples, answer.boolean, &want, boolean, 1e-9);
            report.check(verdict.is_ok(), || {
                format!("key-pair posterior: {}", verdict.unwrap_err())
            });
        }
    }
    Ok(())
}

/// Runs the workload.
///
/// # Errors
///
/// A failed set-up or check query.
pub fn run(config: &RunConfig) -> Result<Report, String> {
    let shape = shape(config);
    let mut rng = Rng::new(config.seed, "clean-sessions");
    let mut report = Report::default();
    let mut layers = Layers::default();
    let mut setups = Samples::default();
    let mut rounds = Samples::default();
    let mut throughput = Samples::default();
    let mut asserts = Samples::default();
    let mut reads_ms = Samples::default();
    let mut failed = 0u64;
    let started = Instant::now();
    let trace_rounds = shape.min_rounds.min(2);
    loop {
        let done = rounds.len();
        if config.trace && done >= trace_rounds
            || !config.trace
                && done >= shape.min_rounds
                && (config.quick || started.elapsed() >= config.measure)
        {
            break;
        }
        // Bit-identity against the single-owner call is checked in the
        // first session; the closed forms in every session.
        let first = done == 0;
        // Every session cleans its own TPC-H instance, drawn from the
        // run's seed, so a run's figures average over many instances.
        let prior = build_prior(rng.seed(), &shape)?;
        let prior_rows = prior
            .db
            .relation("lineitem")
            .map_err(|e| e.to_string())?
            .len();
        let session = draw_session(&mut rng, &prior, &shape);
        let plans: Vec<Plan> = session.reads.iter().map(Read::plan).collect();

        let batch = if config.trace {
            1
        } else {
            shape.setups_per_batch
        };
        let (service, seconds) = set_up_batch(batch, || {
            let service = ProbDbService::new(prior.db.clone());
            for plan in &plans {
                service
                    .conf(plan)
                    .map_err(|e| format!("warm-up conf: {e}"))?;
            }
            Ok(service)
        })?;
        setups.push(seconds);

        let mut removed = vec![false; prior_rows];
        let mut round_ms = 0.0;
        let (mut round_reads, mut round_read_ms) = (0usize, 0.0);
        for evidence in &session.evidence {
            let before = service.snapshot();
            let start = Instant::now();
            let outcome = service.assert_all(&evidence.constraints);
            let ms = start.elapsed().as_secs_f64() * 1e3;
            round_ms += ms;
            let outcome = outcome.map_err(|e| format!("assert_all failed: {e}"))?;
            asserts.push(ms);
            if config.trace {
                layers.served(ms);
                replay_assert(&before, evidence, &outcome, &mut layers, &mut report)?;
            }
            check_posterior(&service, &outcome, evidence, &prior, &mut report)?;
            for &i in &evidence.violators {
                removed[i] = true;
            }
            for (read, plan) in session.reads.iter().zip(&plans) {
                let start = Instant::now();
                let answer = service.conf(plan);
                let ms = start.elapsed().as_secs_f64() * 1e3;
                round_ms += ms;
                let Ok(answer) = answer else {
                    failed += 1;
                    continue;
                };
                reads_ms.push(ms);
                round_reads += 1;
                round_read_ms += ms;
                if config.trace {
                    layers.served(ms);
                    let replayed = replay_read(&outcome.snapshot, plan, &mut layers)?;
                    report.check(answers_identical(&answer, &replayed), || {
                        format!("replayed posterior read {read:?} differs from the served one")
                    });
                }
                let (want, want_boolean) = read.expected(&prior.db, &removed);
                let verdict = crate::oracle::compare(
                    &answer.tuples,
                    answer.boolean,
                    &want,
                    want_boolean,
                    1e-9,
                );
                report.check(verdict.is_ok(), || {
                    format!("posterior read {read:?}: {}", verdict.unwrap_err())
                });
                if first || config.quick {
                    let reference = planned_answer_confidences_with_options(
                        outcome.snapshot.db(),
                        plan,
                        &ServiceOptions::default().decomposition,
                        &ParallelOptions::sequential(),
                        &SharedDecompositionCache::new(),
                    )
                    .map_err(|e| e.to_string())?;
                    report.check(answers_identical(&answer, &reference), || {
                        format!("served posterior read {read:?} differs from the single-owner call")
                    });
                }
            }
            if config.trace {
                layers.add(
                    "core.inherited_hits",
                    outcome.snapshot.cache_stats().inherited_hits as f64,
                );
            }
        }
        rounds.push(round_ms / 1e3);
        reads_ms.end_round();
        throughput.push(round_reads as f64 / (round_read_ms / 1e3));
    }
    report.attempted = (asserts.len() + reads_ms.len()) as u64 + failed;
    report.failed = failed;
    if config.trace {
        finish_fold_counters(&mut layers);
        let assertions = asserts.len().max(1) as f64;
        for name in [
            "query.violation_descriptors",
            "wsd.complement_descriptors",
            "core.condition_new_vars",
            "core.posterior_rows_ratio",
            "core.inherited_entries",
            "core.inherit_dropped",
            "core.inherited_hits",
        ] {
            let total = layers.take(name);
            layers.set(name, total / assertions);
        }
        layers.finish(&mut report);
        return Ok(report);
    }
    report.note(asserts.describe("assert_ms"));
    report.note(reads_ms.describe("conf_ms"));
    report.note(format!(
        "sessions={} set-ups per batch={}",
        rounds.len(),
        shape.setups_per_batch
    ));
    report.metric("setup_s", setups.median());
    report.metric("peak_rss_mb", peak_rss_mb()?);
    report.metric("round_s", rounds.median());
    report.metric("conf_per_s", throughput.median());
    let (p50, p90) = reads_ms.block_percentiles(config.quick)?;
    report.metric("conf_p50_ms", p50);
    report.metric("conf_p90_ms", p90);
    Ok(report)
}

/// Replays one `assert_all` layer by layer on the snapshot it conditioned:
/// violation compilation, union and complement, the conditioning rewrite
/// and cache inheritance; the posterior must be bit-identical to the
/// served one.
fn replay_assert(
    before: &Arc<Snapshot>,
    evidence: &Evidence,
    served: &AssertOutcome,
    layers: &mut Layers,
    report: &mut Report,
) -> Result<(), String> {
    let db = before.db();
    let mut sets = Vec::with_capacity(evidence.constraints.len());
    for constraint in &evidence.constraints {
        let set = layers
            .span("query.violation_ms", || constraint.violation_ws_set(db))
            .map_err(|e| e.to_string())?;
        layers.add("query.violation_descriptors", set.len() as f64);
        sets.push(set);
    }
    let satisfying = layers.span("wsd.complement_ms", || {
        let mut violations = WsSet::empty();
        for set in &sets {
            violations = violations.union(set);
        }
        violations.normalize();
        let mut satisfying = WsSet::universal().difference(&violations, db.world_table());
        satisfying.normalize();
        satisfying
    });
    layers.add("wsd.complement_descriptors", satisfying.len() as f64);
    let conditioned = layers
        .span("core.condition_ms", || {
            condition(db, &satisfying, &ConditioningOptions::default())
        })
        .map_err(|e| e.to_string())?;
    layers.add("core.condition_new_vars", conditioned.new_variables as f64);
    let rows = |db: &ProbDb| db.relations().map(|r| r.len()).sum::<usize>() as f64;
    layers.add(
        "core.posterior_rows_ratio",
        rows(&conditioned.db) / rows(db),
    );
    let cache = SharedDecompositionCache::new();
    let inherited = layers
        .span("core.inherit_ms", || {
            cache.inherit_from(
                before.cache(),
                db.world_table(),
                conditioned.db.world_table(),
                &conditioned.prior_remap,
                &conditioned.touched_variables,
            )
        })
        .map_err(|e| e.to_string())?;
    layers.add("core.inherited_entries", inherited.inherited as f64);
    layers.add("core.inherit_dropped", inherited.dropped as f64);
    report.check(
        databases_identical(&conditioned.db, served.snapshot.db())
            && conditioned.confidence.to_bits() == served.confidence.to_bits()
            && inherited == served.inherited,
        || "replayed assertion differs from the served posterior".to_string(),
    );
    Ok(())
}
