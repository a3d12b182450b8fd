//! `tpch_serve`: the read path under a closed loop.
//!
//! Two client threads issue `ProbDbService::conf` on Q1- and Q2-shaped plans
//! over one TPC-H snapshot. Each round is a seeded sequence of requests; a
//! client takes the sequence's next request when its previous one returns,
//! so the two share the round's work and it ends when the work is done. The plan pool is
//! a fixed grid of constants (market segment, order-date cut-off, ship-date
//! window, discount and quantity), small enough that plans repeat and the plan and decomposition caches are warm
//! after set-up. Service options stay at their default (one sequential fold
//! per request): the two clients already fill two cores.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use uprob_core::{ParallelOptions, SharedDecompositionCache};
use uprob_datagen::tpch::{TpchConfig, TpchDatabase};
use uprob_query::{
    answer_confidences_with_options, planned_answer_confidences_with_options, AnswerConfidences,
    ProbDbService, ServiceOptions,
};
use uprob_urel::{execute_plan, optimize_plan, Plan};

use crate::check::answers_identical;
use crate::metrics::{peak_rss_mb, set_up_batch, Report, Samples};
use crate::rng::Rng;
use crate::tpch::{q1_grid, q2_grid, Read};
use crate::trace::Layers;
use crate::RunConfig;

/// Size of the workload.
struct Shape {
    row_scale: f64,
    requests_per_round: usize,
    /// Set-ups per timed batch; one takes about 0.11 s at full size.
    setups_per_batch: usize,
    min_rounds: usize,
}

const CLIENTS: usize = 2;

fn shape(config: &RunConfig) -> Shape {
    if config.quick {
        Shape {
            row_scale: 0.01,
            requests_per_round: 40,
            setups_per_batch: 1,
            min_rounds: 1,
        }
    } else {
        Shape {
            row_scale: 0.1,
            requests_per_round: 600,
            setups_per_batch: 1,
            min_rounds: 3,
        }
    }
}

/// Sets the service up: loads the database and runs every distinct plan
/// once, filling the plan cache and the decomposition cache.
fn set_up(data: &TpchDatabase, plans: &[Plan]) -> Result<ProbDbService, String> {
    let service = ProbDbService::with_options(data.db.clone(), ServiceOptions::default());
    for plan in plans {
        service
            .conf(plan)
            .map_err(|e| format!("warm-up conf: {e}"))?;
    }
    Ok(service)
}

/// The plan indices of one round: a Q1-shaped plan (the first `q1` of the
/// pool) one time in four, else a Q2-shaped one. The uneven mix keeps the
/// median inside the Q2 latencies and the 90th percentile inside the Q1
/// latencies, away from the gap between them.
fn round_requests(rng: &mut Rng, q1: usize, pool: usize, count: usize) -> Vec<usize> {
    (0..count)
        .map(|_| {
            if rng.below(4) == 0 {
                rng.below(q1)
            } else {
                q1 + rng.below(pool - q1)
            }
        })
        .collect()
}

/// Runs the workload.
///
/// # Errors
///
/// A failed warm-up or reference computation.
pub fn run(config: &RunConfig) -> Result<Report, String> {
    let shape = shape(config);
    let data = TpchDatabase::generate(
        TpchConfig::scale(0.01)
            .with_row_scale(shape.row_scale)
            .with_seed(config.seed),
    );
    // A quick run keeps every sixth plan of each grid.
    let thin = |grid: Vec<Read>| -> Vec<Read> {
        let step = if config.quick { 6 } else { 1 };
        grid.into_iter().step_by(step).collect()
    };
    let mut reads = thin(q1_grid());
    let q1 = reads.len();
    reads.extend(thin(q2_grid()));
    let plans: Vec<Plan> = reads.iter().map(Read::plan).collect();
    let mut report = Report::default();

    // Oracles: the single-owner library call (bit-identity) and the closed
    // form (value).
    let options = ServiceOptions::default();
    let mut references: Vec<AnswerConfidences> = Vec::with_capacity(plans.len());
    for (read, plan) in reads.iter().zip(&plans) {
        let reference = planned_answer_confidences_with_options(
            &data.db,
            plan,
            &options.decomposition,
            &ParallelOptions::sequential(),
            &SharedDecompositionCache::new(),
        )
        .map_err(|e| format!("reference conf: {e}"))?;
        let (want, want_boolean) = read.expected(&data.db, &[]);
        let verdict = crate::oracle::compare(
            &reference.tuples,
            reference.boolean,
            &want,
            want_boolean,
            1e-9,
        );
        report.check(verdict.is_ok(), || {
            format!(
                "{read:?} disagrees with its closed form: {}",
                verdict.unwrap_err()
            )
        });
        references.push(reference);
    }

    let service = set_up(&data, &plans)?;
    let before = service.stats();

    let mut requests = Rng::new(config.seed, "serve-requests");
    if config.trace {
        let mut layers = Layers::default();
        let mut ops = 0u64;
        for _ in 0..shape.min_rounds.min(2) {
            let order = round_requests(&mut requests, q1, plans.len(), shape.requests_per_round);
            for index in order {
                replay(
                    &service,
                    &plans[index],
                    &references[index],
                    &mut layers,
                    &mut report,
                )?;
                ops += 1;
            }
        }
        let cache = service.snapshot().cache_stats();
        layers.set("core.cache_entries", cache.entries as f64);
        finish_fold_counters(&mut layers);
        layers.set(
            "query.service_overhead_ms",
            (layers.served_total_ms() - layers.span_total_ms()) / ops as f64,
        );
        // Coalescing needs two identical requests in flight at once, which
        // the one-at-a-time replay never has: the admission counters come
        // from one round of the 2-client closed loop.
        let order = round_requests(&mut requests, q1, plans.len(), shape.requests_per_round);
        let before = service.stats();
        let (latencies, failed, diverged) = closed_loop(&service, &plans, &references, &order);
        let after = service.stats();
        report.check(diverged == 0, || {
            format!("{diverged} answers of the 2-client round differ from the library call")
        });
        layers.set(
            "query.plan_hits",
            (after.plan_hits - before.plan_hits) as f64,
        );
        layers.set(
            "query.plan_misses",
            (after.plan_misses - before.plan_misses) as f64,
        );
        layers.set(
            "query.coalesced",
            (after.coalesced - before.coalesced) as f64,
        );
        report.attempted = ops + latencies.len() as u64;
        report.failed = failed;
        layers.finish(&mut report);
        return Ok(report);
    }

    // The untraced closed loop, in whole rounds.
    let mut setups = Samples::default();
    let mut latencies = Samples::default();
    let mut rounds = Samples::default();
    let mut failed = 0u64;
    let mut diverged = 0u64;
    let mut throughput = Samples::default();
    let started = Instant::now();
    while rounds.len() < shape.min_rounds || !config.quick && started.elapsed() < config.measure {
        // A batch of set-ups of a service of its own, dropped unused, so
        // the set-up time is sampled across the whole run.
        let (_, seconds) = set_up_batch(shape.setups_per_batch, || set_up(&data, &plans))?;
        setups.push(seconds);
        let order = round_requests(&mut requests, q1, plans.len(), shape.requests_per_round);
        let round_start = Instant::now();
        let (round_latencies, round_failed, round_diverged) =
            closed_loop(&service, &plans, &references, &order);
        let seconds = round_start.elapsed().as_secs_f64();
        rounds.push(seconds);
        throughput.push(order.len() as f64 / seconds);
        for ms in round_latencies {
            latencies.push(ms);
        }
        failed += round_failed;
        diverged += round_diverged;
        latencies.end_round();
    }
    report.check(diverged == 0, || {
        format!("{diverged} served answers differ from the single-owner library call")
    });
    let stats = service.stats();
    report.check(stats.plan_misses == before.plan_misses, || {
        "a plan missed the plan cache after warm-up".to_string()
    });
    report.attempted = latencies.len() as u64;
    report.failed = failed;
    report.note(latencies.describe("conf_ms"));
    report.note(format!(
        "rounds={} plan_hits={} coalesced={} decomposition_cache_hits={}",
        rounds.len(),
        stats.plan_hits - before.plan_hits,
        stats.coalesced - before.coalesced,
        service.snapshot().cache_stats().hits
    ));
    report.metric("setup_s", setups.median());
    report.metric("peak_rss_mb", peak_rss_mb()?);
    report.metric("round_s", rounds.median());
    report.metric("conf_per_s", throughput.median());
    let (p50, p90) = latencies.block_percentiles(config.quick)?;
    report.metric("conf_p50_ms", p50);
    report.metric("conf_p90_ms", p90);
    Ok(report)
}

/// Serves `order` with the 2-client closed loop: a client sends the
/// sequence's next request when its previous one has returned. Returns
/// every request's latency in milliseconds, the failed requests and the
/// answers that differ from their single-owner reference.
fn closed_loop(
    service: &ProbDbService,
    plans: &[Plan],
    references: &[AnswerConfidences],
    order: &[usize],
) -> (Vec<f64>, u64, u64) {
    let next = AtomicUsize::new(0);
    let outcomes = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let next = &next;
                scope.spawn(move || {
                    let mut out = (Vec::new(), 0u64, 0u64);
                    while let Some(&index) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let start = Instant::now();
                        let answer = service.conf(&plans[index]);
                        out.0.push(start.elapsed().as_secs_f64() * 1e3);
                        match answer {
                            Ok(a) => {
                                if !answers_identical(&a, &references[index]) {
                                    out.2 += 1;
                                }
                            }
                            Err(_) => out.1 += 1,
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect::<Vec<_>>()
    });
    let mut all = (Vec::with_capacity(order.len()), 0, 0);
    for (latencies, failed, diverged) in outcomes {
        all.0.extend(latencies);
        all.1 += failed;
        all.2 += diverged;
    }
    all
}

/// One traced request: the served call, then the same request replayed
/// layer by layer against the same snapshot and its cache.
fn replay(
    service: &ProbDbService,
    plan: &Plan,
    reference: &AnswerConfidences,
    layers: &mut Layers,
    report: &mut Report,
) -> Result<(), String> {
    let snapshot = service.snapshot();
    let start = Instant::now();
    let served = service
        .conf(plan)
        .map_err(|e| format!("served conf: {e}"))?;
    layers.served(start.elapsed().as_secs_f64() * 1e3);
    let replayed = replay_read(&snapshot, plan, layers)?;
    report.check(
        answers_identical(&served, &replayed) && answers_identical(&served, reference),
        || format!("replayed answer of {plan:?} differs from the served one"),
    );
    Ok(())
}

/// Replays one read through `optimize_plan`, `execute_plan` and the batch
/// fold against `snapshot`'s own cache, recording a span per layer.
pub(crate) fn replay_read(
    snapshot: &uprob_query::Snapshot,
    plan: &Plan,
    layers: &mut Layers,
) -> Result<AnswerConfidences, String> {
    let db = snapshot.db();
    // Served reads mostly hit the plan cache, so the optimizer's time is
    // left out of the share of served time the spans cover.
    let optimized = layers
        .span_extra("urel.optimize_ms", || optimize_plan(plan, db))
        .map_err(|e| format!("optimize: {e}"))?;
    let answer = layers
        .span("urel.execute_ms", || execute_plan(db, &optimized))
        .map_err(|e| format!("execute: {e}"))?;
    layers.add("urel.execute_rows", answer.len() as f64);
    let confidences = layers
        .span("core.fold_ms", || {
            answer_confidences_with_options(
                &answer,
                db.world_table(),
                &ServiceOptions::default().decomposition,
                &ParallelOptions::sequential(),
                snapshot.cache(),
            )
        })
        .map_err(|e| format!("fold: {e}"))?;
    layers.add("core.fold_nodes", confidences.stats.total_nodes() as f64);
    layers.add(
        "core.variable_eliminations",
        confidences.stats.variable_eliminations as f64,
    );
    layers.add("core.cache_hits", confidences.stats.cache_hits as f64);
    layers.add("core.cache_misses", confidences.stats.cache_misses as f64);
    layers.add("reads", 1.0);
    Ok(confidences)
}

/// Turns the summed fold counters into per-read figures and the hit ratio.
pub(crate) fn finish_fold_counters(layers: &mut Layers) {
    let reads = layers.take("reads").max(1.0);
    for name in [
        "urel.execute_rows",
        "core.fold_nodes",
        "core.variable_eliminations",
    ] {
        let total = layers.take(name);
        layers.set(name, total / reads);
    }
    let hits = layers.take("core.cache_hits");
    let misses = layers.take("core.cache_misses");
    layers.set("core.cache_hits", hits / reads);
    layers.set("core.cache_misses", misses / reads);
    layers.set(
        "core.cache_hit_ratio",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
    );
}
