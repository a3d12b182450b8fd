//! `sensor_stream`: writes beside reads.
//!
//! One round is one stream, generated from the run's seed: a fresh service
//! over the sensor fleet, then a fixed number of `SensorWorkload` batches
//! through `ProbDbService::ingest`, a publish with `assert_all_delta` every
//! two batches, and after each publish the standing fleet query and a
//! readings query. Publish and
//! ingest cost grow with the readings held, so every round repeats the same
//! growth from the same start.

use std::collections::BTreeMap;
use std::time::Instant;

use uprob_core::{
    condition, ConditioningOptions, InheritOutcome, ParallelOptions, SharedDecompositionCache,
};
use uprob_datagen::sensor::{SensorConfig, SensorReading, SensorWorkload};
use uprob_query::{
    assert_all_with_options, planned_answer_confidences_with_options, AssertOutcome, Constraint,
    ProbDbService, ServiceOptions, Snapshot,
};
use uprob_urel::{Comparison, DeltaBuilder, Expr, Plan, Predicate, ProbDb, Tuple, Value};
use uprob_wsd::{FxHashMap, VarId, WsDescriptor, WsSet};

use crate::check::{answers_identical, close, databases_identical};
use crate::metrics::{peak_rss_mb, set_up_batch, Report, Samples};
use crate::oracle::{compare, tuple_probability, Expected};
use crate::serve::{finish_fold_counters, replay_read};
use crate::trace::Layers;
use crate::RunConfig;

/// Size of the workload.
struct Shape {
    sensors: usize,
    readings_per_batch: usize,
    batches_per_publish: usize,
    publishes: usize,
    seed_readings: usize,
    /// Set-ups per timed batch; one takes about 0.5 ms at full size.
    setups_per_batch: usize,
    /// Every this many publishes the served answers are compared with the
    /// single-owner call and the posterior with a full rebuild.
    checkpoint: usize,
    min_rounds: usize,
}

fn shape(config: &RunConfig) -> Shape {
    if config.quick {
        Shape {
            sensors: 6,
            readings_per_batch: 8,
            batches_per_publish: 2,
            publishes: 4,
            seed_readings: 4,
            setups_per_batch: 1,
            checkpoint: 1,
            min_rounds: 1,
        }
    } else {
        Shape {
            sensors: 96,
            readings_per_batch: 64,
            batches_per_publish: 2,
            publishes: 50,
            seed_readings: 256,
            setups_per_batch: 256,
            checkpoint: 10,
            min_rounds: 3,
        }
    }
}

/// The threshold of the readings query: readings above it count.
const HIGH_READING: f64 = 90.0;

fn fleet_plan() -> Plan {
    Plan::scan("sensors").project(&["ZONE"])
}

fn readings_plan() -> Plan {
    Plan::scan("readings")
        .select(Predicate::cmp(
            Expr::col("VALUE"),
            Comparison::Gt,
            Expr::val(HIGH_READING),
        ))
        .project(&["SID"])
}

/// The stream's closed forms, from the generated inputs alone: every row
/// put in with the probability it was given, and per answer tuple of the
/// fleet query (any operational sensor per zone) and of the readings query
/// (any reliable high reading per sensor) the probability `Π(1 − p)` that
/// no witness exists, on tuple-independent data.
#[derive(Default)]
struct Truth {
    /// `relation → (tuple, probability)` of every row put in.
    rows: BTreeMap<&'static str, Vec<(Tuple, f64)>>,
    fleet: BTreeMap<Tuple, f64>,
    high: BTreeMap<Tuple, f64>,
}

impl Truth {
    /// The base database as generated: the fleet and the seed readings.
    fn new(workload: &SensorWorkload) -> Result<Truth, String> {
        let mut truth = Truth::default();
        let table = workload.db.world_table();
        for relation in ["sensors", "readings"] {
            let rel = workload.db.relation(relation).map_err(|e| e.to_string())?;
            for (tuple, descriptor) in rel.iter() {
                truth.put(
                    relation,
                    tuple.clone(),
                    tuple_probability(descriptor, table),
                );
            }
        }
        Ok(truth)
    }

    /// The readings of one ingested batch, at their generated reliability.
    fn ingest(&mut self, batch: &[SensorReading]) {
        for reading in batch {
            self.put("readings", reading.tuple(), reading.reliability);
        }
    }

    fn put(&mut self, relation: &'static str, tuple: Tuple, p: f64) {
        let column = |i: usize| Tuple::new(vec![tuple.get(i).cloned().unwrap_or(Value::Null)]);
        let witness = if relation == "sensors" {
            Some((&mut self.fleet, column(1)))
        } else if tuple.get(2).and_then(Value::as_float).unwrap_or(0.0) > HIGH_READING {
            Some((&mut self.high, column(0)))
        } else {
            None
        };
        if let Some((groups, key)) = witness {
            *groups.entry(key).or_insert(1.0) *= 1.0 - p;
        }
        self.rows.entry(relation).or_default().push((tuple, p));
    }

    /// The expected fleet and readings answers with their Boolean
    /// confidences.
    fn answers(&self) -> [(Expected, f64); 2] {
        [&self.fleet, &self.high].map(|groups| {
            let answer = groups
                .iter()
                .map(|(k, none)| (k.clone(), 1.0 - none))
                .collect();
            (answer, 1.0 - groups.values().product::<f64>())
        })
    }

    /// Compares a posterior's rows with the rows put in: the same tuples,
    /// each with a one-variable descriptor of the probability it was given
    /// (the evidence holds in every world, so conditioning keeps both).
    fn check_rows(&self, db: &ProbDb) -> Result<(), String> {
        let table = db.world_table();
        for (relation, want) in &self.rows {
            let mut got = Vec::new();
            for (tuple, descriptor) in db.relation(relation).map_err(|e| e.to_string())?.iter() {
                let mut assignments = descriptor.iter();
                let (Some(a), None) = (assignments.next(), assignments.next()) else {
                    return Err(format!("{relation} row {tuple:?} has {descriptor:?}"));
                };
                let p = table
                    .probability(a.var, a.value)
                    .map_err(|e| e.to_string())?;
                got.push((tuple.clone(), p));
            }
            let mut want = want.clone();
            got.sort_by(|a, b| a.0.cmp(&b.0));
            want.sort_by(|a, b| a.0.cmp(&b.0));
            if got.len() != want.len() {
                return Err(format!(
                    "{} {relation} rows, {} put in",
                    got.len(),
                    want.len()
                ));
            }
            if let Some(((tuple, p), (_, q))) = got
                .iter()
                .zip(&want)
                .find(|((t, p), (u, q))| t != u || !close(*p, *q, 1e-12))
            {
                return Err(format!("{relation} row {tuple:?} at {p}, put in at {q}"));
            }
        }
        Ok(())
    }
}

/// Appends one batch of readings through `delta`, naming each reading's
/// variable by its position in the stream.
fn append_batch(
    delta: &mut DeltaBuilder,
    batch: &[SensorReading],
    next: &mut usize,
) -> uprob_urel::Result<()> {
    for reading in batch {
        let var = delta.add_boolean(&format!("r{next}"), reading.reliability)?;
        *next += 1;
        let descriptor = WsDescriptor::from_pairs(delta.world_table(), &[(var, 1)])?;
        delta.append("readings", reading.tuple(), descriptor)?;
    }
    Ok(())
}

/// The state the traced replay keeps beside the service: its own copy of
/// the prior line, the violation sets of the last publish with the stamps
/// they were computed at, and the last conditioning remap.
#[derive(Default)]
struct Mirror {
    prior: Option<ProbDb>,
    memo: Vec<(Vec<u64>, WsSet)>,
    remap: Option<FxHashMap<VarId, VarId>>,
}

/// Runs the workload.
///
/// # Errors
///
/// A failed set-up or check query.
pub fn run(config: &RunConfig) -> Result<Report, String> {
    let shape = shape(config);
    let mut seeds = crate::rng::Rng::new(config.seed, "sensor-streams");
    let plans = [fleet_plan(), readings_plan()];
    let mut report = Report::default();
    let mut layers = Layers::default();
    let mut setups = Samples::default();
    let mut rounds = Samples::default();
    let mut throughput = Samples::default();
    let mut ingests = Samples::default();
    let mut publishes = Samples::default();
    let mut reads = Samples::default();
    let mut tuples = 0usize;
    let mut failed = 0u64;
    let started = Instant::now();
    let trace_rounds = 1;
    loop {
        let done = rounds.len();
        if config.trace && done >= trace_rounds
            || !config.trace
                && done >= shape.min_rounds
                && (config.quick || started.elapsed() >= config.measure)
        {
            break;
        }
        let first = done == 0;
        // Every stream is its own workload, drawn from the run's seed, so a
        // run's figures average over many streams.
        let workload = SensorWorkload::generate(&SensorConfig {
            sensors: shape.sensors,
            readings_per_batch: shape.readings_per_batch,
            batches: shape.batches_per_publish * shape.publishes,
            seed_readings: shape.seed_readings,
            seed: seeds.seed(),
        });
        let batch = if config.trace {
            1
        } else {
            shape.setups_per_batch
        };
        let (service, seconds) = set_up_batch(batch, || {
            let service = ProbDbService::new(workload.db.clone());
            for plan in &plans {
                service
                    .conf(plan)
                    .map_err(|e| format!("warm-up conf: {e}"))?;
            }
            Ok(service)
        })?;
        setups.push(seconds);

        let mut truth = Truth::new(&workload)?;
        let mut mirror = Mirror::default();
        let mut next = shape.seed_readings;
        let mut round_ms = 0.0;
        let (mut round_reads, mut round_read_ms) = (0usize, 0.0);
        for (index, chunk) in workload
            .batches
            .chunks(shape.batches_per_publish)
            .enumerate()
        {
            for batch in chunk {
                let mut staged = next;
                let start = Instant::now();
                let ingested = service.ingest(|delta| append_batch(delta, batch, &mut staged));
                let ms = start.elapsed().as_secs_f64() * 1e3;
                round_ms += ms;
                ingested.map_err(|e| format!("ingest failed: {e}"))?;
                ingests.push(ms);
                truth.ingest(batch);
                tuples += batch.len();
                if config.trace {
                    layers.served(ms);
                    replay_ingest(&mut mirror, &service, batch, next, &mut layers)?;
                }
                next = staged;
            }
            let published = service.snapshot();
            let start = Instant::now();
            let outcome = service.assert_all_delta(&workload.constraints);
            let ms = start.elapsed().as_secs_f64() * 1e3;
            round_ms += ms;
            let outcome = outcome.map_err(|e| format!("publish failed: {e}"))?;
            publishes.push(ms);
            if config.trace {
                layers.served(ms);
                replay_publish(
                    &mut mirror,
                    &published,
                    &workload.constraints,
                    &outcome,
                    &mut layers,
                    &mut report,
                )?;
            }
            let db = outcome.snapshot.db();
            let held = db.relation("readings").map_err(|e| e.to_string())?.len();
            report.check(held == next, || {
                format!("{held} readings after publish {index}, expected {next}")
            });
            let checkpoint = (index + 1) % shape.checkpoint == 0;
            if checkpoint {
                let verdict = truth.check_rows(db);
                report.check(verdict.is_ok(), || {
                    format!("posterior after publish {index}: {}", verdict.unwrap_err())
                });
            }
            for (plan, (want, want_boolean)) in plans.iter().zip(truth.answers()) {
                let start = Instant::now();
                let answer = service.conf(plan);
                let ms = start.elapsed().as_secs_f64() * 1e3;
                round_ms += ms;
                let Ok(answer) = answer else {
                    failed += 1;
                    continue;
                };
                reads.push(ms);
                round_reads += 1;
                round_read_ms += ms;
                if config.trace {
                    layers.served(ms);
                    let replayed = replay_read(&outcome.snapshot, plan, &mut layers)?;
                    report.check(answers_identical(&answer, &replayed), || {
                        "replayed read differs from the served one".to_string()
                    });
                }
                let verdict = compare(&answer.tuples, answer.boolean, &want, want_boolean, 1e-9);
                report.check(verdict.is_ok(), || {
                    format!("read after publish {index}: {}", verdict.unwrap_err())
                });
                if checkpoint && (first || config.quick) {
                    let reference = planned_answer_confidences_with_options(
                        db,
                        plan,
                        &ServiceOptions::default().decomposition,
                        &ParallelOptions::sequential(),
                        &SharedDecompositionCache::new(),
                    )
                    .map_err(|e| e.to_string())?;
                    report.check(answers_identical(&answer, &reference), || {
                        "served read differs from the single-owner call".to_string()
                    });
                }
            }
            if config.trace {
                let cache = outcome.snapshot.cache_stats();
                layers.add("core.inherited_hits", cache.inherited_hits as f64);
                layers.set("core.cache_entries", cache.entries as f64);
            }
            if checkpoint && (first || config.quick) {
                check_rebuild(&workload, next, &outcome, &mut report)?;
            }
        }
        rounds.push(round_ms / 1e3);
        reads.end_round();
        throughput.push(round_reads as f64 / (round_read_ms / 1e3));
    }
    report.attempted = (ingests.len() + publishes.len() + reads.len()) as u64 + failed;
    report.failed = failed;
    if config.trace {
        finish_fold_counters(&mut layers);
        let per_publish = publishes.len().max(1) as f64;
        let per_batch = ingests.len().max(1) as f64;
        let delta_rows = layers.take("urel.delta_rows");
        layers.set("urel.delta_rows", delta_rows / per_batch);
        for name in [
            "query.violation_descriptors",
            "query.memo_reused",
            "query.memo_recomputed",
            "wsd.complement_descriptors",
            "core.condition_new_vars",
            "core.posterior_rows_ratio",
            "core.inherited_entries",
            "core.inherit_dropped",
            "core.inherited_hits",
        ] {
            let total = layers.take(name);
            layers.set(name, total / per_publish);
        }
        layers.finish(&mut report);
        return Ok(report);
    }
    let write_seconds = (ingests.total() + publishes.total()) / 1e3;
    report.note(ingests.describe("ingest_ms"));
    report.note(publishes.describe("publish_ms"));
    report.note(reads.describe("conf_ms"));
    report.note(format!(
        "streams={} ingest_tuples_per_s={:.1}",
        rounds.len(),
        tuples as f64 / write_seconds
    ));
    report.metric("setup_s", setups.median());
    report.metric("peak_rss_mb", peak_rss_mb()?);
    report.metric("round_s", rounds.median());
    report.metric("conf_per_s", throughput.median());
    let (p50, p90) = reads.block_percentiles(config.quick)?;
    report.metric("conf_p50_ms", p50);
    report.metric("conf_p90_ms", p90);
    Ok(report)
}

/// The delta posterior must equal a full `assert_all` over the prior
/// rebuilt from scratch: the base plus every reading ingested so far.
fn check_rebuild(
    workload: &SensorWorkload,
    held: usize,
    outcome: &AssertOutcome,
    report: &mut Report,
) -> Result<(), String> {
    let base = workload
        .db
        .relation("readings")
        .map_err(|e| e.to_string())?
        .len();
    let mut delta = DeltaBuilder::new(&workload.db);
    let mut next = base;
    let stream: Vec<SensorReading> = workload
        .batches
        .iter()
        .flatten()
        .take(held - base)
        .cloned()
        .collect();
    append_batch(&mut delta, &stream, &mut next).map_err(|e| e.to_string())?;
    let (prior, _) = delta.finish();
    let rebuilt = assert_all_with_options(
        &prior,
        &workload.constraints,
        &ConditioningOptions::default(),
        &ParallelOptions::sequential(),
    )
    .map_err(|e| e.to_string())?;
    report.check(
        databases_identical(&rebuilt.db, outcome.snapshot.db())
            && rebuilt.confidence.to_bits() == outcome.confidence.to_bits(),
        || format!("delta posterior at {held} readings differs from a full rebuild"),
    );
    Ok(())
}

/// Replays one ingest batch through `DeltaBuilder` on the mirror's prior.
fn replay_ingest(
    mirror: &mut Mirror,
    service: &ProbDbService,
    batch: &[SensorReading],
    first: usize,
    layers: &mut Layers,
) -> Result<(), String> {
    let prior = mirror
        .prior
        .get_or_insert_with(|| service.snapshot().db().clone());
    let mut next = first;
    let (db, delta_report) = layers
        .span("urel.delta_ms", || {
            let mut delta = DeltaBuilder::new(prior);
            append_batch(&mut delta, batch, &mut next).map(|()| delta.finish())
        })
        .map_err(|e| e.to_string())?;
    layers.add("urel.delta_rows", delta_report.appended_rows as f64);
    *prior = db;
    Ok(())
}

/// Replays one `assert_all_delta` layer by layer: violation sets only for
/// constraints whose relations changed, the complement, the conditioning
/// rewrite and the inheritance the service performs.
fn replay_publish(
    mirror: &mut Mirror,
    published: &Snapshot,
    constraints: &[Constraint],
    served: &AssertOutcome,
    layers: &mut Layers,
    report: &mut Report,
) -> Result<(), String> {
    let prior = mirror.prior.as_ref().ok_or("a publish follows an ingest")?;
    let mut sets = Vec::with_capacity(constraints.len());
    let mut memo = Vec::with_capacity(constraints.len());
    for (i, constraint) in constraints.iter().enumerate() {
        let stamps: Vec<u64> = constraint
            .relations()
            .into_iter()
            .map(|r| prior.relation(r).map(|rel| rel.stamp()))
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        let set = match mirror.memo.get(i) {
            Some((memo_stamps, set)) if *memo_stamps == stamps => set.clone(),
            _ => {
                let set = layers
                    .span("query.violation_ms", || constraint.violation_ws_set(prior))
                    .map_err(|e| e.to_string())?;
                layers.add("query.violation_descriptors", set.len() as f64);
                set
            }
        };
        memo.push((stamps, set.clone()));
        sets.push(set);
    }
    mirror.memo = memo;
    layers.add("query.memo_reused", served.reused_violations as f64);
    layers.add(
        "query.memo_recomputed",
        (constraints.len() as u64 - served.reused_violations) as f64,
    );
    let satisfying = layers.span("wsd.complement_ms", || {
        let mut violations = WsSet::empty();
        for set in &sets {
            violations = violations.union(set);
        }
        violations.normalize();
        let mut satisfying = WsSet::universal().difference(&violations, prior.world_table());
        satisfying.normalize();
        satisfying
    });
    layers.add("wsd.complement_descriptors", satisfying.len() as f64);
    let conditioned = layers
        .span("core.condition_ms", || {
            condition(prior, &satisfying, &ConditioningOptions::default())
        })
        .map_err(|e| e.to_string())?;
    layers.add("core.condition_new_vars", conditioned.new_variables as f64);
    let rows = |db: &ProbDb| db.relations().map(|r| r.len()).sum::<usize>() as f64;
    layers.add(
        "core.posterior_rows_ratio",
        rows(&conditioned.db) / rows(prior),
    );
    // The remap from the published snapshot to the new posterior, as the
    // service derives it: direct when the prior line extends the published
    // snapshot, composed through the previous publish's remap otherwise.
    let (remap, touched) = if prior.world_table().extends(published.db().world_table()) {
        (
            conditioned.prior_remap.clone(),
            conditioned.touched_variables.clone(),
        )
    } else {
        let saved = mirror.remap.clone().unwrap_or_default();
        let composed = saved
            .iter()
            .filter_map(|(prior_var, old)| {
                conditioned
                    .prior_remap
                    .get(prior_var)
                    .map(|new| (*old, *new))
            })
            .collect();
        (composed, Vec::new())
    };
    let cache = SharedDecompositionCache::new();
    let inherited = layers
        .span("core.inherit_ms", || {
            cache.inherit_from(
                published.cache(),
                published.db().world_table(),
                conditioned.db.world_table(),
                &remap,
                &touched,
            )
        })
        .unwrap_or_else(|_| InheritOutcome::default());
    layers.add("core.inherited_entries", inherited.inherited as f64);
    layers.add("core.inherit_dropped", inherited.dropped as f64);
    mirror.remap = Some(conditioned.prior_remap.clone());
    report.check(
        databases_identical(&conditioned.db, served.snapshot.db())
            && conditioned.confidence.to_bits() == served.confidence.to_bits()
            && inherited == served.inherited,
        || "replayed publish differs from the served posterior".to_string(),
    );
    Ok(())
}
