//! `hard_conf`: the paper's #P-hard ws-sets through the Hybrid engine.
//!
//! Seeded lists of instances around the easy–hard–easy transition:
//! the Figure 11–13 generator at several descriptor counts, plus unions of
//! variable-disjoint hard blocks whose root decomposition step is an
//! independent partition. Each instance runs through
//! `estimate_confidence_with_options` with `ConfidenceStrategy::Hybrid` at
//! two workers and no cache; every round answers a list of its own, drawn
//! from the run's seed, and the node budget makes part of each
//! list fall back to sampling. Only the fold, ws-set
//! manipulation, the heuristics, the work-stealing scheduler and the
//! sampler do work here.

use std::time::Instant;

use uprob_approx::{optimal_monte_carlo, ApproximationOptions};
use uprob_core::{
    confidence_parallel, estimate_confidence_with_options, ConfidenceReport, ConfidenceStrategy,
    CoreError, DecompositionOptions, ParallelOptions, ResolvedPath,
};
use uprob_datagen::hard::{HardInstance, HardInstanceConfig};
use uprob_wsd::{VarId, WorldTable, WsDescriptor, WsSet};

use crate::metrics::{peak_rss_mb, set_up_batch, Report, Samples};
use crate::oracle::{enumerate, monte_carlo_band};
use crate::rng::Rng;
use crate::trace::Layers;
use crate::RunConfig;

/// One instance of the list.
pub struct Instance {
    /// Human-readable parameters.
    pub label: String,
    /// The variables and their distributions.
    pub table: WorldTable,
    /// The ws-set whose confidence is asked for.
    pub set: WsSet,
}

/// One class of instances: Figure 12 parameters `(n, r, s, w)` and how many
/// variable-disjoint blocks of them form one instance.
struct Class {
    variables: usize,
    alternatives: usize,
    length: usize,
    descriptors: usize,
    blocks: usize,
}

const fn class(
    variables: usize,
    alternatives: usize,
    length: usize,
    descriptors: usize,
    blocks: usize,
) -> Class {
    Class {
        variables,
        alternatives,
        length,
        descriptors,
        blocks,
    }
}

/// The full list: descriptor counts across the transition for `r = 4` and
/// `r = 2`, and block unions.
const CLASSES: [Class; 10] = [
    class(16, 4, 4, 8, 1),
    class(16, 4, 4, 16, 1),
    class(16, 4, 4, 24, 1),
    class(16, 4, 4, 40, 1),
    class(16, 2, 4, 16, 1),
    class(16, 2, 4, 32, 1),
    class(16, 2, 4, 64, 1),
    class(16, 2, 4, 128, 1),
    class(12, 4, 3, 12, 4),
    class(12, 4, 4, 24, 2),
];

/// The quick list: one small instance per kind.
const QUICK_CLASSES: [Class; 4] = [
    class(8, 2, 3, 8, 1),
    class(10, 4, 4, 24, 1),
    class(6, 2, 3, 6, 3),
    class(16, 4, 4, 40, 1),
];

/// Instances per class in the full list.
const PER_CLASS: usize = 6;

/// Node budget of the exact attempt.
const BUDGET: u64 = 12_000;

/// Worlds up to which an instance is checked by enumeration.
const ENUMERATION_LIMIT: u64 = 1 << 16;

fn strategy() -> ConfidenceStrategy {
    ConfidenceStrategy::Hybrid {
        budget: BUDGET,
        approx: approx_options(),
    }
}

fn approx_options() -> ApproximationOptions {
    ApproximationOptions::default()
        .with_epsilon(0.1)
        .with_delta(0.01)
        .with_workers(Some(WORKERS))
}

const WORKERS: usize = 2;

/// Set-ups per timed batch.
const SETUPS_PER_BATCH: usize = 100;

/// One instance as the generator made it: its parameters and its blocks.
pub struct Generated {
    label: String,
    blocks: Vec<HardInstance>,
}

/// Generates the instance list: each class's instances from seeds drawn
/// from `rng`, one generated instance per block.
pub fn generate(seed: u64, quick: bool) -> Vec<Generated> {
    let mut rng = Rng::new(seed, "hard-instances");
    let (classes, per_class): (&[Class], usize) = if quick {
        (&QUICK_CLASSES, 1)
    } else {
        (&CLASSES, PER_CLASS)
    };
    let mut list = Vec::new();
    for c in classes {
        for _ in 0..per_class {
            let blocks = (0..c.blocks)
                .map(|_| {
                    HardInstance::generate(HardInstanceConfig {
                        num_variables: c.variables,
                        alternatives: c.alternatives,
                        descriptor_length: c.length,
                        num_descriptors: c.descriptors,
                        seed: rng.seed(),
                    })
                })
                .collect();
            list.push(Generated {
                label: format!(
                    "n={} r={} s={} w={} blocks={}",
                    c.variables, c.alternatives, c.length, c.descriptors, c.blocks
                ),
                blocks,
            });
        }
    }
    list
}

/// Loads a generated list into the engine's structures: one world table and
/// one ws-set per instance, the blocks over disjoint copies of the
/// variables. This is the workload's set-up.
pub fn build(generated: &[Generated]) -> Vec<Instance> {
    generated
        .iter()
        .map(|g| {
            let mut table = WorldTable::new();
            let mut set = WsSet::empty();
            for (block, generated) in g.blocks.iter().enumerate() {
                let ids: Vec<VarId> = generated
                    .world_table
                    .iter()
                    .map(|(_, info)| {
                        table
                            .add_uniform(&format!("b{block}_{}", info.name), info.domain_size())
                            .expect("fresh variable")
                    })
                    .collect();
                for d in generated.ws_set.iter() {
                    let mut rebuilt = WsDescriptor::empty();
                    for a in d.iter() {
                        rebuilt
                            .assign(ids[a.var.index()], a.value)
                            .expect("disjoint copies keep descriptors functional");
                    }
                    set.push(rebuilt);
                }
            }
            Instance {
                label: g.label.clone(),
                table,
                set,
            }
        })
        .collect()
}

/// Runs the workload.
///
/// # Errors
///
/// A confidence computation that fails outright.
pub fn run(config: &RunConfig) -> Result<Report, String> {
    let mut report = Report::default();
    let mut seeds = Rng::new(config.seed, "hard-lists");
    let strategy = strategy().with_seed(config.seed);
    let decomposition = DecompositionOptions::default();
    let parallel = ParallelOptions::new(WORKERS);

    if config.trace {
        let list = build(&generate(seeds.seed(), config.quick));
        let mut layers = Layers::default();
        for instance in &list {
            replay(instance, &strategy, &mut layers, &mut report)?;
        }
        report.attempted = list.len() as u64;
        let exact = layers.take("exact");
        layers.set("core.exact_ratio", exact / list.len() as f64);
        let fold = layers.mean("core.parallel_fold_ms");
        layers.set("core.fold_ms", fold);
        let fallbacks = layers.take("approx.fallbacks");
        let iterations = layers.take("approx.iterations");
        layers.set("approx.fallbacks", fallbacks);
        layers.set("approx.iterations", iterations / fallbacks.max(1.0));
        let per_exact = exact.max(1.0);
        for name in ["core.fold_nodes", "core.variable_eliminations"] {
            let total = layers.take(name);
            layers.set(name, total / per_exact);
        }
        layers.finish(&mut report);
        return Ok(report);
    }

    let mut setups = Samples::default();
    let mut latencies = Samples::default();
    let mut rounds = Samples::default();
    let mut throughput = Samples::default();
    let mut fallbacks = 0usize;
    let min_rounds = if config.quick { 1 } else { 3 };
    let started = Instant::now();
    while rounds.len() < min_rounds || !config.quick && started.elapsed() < config.measure {
        // Every round answers its own list, drawn from the run's seed, so a
        // run's figures average over many instances.
        let generated = generate(seeds.seed(), config.quick);
        let batch = if config.quick { 1 } else { SETUPS_PER_BATCH };
        let (list, seconds) = set_up_batch(batch, || Ok(build(&generated)))?;
        setups.push(seconds);
        let mut round_ms = 0.0;
        let mut answers = Vec::with_capacity(list.len());
        for instance in &list {
            let start = Instant::now();
            let result = estimate_confidence_with_options(
                &instance.set,
                &instance.table,
                &decomposition,
                &strategy,
                None,
                &parallel,
            );
            let ms = start.elapsed().as_secs_f64() * 1e3;
            let result = result.map_err(|e| format!("{}: {e}", instance.label))?;
            round_ms += ms;
            latencies.push(ms);
            fallbacks += usize::from(result.path.is_sampled());
            answers.push(result);
        }
        // The first round's answers are checked in full.
        if rounds.is_empty() {
            for (instance, result) in list.iter().zip(&answers) {
                check_instance(instance, result, &strategy, &mut report)?;
            }
        }
        rounds.push(round_ms / 1e3);
        latencies.end_round();
        throughput.push(answers.len() as f64 / (round_ms / 1e3));
    }
    report.attempted = latencies.len() as u64;
    report.note(latencies.describe("conf_ms"));
    report.note(format!(
        "instances={} sampled={fallbacks} rounds={}",
        latencies.len(),
        rounds.len()
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

/// The independent reference of an instance: its probability by
/// enumeration when small enough, else a Monte Carlo band.
fn reference(instance: &Instance, seed: u64) -> (f64, f64) {
    match enumerate(&instance.set, &instance.table, ENUMERATION_LIMIT) {
        Some(p) => (p - 1e-9, p + 1e-9),
        None => monte_carlo_band(&instance.set, &instance.table, 40_000, seed),
    }
}

/// Checks one served result: the 2-worker fold equals the sequential fold
/// bit for bit with equal node counts, an exact answer lies in the
/// independent reference, and a sampled one within ε of the exact
/// probability (which must itself lie in the reference).
fn check_instance(
    instance: &Instance,
    served: &ConfidenceReport,
    strategy: &ConfidenceStrategy,
    report: &mut Report,
) -> Result<(), String> {
    let (low, high) = reference(instance, 0xBA5E);
    let epsilon = strategy.approx_options().map_or(0.0, |a| a.epsilon);
    match served.path {
        ResolvedPath::Exact => {
            let budgeted = DecompositionOptions::default().with_budget(BUDGET);
            let sequential = confidence_parallel(
                &instance.set,
                &instance.table,
                &budgeted,
                &ParallelOptions::sequential(),
                None,
            )
            .map_err(|e| e.to_string())?;
            report.check(
                sequential.probability.to_bits() == served.probability.to_bits()
                    && sequential.stats.total_nodes() == served.stats.total_nodes(),
                || {
                    format!(
                        "{}: 2-worker fold differs from the sequential fold",
                        instance.label
                    )
                },
            );
            report.check((low..=high).contains(&served.probability), || {
                format!(
                    "{}: exact {} outside the reference [{low}, {high}]",
                    instance.label, served.probability
                )
            });
        }
        ResolvedPath::Sampled { .. } => {
            let exact = confidence_parallel(
                &instance.set,
                &instance.table,
                &DecompositionOptions::default(),
                &ParallelOptions::new(WORKERS),
                None,
            )
            .map_err(|e| e.to_string())?
            .probability;
            report.check((low..=high).contains(&exact), || {
                format!(
                    "{}: exact {exact} outside the reference [{low}, {high}]",
                    instance.label
                )
            });
            report.check(
                (served.probability - exact).abs() <= epsilon * exact,
                || {
                    format!(
                        "{}: sampled {} not within ε = {epsilon} of {exact}",
                        instance.label, served.probability
                    )
                },
            );
        }
    }
    Ok(())
}

/// One traced instance: the served Hybrid call, then the same work layer
/// by layer — the budgeted 2-worker fold, the sequential fold on the exact
/// instances, and the sampler after an exhausted budget.
fn replay(
    instance: &Instance,
    strategy: &ConfidenceStrategy,
    layers: &mut Layers,
    report: &mut Report,
) -> Result<(), String> {
    let decomposition = DecompositionOptions::default();
    let start = Instant::now();
    let served = estimate_confidence_with_options(
        &instance.set,
        &instance.table,
        &decomposition,
        strategy,
        None,
        &ParallelOptions::new(WORKERS),
    )
    .map_err(|e| e.to_string())?;
    layers.served(start.elapsed().as_secs_f64() * 1e3);
    let budgeted = decomposition.with_budget(BUDGET);
    let start = Instant::now();
    let parallel = confidence_parallel(
        &instance.set,
        &instance.table,
        &budgeted,
        &ParallelOptions::new(WORKERS),
        None,
    );
    let ms = start.elapsed().as_secs_f64() * 1e3;
    match parallel {
        Ok(run) => {
            layers.record("core.parallel_fold_ms", ms);
            layers.add("exact", 1.0);
            layers.add("core.fold_nodes", run.stats.total_nodes() as f64);
            layers.add(
                "core.variable_eliminations",
                run.stats.variable_eliminations as f64,
            );
            let sequential = layers
                .span_extra("core.sequential_fold_ms", || {
                    confidence_parallel(
                        &instance.set,
                        &instance.table,
                        &budgeted,
                        &ParallelOptions::sequential(),
                        None,
                    )
                })
                .map_err(|e| e.to_string())?;
            report.check(
                run.probability.to_bits() == served.probability.to_bits()
                    && sequential.probability.to_bits() == run.probability.to_bits()
                    && sequential.stats.total_nodes() == run.stats.total_nodes(),
                || {
                    format!(
                        "{}: replayed folds differ from the served answer",
                        instance.label
                    )
                },
            );
        }
        Err(CoreError::BudgetExceeded { .. }) => {
            layers.record("core.budget_spent_ms", ms);
            layers.add("approx.fallbacks", 1.0);
            let approx = strategy.approx_options().copied().unwrap_or_default();
            let sampled = layers
                .span("approx.sample_ms", || {
                    optimal_monte_carlo(&instance.set, &instance.table, &approx)
                })
                .map_err(|e| e.to_string())?;
            layers.add("approx.iterations", sampled.total_iterations() as f64);
            report.check(
                sampled.estimate.to_bits() == served.probability.to_bits(),
                || {
                    format!(
                        "{}: replayed sample differs from the served one",
                        instance.label
                    )
                },
            );
        }
        Err(other) => return Err(other.to_string()),
    }
    Ok(())
}
