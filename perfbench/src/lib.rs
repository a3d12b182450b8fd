//! End-to-end and per-layer benchmark of the uprob stack.
//!
//! Four workloads, each run in its own process from its own seeded
//! generator (see `README.md` for their make-up and the layer map):
//!
//! * [`serve`] — `tpch_serve`: two closed-loop clients issuing
//!   `ProbDbService::conf` on TPC-H;
//! * [`clean`] — `tpch_clean`: cleaning sessions of `assert_all` evidence
//!   sets followed by posterior reads;
//! * [`sensor`] — `sensor_stream`: streaming ingest with delta publishes
//!   and reads after each publish;
//! * [`hard`] — `hard_conf`: #P-hard ws-sets through the Hybrid engine at
//!   two workers.
//!
//! Every workload runs whole *rounds* — a fixed amount of work each — until
//! the requested measurement time is used up, so every measured operation
//! belongs to an identical round whatever the machine's speed. The untraced
//! run produces the end-to-end metrics; the traced run replays the same
//! operations through each layer's public function and produces the
//! per-layer metrics.

pub mod check;
pub mod clean;
pub mod hard;
pub mod metrics;
pub mod oracle;
pub mod rng;
pub mod sensor;
pub mod serve;
pub mod tpch;
pub mod trace;

use std::time::Duration;

pub use metrics::Report;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["tpch_serve", "tpch_clean", "sensor_stream", "hard_conf"];

/// How one workload run is driven.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Seed of the workload's input generator.
    pub seed: u64,
    /// Measurement time: rounds are started until it is used up.
    pub measure: Duration,
    /// Traced replay instead of the untraced measurement.
    pub trace: bool,
    /// Small inputs and a single round: every correctness check, no timing
    /// requirement.
    pub quick: bool,
}

/// Runs the named workload.
///
/// # Errors
///
/// An unknown workload name, or a failed operation the workload cannot
/// continue after.
pub fn run(workload: &str, config: &RunConfig) -> Result<Report, String> {
    match workload {
        "tpch_serve" => serve::run(config),
        "tpch_clean" => clean::run(config),
        "sensor_stream" => sensor::run(config),
        "hard_conf" => hard::run(config),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}
