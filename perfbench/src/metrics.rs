//! Metric names, latency samples and the result line.

use std::fmt::Write as _;
use std::time::Instant;

/// The end-to-end metrics every untraced run prints, with their units.
/// They are the same for every workload, so each workload's figures can be
/// compared run against run under one set of bounds:
///
/// * `setup_s` — median over the run's rounds of the time of one batch of
///   set-ups (see [`set_up_batch`]), each the work before the first timed
///   operation: loading the inputs into the program's structures plus the
///   warm-up that fills its caches;
/// * `peak_rss_mb` — peak resident set of the workload's process;
/// * `round_s` — median wall time of one round, the workload's fixed unit
///   of work (it contains every write the workload makes);
/// * `conf_per_s` — median over rounds of the confidence reads completed
///   per second (wall time of the closed loop in `tpch_serve`, time inside
///   the reads elsewhere); a median over rounds is not dragged by a burst
///   of interference the way one ratio over the whole run is;
/// * `conf_p50_ms`, `conf_p90_ms` — percentiles of one read's latency,
///   each the median over blocks of whole rounds holding at least 100
///   reads (see [`Samples::block_percentiles`]).
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("round_s", "s"),
    ("conf_per_s", "1/s"),
    ("conf_p50_ms", "ms"),
    ("conf_p90_ms", "ms"),
];

/// The per-layer metrics every traced run prints, with their units. A
/// layer that does no work on a workload reports 0. Times are the layer's
/// self time per call of its public function in the traced replay.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("urel.optimize_ms", "ms"),
    ("urel.execute_ms", "ms"),
    ("urel.execute_rows", "count"),
    ("urel.delta_ms", "ms"),
    ("urel.delta_rows", "count"),
    ("query.plan_hits", "count"),
    ("query.plan_misses", "count"),
    ("query.coalesced", "count"),
    ("query.service_overhead_ms", "ms"),
    ("query.violation_ms", "ms"),
    ("query.violation_descriptors", "count"),
    ("query.memo_reused", "count"),
    ("query.memo_recomputed", "count"),
    ("wsd.complement_ms", "ms"),
    ("wsd.complement_descriptors", "count"),
    ("core.condition_ms", "ms"),
    ("core.condition_new_vars", "count"),
    ("core.posterior_rows_ratio", "ratio"),
    ("core.cache_hits", "count"),
    ("core.cache_misses", "count"),
    ("core.cache_hit_ratio", "ratio"),
    ("core.cache_entries", "count"),
    ("core.inherit_ms", "ms"),
    ("core.inherited_entries", "count"),
    ("core.inherit_dropped", "count"),
    ("core.inherited_hits", "count"),
    ("core.fold_ms", "ms"),
    ("core.fold_nodes", "count"),
    ("core.variable_eliminations", "count"),
    ("core.parallel_fold_ms", "ms"),
    ("core.sequential_fold_ms", "ms"),
    ("core.exact_ratio", "ratio"),
    ("core.budget_spent_ms", "ms"),
    ("approx.sample_ms", "ms"),
    ("approx.iterations", "count"),
    ("approx.fallbacks", "count"),
];

/// Samples a block must hold before its percentiles are taken: ten lie
/// beyond its 90th percentile.
const BLOCK: usize = 100;

/// A set of latency samples of one operation type, in milliseconds, also
/// cut into blocks of whole rounds with at least [`BLOCK`] samples each.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<f64>,
    /// Start of the open block in `values`.
    block_start: usize,
    /// `(p50, p90)` of every closed block.
    blocks: Vec<(f64, f64)>,
}

impl Samples {
    /// Records one sample.
    pub fn push(&mut self, ms: f64) {
        self.values.push(ms);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Sum of the samples.
    pub fn total(&self) -> f64 {
        self.values.iter().sum()
    }

    /// The nearest-rank `q`-quantile, reported only when at least ten
    /// samples lie beyond it (the median needs no tail).
    pub fn percentile(&self, q: f64) -> Option<f64> {
        let n = self.values.len();
        if n == 0 {
            return None;
        }
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        if q > 0.5 && n - rank < 10 {
            return None;
        }
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        Some(sorted[rank - 1])
    }

    /// Marks the end of a round: closes the open block if it holds at
    /// least [`BLOCK`] samples.
    pub fn end_round(&mut self) {
        let block = Samples {
            values: self.values[self.block_start..].to_vec(),
            ..Samples::default()
        };
        if let (true, Some(p50), Some(p90)) = (
            block.len() >= BLOCK,
            block.percentile(0.5),
            block.percentile(0.9),
        ) {
            self.blocks.push((p50, p90));
            self.block_start = self.values.len();
        }
    }

    /// The median and 90th percentile of a run: the medians over the closed
    /// blocks of each block's percentile. A spell in which the machine runs
    /// slower shifts the blocks it covers, not the median block, as long as
    /// it covers less than half of the run. A quick run, which measures
    /// nothing and may close no block, falls back to all its samples.
    pub fn block_percentiles(&self, quick: bool) -> Result<(f64, f64), String> {
        if self.blocks.is_empty() {
            return match (quick, self.values.iter().copied().reduce(f64::max)) {
                (true, Some(max)) => Ok((self.median(), self.percentile(0.9).unwrap_or(max))),
                _ => Err(format!("{} samples close no block of {BLOCK}", self.len())),
            };
        }
        let mut p50s = Samples::default();
        let mut p90s = Samples::default();
        for (p50, p90) in &self.blocks {
            p50s.push(*p50);
            p90s.push(*p90);
        }
        Ok((p50s.median(), p90s.median()))
    }

    /// The median.
    pub fn median(&self) -> f64 {
        self.percentile(0.5).unwrap_or(f64::NAN)
    }

    /// One human-readable line: count, median and every percentile that has
    /// ten samples beyond it.
    pub fn describe(&self, name: &str) -> String {
        let mut line = format!("{name}: n={}", self.len());
        for (label, q) in [("p50", 0.5), ("p90", 0.9), ("p99", 0.99)] {
            if let Some(v) = self.percentile(q) {
                let _ = write!(line, " {label}={v:.4}");
            }
        }
        line
    }
}

/// Runs `set_up` `count` times and returns the last result with the time
/// the whole batch took, in seconds. One set-up takes milliseconds, so a
/// batch holds enough of them (about 0.1 s of work or more) that timer and
/// scheduler noise does not show in its time. The results of all but the
/// last set-up are dropped inside the batch, as part of its work.
///
/// # Errors
///
/// The first failed set-up.
pub fn set_up_batch<T>(
    count: usize,
    mut set_up: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let start = Instant::now();
    let mut last = set_up()?;
    for _ in 1..count {
        last = set_up()?;
    }
    Ok((last, start.elapsed().as_secs_f64()))
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read the process status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in the process status".to_string())
}

/// The outcome of one workload run.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Failed correctness checks, one message each.
    pub check_failures: Vec<String>,
    /// Number of correctness checks made.
    pub checks: u64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// `(name, value, unit)` in output order.
    pub metrics: Vec<(String, f64, String)>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Report {
    /// Records the outcome of one correctness check.
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            let text = message();
            // Keep the output readable when one fault repeats.
            if self.check_failures.len() < 20 {
                self.check_failures.push(text);
            }
        }
    }

    /// True if every check passed.
    pub fn correct(&self) -> bool {
        self.check_failures.is_empty() && self.checks > 0
    }

    /// Sets a metric; its unit comes from [`END_TO_END`] or [`PER_LAYER`].
    pub fn metric(&mut self, name: &str, value: f64) {
        let unit = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .unwrap_or_else(|| panic!("metric `{name}` is not declared"));
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    /// Adds a note line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Checks that exactly the expected metrics are present and finite.
    ///
    /// # Errors
    ///
    /// Names the first missing, duplicated or non-finite metric.
    pub fn validate(&self, trace: bool) -> Result<(), String> {
        let expected: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        for (name, _) in expected {
            let hits: Vec<_> = self.metrics.iter().filter(|(n, _, _)| n == name).collect();
            match hits.as_slice() {
                [(_, v, _)] if v.is_finite() => {}
                [] => return Err(format!("metric `{name}` was not measured")),
                [(_, v, _)] => return Err(format!("metric `{name}` is not finite: {v}")),
                _ => return Err(format!("metric `{name}` was set twice")),
            }
        }
        if self.metrics.len() != expected.len() {
            return Err("a metric of the other mode was set".to_string());
        }
        Ok(())
    }

    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            // `{:?}` prints the shortest representation that reads back to
            // the same f64, so every digit measured is kept.
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentiles_need_ten_samples_beyond_them() {
        let mut s = Samples::default();
        for i in 1..=100 {
            s.push(i as f64);
        }
        assert_eq!(s.median(), 50.0);
        assert_eq!(s.percentile(0.9), Some(90.0));
        assert_eq!(s.percentile(0.99), None);
        let mut few = Samples::default();
        for i in 1..=19 {
            few.push(i as f64);
        }
        assert_eq!(few.percentile(0.9), None);
    }

    #[test]
    fn a_slow_spell_in_a_minority_of_blocks_leaves_the_block_median() {
        let mut s = Samples::default();
        for slowdown in [1.0, 2.0, 1.0] {
            for i in 1..=100 {
                s.push(slowdown * i as f64);
            }
            s.end_round();
        }
        assert_eq!(s.block_percentiles(false), Ok((50.0, 90.0)));
        let mut few = Samples::default();
        few.push(1.0);
        few.end_round();
        assert!(few.block_percentiles(false).is_err());
        assert_eq!(few.block_percentiles(true), Ok((1.0, 1.0)));
    }

    #[test]
    fn json_keeps_every_digit() {
        let mut r = Report::default();
        r.check(true, String::new);
        r.attempted = 3;
        let value = 0.123_456_789_012_345_6;
        r.metric("setup_s", value);
        let json = r.json();
        let printed = json
            .split("\"value\": ")
            .nth(1)
            .and_then(|rest| rest.split(',').next())
            .unwrap();
        assert_eq!(printed.parse::<f64>().unwrap().to_bits(), value.to_bits());
        assert!(r
            .json()
            .starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
    }
}
