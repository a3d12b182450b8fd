//! Spans and counters of the traced replay.
//!
//! The traced replay calls each layer's public function directly and wraps
//! every call in a span recorded here, from the benchmark's own code. A
//! span's time is the layer's self time: the replay calls layers one after
//! another, never nested, so no child span has to be subtracted.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use crate::metrics::{Report, PER_LAYER};

/// Accumulated spans and counters of one traced run.
#[derive(Debug, Default)]
pub struct Layers {
    /// `name → (total ms, calls)` of the timed layer functions.
    spans: BTreeMap<&'static str, (f64, u64)>,
    /// `name → value` of counts and ratios.
    values: BTreeMap<&'static str, f64>,
    /// Spans that re-do work for comparison rather than mirror a served
    /// operation; they are left out of the coverage share.
    extra: BTreeSet<&'static str>,
    /// Time of the served operations the replay mirrors.
    served_ms: f64,
}

impl Layers {
    /// Runs `f` as one call of the layer metric `name` (a `_ms` metric).
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, start.elapsed().as_secs_f64() * 1e3);
        out
    }

    /// [`Layers::span`] for work the served operation does not do.
    pub fn span_extra<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.extra.insert(name);
        self.span(name, f)
    }

    /// Records one call of `name` that took `ms`.
    pub fn record(&mut self, name: &'static str, ms: f64) {
        let entry = self.spans.entry(name).or_insert((0.0, 0));
        entry.0 += ms;
        entry.1 += 1;
    }

    /// Mean time per call of `name` (0 if never called).
    pub fn mean(&self, name: &'static str) -> f64 {
        self.spans
            .get(name)
            .map_or(0.0, |(ms, calls)| ms / *calls as f64)
    }

    /// Adds `value` to the count `name`.
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.values.entry(name).or_insert(0.0) += value;
    }

    /// Sets the count or ratio `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Removes the count `name`, returning it (0 if it was never set).
    pub fn take(&mut self, name: &'static str) -> f64 {
        self.values.remove(name).unwrap_or(0.0)
    }

    /// Records the time of one served operation the replay mirrors.
    pub fn served(&mut self, ms: f64) {
        self.served_ms += ms;
    }

    /// Total time in the spans that mirror served operations.
    pub fn span_total_ms(&self) -> f64 {
        self.spans
            .iter()
            .filter(|(name, _)| !self.extra.contains(*name))
            .map(|(_, (ms, _))| ms)
            .sum()
    }

    /// Total time of the mirrored served operations.
    pub fn served_total_ms(&self) -> f64 {
        self.served_ms
    }

    /// Writes every per-layer metric into `report` (0 for a layer that did
    /// no work) and notes the share of the served time the spans cover.
    pub fn finish(self, report: &mut Report) {
        for (name, _) in PER_LAYER {
            let value = if let Some(v) = self.values.get(name) {
                *v
            } else if let Some((ms, calls)) = self.spans.get(name) {
                ms / *calls as f64
            } else {
                0.0
            };
            report.metric(name, value);
        }
        for (name, (ms, calls)) in &self.spans {
            report.note(format!(
                "span {name}: calls={calls} total_ms={ms:.3} per_call_ms={:.4}",
                ms / *calls as f64
            ));
        }
        if self.served_ms > 0.0 {
            report.note(format!(
                "layer spans cover {:.1}% of the served operation time ({:.1} of {:.1} ms)",
                100.0 * self.span_total_ms() / self.served_ms,
                self.span_total_ms(),
                self.served_ms
            ));
        }
    }
}
