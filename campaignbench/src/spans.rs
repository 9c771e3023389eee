//! Spans recorded by the benchmark around each public call into a layer.
//!
//! The program itself is not instrumented: every span wraps one call the
//! benchmark makes, so the traced run needs no change to the crates it
//! measures. Each worker thread keeps its own [`Spans`] and the main
//! thread folds them together at the end.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The layers the traced run attributes time to, in report order.
pub const LAYERS: [&str; 11] = [
    "core.instrument",
    "designs.stimulus",
    "sim.build",
    "sim.run",
    "fpga.build",
    "fpga.run",
    "fpga.scan",
    "campaign.merge",
    "db.ingest",
    "db.refresh",
    "db.query",
];

/// Call count and busy time per span name.
#[derive(Debug, Default)]
pub struct Spans {
    totals: BTreeMap<String, (u64, Duration)>,
}

impl Spans {
    /// Time `f` and charge it to `name`.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.charge(name, start.elapsed());
        out
    }

    /// Charge an already measured duration to `name`.
    pub fn charge(&mut self, name: &str, busy: Duration) {
        let entry = self.totals.entry(name.to_string()).or_default();
        entry.0 += 1;
        entry.1 += busy;
    }

    /// Fold another thread's spans into these.
    pub fn absorb(&mut self, other: Spans) {
        for (name, (calls, busy)) in other.totals {
            let entry = self.totals.entry(name).or_default();
            entry.0 += calls;
            entry.1 += busy;
        }
    }

    /// Calls recorded under `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.totals.get(name).map_or(0, |t| t.0)
    }

    /// Busy seconds recorded under `name`.
    pub fn busy_s(&self, name: &str) -> f64 {
        self.totals.get(name).map_or(0.0, |t| t.1.as_secs_f64())
    }

    /// Busy seconds summed over every layer in [`LAYERS`].
    pub fn layer_busy_s(&self) -> f64 {
        LAYERS.iter().map(|l| self.busy_s(l)).sum()
    }
}
