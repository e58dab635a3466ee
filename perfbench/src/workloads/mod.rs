//! The four workloads. Each has an untraced run that measures the
//! end-to-end metrics and a traced pass that repeats part of the same
//! work through the same public calls with spans around each.

pub mod campaign;
pub mod coremark;
pub mod difffuzz;
pub mod farm;

use crate::trace::Tracer;

/// Workload names, in the order `--workload all` runs them.
pub const NAMES: [&str; 4] = ["coremark", "campaign", "farm", "difffuzz"];

/// What an untraced run measured and checked.
pub struct Measured {
    /// Units of work attempted and failed: the error rate's base and
    /// numerator. `unit` names what one unit is.
    pub attempted: u64,
    pub failed: u64,
    pub unit: &'static str,
    /// Correctness problems; any entry fails the run.
    pub problems: Vec<String>,
    /// Deterministic results compared with the recorded ones at the
    /// default seed.
    pub fingerprint: Vec<(String, String)>,
    /// Finer deterministic results the traced pass must reproduce.
    pub replica: Vec<(String, String)>,
    /// Set-up time of each set-up in the run, in seconds.
    pub setup_s: Vec<f64>,
    /// The workload's throughput, and what it counts per second.
    pub throughput: f64,
    pub throughput_of: &'static str,
    /// Host time per request, in milliseconds; `request` names it.
    pub latencies_ms: Vec<f64>,
    pub request: &'static str,
    /// Metrics under their workload-specific names, for the report.
    pub named: Vec<(&'static str, f64, &'static str)>,
    /// Untraced wall seconds of the work the traced pass repeats.
    pub pass_wall_s: f64,
}

/// What a traced pass recorded.
pub struct Traced {
    pub tracer: Tracer,
    /// Per-layer counts and derived values, by per-layer metric name.
    pub values: Vec<(&'static str, f64)>,
    /// The pass's reproduction of [`Measured::replica`].
    pub replica: Vec<(String, String)>,
    /// What the pass ran: the base of every per-layer total.
    pub base: String,
}

/// `(key, value)` pair for fingerprints.
pub fn kv(k: impl Into<String>, v: impl ToString) -> (String, String) {
    (k.into(), v.to_string())
}

/// Runs a workload untraced for about `seconds`.
pub fn measure(name: &str, seed: u64, seconds: u64) -> Result<Measured, String> {
    match name {
        "coremark" => Ok(coremark::measure(seconds)),
        "campaign" => Ok(campaign::measure(seed, seconds)),
        "farm" => farm::measure(seed, seconds),
        "difffuzz" => Ok(difffuzz::measure(seed, seconds)),
        other => Err(format!("unknown workload {other}")),
    }
}

/// Runs a workload's traced pass.
pub fn trace(name: &str, seed: u64) -> Result<Traced, String> {
    match name {
        "coremark" => Ok(coremark::trace()),
        "campaign" => Ok(campaign::trace(seed)),
        "farm" => farm::trace(seed),
        "difffuzz" => Ok(difffuzz::trace(seed)),
        other => Err(format!("unknown workload {other}")),
    }
}
