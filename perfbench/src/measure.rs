//! Statistics, span accounting and the result line shared by the workloads.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Median of `xs` (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile: the smallest sample with at least `q` of all
/// samples at or below it. Returns the value and how many samples lie
/// strictly beyond its rank.
pub fn percentile(xs: &[f64], q: f64) -> (f64, usize) {
    assert!(!xs.is_empty(), "percentile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    (v[rank - 1], v.len() - rank)
}

/// Geometric mean of strictly positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of no values");
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Time `f` and return its result with the elapsed wall time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = std::hint::black_box(f());
    (out, t0.elapsed())
}

/// Accumulated wall time and call count per named span, kept in memory for
/// the traced run.
#[derive(Default)]
pub struct Spans {
    map: BTreeMap<&'static str, (Duration, u64)>,
}

impl Spans {
    /// Time one call of `f` under `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let (out, d) = timed(f);
        self.add(name, d);
        out
    }

    /// Add one call of duration `d` under `name`.
    pub fn add(&mut self, name: &'static str, d: Duration) {
        let e = self.map.entry(name).or_default();
        e.0 += d;
        e.1 += 1;
    }

    /// Total seconds spent under `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.map.get(name).map_or(0.0, |e| e.0.as_secs_f64())
    }

    /// Calls recorded under `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.map.get(name).map_or(0, |e| e.1)
    }

    /// Mean microseconds per call under `name` (0 when never called).
    pub fn mean_us(&self, name: &str) -> f64 {
        match self.count(name) {
            0 => 0.0,
            n => self.total_s(name) * 1e6 / n as f64,
        }
    }
}

/// Prefix of a failed check that one of the program faults README.md names
/// causes. Such failures count in `failed` but leave `correct` true: the
/// failing operation's other checks still ran and passed.
pub const KNOWN_FAULT: &str = "known fault: ";

/// The outcome of one benchmark run.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (every check counted against one of them).
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    /// Failed operations whose failure is not a `KNOWN_FAULT`.
    pub unexpected: u64,
    /// Metric name → (value, unit).
    pub metrics: BTreeMap<String, (f64, &'static str)>,
    /// One line per failed check, for the error stream.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Record a metric.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit));
    }

    /// Count one operation and its check result.
    pub fn op(&mut self, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = check {
            self.failed += 1;
            self.unexpected += u64::from(!e.starts_with(KNOWN_FAULT));
            if self.failures.len() < 20 {
                self.failures.push(e);
            }
        }
    }
}

/// End-to-end metrics printed by every untraced run, with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("evals_per_s", "1/s"),
    ("tuned_speedup", "x"),
    ("ops_per_s", "1/s"),
    ("op_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("served_speedup", "x"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics printed by every traced run; a layer that does not run
/// on a workload reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("search.propose_us", "us"),
    ("search.propose_calls", "count"),
    ("core.eval_us", "us"),
    ("core.evals", "count"),
    ("core.cache_hit_ratio", "ratio"),
    ("transform.applies_per_eval", "ratio"),
    ("transform.apply_us", "us"),
    ("transform.finders_us", "us"),
    ("ir.arena_build_us", "us"),
    ("ir.fingerprint_us", "us"),
    ("codegen.lower_us", "us"),
    ("machine.cost_us", "us"),
    ("core.miss_reruns", "count"),
    ("library.unapplied_step_records", "count"),
    ("interp.verify_us", "us"),
    ("interp.verify_calls", "count"),
    ("library.sig_us", "us"),
    ("library.naive_cost_us", "us"),
    ("library.get_us", "us"),
    ("transform.replay_us", "us"),
    ("ir.validate_us", "us"),
    ("machine.evaluate_us", "us"),
    ("library.fit_us", "us"),
    ("library.fit_calls", "count"),
    ("library.nearest_us", "us"),
    ("library.nearest_calls", "count"),
    ("library.param_reject_ratio", "ratio"),
    ("search.heuristic_us", "us"),
    ("search.heuristic_calls", "count"),
    ("library.lookup_us.exact", "us"),
    ("library.lookup_us.parameterized", "us"),
    ("library.lookup_us.nearest", "us"),
    ("library.lookup_us.heuristic", "us"),
    ("library.lookup_us.naive", "us"),
    ("library.tier_count.exact", "count"),
    ("library.tier_count.parameterized", "count"),
    ("library.tier_count.nearest", "count"),
    ("library.tier_count.heuristic", "count"),
    ("library.tier_count.naive", "count"),
    ("library.save_s", "s"),
    ("library.load_s", "s"),
    ("library.records_setup", "count"),
    ("library.records_end", "count"),
    ("serve.drain_s_per_job", "s"),
    ("serve.tune_jobs", "count"),
    ("serve.swaps", "count"),
    ("serve.repeat_share", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("trace.top_share", "ratio"),
    ("trace.layer_share", "ratio"),
];

/// Render the result line: every metric of `names` (missing ones read 0),
/// with full precision. A non-finite value is a failed run, not a number.
pub fn result_line(out: &Outcome, names: &[(&str, &str)]) -> Result<String, String> {
    let mut fields = Vec::with_capacity(names.len());
    for (name, unit) in names {
        let value = out.metrics.get(*name).map_or(0.0, |m| m.0);
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    for (name, (_, unit)) in &out.metrics {
        if let Some((_, u)) = names.iter().find(|(n, _)| n == name) {
            assert_eq!(
                u, unit,
                "metric {name} recorded with unit {unit}, declared {u}"
            );
        }
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.unexpected == 0,
        out.attempted,
        out.failed,
        fields.join(", ")
    ))
}
