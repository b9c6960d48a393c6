//! Metric names, the result line and the helpers every workload shares.

use dft::json::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// End-to-end metrics: every untraced run reports each of them, by name and
/// unit.  The names are fixed: later changes cite them when they claim a gain.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("points_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: every traced run reports each of them.  `_ms` values
/// are totals over the traced run's fixed work, `_us` values are means per
/// call; a layer the workload does not reach reports 0.
pub const PER_LAYER: [(&str, &str); 56] = [
    ("decode.parse_us", "us"),
    ("hybrid.plan_us", "us"),
    ("hybrid.bdd_build_us", "us"),
    ("convert.self_ms", "ms"),
    ("convert.models_out", "count"),
    ("convert.states_out", "count"),
    ("minimize.element.self_ms", "ms"),
    ("minimize.element.states_in", "count"),
    ("minimize.element.states_out", "count"),
    ("minimize.element.reduction", "ratio"),
    ("minimize.step.self_ms", "ms"),
    ("minimize.step.states_in", "count"),
    ("minimize.step.states_out", "count"),
    ("minimize.step.reduction", "ratio"),
    ("minimize.close.self_ms", "ms"),
    ("minimize.close.states_in", "count"),
    ("minimize.close.states_out", "count"),
    ("minimize.close.reduction", "ratio"),
    ("compose.self_ms", "ms"),
    ("compose.states_out", "count"),
    ("compose.transitions_out", "count"),
    ("hide.self_ms", "ms"),
    ("hide.actions", "count"),
    ("aggregate.peak_states", "count"),
    ("aggregate.final_states", "count"),
    ("aggregate.steps", "count"),
    ("goals.self_ms", "ms"),
    ("engine.other_ms", "ms"),
    ("query.self_ms", "ms"),
    ("query.points", "count"),
    ("kernel.relax_passes", "count"),
    ("kernel.batched_calls", "count"),
    ("kernel.threaded_passes", "count"),
    ("parametric.build_ms", "ms"),
    ("parametric.states", "count"),
    ("sweep.instantiate_ms", "ms"),
    ("sweep.query_ms", "ms"),
    ("service.run_request_ms", "ms"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.evictions", "count"),
    ("service.aggregation_runs", "count"),
    ("queue.parked", "count"),
    ("store.load_ms", "ms"),
    ("store.save_ms", "ms"),
    ("store.hits", "count"),
    ("store.writes", "count"),
    ("store.read_bytes", "bytes"),
    ("store.write_bytes", "bytes"),
    ("http.parse_us", "us"),
    ("router.handle_us", "us"),
    ("http.polls_per_op", "ratio"),
    ("trace.ops", "count"),
    ("trace.wall_ms", "ms"),
    ("trace.attributed_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("failed_ratio", "ratio"),
];

/// What a run found: counts, metric values, metadata and failed checks.
#[derive(Debug, Default)]
pub struct Report {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed: an error, a wrong answer, a non-2xx reply or a
    /// connect failure.
    pub failed: u64,
    /// Failed correctness checks, each described in one line.
    pub problems: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
    meta: Vec<(String, Json)>,
}

impl Report {
    /// Sets metric `name`, which must be one of the declared names.
    ///
    /// # Panics
    ///
    /// Panics on an undeclared name: the name tables are the contract.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not declared in END_TO_END or PER_LAYER"
        );
        self.metrics.insert(name, value);
    }

    /// The value of metric `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// Adds a metadata entry to the run's `meta` line.
    pub fn meta(&mut self, key: &str, value: impl Into<Json>) {
        self.meta.push((key.to_owned(), value.into()));
    }

    /// Records a failed check that is not tied to one op (set-up anchors,
    /// determinism): it counts as an attempted and failed op.
    pub fn problem(&mut self, message: impl Into<String>) {
        self.attempted += 1;
        self.failed += 1;
        self.problems.push(message.into());
    }

    /// Records the outcome of one op; a failure carries its description.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(message) = outcome {
            self.failed += 1;
            // Keep the log short: the count carries the rest.
            if self.problems.len() < 20 {
                self.problems.push(message);
            }
        }
    }

    /// Marks an op already counted by [`op`](Self::op) as failed after a
    /// later check of its answer (checks too slow to run inside the window).
    pub fn late_failure(&mut self, message: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(message);
        }
    }

    /// Records the outcome of a late check; see
    /// [`late_failure`](Self::late_failure).
    pub fn late_check(&mut self, outcome: Result<(), String>) {
        if let Err(message) = outcome {
            self.late_failure(message);
        }
    }

    /// `true` when every op and every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// `failed / attempted`.
    pub fn failed_ratio(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// The metadata line: `{"meta": {...}}`.
    pub fn meta_line(&self) -> String {
        let mut meta = self.meta.clone();
        meta.push((
            "problems".to_owned(),
            Json::Arr(self.problems.iter().map(|p| Json::Str(p.clone())).collect()),
        ));
        Json::Obj(vec![("meta".to_owned(), Json::Obj(meta))]).render()
    }

    /// The result line the benchmark prints last: exactly `correct`,
    /// `attempted`, `failed` and `metrics`, restricted to the names in
    /// `declared`.
    pub fn result_line(&self, declared: &[(&'static str, &'static str)]) -> String {
        let metrics = declared
            .iter()
            .map(|(name, unit)| {
                let value = self.metrics.get(name).copied().unwrap_or(f64::NAN);
                (
                    (*name).to_owned(),
                    Json::obj([("value", Json::Num(value)), ("unit", (*unit).into())]),
                )
            })
            .collect();
        Json::obj([
            ("correct", self.correct().into()),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .render()
    }

    /// Declared names with no value yet.
    pub fn missing(&self, declared: &[(&'static str, &'static str)]) -> Vec<&'static str> {
        declared
            .iter()
            .map(|(name, _)| *name)
            .filter(|name| !self.metrics.get(name).is_some_and(|v| v.is_finite()))
            .collect()
    }
}

/// The unit of a declared metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| *unit)
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Nearest-rank quantile `q` of `values` (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// One finished op: how long it took and how many points it answered.
#[derive(Debug, Clone, Copy)]
pub struct Finished {
    /// Latency.
    pub latency: Duration,
    /// Points answered (0 when the op failed).
    pub points: u64,
}

/// Sets `ops_per_s`, `points_per_s` and the latency percentiles of the ops
/// finished in `wall`, and reports the sample counts behind the percentiles.
pub fn timed_metrics(report: &mut Report, ops: &[Finished], wall: Duration) {
    let wall = wall.as_secs_f64().max(f64::MIN_POSITIVE);
    let latencies: Vec<f64> = ops.iter().map(|op| ms(op.latency)).collect();
    let p99 = quantile(&latencies, 0.99);
    report.set("ops_per_s", ops.len() as f64 / wall);
    report.set(
        "points_per_s",
        ops.iter().map(|op| op.points).sum::<u64>() as f64 / wall,
    );
    report.set("latency_p50_ms", quantile(&latencies, 0.5));
    report.set("latency_p99_ms", p99);
    report.meta("latency_samples", latencies.len());
    report.meta(
        "latency_samples_beyond_p99",
        latencies.iter().filter(|&&v| v > p99).count(),
    );
}

/// Peak resident set size of this process in MB (`VmHWM`), if the platform
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Directory for traces, exact-count records and temporary stores, relative
/// to the checkout the benchmark runs in.
pub fn out_dir() -> PathBuf {
    PathBuf::from(".bench_out")
}

/// Compares this run's exact counts with the record an earlier run on the
/// same inputs left behind, then (re)writes the record.  A mismatch is a
/// failed check: exact counts must repeat bit for bit.  `inputs` identifies
/// the inputs the counts cover (a hash of them), so a record from other
/// inputs is never compared.
pub fn check_exact_counts(report: &mut Report, key: &str, inputs: u64, counts: &[(&str, u64)]) {
    let text: String = counts.iter().map(|(k, v)| format!("{k}={v}\n")).collect();
    let path = out_dir()
        .join("counts")
        .join(format!("{key}-{inputs:016x}.txt"));
    match std::fs::read_to_string(&path) {
        Ok(previous) if previous != text => report.problem(format!(
            "exact counts of {key} differ from an earlier run on the same inputs: \
             was {previous:?}, now {text:?}"
        )),
        _ => {}
    }
    if let Err(e) = write_file(&path, &text) {
        report.problem(format!(
            "cannot record exact counts at {}: {e}",
            path.display()
        ));
    }
    for (k, v) in counts {
        report.meta(&format!("exact.{k}"), Json::Num(*v as f64));
    }
}

/// 64-bit FNV-1a of `bytes`.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn write_file(path: &Path, text: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}
