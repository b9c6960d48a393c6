//! The repository benchmark: three workloads that drive the analysis engine
//! and the HTTP fleet only through their public entry points, report
//! end-to-end metrics from untraced runs and per-layer metrics from traced
//! runs, and check every answer they get back.  See `README.md`.

#![forbid(unsafe_code)]

pub mod build_mix;
pub mod gen;
pub mod query_sweep;
pub mod replay;
pub mod report;
pub mod serve_mixed;
pub mod trace;

use dft::json::Json;
use report::Report;

/// Threads a workload may use: client threads, HTTP threads and service
/// workers are each capped here, and the runner refuses to start on a host
/// with fewer cores.
pub const THREADS: usize = 2;

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["build_mix", "query_sweep", "serve_mixed"];

/// Command-line arguments of one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of an untraced one.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <n> --trace <0|1>`.
    ///
    /// # Errors
    ///
    /// Describes the first missing or malformed argument.
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let value = |flag: &str| -> Result<&str, String> {
            let at = args
                .iter()
                .position(|a| a == flag)
                .ok_or_else(|| format!("missing {flag}"))?;
            args.get(at + 1)
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let number = |flag: &str| -> Result<u64, String> {
            value(flag)?
                .parse()
                .map_err(|_| format!("{flag} takes a whole number"))
        };
        let workload = value("--workload")?.to_owned();
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload {workload}; expected one of {WORKLOADS:?}"
            ));
        }
        let trace = match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, got {other}")),
        };
        let seconds = number("--seconds")?;
        if seconds == 0 {
            return Err("--seconds must be at least 1".to_owned());
        }
        Ok(Args {
            workload,
            seed: number("--seed")?,
            seconds,
            trace,
        })
    }
}

/// Runs one workload and returns its report, with every metric of the run
/// kind set (per-layer metrics a workload does not reach read 0).
pub fn run(args: &Args) -> Report {
    // Every workload runs the markov kernel on one thread, so its thread
    // count is what the workload says.  A relax pass split over both vCPUs
    // of a 2-vCPU host waits for whichever one a neighbour is using: with a
    // busy loop on the other vCPU, `query_sweep` lost 23% of its ops/s with
    // a two-thread kernel and 5% with a one-thread kernel.
    markov::kernel::set_max_workers(1);
    let mut report = Report::default();
    metadata(args, &mut report);
    match args.workload.as_str() {
        "build_mix" => build_mix::run(args.seed, args.seconds, args.trace, &mut report),
        "query_sweep" => query_sweep::run(args.seed, args.seconds, args.trace, &mut report),
        _ => serve_mixed::run(args.seed, args.seconds, args.trace, &mut report),
    }
    if args.trace {
        for (name, _) in report::PER_LAYER {
            if report.get(name).is_none() {
                report.set(name, 0.0);
            }
        }
        report.set("failed_ratio", report.failed_ratio());
    } else {
        report.set("peak_rss_mb", report::peak_rss_mb().unwrap_or(f64::NAN));
    }
    report
}

/// The paper's CAS unreliability at t = 1 (Section 5.1), to four decimals.
pub const CAS_PAPER_UNRELIABILITY: f64 = 0.6579;

/// Checks the paper's anchor: `value`, the CAS unreliability at t = 1, is
/// 0.6579.
pub fn check_cas_anchor(report: &mut Report, value: dft_core::Result<f64>) {
    if !value
        .as_ref()
        .is_ok_and(|v| (v - CAS_PAPER_UNRELIABILITY).abs() < 5e-5)
    {
        report.problem(format!(
            "CAS unreliability at t=1 is {value:?}, the paper reports {CAS_PAPER_UNRELIABILITY}"
        ));
    }
}

/// Every point of `result` is a probability with consistent bounds, and a
/// curve over ascending times does not decrease.
///
/// # Errors
///
/// Describes the first offending point.
pub fn check_probabilities(result: &dft_core::MeasureResult) -> Result<(), String> {
    let tolerance = 1e-9;
    let mut previous = f64::NEG_INFINITY;
    for point in result.points() {
        let (lower, upper) = point.bounds();
        let value = point.value();
        if !(value.is_finite()
            && -tolerance <= lower
            && lower <= value + tolerance
            && value <= upper + tolerance
            && upper <= 1.0 + tolerance)
        {
            return Err(format!(
                "point {value} (bounds {lower}..{upper}) out of range"
            ));
        }
        if value < previous - 1e-8 {
            return Err(format!("curve decreases from {previous} to {value}"));
        }
        previous = value;
    }
    Ok(())
}

/// Host parallelism as the standard library sees it.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn metadata(args: &Args, report: &mut Report) {
    let service = serve_mixed::service_options(std::path::PathBuf::from("<temp store>"));
    let server = serve_mixed::server_options(service.clone());
    report.meta("workload", args.workload.as_str());
    report.meta("seed", Json::Num(args.seed as f64));
    report.meta("seconds", Json::Num(args.seconds as f64));
    report.meta("trace", args.trace);
    report.meta("nproc", nproc());
    report.meta("threads_cap", THREADS);
    report.meta("kernel_max_workers", markov::kernel::max_workers());
    report.meta(
        "service_options",
        Json::obj([
            ("workers", service.workers.into()),
            ("cache_capacity", service.cache_capacity.into()),
            ("store", "temp dir in .bench_out".into()),
        ]),
    );
    report.meta(
        "server_options",
        Json::obj([
            ("http_threads", server.http_threads.into()),
            ("queue_depth", server.queue_depth.into()),
            ("max_jobs", server.max_jobs.into()),
            ("max_done", server.max_done.into()),
        ]),
    );
    report.meta(
        "build_profile",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );
    report.meta("git_revision", git_revision().as_str());
}

/// The checked-out revision, read from `.git` without running git; `unknown`
/// outside a git checkout.
fn git_revision() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => read(&format!(".git/{reference}"))
            .map(|r| r.trim().to_owned())
            .or_else(|| {
                read(".git/packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(reference))
                    .and_then(|l| l.split_whitespace().next().map(str::to_owned))
            })
            .unwrap_or_else(|| "unknown".to_owned()),
        None => head.to_owned(),
    }
}

/// The shape-mix record of a run's trees.
pub fn shape_mix_json(mix: &gen::ShapeMix) -> Json {
    let tally = |map: &std::collections::BTreeMap<&'static str, u64>| {
        Json::Obj(
            map.iter()
                .map(|(k, v)| ((*k).to_owned(), Json::Num(*v as f64)))
                .collect(),
        )
    };
    Json::obj([
        ("trees", Json::Num(mix.shapes.values().sum::<u64>() as f64)),
        ("elements", Json::Num(mix.elements as f64)),
        ("basic_events", Json::Num(mix.basic_events as f64)),
        ("families", tally(&mix.shapes)),
        ("gates", tally(&mix.gates)),
    ])
}

/// Writes a traced run's spans under `.bench_out/traces/`.
pub fn write_trace(rec: &trace::Recorder, key: &str, report: &mut Report) {
    let path = report::out_dir()
        .join("traces")
        .join(format!("{key}.jsonl"));
    match rec.write_jsonl(&path) {
        Ok(()) => report.meta("trace_file", path.display().to_string().as_str()),
        Err(e) => report.problem(format!("cannot write the trace to {}: {e}", path.display())),
    }
}

/// Sets the `kernel.*` metrics from two snapshots of the kernel counters.
pub fn set_kernel_metrics(
    report: &mut Report,
    before: markov::kernel::KernelStats,
    after: markov::kernel::KernelStats,
) {
    report.set(
        "kernel.relax_passes",
        (after.relax_passes - before.relax_passes) as f64,
    );
    report.set(
        "kernel.batched_calls",
        (after.batched_calls - before.batched_calls) as f64,
    );
    report.set(
        "kernel.threaded_passes",
        (after.threaded_passes - before.threaded_passes) as f64,
    );
}
