//! The experiment harness reproducing the paper's evaluation.
//!
//! Every table and figure of the evaluation, and every engine claim built on
//! top of it, is one experiment: a function `fn(&Config) -> Result<Json>`
//! that runs the analyses, checks its own promises with `assert!`, and
//! returns the experiment's record.  The [`runner`] lists them all in one
//! table and drives them from the single `experiment` binary:
//!
//! ```text
//! experiment <name>... | all [--smoke] [--store DIR] [--expect-warm]
//! ```
//!
//! The runner prints each record with one generic printer and writes it to
//! `BENCH_<record>.json`, so every value is named exactly once — as its key.
//! The paper's experiments:
//!
//! * **E2 (CAS, Section 5.1)** — `cas`
//! * **E3/E4 (CPS, Section 5.2, Figures 8/9)** — `cps`
//! * **E5 (Figure 6)** — `nondeterminism`
//! * **E8 (Figures 13–15)** — `repair`
//! * **E9 (scaling discussion of Section 5.2)** — `scaling`
//!
//! The rest measure the engine around the reproduction: the service
//! (`portfolio`, `throughput`), the parametric sweep (`sweep`), the relax
//! kernel (`kernel`), the model store (`persistence`), the HTTP front end
//! (`serve`), the hybrid backend (`hybrid`) and the Galileo mini-corpus
//! (`corpus`).  The benches in `benches/` time single operations with the
//! dependency-free harness in [`timing`].
//!
//! The [`Analyzer`] session engine separates the **build** phase
//! (conversion + compositional aggregation, paid once) from the **query**
//! phase (uniformisation / steady state, paid per measure); the records
//! report the two phases separately as `build_seconds` / `query_seconds`.

#![forbid(unsafe_code)]

use dft::json::Json;
use dft::{Dft, DftBuilder, Dormancy, ElementId};
use dft_core::analysis::{AnalysisOptions, Method};
use dft_core::casestudies::{
    cas, cas_cpu_unit, cas_motor_unit, cas_pump_unit, cas_scaled, cascaded_pand, cps,
    DEFAULT_MISSION_TIMES,
};
use dft_core::engine::{Analyzer, ParametricAnalyzer};
use dft_core::parametric::Valuation;
use dft_core::query::{Measure, MeasureResult};
use dft_core::request::{AnalysisRequest, SweepSpec};
use dft_core::rng::SplitMix64;
use dft_core::service::{AnalysisService, JobReport, RequestHandle, ServiceOptions};
use dft_core::Result;
use ioimc::stats::ModelStats;
use runner::Config;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

pub mod fuzz;
pub mod runner;
mod serve_load;
pub mod timing;

/// Runs `f` and returns its value together with the wall-clock it took.
fn timed<T>(f: impl FnOnce() -> Result<T>) -> Result<(T, Duration)> {
    let started = Instant::now();
    let value = f()?;
    Ok((value, started.elapsed()))
}

/// The `p`-th percentile (0–100, nearest rank below) of sorted latencies.
fn percentile(sorted: &[Duration], p: usize) -> Duration {
    sorted[(sorted.len() - 1) * p / 100]
}

/// `numerator / denominator`, guarded against a zero denominator.
fn ratio(numerator: f64, denominator: f64) -> f64 {
    numerator / denominator.max(f64::MIN_POSITIVE)
}

fn options(method: Method) -> AnalysisOptions {
    AnalysisOptions {
        method,
        ..AnalysisOptions::default()
    }
}

/// Peak intermediate size of a compositional session's aggregation.
fn peak(analyzer: &Analyzer) -> ModelStats {
    analyzer
        .aggregation_stats()
        .expect("compositional session")
        .peak
}

/// A `{paper, measured}` pair.
fn comparison(paper: f64, measured: f64) -> Json {
    Json::obj([("paper", paper.into()), ("measured", measured.into())])
}

/// `distinct` rate-scaled CAS variants (scales 1.0, 1.05, …): the portfolio
/// every service-level experiment submits.
fn cas_variants(distinct: usize) -> Vec<Dft> {
    (0..distinct)
        .map(|i| cas_scaled(1.0 + 0.05 * i as f64))
        .collect()
}

/// Sequential reference: one plain [`Analyzer`] per tree, no service.
fn sequential_reference(variants: &[Dft], measures: &[Measure]) -> Result<Vec<Vec<MeasureResult>>> {
    variants
        .iter()
        .map(|dft| Analyzer::new(dft, AnalysisOptions::default())?.query_all(measures))
        .collect()
}

/// Two measure results are bit-identical: same shape, and every time, value and
/// bound agrees down to the floating-point bit pattern.
fn bitwise_eq(a: &MeasureResult, b: &MeasureResult) -> bool {
    a.points().len() == b.points().len()
        && a.points().iter().zip(b.points()).all(|(x, y)| {
            x.time().map(f64::to_bits) == y.time().map(f64::to_bits)
                && x.value().to_bits() == y.value().to_bits()
                && x.bounds().0.to_bits() == y.bounds().0.to_bits()
                && x.bounds().1.to_bits() == y.bounds().1.to_bits()
        })
}

/// A service answer is bit-identical to the expected results.
fn results_match(results: &Result<Vec<MeasureResult>>, expected: &[MeasureResult]) -> bool {
    results.as_ref().is_ok_and(|results| {
        results.len() == expected.len()
            && results.iter().zip(expected).all(|(r, e)| bitwise_eq(r, e))
    })
}

/// Every report answered bit-identically to `reference[i % reference.len()]`.
fn reports_match(reports: &[JobReport], reference: &[Vec<MeasureResult>]) -> bool {
    reports
        .iter()
        .enumerate()
        .all(|(i, job)| results_match(&job.results, &reference[i % reference.len()]))
}

/// A plain request for `measures` over `dft`, with default options.
fn job_request(dft: Dft, measures: Vec<Measure>) -> AnalysisRequest {
    AnalysisRequest {
        measures,
        ..AnalysisRequest::new(dft)
    }
}

/// A blocking batch: submits every request, then waits for all of them, so
/// the reports come back in submission order while the pool drains the whole
/// batch concurrently.
fn run_jobs(
    service: &AnalysisService,
    requests: impl IntoIterator<Item = AnalysisRequest>,
) -> Vec<JobReport> {
    let handles: Vec<RequestHandle> = requests
        .into_iter()
        .map(|request| service.submit_request(request))
        .collect();
    handles
        .into_iter()
        .map(|handle| handle.wait().into_job().expect("no sweep attached"))
        .collect()
}

/// A fresh, cold service with `workers` workers (0 = one per core) and an
/// unbounded session cache.
fn cold_service(workers: usize) -> AnalysisService {
    AnalysisService::new(ServiceOptions {
        workers,
        cache_capacity: 0,
        ..ServiceOptions::default()
    })
}

/// A single AND module of `width` identical rate-`rate` basic events (module A of
/// Figure 8/9).
pub fn single_and_module(width: usize, rate: f64) -> Dft {
    let mut b = DftBuilder::new();
    let events: Vec<ElementId> = (0..width)
        .map(|i| {
            b.basic_event(&format!("A_{i}"), rate, Dormancy::Hot)
                .expect("valid BE")
        })
        .collect();
    let top = b.and_gate("A", &events).expect("valid gate");
    b.build(top).expect("wellformed module")
}

/// A repairable k-out-of-n voting system over identical components, used by the
/// repair bench (E8).
pub fn repairable_voting(n: usize, failure_rate: f64, repair_rate: f64) -> Dft {
    let mut b = DftBuilder::new();
    let events: Vec<ElementId> = (0..n)
        .map(|i| {
            b.repairable_basic_event(&format!("R{i}"), failure_rate, Dormancy::Hot, repair_rate)
                .expect("valid BE")
        })
        .collect();
    let k = (n.div_ceil(2)) as u32;
    let top = b.voting_gate("system", k, &events).expect("valid gate");
    b.build(top).expect("wellformed DFT")
}

/// A "highly connected" DFT family for the negative result the paper mentions at
/// the end of Section 5.2: `n` basic events, every pair feeding a shared AND gate,
/// all gates collected under one OR.  There are no independent modules, so
/// compositional aggregation has little structure to exploit.
pub fn highly_connected(n: usize, rate: f64) -> Dft {
    let mut b = DftBuilder::new();
    let events: Vec<ElementId> = (0..n)
        .map(|i| {
            b.basic_event(&format!("hc_{i}"), rate, Dormancy::Hot)
                .expect("valid BE")
        })
        .collect();
    let mut pairs = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            pairs.push(
                b.and_gate(&format!("hc_and_{i}_{j}"), &[events[i], events[j]])
                    .expect("valid gate"),
            );
        }
    }
    let top = b.or_gate("hc_top", &pairs).expect("valid gate");
    b.build(top).expect("wellformed DFT")
}

/// The hybrid experiment's subject: `static_width` distinct-rate basic events
/// grouped three at a time under alternating AND / 2-of-3 / OR gates, OR'd at
/// the top with one cold-spare pair — all the dynamism in a two-element core,
/// all the bulk in the static crown.
pub fn static_heavy_tree(static_width: usize) -> Dft {
    let mut b = DftBuilder::new();
    let mut groups = Vec::new();
    let mut leaves = Vec::new();
    for i in 0..static_width {
        let rate = 0.25 + 0.05 * i as f64;
        let be = b
            .basic_event(&format!("hx_e{i}"), rate, Dormancy::Hot)
            .expect("fresh name");
        leaves.push(be);
        if leaves.len() == 3 {
            let inputs: Vec<ElementId> = std::mem::take(&mut leaves);
            let name = format!("hx_g{}", groups.len());
            let gate = match groups.len() % 3 {
                0 => b.and_gate(&name, &inputs).expect("fresh gate"),
                1 => b.voting_gate(&name, 2, &inputs).expect("fresh gate"),
                _ => b.or_gate(&name, &inputs).expect("fresh gate"),
            };
            groups.push(gate);
        }
    }
    groups.extend(leaves);
    let p = b
        .basic_event("hx_p", 1.0, Dormancy::Hot)
        .expect("fresh name");
    let s = b
        .basic_event("hx_s", 1.0, Dormancy::Cold)
        .expect("fresh name");
    groups.push(b.spare_gate("hx_spare", &[p, s]).expect("fresh gate"));
    let top = b.or_gate("hx_top", &groups).expect("fresh gate");
    b.build(top).expect("well-formed tree")
}

/// E2: the cardiac assist system of Section 5.1 — unreliability at mission
/// time 1 against the paper's 0.6579 and the monolithic baseline, the
/// compositional peak against the monolithic chain, and the aggregated size
/// of each of the three units (the paper reports about 6 states each).
fn cas_experiment(_: &Config) -> Result<Json> {
    let dft = cas();
    let (analyzer, build) = timed(|| Analyzer::new(&dft, AnalysisOptions::default()))?;
    let (measured, query) = timed(|| analyzer.unreliability(1.0))?;
    let monolithic = Analyzer::new(&dft, options(Method::Monolithic))?;
    let module_states = [
        ("CPU_unit", cas_cpu_unit()),
        ("Motor_unit", cas_motor_unit()),
        ("Pump_unit", cas_pump_unit()),
    ]
    .into_iter()
    .map(|(module, dft)| {
        let (model, _) = dft_core::analysis::aggregated_model(&dft)?;
        Ok(Json::obj([
            ("module", module.into()),
            ("states", model.num_states().into()),
        ]))
    })
    .collect::<Result<_>>()?;
    Ok(Json::obj([
        (
            "unreliability_paper",
            dft_core::casestudies::CAS_PAPER_UNRELIABILITY.into(),
        ),
        ("unreliability_measured", measured.value().into()),
        (
            "unreliability_monolithic",
            monolithic.unreliability(1.0)?.value().into(),
        ),
        ("compositional_peak_states", peak(&analyzer).states.into()),
        ("monolithic_states", monolithic.model_stats().states.into()),
        ("module_states", Json::Arr(module_states)),
        ("build_seconds", Json::secs(build)),
        ("query_seconds", Json::secs(query)),
    ]))
}

/// E3/E4: the cascaded-PAND system of Section 5.2 against the paper's
/// unreliability, compositional peak and monolithic chain size; one AND
/// module aggregates to a handful of states (Figure 9: the order of
/// identical failures is irrelevant).
fn cps_experiment(_: &Config) -> Result<Json> {
    use dft_core::casestudies::{CPS_PAPER_MONOLITHIC, CPS_PAPER_PEAK, CPS_PAPER_UNRELIABILITY};
    let dft = cps();
    let (analyzer, build) = timed(|| Analyzer::new(&dft, AnalysisOptions::default()))?;
    let (measured, query) = timed(|| analyzer.unreliability(1.0))?;
    let peak_stats = peak(&analyzer);
    let monolithic = Analyzer::new(&dft, options(Method::Monolithic))?.model_stats();
    let (module_a, _) = dft_core::analysis::aggregated_model(&single_and_module(4, 1.0))?;
    Ok(Json::obj([
        (
            "unreliability",
            comparison(CPS_PAPER_UNRELIABILITY, measured.value()),
        ),
        (
            "peak_states",
            comparison(CPS_PAPER_PEAK.0 as f64, peak_stats.states as f64),
        ),
        (
            "peak_transitions",
            comparison(CPS_PAPER_PEAK.1 as f64, peak_stats.transitions() as f64),
        ),
        (
            "monolithic_states",
            comparison(CPS_PAPER_MONOLITHIC.0 as f64, monolithic.states as f64),
        ),
        (
            "monolithic_transitions",
            comparison(
                CPS_PAPER_MONOLITHIC.1 as f64,
                monolithic.markovian_transitions as f64,
            ),
        ),
        ("module_a_states", module_a.num_states().into()),
        ("build_seconds", Json::secs(build)),
        ("query_seconds", Json::secs(query)),
    ]))
}

/// E8: the repairable AND system of Figure 15 — steady-state unavailability
/// against the closed form, and the MTTF, from one session per rate set.
fn repair_experiment(config: &Config) -> Result<Json> {
    let full = [
        (1.0, 2.0, 10.0),
        (0.5, 0.5, 5.0),
        (1.0, 1.0, 1.0),
        (0.1, 0.3, 2.0),
    ];
    let configs = if config.smoke { &full[..2] } else { &full[..] };
    let rows = configs
        .iter()
        .map(|&(lambda_a, lambda_b, mu)| {
            let mut b = DftBuilder::new();
            let a = b.repairable_basic_event("A", lambda_a, Dormancy::Hot, mu)?;
            let bb = b.repairable_basic_event("B", lambda_b, Dormancy::Hot, mu)?;
            let top = b.and_gate("system", &[a, bb])?;
            let analyzer = Analyzer::new(&b.build(top)?, AnalysisOptions::default())?;
            let analytic = (lambda_a / (lambda_a + mu)) * (lambda_b / (lambda_b + mu));
            Ok(Json::obj([
                ("lambda_a", lambda_a.into()),
                ("lambda_b", lambda_b.into()),
                ("mu", mu.into()),
                ("analytic", analytic.into()),
                ("measured", analyzer.unavailability()?.value().into()),
                ("mttf", analyzer.mttf()?.value().into()),
                ("final_states", analyzer.model_stats().states.into()),
            ]))
        })
        .collect::<Result<_>>()?;
    Ok(Json::obj([("rows", Json::Arr(rows))]))
}

/// E5: the Figure-6(a) configuration — an FDEP trigger feeding both inputs of
/// a PAND gate — as a CTMDP: scheduler bounds per mission time, and the
/// deterministic left-to-right resolution of the DIFTree-style baseline,
/// which lies inside them.  The whole sweep is one
/// [`Measure::UnreliabilityCurve`] query on one build.
fn nondeterminism_experiment(config: &Config) -> Result<Json> {
    let times: &[f64] = if config.smoke {
        &[0.5, 1.0]
    } else {
        &[0.25, 0.5, 1.0, 2.0, 4.0]
    };
    let mut b = DftBuilder::new();
    let t = b.basic_event("T", 0.5, Dormancy::Hot)?;
    let a = b.basic_event("A", 1.0, Dormancy::Hot)?;
    let bb = b.basic_event("B", 1.0, Dormancy::Hot)?;
    let _fdep = b.fdep_gate("FDEP", t, &[a, bb])?;
    let top = b.pand_gate("system", &[a, bb])?;
    let dft = b.build(top)?;

    let curve = Measure::UnreliabilityCurve(times.to_vec());
    let (analyzer, build) = timed(|| Analyzer::new(&dft, AnalysisOptions::default()))?;
    let (bounds, query) = timed(|| analyzer.query(curve.clone()))?;
    let baseline = Analyzer::new(&dft, options(Method::Monolithic))?.query(curve)?;
    let rows = bounds
        .points()
        .iter()
        .zip(baseline.points())
        .map(|(comp, mono)| {
            let (lower, upper) = comp.bounds();
            Json::obj([
                (
                    "mission_time",
                    comp.time().expect("curve points carry their time").into(),
                ),
                ("lower", lower.into()),
                ("upper", upper.into()),
                ("baseline", mono.value().into()),
            ])
        })
        .collect();
    Ok(Json::obj([
        ("rows", Json::Arr(rows)),
        ("build_seconds", Json::secs(build)),
        ("query_seconds", Json::secs(query)),
    ]))
}

/// E9: compositional peak versus monolithic chain size over the modular
/// cascaded-PAND family, and the peak of the highly connected family (no
/// independent modules) against a modular tree with as many events — the
/// compositional advantage shrinks for highly connected trees, as the paper
/// observes at the end of Section 5.2.
fn scaling_experiment(config: &Config) -> Result<Json> {
    let (max_width, connectivity_sizes): (usize, &[usize]) = if config.smoke {
        (3, &[3, 4])
    } else {
        (5, &[3, 4, 5, 6])
    };
    let compositional = |dft: &Dft| Analyzer::new(dft, AnalysisOptions::default());
    let family: Vec<Json> = (1..=max_width)
        .map(|width| {
            let dft = cascaded_pand(width, 1.0);
            let analyzer = compositional(&dft)?;
            let monolithic = Analyzer::new(&dft, options(Method::Monolithic))?;
            Ok(Json::obj([
                ("width", width.into()),
                ("basic_events", dft.num_basic_events().into()),
                ("compositional_peak_states", peak(&analyzer).states.into()),
                ("monolithic_states", monolithic.model_stats().states.into()),
                (
                    "unreliability_at_1",
                    analyzer.unreliability(1.0)?.value().into(),
                ),
            ]))
        })
        .collect::<Result<_>>()?;
    let connectivity = connectivity_sizes
        .iter()
        .map(|&n| {
            let connected = compositional(&highly_connected(n, 1.0))?;
            // A modular tree with a comparable number of events: width n/3
            // rounded up.
            let modular = compositional(&cascaded_pand(n.div_ceil(3).max(1), 1.0))?;
            Ok(Json::obj([
                ("basic_events", n.into()),
                ("connected_peak_states", peak(&connected).states.into()),
                ("modular_peak_states", peak(&modular).states.into()),
            ]))
        })
        .collect::<Result<_>>()?;
    Ok(Json::obj([
        ("cascaded_pand", Json::Arr(family)),
        ("connectivity", Json::Arr(connectivity)),
    ]))
}

/// E10: portfolio throughput over the [`AnalysisService`].  A batch of
/// rate-scaled CAS variants with many duplicate structures runs once on a
/// single worker and once on one worker per core, both from a cold cache.
/// Every duplicate must be a cache hit (one aggregation per distinct tree)
/// and every job bit-identical to a sequential [`Analyzer`] run.
fn portfolio_experiment(config: &Config) -> Result<Json> {
    let (distinct, copies) = if config.smoke { (3, 3) } else { (10, 5) };
    let variants = cas_variants(distinct);
    let measures = vec![Measure::curve(DEFAULT_MISSION_TIMES)];
    let jobs: Vec<AnalysisRequest> = (0..distinct * copies)
        .map(|i| job_request(variants[i % distinct].clone(), measures.clone()))
        .collect();
    let reference = sequential_reference(&variants, &measures)?;

    let single = cold_service(1);
    let (single_reports, single_wall) = timed(|| Ok(run_jobs(&single, jobs.iter().cloned())))?;
    let multi = cold_service(0);
    let (multi_reports, multi_wall) = timed(|| Ok(run_jobs(&multi, jobs.iter().cloned())))?;

    let bit_identical =
        reports_match(&single_reports, &reference) && reports_match(&multi_reports, &reference);
    let cache_misses = multi_reports.iter().filter(|j| !j.cache_hit).count();
    let aggregation_runs: usize = multi_reports.iter().map(|j| j.aggregation_runs).sum();
    assert!(
        bit_identical,
        "concurrent service results diverged from the sequential reference"
    );
    assert_eq!(
        aggregation_runs, distinct,
        "duplicates must never re-run aggregation"
    );
    Ok(Json::obj([
        ("jobs", jobs.len().into()),
        ("distinct_trees", distinct.into()),
        ("workers", multi.pool_workers().into()),
        ("single_worker_wall_seconds", Json::secs(single_wall)),
        ("multi_worker_wall_seconds", Json::secs(multi_wall)),
        (
            "build_seconds",
            Json::secs(multi_reports.iter().map(|j| j.build).sum()),
        ),
        (
            "query_seconds",
            Json::secs(multi_reports.iter().map(|j| j.query).sum()),
        ),
        ("cache_hits", (multi_reports.len() - cache_misses).into()),
        ("cache_misses", cache_misses.into()),
        ("aggregation_runs", aggregation_runs.into()),
        ("bit_identical", bit_identical.into()),
    ]))
}

/// The rate sweep: aggregate the CAS structure once ([`ParametricAnalyzer`]),
/// instantiate a whole failure-rate sweep (scales 1.0, 1.05, …) at query
/// time, and check every value against an independent [`Analyzer::new`]
/// build of the pre-scaled tree ([`cas_scaled`]).  Both sides run with
/// ε = 1e-13 so the 1e-12 agreement check measures the models, not the
/// numerics.  `marginal_us_per_point` is the cost of one *additional* point,
/// `(full sweep wall − one-point sweep wall) / (K − 1)`, which `bench_diff`
/// gates against the baseline.
fn sweep_experiment(config: &Config) -> Result<Json> {
    let points: usize = if config.smoke { 5 } else { 25 };
    let mission_time = 1.0;
    let options = AnalysisOptions {
        epsilon: 1e-13,
        ..AnalysisOptions::default()
    };
    let scales: Vec<f64> = (0..points).map(|i| 1.0 + 0.05 * i as f64).collect();

    let (parametric, parametric_build) =
        timed(|| ParametricAnalyzer::new(&cas(), options.clone()))?;
    let valuations: Vec<Valuation> = scales
        .iter()
        .map(|&s| parametric.params().scaled_valuation(s))
        .collect();
    let (sweep, sweep_wall) = timed(|| parametric.sweep_unreliability(mission_time, &valuations))?;
    // The one-point run happens second, so any lazily built per-model state
    // is warm for it but *charged* to the full sweep — the marginal is
    // conservative, never flattered.
    let (_, one_point_wall) =
        timed(|| parametric.sweep_unreliability(mission_time, &valuations[..1]))?;
    let marginal_us_per_point = if points > 1 {
        sweep_wall.saturating_sub(one_point_wall).as_secs_f64() * 1e6 / (points - 1) as f64
    } else {
        sweep_wall.as_secs_f64() * 1e6
    };

    let mut independent_total = Duration::ZERO;
    let mut single_point = Duration::ZERO;
    let mut max_abs_diff = 0.0f64;
    for (i, &scale) in scales.iter().enumerate() {
        let (reference, elapsed) = timed(|| {
            Analyzer::new(&cas_scaled(scale), options.clone())?.unreliability(mission_time)
        })?;
        independent_total += elapsed;
        if i == 0 {
            single_point = elapsed;
        }
        let (lo, hi) = sweep.results()[i].bounds();
        let (ref_lo, ref_hi) = reference.bounds();
        max_abs_diff = max_abs_diff
            .max((lo - ref_lo).abs())
            .max((hi - ref_hi).abs());
    }

    let amortized = sweep.instantiate_time() + sweep.query_time();
    let sweep_total = parametric_build + amortized;
    let within_tolerance = max_abs_diff <= 1e-12;
    assert_eq!(
        parametric.aggregation_runs(),
        1,
        "the whole sweep must run exactly one aggregation"
    );
    assert!(
        within_tolerance,
        "sweep deviates from independent builds by {max_abs_diff}"
    );
    assert!(
        amortized < single_point * points as u32,
        "total query/instantiate time {amortized:?} must stay below {points} single-point builds"
    );
    let points_detail = scales
        .iter()
        .zip(sweep.values())
        .map(|(&scale, value)| {
            Json::obj([("scale", scale.into()), ("unreliability", value.into())])
        })
        .collect();
    Ok(Json::obj([
        ("points", points.into()),
        ("mission_time", mission_time.into()),
        ("aggregation_runs", parametric.aggregation_runs().into()),
        ("parametric_states", parametric.model_stats().states.into()),
        ("parametric_build_seconds", Json::secs(parametric_build)),
        ("instantiate_seconds", Json::secs(sweep.instantiate_time())),
        ("query_seconds", Json::secs(sweep.query_time())),
        ("sweep_total_seconds", Json::secs(sweep_total)),
        ("single_point_seconds", Json::secs(single_point)),
        ("independent_total_seconds", Json::secs(independent_total)),
        (
            "speedup",
            ratio(independent_total.as_secs_f64(), sweep_total.as_secs_f64()).into(),
        ),
        (
            "marginal_speedup",
            ratio(
                single_point.as_secs_f64(),
                amortized.as_secs_f64() / points as f64,
            )
            .into(),
        ),
        ("marginal_us_per_point", marginal_us_per_point.into()),
        ("max_abs_diff", max_abs_diff.into()),
        ("within_tolerance", within_tolerance.into()),
        ("points_detail", Json::Arr(points_detail)),
    ]))
}

/// Builds a seeded random CTMDP shaped like the closed models the engine
/// produces: mostly Markovian states with a handful of racing exponentials,
/// interleaved immediate states with non-deterministic successor choices, and
/// a sprinkling of goal states.  Equal seeds yield equal models.
fn random_ctmdp_template(seed: u64, states: usize) -> (Vec<markov::CtmdpState>, Vec<bool>) {
    use markov::CtmdpState;
    let mut rng = SplitMix64::new(seed);
    let mut template = Vec::with_capacity(states);
    for s in 0..states {
        // State 0 is always Markovian so the model has a hot numeric path.
        if s == 0 || rng.next_f64() < 0.7 {
            let fanout = 1 + (rng.next_u64() % 6) as usize;
            let row = (0..fanout)
                .map(|_| {
                    let target = (rng.next_u64() % states as u64) as u32;
                    (target, 0.1 + 2.9 * rng.next_f64())
                })
                .collect();
            template.push(CtmdpState::Markovian(row));
        } else {
            let fanout = (rng.next_u64() % 4) as usize;
            let succs = (0..fanout)
                .map(|_| (rng.next_u64() % states as u64) as u32)
                .collect();
            template.push(CtmdpState::Immediate(succs));
        }
    }
    let goal = (0..states).map(|_| rng.next_f64() < 0.15).collect();
    (template, goal)
}

/// The CSR relax kernel ([`markov::RelaxKernel`]) on a seeded random CTMDP:
/// one lane sequentially, then `lanes` rate-scaled copies once through one
/// batched traversal and once as independent single-lane runs, then the
/// batched call on the threaded driver.  Every batched lane must match its
/// single-lane run, and the threaded run the sequential one, bit for bit.
fn kernel_experiment(config: &Config) -> Result<Json> {
    use markov::{CtmdpState, RelaxKernel};
    let (states, lanes) = if config.smoke { (600, 4) } else { (4000, 8) };
    let epsilon = 1e-9;
    let times = [0.25, 0.5, 1.0, 2.0];
    let maximise = true;

    let (template, goal) = random_ctmdp_template(0x0d51_2007, states);
    let edge_rates: Vec<f64> = template
        .iter()
        .flat_map(|st| match st {
            CtmdpState::Markovian(row) => row.iter().map(|&(_, r)| r).collect::<Vec<f64>>(),
            CtmdpState::Immediate(_) => Vec::new(),
        })
        .collect();
    let markovian_transitions = edge_rates.len();
    let reach = |kernel: &RelaxKernel, workers: usize| {
        timed(|| Ok(kernel.reachability(0, &goal, &times, epsilon, maximise, workers)?))
    };

    let (_, kernel_sequential) = reach(&RelaxKernel::from_template(&template, &edge_rates, 1)?, 1)?;

    // K rate-scaled lanes: once through the batched kernel, once as K
    // independent single-lane kernels.
    let scales: Vec<f64> = (0..lanes).map(|k| 0.75 + 0.1 * k as f64).collect();
    let mut lane_rates = vec![0.0; markovian_transitions * lanes];
    for (e, &rate) in edge_rates.iter().enumerate() {
        for (k, &scale) in scales.iter().enumerate() {
            lane_rates[e * lanes + k] = rate * scale;
        }
    }
    let batched_kernel = RelaxKernel::from_template(&template, &lane_rates, lanes)?;
    let (batched_values, batched) = reach(&batched_kernel, 1)?;

    let mut scalar_total = Duration::ZERO;
    let mut batch_identical = true;
    for (k, &scale) in scales.iter().enumerate() {
        let scaled: Vec<f64> = edge_rates.iter().map(|&r| r * scale).collect();
        let (scalar_values, elapsed) =
            reach(&RelaxKernel::from_template(&template, &scaled, 1)?, 1)?;
        scalar_total += elapsed;
        batch_identical &= (0..times.len())
            .all(|t| scalar_values[t].to_bits() == batched_values[t * lanes + k].to_bits());
    }

    // The same batched call through the threaded driver; ≥ 2 workers so the
    // chunked relax actually runs even when `auto_workers` stays sequential.
    let auto_workers = batched_kernel.auto_workers();
    let threaded_workers = auto_workers.max(2);
    let (threaded_values, threaded) = reach(&batched_kernel, threaded_workers)?;
    let worker_invariant = threaded_values
        .iter()
        .zip(&batched_values)
        .all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(
        batch_identical,
        "batched lanes must match independent single-lane runs bit for bit"
    );
    assert!(
        worker_invariant,
        "the threaded relax must match the sequential relax bit for bit"
    );
    Ok(Json::obj([
        ("states", states.into()),
        ("markovian_transitions", markovian_transitions.into()),
        ("lanes", lanes.into()),
        ("time_points", times.len().into()),
        ("auto_workers", auto_workers.into()),
        ("threaded_workers", threaded_workers.into()),
        ("kernel_sequential_seconds", Json::secs(kernel_sequential)),
        ("scalar_total_seconds", Json::secs(scalar_total)),
        ("batched_seconds", Json::secs(batched)),
        ("threaded_seconds", Json::secs(threaded)),
        (
            "batch_speedup",
            ratio(scalar_total.as_secs_f64(), batched.as_secs_f64()).into(),
        ),
        ("batch_identical", batch_identical.into()),
        ("worker_invariant", worker_invariant.into()),
    ]))
}

/// E11: async-service throughput.  The same rate-scaled CAS jobs run once as
/// blocking batches and once as concurrent submitters, each mode the best of
/// five cold-cache repetitions.  Each submitter's chunk cycles the variants
/// from its own offset, so duplicate structures interleave across submitters
/// — the regime the queue's leader/follower parking exists for.  Both modes
/// keep the same client threads alive (the blocking mode serializes their
/// submit-then-wait batches with a mutex), so the comparison isolates
/// turn-taking versus continuous draining.  Bit-identity against a
/// sequential [`Analyzer`] reference is checked on every repetition; the
/// queued run records per-job submit→report latency.
fn throughput_experiment(config: &Config) -> Result<Json> {
    /// Best-of-N repetitions per mode: both walls are tens of milliseconds,
    /// where single-shot measurements swing with the scheduler.
    const REPETITIONS: usize = 5;
    // The smoke configuration still needs enough warm-cache work after the
    // builds for the pipelining win to dominate scheduler noise.
    let (distinct, submitters, depth) = if config.smoke { (4, 3, 12) } else { (8, 4, 8) };
    let jobs = submitters * depth;
    let variants = cas_variants(distinct);
    let measures = vec![Measure::curve(DEFAULT_MISSION_TIMES)];
    let variant_of = |s: usize, j: usize| (s + j) % distinct;
    let chunk = |s: usize| -> Vec<AnalysisRequest> {
        (0..depth)
            .map(|j| job_request(variants[variant_of(s, j)].clone(), measures.clone()))
            .collect()
    };
    let reference = sequential_reference(&variants, &measures)?;
    // Submitter `s`'s reports (in chunk order) match the reference.
    let chunk_matches = |s: usize, reports: &[JobReport]| {
        reports
            .iter()
            .enumerate()
            .all(|(j, job)| results_match(&job.results, &reference[variant_of(s, j)]))
    };
    let mut bit_identical = true;

    let mut sequential_wall = Duration::MAX;
    for _ in 0..REPETITIONS {
        let service = cold_service(0);
        let turn = std::sync::Mutex::new(());
        let (reports, wall) = timed(|| {
            Ok(std::thread::scope(|scope| {
                let handles: Vec<_> = (0..submitters)
                    .map(|s| {
                        let (service, turn) = (&service, &turn);
                        scope.spawn(move || {
                            let _my_turn = turn.lock().expect("turn lock");
                            run_jobs(service, chunk(s))
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap())
                    .collect::<Vec<_>>()
            }))
        })?;
        sequential_wall = sequential_wall.min(wall);
        bit_identical &= reports.iter().enumerate().all(|(s, r)| chunk_matches(s, r));
    }

    // Queued runs: every submitter enqueues its whole chunk first (building
    // a `depth`-deep queue), then awaits the handles.  The accounting and
    // the latency percentiles come from the best repetition; the cache
    // counters are deterministic, so every repetition agrees.
    let mut queued_wall = Duration::MAX;
    let mut best: Vec<(Vec<JobReport>, Vec<Duration>)> = Vec::new();
    let mut workers = 0;
    for _ in 0..REPETITIONS {
        let service = cold_service(0);
        let (outcomes, wall) = timed(|| {
            Ok(std::thread::scope(|scope| {
                let handles: Vec<_> = (0..submitters)
                    .map(|s| {
                        let (service, jobs) = (&service, chunk(s));
                        scope.spawn(move || {
                            let submitted: Vec<(Instant, RequestHandle)> = jobs
                                .into_iter()
                                .map(|job| (Instant::now(), service.submit_request(job)))
                                .collect();
                            submitted
                                .into_iter()
                                .map(|(submitted_at, handle)| {
                                    let report =
                                        handle.wait().into_job().expect("no sweep attached");
                                    (report, submitted_at.elapsed())
                                })
                                .unzip::<_, _, Vec<JobReport>, Vec<Duration>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap())
                    .collect::<Vec<_>>()
            }))
        })?;
        workers = service.pool_workers();
        bit_identical &= outcomes
            .iter()
            .enumerate()
            .all(|(s, (reports, _))| chunk_matches(s, reports));
        if wall < queued_wall {
            queued_wall = wall;
            best = outcomes;
        }
    }

    let reports = || best.iter().flat_map(|(reports, _)| reports);
    let mut latencies: Vec<Duration> = best.iter().flat_map(|(_, l)| l.iter().copied()).collect();
    latencies.sort();
    let cache_hits = reports().filter(|r| r.cache_hit).count();
    let aggregation_runs: usize = reports().map(|r| r.aggregation_runs).sum();
    let build_waits = reports().filter(|r| r.build_wait).count();
    let sequential_throughput = ratio(jobs as f64, sequential_wall.as_secs_f64());
    let queued_throughput = ratio(jobs as f64, queued_wall.as_secs_f64());
    let speedup = ratio(queued_throughput, sequential_throughput);
    assert!(
        bit_identical,
        "queued service results diverged from the sequential reference"
    );
    assert_eq!(
        aggregation_runs, distinct,
        "concurrent submitters must share cached models (one aggregation per structure)"
    );
    assert_eq!(
        build_waits, 0,
        "the queue must park duplicates of in-flight models, not block on them"
    );
    if !config.smoke {
        // Queue-based throughput must keep up with sequential batching; on
        // multi-core hosts it pulls ahead by keeping the pool saturated across
        // chunk boundaries.  The margin absorbs scheduler noise on tiny runs.
        assert!(
            speedup >= 0.75,
            "queued throughput collapsed to {speedup:.2}x of sequential batching"
        );
    }
    Ok(Json::obj([
        ("jobs", jobs.into()),
        ("distinct_trees", distinct.into()),
        ("submitters", submitters.into()),
        ("jobs_per_submitter", depth.into()),
        ("workers", workers.into()),
        ("sequential_wall_seconds", Json::secs(sequential_wall)),
        ("queued_wall_seconds", Json::secs(queued_wall)),
        (
            "sequential_throughput_jobs_per_second",
            sequential_throughput.into(),
        ),
        (
            "queued_throughput_jobs_per_second",
            queued_throughput.into(),
        ),
        ("speedup", speedup.into()),
        (
            "latency_p50_seconds",
            Json::secs(percentile(&latencies, 50)),
        ),
        (
            "latency_p99_seconds",
            Json::secs(percentile(&latencies, 99)),
        ),
        ("cache_hits", cache_hits.into()),
        ("cache_misses", (jobs - cache_hits).into()),
        ("aggregation_runs", aggregation_runs.into()),
        ("build_waits", build_waits.into()),
        ("bit_identical", bit_identical.into()),
    ]))
}

/// E12: the persistent cross-process model cache.  A portfolio of
/// rate-scaled CAS jobs plus a rate sweep runs through one
/// [`AnalysisService`] whose store is `config.store`; then one direct CAS
/// `Analyzer::new` is timed against restoring the same session with
/// `Analyzer::from_bytes`.  The first run against a directory aggregates and
/// writes every model; a later run against the same directory loads them all
/// and aggregates nothing, which `--expect-warm` asserts.
fn persistence_experiment(config: &Config) -> Result<Json> {
    let (distinct, copies, sweep_points): (usize, usize, usize) =
        if config.smoke { (3, 2, 3) } else { (8, 4, 10) };
    // Fail loudly if the directory is unusable — a persistence experiment
    // without persistence would silently measure nothing.
    dft_core::store::ModelStore::open(&config.store)?;

    let variants = cas_variants(distinct);
    let measures = vec![Measure::curve(DEFAULT_MISSION_TIMES)];
    let reference = sequential_reference(&variants, &measures)?;
    let jobs: Vec<AnalysisRequest> = (0..distinct * copies)
        .map(|i| job_request(variants[i % distinct].clone(), measures.clone()))
        .collect();
    // The sweep valuations come from the conversion-only parameter table (no
    // aggregation spent on bookkeeping).
    let (_, params) = dft_core::convert_parametric(&variants[0])?;
    let valuations: Vec<Valuation> = (0..sweep_points)
        .map(|k| params.scaled_valuation(1.0 + 0.1 * k as f64))
        .collect();
    // Sweep reference: a freshly built parametric session, instantiated per
    // valuation — what a (possibly store-loaded) service sweep must match
    // bit-for-bit.
    let parametric = ParametricAnalyzer::new(&variants[0], AnalysisOptions::default())?;
    let sweep_reference: Vec<Vec<MeasureResult>> = valuations
        .iter()
        .map(|v| parametric.instantiate(v)?.query_all(&measures))
        .collect::<Result<_>>()?;
    let sweep = AnalysisRequest {
        sweep: Some(SweepSpec::Valuations(valuations)),
        ..job_request(variants[0].clone(), measures.clone())
    };

    let service = AnalysisService::new(
        ServiceOptions {
            workers: 0,
            cache_capacity: 0,
            ..ServiceOptions::default()
        }
        .store(&config.store),
    );
    let job_count = jobs.len();
    let ((batch_reports, sweep_report), service_wall) = timed(|| {
        let batch = run_jobs(&service, jobs);
        let sweep = service.run_request(sweep).into_sweep();
        Ok((batch, sweep.expect("a sweep was attached")))
    })?;
    let bit_identical = reports_match(&batch_reports, &reference)
        && sweep_report.points.len() == sweep_reference.len()
        && sweep_report
            .points
            .iter()
            .zip(&sweep_reference)
            .all(|(point, expected)| results_match(&point.results, expected));
    let aggregation_runs = batch_reports
        .iter()
        .map(|j| j.aggregation_runs)
        .sum::<usize>()
        + sweep_report.stats.aggregation_runs;
    let store = service
        .store_stats()
        .expect("the experiment opened the store up front");

    // In-process micro-comparison: what one cold build costs versus one warm
    // load of the identical session.
    let (built, cold_build) = timed(|| Analyzer::new(&cas(), AnalysisOptions::default()))?;
    let bytes = built.to_bytes();
    let (restored, warm_load) = timed(|| Analyzer::from_bytes(&bytes))?;
    let roundtrip_bit_identical = restored.aggregation_runs() == 0
        && bitwise_eq(
            &built.query_all(&measures)?[0],
            &restored.query_all(&measures)?[0],
        );

    assert!(
        roundtrip_bit_identical,
        "from_bytes must restore a bit-identical, zero-aggregation session"
    );
    assert!(
        bit_identical,
        "store-backed service results diverged from the sequential reference"
    );
    if config.expect_warm {
        assert!(
            store.hits > 0,
            "--expect-warm: the store served no hits — is the directory shared \
             with the previous run?"
        );
        assert_eq!(
            aggregation_runs, 0,
            "--expect-warm: a warm store must replace every aggregation with a \
             disk read"
        );
        assert_eq!(
            store.rejected, 0,
            "--expect-warm: entries written by the previous run were rejected"
        );
    }
    // Store counters are u64, which `Json` renders as hex fingerprints.
    let count = |n: u64| Json::from(n as usize);
    Ok(Json::obj([
        ("jobs", job_count.into()),
        ("distinct_trees", distinct.into()),
        ("sweep_points", sweep_points.into()),
        ("store_hits", count(store.hits)),
        ("store_misses", count(store.misses)),
        ("store_writes", count(store.writes)),
        ("store_rejected", count(store.rejected)),
        ("store_read_bytes", count(store.read_bytes)),
        ("store_write_bytes", count(store.write_bytes)),
        ("aggregation_runs", aggregation_runs.into()),
        ("service_wall_seconds", Json::secs(service_wall)),
        ("cold_build_seconds", Json::secs(cold_build)),
        ("warm_load_seconds", Json::secs(warm_load)),
        (
            "load_speedup",
            ratio(cold_build.as_secs_f64(), warm_load.as_secs_f64()).into(),
        ),
        ("entry_bytes", bytes.len().into()),
        ("model_states", built.model_stats().states.into()),
        ("roundtrip_bit_identical", roundtrip_bit_identical.into()),
        ("bit_identical", bit_identical.into()),
    ]))
}

/// The hybrid backend on [`static_heavy_tree`]: the pure compositional
/// session against the hybrid one that BDD-solves the static crown and keeps
/// state space only inside the dynamic cores.  It must cut the closed-model
/// states at least tenfold and agree on the unreliability curve to 1e-12.
fn hybrid_experiment(config: &Config) -> Result<Json> {
    let static_width = if config.smoke { 9 } else { 12 };
    let dft = static_heavy_tree(static_width);
    let run = |method: Method| -> Result<(Analyzer, Vec<f64>, Duration, Duration)> {
        // Tight truncation bound: the curves are compared against each other,
        // so the numerical error must sit far below the gap the comparison is
        // meant to detect.
        let options = AnalysisOptions {
            method,
            epsilon: 1e-13,
        };
        let (analyzer, build) = timed(|| Analyzer::new(&dft, options))?;
        let (curve, query) = timed(|| analyzer.unreliability_curve(&DEFAULT_MISSION_TIMES))?;
        Ok((analyzer, curve.values().collect(), build, query))
    };
    let (pure, reference, compositional_build, compositional_query) = run(Method::Compositional)?;
    let (hybrid, reduced, hybrid_build, hybrid_query) = run(Method::Hybrid)?;
    let modules = hybrid
        .module_stats()
        .expect("a spare pair under an OR of static modules must decompose");

    let compositional_states = pure.model_stats().states;
    let hybrid_states = hybrid.model_stats().states;
    let reduction_factor = compositional_states as f64 / hybrid_states.max(1) as f64;
    let max_curve_diff = reference
        .iter()
        .zip(&reduced)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    assert!(
        reduction_factor >= 10.0,
        "state reduction {reduction_factor:.1}x fell below the promised 10x"
    );
    assert!(
        max_curve_diff <= 1e-12,
        "hybrid curve diverges from the state-space curve by {max_curve_diff}"
    );
    Ok(Json::obj([
        ("static_width", static_width.into()),
        ("compositional_states", compositional_states.into()),
        ("hybrid_states", hybrid_states.into()),
        ("reduction_factor", reduction_factor.into()),
        ("cores", modules.core_count.into()),
        ("crown_elements", modules.crown_elements.into()),
        ("core_elements", modules.core_elements.into()),
        ("max_curve_diff", max_curve_diff.into()),
        (
            "compositional_build_seconds",
            Json::secs(compositional_build),
        ),
        (
            "compositional_query_seconds",
            Json::secs(compositional_query),
        ),
        ("hybrid_build_seconds", Json::secs(hybrid_build)),
        ("hybrid_query_seconds", Json::secs(hybrid_query)),
    ]))
}

/// The corpus directory, resolved from the workspace root (the manifest dir
/// is `crates/bench`, so hop two levels up when running from elsewhere).
fn corpus_dir() -> PathBuf {
    let local = PathBuf::from("tests/fixtures/corpus");
    if local.is_dir() {
        return local;
    }
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/corpus")
}

/// The committed mini-corpus of FFORT-style Galileo trees
/// (`tests/fixtures/corpus/`) through the shared request layer, the way
/// `dftmc run` drives a benchmark directory.  Per tree: deterministic model
/// sizes (gated by `bench_diff`), the hybrid unreliability at mission time 1
/// (which must agree with the compositional one), the build/query split, and
/// a failure-rate scale sweep through the parametric path.
fn corpus_experiment(config: &Config) -> Result<Json> {
    use dft_core::service::RequestOutcome;
    let sweep_points: usize = if config.smoke { 3 } else { 9 };
    let dir = corpus_dir();
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot list {}: {e}", dir.display()))
        .filter_map(|entry| {
            let path = entry.ok()?.path();
            (path.extension().is_some_and(|ext| ext == "dft")).then_some(path)
        })
        .collect();
    files.sort();
    assert!(
        files.len() >= 10,
        "the corpus holds {} trees; expected the committed mini-corpus of 10+",
        files.len()
    );

    let service = AnalysisService::new(ServiceOptions::default());
    let mut rows = Vec::new();
    for path in &files {
        let name = path.file_stem().and_then(|s| s.to_str()).unwrap_or("?");
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        let dft = dft::galileo::parse(&text)
            .unwrap_or_else(|e| panic!("cannot parse {}: {e}", path.display()));
        let request = |method: Method| AnalysisRequest {
            options: options(method),
            measures: vec![Measure::Unreliability(1.0)],
            ..AnalysisRequest::new(dft.clone())
        };

        // Hybrid (the corpus runner default) and compositional sessions; the
        // two methods must agree on the point measure.
        let run_point = |method: Method| match service.run_request(request(method)) {
            RequestOutcome::Job(report) => {
                let value = report
                    .results
                    .as_ref()
                    .unwrap_or_else(|e| panic!("{name}: {e}"))
                    .first()
                    .expect("one measure")
                    .value();
                (report, value)
            }
            RequestOutcome::Sweep(_) => unreachable!("no sweep attached"),
        };
        let (hybrid, hybrid_value) = run_point(Method::Hybrid);
        let (_, compositional_value) = run_point(Method::Compositional);
        assert!(
            (hybrid_value - compositional_value).abs() <= 1e-9,
            "{name}: hybrid {hybrid_value} and compositional {compositional_value} disagree"
        );

        // Deterministic model sizes come from the cached sessions themselves.
        let sizes = |method: Method| {
            let analyzer = service
                .analyzer(&dft, &options(method))
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let stats = analyzer.model_stats();
            (
                stats.states,
                stats.interactive_transitions + stats.markovian_transitions,
            )
        };
        let (hybrid_states, hybrid_transitions) = sizes(Method::Hybrid);
        let (compositional_states, compositional_transitions) = sizes(Method::Compositional);

        // A failure-rate scale sweep through the parametric path.
        let scales: Vec<f64> = (0..sweep_points).map(|i| 0.5 + 0.5 * i as f64).collect();
        let sweep_request = AnalysisRequest {
            sweep: Some(SweepSpec::FailureScales(scales)),
            ..request(Method::Compositional)
        };
        let (sweep, sweep_wall) = timed(|| match service.run_request(sweep_request) {
            RequestOutcome::Sweep(report) => Ok(report),
            RequestOutcome::Job(_) => unreachable!("a sweep was attached"),
        })?;
        for point in &sweep.points {
            if let Err(e) = &point.results {
                panic!("{name}: sweep point failed: {e}");
            }
        }
        rows.push(Json::obj([
            ("tree", name.into()),
            ("elements", dft.num_elements().into()),
            ("hybrid_states", hybrid_states.into()),
            ("hybrid_transitions", hybrid_transitions.into()),
            ("compositional_states", compositional_states.into()),
            (
                "compositional_transitions",
                compositional_transitions.into(),
            ),
            ("unreliability", hybrid_value.into()),
            ("build_seconds", Json::secs(hybrid.build)),
            ("query_seconds", Json::secs(hybrid.query)),
            ("sweep_points", sweep.points.len().into()),
            ("sweep_wall_seconds", Json::secs(sweep_wall)),
        ]));
    }
    Ok(Json::obj([
        ("trees", files.len().into()),
        ("sweep_points", sweep_points.into()),
        ("rows", Json::Arr(rows)),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use runner::{find, Config};

    /// Runs the named experiment in the CI-sized configuration.
    fn smoke_record(name: &str) -> Json {
        find(name)
            .expect("a listed experiment")
            .record(&Config {
                smoke: true,
                ..Config::default()
            })
            .unwrap()
    }

    /// The value at a dotted key path (`"unreliability.measured"`).
    fn at<'a>(record: &'a Json, path: &str) -> &'a Json {
        path.split('.').fold(record, |node, key| {
            node.get(key)
                .unwrap_or_else(|| panic!("record lacks {path}"))
        })
    }

    fn num(record: &Json, path: &str) -> f64 {
        match at(record, path) {
            Json::Num(n) => *n,
            other => panic!("{path} is {other:?}, not a number"),
        }
    }

    fn flag(record: &Json, path: &str) -> bool {
        at(record, path) == &Json::Bool(true)
    }

    fn rows<'a>(record: &'a Json, key: &str) -> &'a [Json] {
        match at(record, key) {
            Json::Arr(rows) => rows,
            other => panic!("{key} is {other:?}, not an array"),
        }
    }

    #[test]
    fn persistence_experiment_cold_then_warm() {
        let store =
            std::env::temp_dir().join(format!("dftmc-bench-persist-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&store);
        let persistence = find("persistence").unwrap();
        let config = Config {
            smoke: true,
            store: store.clone(),
            expect_warm: false,
        };

        let cold = persistence.record(&config).unwrap();
        assert_eq!(num(&cold, "jobs"), 6.0);
        assert_eq!(
            num(&cold, "store_hits"),
            0.0,
            "first run starts from an empty store"
        );
        assert!(
            num(&cold, "store_writes") >= 4.0,
            "3 sessions + 1 parametric model"
        );
        assert_eq!(num(&cold, "aggregation_runs"), 4.0);
        assert!(flag(&cold, "bit_identical") && flag(&cold, "roundtrip_bit_identical"));

        let warm = persistence
            .record(&Config {
                expect_warm: true,
                ..config
            })
            .unwrap();
        assert!(
            num(&warm, "store_hits") >= 4.0,
            "second run loads every model"
        );
        assert_eq!(
            num(&warm, "aggregation_runs"),
            0.0,
            "zero aggregations on a warm store"
        );
        assert_eq!(num(&warm, "store_rejected"), 0.0);
        assert!(flag(&warm, "bit_identical") && flag(&warm, "roundtrip_bit_identical"));
        assert_eq!(num(&warm, "model_states"), num(&cold, "model_states"));

        let _ = std::fs::remove_dir_all(&store);
    }

    #[test]
    fn cas_experiment_reproduces_the_paper() {
        let e = smoke_record("cas");
        let (paper, measured) = (
            num(&e, "unreliability_paper"),
            num(&e, "unreliability_measured"),
        );
        assert!(((measured - paper) / paper).abs() < 1e-3);
        assert!((num(&e, "unreliability_monolithic") - measured).abs() < 1e-6);
        assert_eq!(rows(&e, "module_states").len(), 3);
    }

    #[test]
    fn cps_experiment_reproduces_the_paper() {
        let e = smoke_record("cps");
        let (paper, measured) = (
            num(&e, "unreliability.paper"),
            num(&e, "unreliability.measured"),
        );
        assert!(((measured - paper) / paper).abs() < 0.01);
        assert_eq!(num(&e, "monolithic_states.measured"), 4113.0);
        assert_eq!(num(&e, "monolithic_transitions.measured"), 24608.0);
        assert!(num(&e, "module_a_states") <= 6.0);
    }

    #[test]
    fn scaling_experiment_shows_the_gap_growing() {
        let e = smoke_record("scaling");
        let family = rows(&e, "cascaded_pand");
        assert_eq!(family.len(), 3);
        // The monolithic chain outgrows the compositional peak as width increases.
        let last = family.last().unwrap();
        assert!(num(last, "monolithic_states") > num(last, "compositional_peak_states"));
    }

    #[test]
    fn connectivity_experiment_runs() {
        let e = smoke_record("scaling");
        let connectivity = rows(&e, "connectivity");
        assert_eq!(connectivity.len(), 2);
        assert!(connectivity.iter().all(|r| {
            num(r, "connected_peak_states") > 0.0 && num(r, "modular_peak_states") > 0.0
        }));
    }

    #[test]
    fn repair_experiment_matches_the_closed_form() {
        let e = smoke_record("repair");
        for row in rows(&e, "rows") {
            let (analytic, measured) = (num(row, "analytic"), num(row, "measured"));
            assert!(((measured - analytic) / analytic).abs() < 1e-6);
            let mttf = num(row, "mttf");
            assert!(mttf.is_finite() && mttf > 0.0);
        }
    }

    #[test]
    fn nondeterminism_experiment_produces_proper_intervals() {
        let e = smoke_record("nondeterminism");
        assert_eq!(rows(&e, "rows").len(), 2);
        for row in rows(&e, "rows") {
            let (lower, upper) = (num(row, "lower"), num(row, "upper"));
            let baseline = num(row, "baseline");
            assert!(lower < upper);
            assert!(baseline >= lower - 1e-9 && baseline <= upper + 1e-9);
        }
    }

    #[test]
    fn highly_connected_trees_have_no_nontrivial_modules() {
        let dft = highly_connected(4, 1.0);
        let modules = dft::modules::independent_modules(&dft);
        // Only the top gate roots an independent module.
        assert_eq!(modules.len(), 1);
    }

    #[test]
    fn portfolio_experiment_caches_and_stays_bit_identical() {
        let e = smoke_record("portfolio");
        assert_eq!(num(&e, "jobs"), 9.0);
        assert_eq!(num(&e, "distinct_trees"), 3.0);
        assert_eq!(
            num(&e, "aggregation_runs"),
            3.0,
            "one aggregation per distinct tree"
        );
        assert_eq!(num(&e, "cache_misses"), 3.0);
        assert_eq!(num(&e, "cache_hits"), 6.0);
        assert!(
            flag(&e, "bit_identical"),
            "service results must match sequential runs"
        );
    }

    #[test]
    fn throughput_experiment_queues_and_stays_bit_identical() {
        let e = smoke_record("throughput");
        assert_eq!(num(&e, "jobs"), 36.0);
        assert_eq!(num(&e, "distinct_trees"), 4.0);
        assert_eq!(
            num(&e, "aggregation_runs"),
            4.0,
            "one aggregation per distinct tree"
        );
        assert_eq!(num(&e, "cache_misses"), 4.0);
        assert_eq!(num(&e, "cache_hits"), 32.0);
        assert_eq!(
            num(&e, "build_waits"),
            0.0,
            "duplicates park, they never block"
        );
        assert!(
            flag(&e, "bit_identical"),
            "queued results must match sequential runs"
        );
        assert!(num(&e, "latency_p99_seconds") >= num(&e, "latency_p50_seconds"));
    }

    #[test]
    fn hybrid_experiment_reduces_states_and_matches_curves() {
        let e = smoke_record("hybrid");
        assert_eq!(num(&e, "cores"), 1.0, "one spare pair, one dynamic core");
        assert!(num(&e, "crown_elements") > 0.0 && num(&e, "core_elements") > 0.0);
        let reduction = num(&e, "reduction_factor");
        assert!(
            reduction >= 10.0,
            "reduction {reduction} below the promised 10x"
        );
        let diff = num(&e, "max_curve_diff");
        assert!(diff <= 1e-12, "curves diverge by {diff}");
    }

    #[test]
    fn repairable_voting_builds() {
        let dft = repairable_voting(3, 0.5, 5.0);
        assert_eq!(dft.num_basic_events(), 3);
        assert!(dft.is_repairable());
    }

    #[test]
    fn sweep_experiment_matches_independent_builds() {
        let e = smoke_record("sweep");
        assert_eq!(num(&e, "points"), 5.0);
        let detail = rows(&e, "points_detail");
        assert_eq!(detail.len(), 5);
        assert_eq!(
            num(&e, "aggregation_runs"),
            1.0,
            "one aggregation for the whole sweep"
        );
        assert!(
            flag(&e, "within_tolerance"),
            "sweep deviates from independent builds by {}",
            num(&e, "max_abs_diff")
        );
        // Unreliability grows with the failure-rate scale.
        for pair in detail.windows(2) {
            assert!(num(&pair[1], "unreliability") >= num(&pair[0], "unreliability") - 1e-12);
        }
    }

    #[test]
    fn loadgen_round_trips_and_stays_bit_identical() {
        let e = smoke_record("serve");
        assert_eq!(num(&e, "jobs"), 9.0);
        assert_eq!(
            num(&e, "aggregation_runs"),
            2.0,
            "one aggregation per distinct tree"
        );
        assert_eq!(num(&e, "throttled"), 0.0);
        assert!(
            flag(&e, "bit_identical"),
            "HTTP values diverged from the Analyzer"
        );
        assert!(
            num(&e, "http_requests") >= 9.0,
            "at least one request per job"
        );
    }

    #[test]
    fn kernel_experiment_stays_bit_identical() {
        let e = smoke_record("kernel");
        assert_eq!(num(&e, "states"), 600.0);
        assert!(flag(&e, "batch_identical") && flag(&e, "worker_invariant"));
    }
}
