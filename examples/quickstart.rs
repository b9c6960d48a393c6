//! Quickstart: model a tiny redundant system as a dynamic fault tree, submit it
//! to an [`AnalysisService`], and answer a whole mission-time sweep plus the MTTF
//! from one cached model — the aggregation pipeline runs exactly once, and
//! resubmitting the same structure is a cache hit that skips it entirely.
//!
//! Run with `cargo run --example quickstart`.

use dftmc::dft::{DftBuilder, Dormancy};
use dftmc::dft_core::service::{AnalysisService, ServiceOptions};
use dftmc::dft_core::{AnalysisOptions, AnalysisRequest, JobReport, Measure, Method};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A power supply backed by a cold-standby generator; both feed a controller
    // that also depends on its cooling fan (the fan failure triggers a controller
    // failure through a functional dependency).
    let mut b = DftBuilder::new();
    let grid = b.basic_event("grid", 0.5, Dormancy::Hot)?;
    let generator = b.basic_event("generator", 0.2, Dormancy::Cold)?;
    let power = b.spare_gate("power", &[grid, generator])?;

    let fan = b.basic_event("fan", 0.1, Dormancy::Hot)?;
    let controller = b.basic_event("controller", 0.05, Dormancy::Hot)?;
    let _cooling = b.fdep_gate("cooling", fan, &[controller])?;

    let system = b.or_gate("system", &[power, controller])?;
    let dft = b.build(system)?;

    println!(
        "system: {} elements ({} basic events, {} gates), fingerprint {:016x}",
        dft.num_elements(),
        dft.num_basic_events(),
        dft.num_gates(),
        dft.fingerprint()
    );

    // One service fronts every analysis; sessions are cached by structure.
    let service = AnalysisService::new(ServiceOptions::default());

    // One request answers the whole sweep, the point query and the MTTF —
    // all measures share one cached model and one uniformisation pass.
    let run = |request: AnalysisRequest| -> JobReport {
        service
            .run_request(request)
            .into_job()
            .expect("a request without a sweep")
    };
    let t = 1.0;
    let report = run(AnalysisRequest {
        measures: vec![
            Measure::curve([0.5, 1.0, 2.0, 5.0]),
            Measure::Unreliability(t),
            Measure::Mttf,
        ],
        ..AnalysisRequest::new(dft.clone())
    });
    let results = report.results?;

    println!("\n mission time |  unreliability");
    println!(" -------------+---------------");
    for point in results[0].points() {
        println!(
            "        {:5.1} |  {:.6}",
            point.time().unwrap(),
            point.value()
        );
    }
    println!("\nmean time to failure: {:.4}", results[2].value());

    // Cross-check the point query against the monolithic baseline — a second
    // request to the same service, under a different cache key.
    let monolithic = run(AnalysisRequest {
        options: AnalysisOptions {
            method: Method::Monolithic,
            ..AnalysisOptions::default()
        },
        measures: vec![Measure::Unreliability(t)],
        ..AnalysisRequest::new(dft.clone())
    });
    println!(
        "\nat t = {t}: compositional {:.6} vs monolithic {:.6}",
        results[1].value(),
        monolithic.results?[0].value()
    );

    // Resubmitting the same structure is a cache hit: no aggregation runs.
    let resubmitted = run(AnalysisRequest {
        measures: vec![Measure::Unreliability(2.0)],
        ..AnalysisRequest::new(dft)
    });
    println!(
        "\nresubmission: cache hit = {}, aggregation runs = {}",
        resubmitted.cache_hit, resubmitted.aggregation_runs
    );
    let stats = service.cache_stats();
    println!(
        "service totals: {} hits / {} misses over {} cached model(s)",
        stats.hits, stats.misses, stats.entries
    );
    Ok(())
}
