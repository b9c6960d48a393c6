//! Loadgen for `dftmc-serve`: N client threads driving a real in-process
//! [`Server`] over real TCP connections, measuring end-to-end
//! submit→result latency through the whole HTTP → router → service →
//! registry stack.
//!
//! Every client request is one connection (the server speaks
//! `Connection: close`), so the experiment also exercises the accept loop
//! and the bounded connection queue, not just the service underneath.
//! Correctness rides along: every value fetched over HTTP is compared
//! bit-for-bit against an in-process [`Analyzer`] on the same tree —
//! `f64` survives the JSON round trip exactly because both sides use
//! Rust's shortest-round-trip formatting.

use crate::runner::Config;
use crate::{percentile, ratio};
use dft::json::Json;
use dft_core::analysis::AnalysisOptions;
use dft_core::engine::Analyzer;
use dft_core::Result;
use dftmc_serve::client;
use dftmc_serve::server::{Server, ServerOptions};
use std::net::SocketAddr;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// The unreliability value inside a `/result/{id}` document:
/// `results[0].points[0].value`.
fn result_value(doc: &Json) -> Option<f64> {
    fn first(value: Option<&Json>) -> Option<&Json> {
        match value? {
            Json::Arr(items) => items.first(),
            _ => None,
        }
    }
    let point = first(first(doc.get("results"))?.get("points"))?;
    match point.get("value")? {
        Json::Num(n) => Some(*n),
        _ => None,
    }
}

/// One client: submits its share of jobs and polls each to completion,
/// recording per-job latency and checking values against the reference.
fn run_client(
    addr: SocketAddr,
    client_index: usize,
    jobs_per_client: usize,
    bodies: &[String],
    reference: &[f64],
) -> std::io::Result<(Vec<Duration>, bool)> {
    let distinct = bodies.len();
    let mut latencies = Vec::with_capacity(jobs_per_client);
    let mut bit_identical = true;
    for j in 0..jobs_per_client {
        // Offset by the client index so duplicate structures interleave
        // *across* clients — the cache-contention regime.
        let variant = (client_index + j) % distinct;
        let Some(body) = bodies.get(variant) else {
            break;
        };
        let submitted = Instant::now();
        let (status, doc) = client::request(addr, "POST", "/submit", body)?;
        assert_eq!(status, 202, "submission refused: {}", doc.render());
        let Some(Json::Num(id)) = doc.get("id") else {
            panic!("submission reply carries no id: {}", doc.render());
        };
        let path = format!("/result/{id}");
        let value = loop {
            let (status, doc) = client::request(addr, "GET", &path, "")?;
            match status {
                202 => std::thread::sleep(Duration::from_micros(200)),
                200 => break result_value(&doc),
                other => panic!("result fetch failed ({other}): {}", doc.render()),
            }
        };
        latencies.push(submitted.elapsed());
        bit_identical &= value.map(f64::to_bits) == reference.get(variant).map(|r| r.to_bits());
    }
    Ok((latencies, bit_identical))
}

/// E13: the HTTP front end under load.  `clients` threads each submit
/// `jobs_per_client` jobs over `distinct` rate-scaled CAS variants to a
/// freshly started in-process server, poll each result to completion, then
/// scrape `/metrics` and shut the server down gracefully.  Every value
/// fetched over HTTP must be bit-identical to the in-process reference, and
/// every duplicate submission a cache hit (one aggregation per distinct
/// tree).
///
/// # Panics
///
/// Panics when the server cannot start, a client socket fails, or the
/// server refuses a request the configuration says it must accept.
pub(crate) fn serve_experiment(config: &Config) -> Result<Json> {
    let (distinct, clients, jobs_per_client) = if config.smoke { (2, 3, 3) } else { (4, 8, 8) };
    let variants = crate::cas_variants(distinct);
    let reference: Vec<f64> = variants
        .iter()
        .map(|dft| {
            Ok(Analyzer::new(dft, AnalysisOptions::default())?
                .unreliability(1.0)?
                .value())
        })
        .collect::<Result<_>>()?;
    let model_states = Analyzer::new(&variants[0], AnalysisOptions::default())?
        .model_stats()
        .states;
    let bodies: Vec<String> = variants
        .iter()
        .map(|dft| {
            Json::obj([
                ("galileo", Json::Str(dft::galileo::to_galileo(dft))),
                (
                    "measures",
                    Json::Arr(vec![Json::obj([
                        ("type", "unreliability".into()),
                        ("time", 1.0.into()),
                    ])]),
                ),
            ])
            .render()
        })
        .collect();

    let server = Server::start(ServerOptions {
        max_jobs: clients * jobs_per_client + 8,
        ..ServerOptions::default()
    })
    .expect("loadgen server starts on an ephemeral port");
    let addr = server.local_addr();

    let started = Instant::now();
    let outcomes: Vec<(Vec<Duration>, bool)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let bodies = &bodies;
                let reference = &reference;
                scope.spawn(move || {
                    run_client(addr, c, jobs_per_client, bodies, reference)
                        .expect("client socket I/O")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall = started.elapsed();

    let (status, metrics) = client::request(addr, "GET", "/metrics", "").expect("metrics scrape");
    assert_eq!(status, 200);
    let section = |key: &str, sub: &str| match metrics.get(key).and_then(|doc| doc.get(sub)) {
        Some(Json::Num(n)) => *n as usize,
        _ => panic!("/metrics lacks {key}.{sub}: {}", metrics.render()),
    };
    let aggregation_runs = section("jobs", "aggregation_runs");
    let http_requests = section("http", "requests");
    let throttled = section("http", "throttled");

    let (shutdown_status, _) =
        client::request(addr, "POST", "/shutdown", "").expect("shutdown request");
    assert_eq!(shutdown_status, 200);
    let rejected_connections = server
        .router()
        .http_counters()
        .rejected_connections
        .load(Ordering::Relaxed);
    server.join();

    let mut latencies: Vec<Duration> = Vec::new();
    let mut bit_identical = true;
    for (lats, ok) in outcomes {
        latencies.extend(lats);
        bit_identical &= ok;
    }
    latencies.sort();
    let jobs = latencies.len();
    assert_eq!(jobs, clients * jobs_per_client, "every job must complete");
    assert!(
        bit_identical,
        "values fetched over HTTP diverged from the in-process Analyzer"
    );
    assert_eq!(
        aggregation_runs, distinct,
        "every duplicate submission must be a cache hit"
    );
    Ok(Json::obj([
        ("jobs", jobs.into()),
        ("clients", clients.into()),
        ("distinct_trees", distinct.into()),
        ("wall_seconds", Json::secs(wall)),
        (
            "throughput_jobs_per_second",
            ratio(jobs as f64, wall.as_secs_f64()).into(),
        ),
        (
            "latency_p50_seconds",
            Json::secs(percentile(&latencies, 50)),
        ),
        (
            "latency_p99_seconds",
            Json::secs(percentile(&latencies, 99)),
        ),
        ("aggregation_runs", aggregation_runs.into()),
        ("http_requests", http_requests.into()),
        ("throttled", throttled.into()),
        (
            "rejected_connections",
            (rejected_connections as usize).into(),
        ),
        ("model_states", model_states.into()),
        ("bit_identical", bit_identical.into()),
    ]))
}
