//! CI smoke for fleet mode: two `dftmc-serve` *processes*, one shared store.
//!
//! 1. Start server A on a scratch store directory, submit the CAS case study
//!    over HTTP and check the unreliability is bit-identical to an in-process
//!    [`Analyzer`] on the same tree.
//! 2. Submit a second job and immediately `POST /shutdown`: the graceful
//!    drain must complete that in-flight job (and persist its model) before
//!    the process exits 0.
//! 3. Start server B on the *same* store directory and submit the same tree:
//!    the report must say `aggregation_runs == 0` (the model came off disk)
//!    and `/metrics` must show `store.hits > 0`.
//! 4. Submit a static-heavy tree with `"method": "hybrid"` and check the
//!    hybrid backend's reduction counters surface in `/metrics`.
//!
//! The harness finds the `dftmc-serve` binary next to its own executable, so
//! run it via `cargo run --release -p dftmc-serve --bin serve_smoke` after a
//! build of the package.

#![forbid(unsafe_code)]

use dft::json::Json;
use dft_core::analysis::AnalysisOptions;
use dft_core::engine::Analyzer;
use dftmc_serve::client;
use std::io::BufRead;
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn field(doc: &Json, key: &str) -> Option<Json> {
    doc.get(key).cloned()
}

fn num(doc: &Json, key: &str) -> f64 {
    match field(doc, key) {
        Some(Json::Num(n)) => n,
        other => panic!("field {key} is not a number: {other:?}"),
    }
}

/// `results[0].points[0].value` of a `/result/{id}` document.
fn result_value(doc: &Json) -> f64 {
    let first = |value: Json| match value {
        Json::Arr(items) => items.into_iter().next().expect("non-empty array"),
        other => panic!("expected an array, got {other:?}"),
    };
    let measure = first(field(doc, "results").expect("results present"));
    let point = first(field(&measure, "points").expect("points present"));
    num(&point, "value")
}

/// One running `dftmc-serve` child with its parsed listen address.
struct ServerProcess {
    child: Child,
    addr: SocketAddr,
}

fn start_server(binary: &Path, store: &Path) -> ServerProcess {
    let mut child = Command::new(binary)
        .args([
            "--addr",
            "127.0.0.1:0",
            "--store",
            &store.display().to_string(),
            "--workers",
            "2",
        ])
        .stdout(Stdio::piped())
        .spawn()
        .expect("dftmc-serve spawns");
    let stdout = child.stdout.take().expect("stdout is piped");
    let mut lines = std::io::BufReader::new(stdout).lines();
    let banner = lines
        .next()
        .expect("the server prints its listen line")
        .expect("readable stdout");
    let addr = banner
        .strip_prefix("dftmc-serve listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {banner}"))
        .parse::<SocketAddr>()
        .expect("banner carries a socket address");
    // Keep draining stdout in the background so the child never blocks on a
    // full pipe.
    std::thread::spawn(move || for _ in lines {});
    ServerProcess { child, addr }
}

fn submit(addr: SocketAddr, body: &str) -> u64 {
    let (status, doc) = client::request(addr, "POST", "/submit", body).expect("submit I/O");
    assert_eq!(status, 202, "submit refused: {}", doc.render());
    num(&doc, "id") as u64
}

fn wait_result(addr: SocketAddr, id: u64) -> Json {
    let deadline = Instant::now() + Duration::from_secs(60);
    let path = format!("/result/{id}");
    loop {
        let (status, doc) = client::request(addr, "GET", &path, "").expect("result I/O");
        match status {
            200 => return doc,
            202 => {
                assert!(Instant::now() < deadline, "job {id} never finished");
                std::thread::sleep(Duration::from_millis(2));
            }
            other => panic!("result fetch failed ({other}): {}", doc.render()),
        }
    }
}

fn main() {
    let binary = std::env::current_exe()
        .expect("own path")
        .with_file_name("dftmc-serve");
    assert!(
        binary.exists(),
        "{} not found; build the dftmc-serve package first",
        binary.display()
    );
    let store = std::env::temp_dir().join(format!("dftmc-serve-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);

    let tree = dft_core::casestudies::cas();
    let body = Json::obj([
        ("galileo", Json::Str(dft::galileo::to_galileo(&tree))),
        (
            "measures",
            Json::Arr(vec![Json::obj([
                ("type", "unreliability".into()),
                ("time", 1.0.into()),
            ])]),
        ),
    ])
    .render();
    let reference = Analyzer::new(&tree, AnalysisOptions::default())
        .expect("in-process reference builds")
        .unreliability(1.0)
        .expect("in-process reference queries")
        .value();

    // --- Process A: cold store -------------------------------------------
    println!("[1/4] cold server: submit CAS over HTTP, check bit-identity");
    let a = start_server(&binary, &store);
    let id = submit(a.addr, &body);
    let report = wait_result(a.addr, id);
    let value = result_value(&report);
    assert_eq!(
        value.to_bits(),
        reference.to_bits(),
        "HTTP value {value} != in-process {reference}"
    );
    assert!(
        num(&report, "aggregation_runs") > 0.0,
        "the first process must aggregate: {}",
        report.render()
    );

    println!("[2/4] shutdown with an in-flight job: the drain must finish it");
    let in_flight = submit(a.addr, &body);
    assert!(in_flight > id);
    let (status, doc) = client::request(a.addr, "POST", "/shutdown", "").expect("shutdown I/O");
    assert_eq!(status, 200, "{}", doc.render());
    let mut child = a.child;
    let exit = child.wait().expect("server A exits");
    assert!(exit.success(), "server A exited with {exit:?}");

    // --- Process B: same store directory ---------------------------------
    println!("[3/4] warm server on the same store: zero aggregations");
    let b = start_server(&binary, &store);
    let id = submit(b.addr, &body);
    let report = wait_result(b.addr, id);
    assert_eq!(
        result_value(&report).to_bits(),
        reference.to_bits(),
        "warm value diverged"
    );
    assert_eq!(
        num(&report, "aggregation_runs"),
        0.0,
        "a warm store must serve the model without aggregating: {}",
        report.render()
    );

    let (status, metrics) = client::request(b.addr, "GET", "/metrics", "").expect("metrics I/O");
    assert_eq!(status, 200);
    let store_stats = field(&metrics, "store").expect("store section present");
    assert!(
        !matches!(store_stats, Json::Null),
        "a store-backed server must render store stats"
    );
    assert!(
        num(&store_stats, "hits") > 0.0,
        "server B never hit the shared store: {}",
        metrics.render()
    );

    // --- Hybrid backend over HTTP -----------------------------------------
    println!("[4/4] hybrid job on a static-heavy tree: reduction counters in /metrics");
    let static_heavy = "toplevel \"Top\";\n\
                        \"Top\" or \"Dyn\" \"Static\";\n\
                        \"Dyn\" wsp \"P\" \"S\";\n\
                        \"Static\" and \"X\" \"Y\" \"Z\";\n\
                        \"P\" lambda=1.0 dorm=0.0;\n\
                        \"S\" lambda=1.0 dorm=0.0;\n\
                        \"X\" lambda=0.5 dorm=0.0;\n\
                        \"Y\" lambda=0.5 dorm=0.0;\n\
                        \"Z\" lambda=0.5 dorm=0.0;\n";
    let hybrid_body = Json::obj([
        ("galileo", static_heavy.into()),
        ("method", "hybrid".into()),
        (
            "measures",
            Json::Arr(vec![Json::obj([
                ("type", "unreliability".into()),
                ("time", 1.0.into()),
            ])]),
        ),
    ])
    .render();
    let id = submit(b.addr, &hybrid_body);
    let _ = wait_result(b.addr, id);
    let (status, metrics) = client::request(b.addr, "GET", "/metrics", "").expect("metrics I/O");
    assert_eq!(status, 200);
    let hybrid = field(&metrics, "hybrid").expect("hybrid section present");
    assert_eq!(num(&hybrid, "builds"), 1.0, "{}", metrics.render());
    assert_eq!(num(&hybrid, "fallbacks"), 0.0, "{}", metrics.render());
    assert!(
        num(&hybrid, "crown_elements") > 0.0 && num(&hybrid, "core_elements") > 0.0,
        "the static crown never collapsed: {}",
        metrics.render()
    );

    let (status, _) = client::request(b.addr, "POST", "/shutdown", "").expect("shutdown I/O");
    assert_eq!(status, 200);
    let mut child = b.child;
    let exit = child.wait().expect("server B exits");
    assert!(exit.success(), "server B exited with {exit:?}");

    let _ = std::fs::remove_dir_all(&store);
    println!("serve_smoke: PASS (fleet-warm across processes, graceful drain, bit-identical)");
}
