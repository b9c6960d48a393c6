//! The benchmark's own tests, at tiny sizes.

use dft::json::Json;
use dft_core::{casestudies, AnalysisOptions, Analyzer, Measure};
use perfbench::report::{Report, END_TO_END, PER_LAYER};
use perfbench::trace::Recorder;
use perfbench::{query_sweep, replay, serve_mixed, Args, WORKLOADS};
use std::sync::Mutex;
use std::time::Instant;

/// Workloads read process-wide kernel counters and share `.bench_out/`, so
/// tests that run them take turns.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn field<'a>(doc: &'a Json, key: &str) -> &'a Json {
    match doc {
        Json::Obj(entries) => entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("no field {key} in {}", doc.render())),
        _ => panic!("not an object: {}", doc.render()),
    }
}

fn text(doc: &Json) -> &str {
    match doc {
        Json::Str(s) => s,
        other => panic!("not a string: {}", other.render()),
    }
}

fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = dft::json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
        .expect("BENCHMARK.json is JSON");
    match field(&doc, section) {
        Json::Arr(items) => items
            .iter()
            .map(|m| {
                (
                    text(field(m, "name")).to_owned(),
                    text(field(m, "unit")).to_owned(),
                )
            })
            .collect(),
        other => panic!("{section} is not an array: {}", other.render()),
    }
}

fn args(workload: &str, trace: bool) -> Args {
    Args {
        workload: workload.to_owned(),
        seed: 7,
        seconds: 1,
        trace,
    }
}

#[test]
fn the_name_tables_match_benchmark_json() {
    let owned = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect()
    };
    assert_eq!(declared("end_to_end"), owned(&END_TO_END));
    assert_eq!(declared("per_layer"), owned(&PER_LAYER));
}

#[test]
fn every_declared_metric_is_printed_with_its_unit() {
    let _turn = serial();
    for workload in WORKLOADS {
        for trace in [false, true] {
            let report = perfbench::run(&args(workload, trace));
            assert!(report.correct(), "{workload}: {:?}", report.problems);
            let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
            let line = dft::json::parse(&report.result_line(table)).expect("result is JSON");
            let metrics = field(&line, "metrics");
            for (name, unit) in table {
                let metric = field(metrics, name);
                assert_eq!(text(field(metric, "unit")), *unit, "{workload} {name}");
                assert!(
                    matches!(field(metric, "value"), Json::Num(v) if v.is_finite()),
                    "{workload} {name} has no value"
                );
            }
            assert!(report.missing(table).is_empty(), "{workload}");
        }
    }
}

#[test]
fn a_malformed_http_op_counts_as_failed_instead_of_crashing() {
    let _turn = serial();
    let store = serve_mixed::TempDir::new("test-malformed").expect("temp dir");
    let server = dftmc_serve::server::Server::start(serve_mixed::server_options(
        serve_mixed::service_options(store.path().to_owned()),
    ))
    .expect("server starts");
    let mut report = Report::default();
    let body =
        r#"{"galileo": "toplevel \"X\"; \"X\" and \"Nowhere\";", "queries": ["unreliability 1"]}"#;
    let outcome = serve_mixed::http_op(server.local_addr(), "/submit", body);
    assert!(outcome.is_err());
    report.op(outcome.map(|_| ()));
    let good = serve_mixed::hot_set(1).expect("hot set");
    let request = &good.requests[0];
    report.op(serve_mixed::http_op(server.local_addr(), request.path, &request.body).map(|_| ()));
    server.shutdown();
    server.join();
    assert_eq!((report.attempted, report.failed), (2, 1));
    assert_eq!(report.failed_ratio(), 0.5);
    assert!(!report.correct());
}

#[test]
fn a_malformed_query_counts_as_failed_instead_of_crashing() {
    let _turn = serial();
    let sessions = query_sweep::build_sessions().expect("sessions build");
    let mut report = Report::default();
    let bad = query_sweep::Op::Query {
        session: 0,
        measure: Measure::Unreliability(f64::NAN),
    };
    report.op(query_sweep::execute(&bad, &sessions).map(|_| ()));
    for op in query_sweep::draw_ops(3, 4, &sessions).iter().take(4) {
        report.op(query_sweep::execute(op, &sessions).map(|_| ()));
    }
    assert_eq!((report.attempted, report.failed), (5, 1));
}

#[test]
fn the_replay_reproduces_cas_and_cps_model_stats() {
    for dft in [casestudies::cas(), casestudies::cps()] {
        let session = Analyzer::new(&dft, AnalysisOptions::default()).expect("builds");
        let mut rec = Recorder::new(Instant::now());
        let counts = replay::replay(&dft, &session, &mut rec).expect("replay agrees");
        let stats = session.aggregation_stats().expect("compositional");
        assert_eq!(counts.steps, stats.steps.len() as u64);
        assert_eq!(counts.peak_states, stats.peak.states as u64);
        assert!(rec.count("minimize.step") == stats.steps.len());
    }
}

#[test]
fn traced_exact_counts_repeat_for_a_seed() {
    let _turn = serial();
    let counts = |report: &Report| -> Vec<f64> {
        [
            "aggregate.peak_states",
            "aggregate.final_states",
            "aggregate.steps",
            "minimize.step.states_out",
            "kernel.relax_passes",
        ]
        .iter()
        .map(|n| report.get(n).expect("set"))
        .collect()
    };
    let first = perfbench::run(&args("build_mix", true));
    let second = perfbench::run(&args("build_mix", true));
    assert!(first.correct() && second.correct());
    assert_eq!(counts(&first), counts(&second));
}

#[test]
fn arguments_are_checked() {
    let argv = |s: &str| s.split(' ').map(str::to_owned).collect::<Vec<_>>();
    assert_eq!(
        Args::parse(&argv(
            "--workload build_mix --seed 3 --seconds 10 --trace 1"
        )),
        Ok(Args {
            workload: "build_mix".to_owned(),
            seed: 3,
            seconds: 10,
            trace: true,
        })
    );
    assert!(Args::parse(&argv("--workload nope --seed 3 --seconds 10 --trace 1")).is_err());
    assert!(Args::parse(&argv("--workload build_mix --seed 3 --seconds 0 --trace 1")).is_err());
    assert!(Args::parse(&argv(
        "--workload build_mix --seed 3 --seconds 10 --trace 2"
    ))
    .is_err());
    assert!(Args::parse(&argv("--workload build_mix --seconds 10 --trace 0")).is_err());
}
