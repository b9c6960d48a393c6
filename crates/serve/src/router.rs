//! Request routing over the shared request layer.
//!
//! The HTTP surface does **no request parsing of its own**: every submission
//! body is deserialized by [`AnalysisRequest::from_json`] — the same code the
//! `dftmc` CLI and library callers use — and executed through
//! [`AnalysisService::submit_request`], so replies are bit-identical to the
//! equivalent library calls.  This module only maps transport concerns
//! (verbs, paths, status codes, the job registry) and renders reports back to
//! JSON.
//!
//! Like [`http`](crate::http), this module sits on the trust boundary — its
//! input is an attacker-controlled request body.  The request layer is held
//! to the decode bar on our behalf: typed [`RequestError`]s, no panics, with
//! explicit caps on every client-controlled dimension (measure count, curve
//! length, sweep size) *before* any expensive work is enqueued.
//!
//! # Endpoints
//!
//! **`POST /submit`** — body (see [`dft_core::request`] for the full schema):
//!
//! ```json
//! {
//!   "galileo": "toplevel \"Top\"; ...",
//!   "measures": [
//!     {"type": "unreliability", "time": 1.0},
//!     {"type": "curve", "times": [0.5, 1.0]},
//!     {"type": "unavailability"},
//!     {"type": "mttf"}
//!   ],
//!   "method": "compositional",
//!   "epsilon": 1e-9
//! }
//! ```
//!
//! `method` and `epsilon` are optional; the tree may arrive as `"galileo"`
//! text or as a `"tree"` object in the dftlib JSON interchange
//! ([`dft::json_format`]), and `"queries"` may carry query lines
//! (`"unreliability 1.0"`, …) instead of or alongside `"measures"`.  Replies
//! `202` with `{"id": n, "status": "pending"}`, or `429` when the registry
//! is full.
//!
//! **`POST /sweep`** — same body plus a sweep: a `"sweep"` object (either
//! `{"scales": [0.5, 1.0, 2.0]}`, `{"element": "P", "kind": "failure",
//! "values": [0.5, 1.0]}`, or `{"query": "sweep lambda(P) in 0.5..2.0 step
//! 0.1"}`) or a sweep query line.  The symbolic spec is resolved *inside*
//! the service ([`SweepSpec`](dft_core::SweepSpec)), so the HTTP layer never
//! builds a model.  Each endpoint insists on its own shape: a sweep posted
//! to `/submit` or a sweep-less body posted to `/sweep` is a `400`.
//!
//! **`GET /status/{id}`** — `{"id", "status": "pending" | "done" | "failed"}`.
//!
//! **`GET /result/{id}`** — `202` while pending, `404` for unknown ids,
//! `200` with the full report once done (see [`Router`] for the layout;
//! fingerprints render as 16-digit hex strings, durations as seconds).
//!
//! **`GET /metrics`** — see [`crate::metrics`].
//!
//! **`POST /shutdown`** — begins a graceful drain: the reply reports how many
//! jobs are still in flight, the server stops accepting connections, every
//! accepted job completes (and, with a store, persists) before exit.

use crate::http::Request;
use crate::metrics::{self, bump, json_count, HttpCounters};
use crate::registry::{Lookup, Registry};
use dft::json::{self, Json};
use dft_core::service::{AnalysisService, RequestOutcome};
use dft_core::{AnalysisRequest, JobReport, MeasureResult, RequestError, SweepReport};
use std::time::Instant;

// The submission caps live with the shared request layer; re-exported here
// because they are part of the HTTP API's documented contract.
pub use dft_core::request::{MAX_CURVE_POINTS, MAX_MEASURES, MAX_SWEEP_VALUES};

/// A routed response, ready for [`http::response`](crate::http::response).
#[derive(Debug)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// JSON body.
    pub body: String,
    /// `true` for `POST /shutdown`: the server should drain and exit after
    /// writing this reply.
    pub shutdown: bool,
}

fn reply(status: u16, body: &Json) -> Reply {
    Reply {
        status,
        body: body.render(),
        shutdown: false,
    }
}

fn error_reply(status: u16, message: &str) -> Reply {
    reply(status, &Json::obj([("error", message.into())]))
}

/// A client-visible failure: the status code and the `error` message.
struct ApiError {
    status: u16,
    message: String,
}

fn bad(message: impl Into<String>) -> ApiError {
    ApiError {
        status: 400,
        message: message.into(),
    }
}

type ApiResult<T> = std::result::Result<T, ApiError>;

/// The application layer: owns the [`AnalysisService`], the job
/// [`Registry`] and the HTTP counters, and maps parsed requests to replies.
/// Everything here is `&self` — the server shares one router across its
/// connection threads.
#[derive(Debug)]
pub struct Router {
    service: AnalysisService,
    registry: Registry,
    http: HttpCounters,
    started: Instant,
}

impl Router {
    /// A router over `service` admitting at most `max_jobs` in-flight jobs
    /// and retaining at most `max_done` finished reports.
    pub fn new(service: AnalysisService, max_jobs: usize, max_done: usize) -> Router {
        Router {
            service,
            registry: Registry::new(max_jobs, max_done),
            http: HttpCounters::default(),
            started: Instant::now(),
        }
    }

    /// The HTTP-layer counters (the accept loop bumps the connection-level
    /// ones; the router bumps the request-level ones).
    pub fn http_counters(&self) -> &HttpCounters {
        &self.http
    }

    /// The job registry (exposed for the drain on shutdown).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Routes one parsed request to a reply, updating the request counters.
    pub fn handle(&self, request: &Request) -> Reply {
        bump(&self.http.requests);
        let reply = self.route(request);
        if reply.status == 429 {
            bump(&self.http.throttled);
        } else if reply.status >= 400 {
            bump(&self.http.bad_requests);
        }
        reply
    }

    fn route(&self, request: &Request) -> Reply {
        let target = request.target.as_str();
        match (request.method.as_str(), target) {
            ("POST", "/submit") => self.submit(request, false),
            ("POST", "/sweep") => self.submit(request, true),
            ("GET", "/metrics") => reply(200, &self.metrics_document()),
            ("GET", "/healthz") => reply(200, &Json::obj([("ok", true.into())])),
            ("POST", "/shutdown") => Reply {
                status: 200,
                body: Json::obj([
                    ("draining", Json::from(self.registry.pending())),
                    ("status", "draining".into()),
                ])
                .render(),
                shutdown: true,
            },
            ("GET", _) if target.starts_with("/status/") => {
                self.lookup(target.trim_start_matches("/status/"), false)
            }
            ("GET", _) if target.starts_with("/result/") => {
                self.lookup(target.trim_start_matches("/result/"), true)
            }
            // Known paths with the wrong verb are 405, unknown paths 404.
            (_, "/submit" | "/sweep" | "/shutdown" | "/metrics" | "/healthz") => {
                error_reply(405, "method not allowed on this endpoint")
            }
            (_, _) if target.starts_with("/status/") || target.starts_with("/result/") => {
                error_reply(405, "method not allowed on this endpoint")
            }
            _ => error_reply(404, "no such endpoint"),
        }
    }

    fn submit(&self, request: &Request, sweep: bool) -> Reply {
        match self.try_submit(request, sweep) {
            Ok(id) => reply(
                202,
                &Json::obj([("id", json_count(id)), ("status", "pending".into())]),
            ),
            Err(e) => error_reply(e.status, &e.message),
        }
    }

    fn try_submit(&self, request: &Request, sweep: bool) -> ApiResult<u64> {
        let text = std::str::from_utf8(&request.body)
            .map_err(|_| bad("request body is not valid UTF-8"))?;
        let doc = json::parse(text).map_err(|e| bad(format!("invalid JSON body: {e}")))?;
        let parsed = AnalysisRequest::from_json(&doc).map_err(request_error)?;
        // Each endpoint insists on its own shape, so a client that meant the
        // other one gets a typed 400 instead of a silently ignored sweep.
        if sweep && parsed.sweep.is_none() {
            return Err(bad(
                "missing object field 'sweep' ({\"scales\": …} or {\"element\": …})",
            ));
        }
        if !sweep && parsed.sweep.is_some() {
            return Err(bad("this request carries a sweep; POST it to /sweep"));
        }
        self.registry
            .add(self.service.submit_request(parsed))
            .ok_or_else(|| ApiError {
                status: 429,
                message: "too many in-flight jobs; retry after fetching results".to_owned(),
            })
    }

    fn lookup(&self, raw_id: &str, want_result: bool) -> Reply {
        let Ok(id) = raw_id.parse::<u64>() else {
            return error_reply(400, "job ids are decimal integers");
        };
        let status_doc =
            |status: &str| Json::obj([("id", json_count(id)), ("status", status.into())]);
        match self.registry.lookup(id) {
            Lookup::Unknown => error_reply(404, "unknown job id (never issued, or evicted)"),
            Lookup::Failed if want_result => {
                error_reply(500, "the job failed: its worker panicked before reporting")
            }
            Lookup::Failed => reply(200, &status_doc("failed")),
            Lookup::Pending if want_result => reply(202, &status_doc("pending")),
            Lookup::Pending => reply(200, &status_doc("pending")),
            Lookup::Done(outcome) if want_result => reply(200, &render(id, &outcome)),
            Lookup::Done(_) => reply(200, &status_doc("done")),
        }
    }

    fn metrics_document(&self) -> Json {
        metrics::render(
            self.started.elapsed(),
            &self.http,
            self.registry.counters(),
            self.registry.pending(),
            self.service.queue_stats(),
            self.service.cache_stats(),
            self.service.hybrid_stats(),
            self.service.store_stats(),
        )
    }
}

/// Every [`RequestError`] is a client error: the request was malformed or
/// oversized, so it maps to a 400 with the typed message as the body.
fn request_error(e: RequestError) -> ApiError {
    bad(e.to_string())
}

fn render_results(
    results: &std::result::Result<Vec<MeasureResult>, dft_core::Error>,
) -> (String, Json) {
    match results {
        Ok(results) => (
            "results".to_owned(),
            Json::Arr(results.iter().map(render_result).collect()),
        ),
        Err(e) => ("error".to_owned(), Json::Str(e.to_string())),
    }
}

fn render_result(result: &MeasureResult) -> Json {
    Json::obj([(
        "points",
        Json::Arr(result.points().iter().map(render_point).collect()),
    )])
}

fn render_point(point: &dft_core::MeasurePoint) -> Json {
    let (lower, upper) = point.bounds();
    Json::obj([
        ("time", point.time().map_or(Json::Null, Json::Num)),
        ("value", point.value().into()),
        ("lower", lower.into()),
        ("upper", upper.into()),
        ("nondeterministic", point.is_nondeterministic().into()),
    ])
}

/// The report fields of a finished request, in the order `GET /result/{id}`
/// renders them.  Public because the `dftmc` CLI builds its result document
/// from the same fields — one renderer, so both surfaces stay bit-identical.
pub fn outcome_fields(outcome: &RequestOutcome) -> Vec<(String, Json)> {
    match outcome {
        RequestOutcome::Job(report) => job_fields(report),
        RequestOutcome::Sweep(report) => sweep_fields(report),
    }
}

fn job_fields(report: &JobReport) -> Vec<(String, Json)> {
    let (results_key, results) = render_results(&report.results);
    vec![
        ("fingerprint".to_owned(), report.fingerprint.into()),
        ("cache_hit".to_owned(), report.cache_hit.into()),
        (
            "aggregation_runs".to_owned(),
            report.aggregation_runs.into(),
        ),
        ("build_seconds".to_owned(), Json::secs(report.build)),
        ("query_seconds".to_owned(), Json::secs(report.query)),
        (results_key, results),
    ]
}

fn sweep_fields(report: &SweepReport) -> Vec<(String, Json)> {
    let stats = &report.stats;
    let points = report
        .points
        .iter()
        .map(|point| {
            let (results_key, results) = render_results(&point.results);
            Json::Obj(vec![
                (
                    "valuation_fingerprint".to_owned(),
                    point.valuation_fingerprint.into(),
                ),
                ("cache_hit".to_owned(), point.cache_hit.into()),
                (
                    "instantiate_seconds".to_owned(),
                    Json::secs(point.instantiate),
                ),
                ("query_seconds".to_owned(), Json::secs(point.query)),
                (results_key, results),
            ])
        })
        .collect();
    vec![
        (
            "stats".to_owned(),
            Json::obj([
                ("valuations", stats.valuations.into()),
                ("cache_hits", stats.cache_hits.into()),
                ("cache_misses", stats.cache_misses.into()),
                ("parametric_cache_hit", stats.parametric_cache_hit.into()),
                ("aggregation_runs", stats.aggregation_runs.into()),
                ("build_seconds", Json::secs(stats.build_time)),
                ("instantiate_seconds", Json::secs(stats.instantiate_time)),
                ("query_seconds", Json::secs(stats.query_time)),
                ("wall_seconds", Json::secs(stats.wall_time)),
            ]),
        ),
        ("points".to_owned(), Json::Arr(points)),
    ]
}

/// The `GET /result/{id}` document of a finished request.
fn render(id: u64, outcome: &RequestOutcome) -> Json {
    let mut entries = vec![
        ("id".to_owned(), json_count(id)),
        ("status".to_owned(), "done".into()),
    ];
    entries.extend(outcome_fields(outcome));
    Json::Obj(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_core::service::ServiceOptions;

    fn str_field<'a>(doc: &'a Json, key: &str) -> Option<&'a str> {
        match doc.get(key) {
            Some(Json::Str(s)) => Some(s),
            _ => None,
        }
    }

    fn num_field(doc: &Json, key: &str) -> Option<f64> {
        match doc.get(key) {
            Some(Json::Num(n)) => Some(*n),
            _ => None,
        }
    }

    fn router() -> Router {
        let service = AnalysisService::new(ServiceOptions {
            workers: 1,
            ..ServiceOptions::default()
        });
        Router::new(service, 8, 8)
    }

    fn post(target: &str, body: &str) -> Request {
        Request {
            method: "POST".to_owned(),
            target: target.to_owned(),
            body: body.as_bytes().to_vec(),
        }
    }

    fn get(target: &str) -> Request {
        Request {
            method: "GET".to_owned(),
            target: target.to_owned(),
            body: Vec::new(),
        }
    }

    const TREE: &str = "toplevel \"Top\";\n\"Top\" and \"A\" \"B\";\n\"A\" lambda=1.0 dorm=0.0;\n\"B\" lambda=2.0 dorm=0.0;\n";

    fn submit_body() -> String {
        let doc = Json::obj([
            ("galileo", TREE.into()),
            (
                "measures",
                Json::Arr(vec![Json::obj([
                    ("type", "unreliability".into()),
                    ("time", 1.0.into()),
                ])]),
            ),
        ]);
        doc.render()
    }

    fn wait_done(router: &Router, id: u64) -> Json {
        loop {
            let reply = router.handle(&get(&format!("/result/{id}")));
            match reply.status {
                202 => std::thread::yield_now(),
                200 => return json::parse(&reply.body).unwrap(),
                other => panic!("unexpected status {other}: {}", reply.body),
            }
        }
    }

    #[test]
    fn submit_status_result_roundtrip() {
        let router = router();
        let reply = router.handle(&post("/submit", &submit_body()));
        assert_eq!(reply.status, 202, "{}", reply.body);
        let doc = json::parse(&reply.body).unwrap();
        assert_eq!(num_field(&doc, "id"), Some(1.0));

        let done = wait_done(&router, 1);
        assert_eq!(str_field(&done, "status"), Some("done"));
        let status = router.handle(&get("/status/1"));
        assert_eq!(status.status, 200);
        // The result survives repeated fetches.
        assert_eq!(router.handle(&get("/result/1")).status, 200);
    }

    #[test]
    fn unknown_routes_and_verbs_are_typed() {
        let router = router();
        assert_eq!(router.handle(&get("/nope")).status, 404);
        assert_eq!(router.handle(&get("/submit")).status, 405);
        assert_eq!(router.handle(&post("/metrics", "")).status, 405);
        assert_eq!(router.handle(&get("/status/xyz")).status, 400);
        assert_eq!(router.handle(&get("/status/99")).status, 404);
        assert_eq!(router.handle(&get("/result/99")).status, 404);
    }

    #[test]
    fn bad_bodies_are_400_with_an_error_message() {
        let router = router();
        for body in [
            "",
            "{",
            "{}",
            "{\"galileo\": 3}",
            "{\"galileo\": \"nonsense\", \"measures\": []}",
            &Json::obj([("galileo", TREE.into())]).render(),
            &Json::obj([
                ("galileo", TREE.into()),
                (
                    "measures",
                    Json::Arr(vec![Json::obj([("type", "nope".into())])]),
                ),
            ])
            .render(),
            &Json::obj([
                ("galileo", TREE.into()),
                ("measures", Json::Arr(Vec::new())),
                ("epsilon", (-1.0).into()),
            ])
            .render(),
        ] {
            let reply = router.handle(&post("/submit", body));
            assert_eq!(reply.status, 400, "{body} -> {}", reply.body);
            assert!(reply.body.contains("error"), "{}", reply.body);
        }
    }

    #[test]
    fn full_registry_throttles_with_429() {
        let service = AnalysisService::new(ServiceOptions {
            workers: 1,
            ..ServiceOptions::default()
        });
        let router = Router::new(service, 0, 8);
        let reply = router.handle(&post("/submit", &submit_body()));
        assert_eq!(reply.status, 429, "{}", reply.body);
        assert_eq!(
            router
                .http_counters()
                .throttled
                .load(std::sync::atomic::Ordering::Relaxed),
            1
        );
    }

    #[test]
    fn sweep_specs_are_parsed_and_resolved() {
        let router = router();
        let doc = Json::obj([
            ("galileo", TREE.into()),
            (
                "measures",
                Json::Arr(vec![Json::obj([
                    ("type", "unreliability".into()),
                    ("time", 1.0.into()),
                ])]),
            ),
            (
                "sweep",
                Json::obj([(
                    "scales",
                    Json::Arr(vec![0.5.into(), 1.0.into(), 2.0.into()]),
                )]),
            ),
        ]);
        let reply = router.handle(&post("/sweep", &doc.render()));
        assert_eq!(reply.status, 202, "{}", reply.body);
        let done = wait_done(&router, 1);
        let Some(Json::Arr(points)) = done.get("points") else {
            panic!("no points in {}", reply.body);
        };
        assert_eq!(points.len(), 3);

        // A sweep without a spec is a 400, not a panic.
        let doc = Json::obj([
            ("galileo", TREE.into()),
            ("measures", Json::Arr(Vec::new())),
        ]);
        assert_eq!(router.handle(&post("/sweep", &doc.render())).status, 400);
    }

    #[test]
    fn endpoints_insist_on_their_own_shape() {
        let router = router();
        // A sweep posted to /submit is rejected, not silently ignored.
        let doc = Json::obj([
            ("galileo", TREE.into()),
            ("measures", Json::Arr(Vec::new())),
            (
                "sweep",
                Json::obj([("scales", Json::Arr(vec![1.0.into()]))]),
            ),
        ]);
        let reply = router.handle(&post("/submit", &doc.render()));
        assert_eq!(reply.status, 400, "{}", reply.body);
        assert!(reply.body.contains("/sweep"), "{}", reply.body);
    }

    #[test]
    fn query_lines_and_sweep_queries_are_accepted() {
        let router = router();
        // The CLI grammar works over HTTP too: measures and the sweep both
        // arrive as query lines.
        let doc = Json::obj([
            ("galileo", TREE.into()),
            (
                "queries",
                Json::Arr(vec![
                    "unreliability 1.0".into(),
                    "sweep scale in 0.5..2.0 step 0.5".into(),
                ]),
            ),
        ]);
        let reply = router.handle(&post("/sweep", &doc.render()));
        assert_eq!(reply.status, 202, "{}", reply.body);
        let done = wait_done(&router, 1);
        let Some(Json::Arr(points)) = done.get("points") else {
            panic!("no points in {}", reply.body);
        };
        assert_eq!(points.len(), 4);
    }

    /// The value of the first point of the first result of a sweep result
    /// document.
    fn first_sweep_value(done: &Json) -> f64 {
        let Some(Json::Arr(points)) = done.get("points") else {
            panic!("no points in {}", done.render());
        };
        let Some(Json::Arr(results)) = points[0].get("results") else {
            panic!("no results in {}", done.render());
        };
        let Some(Json::Arr(values)) = results[0].get("points") else {
            panic!("no result points in {}", done.render());
        };
        num_field(&values[0], "value").expect("a numeric value")
    }

    #[test]
    fn sweeps_of_rate_variants_resolve_against_their_own_rates() {
        use dft_core::casestudies::{cas, cas_scaled};
        use dft_core::{AnalysisOptions, Measure, ParametricAnalyzer};

        // Two rate variants of one structure share the cached parametric
        // model, yet each sweep's base must be its own tree's rates.
        let router = router();
        let body = |dft: &dft::Dft| {
            Json::obj([
                ("galileo", Json::Str(dft::galileo::to_galileo(dft))),
                (
                    "queries",
                    Json::Arr(vec![
                        "unreliability 1".into(),
                        "sweep scale in 1..1 step 1".into(),
                    ]),
                ),
            ])
            .render()
        };
        let doubled = cas_scaled(2.0);
        for (id, dft) in [(1, cas()), (2, doubled.clone())] {
            let reply = router.handle(&post("/sweep", &body(&dft)));
            assert_eq!(reply.status, 202, "{}", reply.body);
            let value = first_sweep_value(&wait_done(&router, id));
            let parametric = ParametricAnalyzer::new(&dft, AnalysisOptions::default()).unwrap();
            let expected = parametric
                .instantiate(&parametric.base_valuation())
                .unwrap()
                .query(Measure::Unreliability(1.0))
                .unwrap()
                .value();
            assert_eq!(value.to_bits(), expected.to_bits(), "request {id}");
        }
    }

    #[test]
    fn metrics_and_health_answer() {
        let router = router();
        let health = router.handle(&get("/healthz"));
        assert_eq!(health.status, 200);
        let metrics = router.handle(&get("/metrics"));
        assert_eq!(metrics.status, 200);
        let doc = json::parse(&metrics.body).unwrap();
        assert!(doc.get("queue").is_some());
        assert!(doc.get("cache").is_some());

        let shutdown = router.handle(&post("/shutdown", ""));
        assert_eq!(shutdown.status, 200);
        assert!(shutdown.shutdown);
    }

    #[test]
    fn hybrid_jobs_surface_reduction_counters_in_metrics() {
        // A static-heavy tree: one spare pair carries the dynamism, a 3-wide
        // AND rides above it as a static module the hybrid backend collapses.
        let tree = "toplevel \"Top\";\n\
                    \"Top\" or \"Dyn\" \"Static\";\n\
                    \"Dyn\" wsp \"P\" \"S\";\n\
                    \"Static\" and \"X\" \"Y\" \"Z\";\n\
                    \"P\" lambda=1.0 dorm=0.0;\n\
                    \"S\" lambda=1.0 dorm=0.0;\n\
                    \"X\" lambda=0.5 dorm=0.0;\n\
                    \"Y\" lambda=0.5 dorm=0.0;\n\
                    \"Z\" lambda=0.5 dorm=0.0;\n";
        let router = router();
        let doc = Json::obj([
            ("galileo", tree.into()),
            ("method", "hybrid".into()),
            (
                "measures",
                Json::Arr(vec![Json::obj([
                    ("type", "unreliability".into()),
                    ("time", 1.0.into()),
                ])]),
            ),
        ]);
        let reply = router.handle(&post("/submit", &doc.render()));
        assert_eq!(reply.status, 202, "{}", reply.body);
        let done = wait_done(&router, 1);
        assert_eq!(str_field(&done, "status"), Some("done"));

        let metrics = router.handle(&get("/metrics"));
        assert_eq!(metrics.status, 200);
        let doc = json::parse(&metrics.body).unwrap();
        let hybrid = doc.get("hybrid").expect("metrics carry a hybrid section");
        assert_eq!(num_field(hybrid, "builds"), Some(1.0));
        assert_eq!(num_field(hybrid, "fallbacks"), Some(0.0));
        // One core (the spare pair) plus a collapsed static crown.
        assert_eq!(num_field(hybrid, "cores"), Some(1.0));
        assert!(num_field(hybrid, "crown_elements").unwrap() > 0.0);
        assert!(num_field(hybrid, "core_elements").unwrap() > 0.0);
    }
}
