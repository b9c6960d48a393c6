//! `serve_mixed`: a closed loop of [`THREADS`] clients against an in-process
//! `dftmc_serve` server over loopback.  Each client submits, then polls
//! `/result` until the answer arrives; one op = one submit→result.  Callers
//! of this service wait for their reply before sending the next request, so
//! the loop is closed: a slower server receives proportionally less load.
//!
//! The request mix (per op, seeded):
//! * ~80% repeats from a hot set of 12 distinct structures (CAS and the
//!   mini-corpus) × 2 methods, 3× `cache_capacity`, so some in-memory misses
//!   become store reads;
//! * ~15% fresh rate-jittered trees: builds and store writes;
//! * ~5% `/sweep` calls on hot structures;
//! * half of all requests ask for `"method": "hybrid"`.
//!
//! This is the only workload where HTTP, the request layer, the queue, the
//! cache and the store dominate.

use crate::gen::{self, Gen, Shape, ShapeMix};
use crate::report::{self, ms, Report};
use crate::trace::Recorder;
use crate::THREADS;
use dft::bdd::Bdd;
use dft::json::Json;
use dft::modules::hybrid_plan;
use dft::{Dft, Element};
use dft_core::{
    AnalysisOptions, AnalysisRequest, AnalysisService, Analyzer, Measure, Method, ModelStore,
    ParametricAnalyzer, RequestOutcome, ServiceOptions, SweepSpec,
};
use dftmc_serve::client;
use dftmc_serve::http::{self, HttpLimits};
use dftmc_serve::router::Router;
use dftmc_serve::server::{Server, ServerOptions};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Sessions the service keeps in memory.
pub const CACHE_CAPACITY: usize = 8;

/// Queries of every plain request: 4 points.
const QUERIES: [&str; 2] = ["unreliability 1", "curve 0.5 1 2"];

/// Queries of every sweep request: 5 valuations × 1 point.
const SWEEP_QUERIES: [&str; 2] = ["unreliability 1", "sweep scale in 0.8..1.2 step 0.1"];

/// Fresh-op answers checked against an in-process `Analyzer`: one in this many.
const FRESH_CHECK_EVERY: usize = 4;

/// Traced runs send this many ops per client and second of `--seconds`, in
/// each of the two traced phases.
const TRACED_OPS_PER_CLIENT_SECOND: usize = 25;

/// Pause between two `/result` polls.
const POLL_PAUSE: Duration = Duration::from_micros(200);

/// Options of the service under test.
pub fn service_options(store: PathBuf) -> ServiceOptions {
    ServiceOptions {
        workers: THREADS,
        cache_capacity: CACHE_CAPACITY,
        store: Some(store),
    }
}

/// Options of the server under test.
pub fn server_options(service: ServiceOptions) -> ServerOptions {
    ServerOptions {
        http_threads: THREADS,
        service,
        ..ServerOptions::default()
    }
}

fn method_name(method: Method) -> &'static str {
    match method {
        Method::Hybrid => "hybrid",
        _ => "compositional",
    }
}

/// A request body and what it asks for.
#[derive(Debug, Clone)]
pub struct Request {
    /// `/submit` or `/sweep`.
    pub path: &'static str,
    /// The JSON body.
    pub body: String,
    /// The tree, as the server will parse it.
    pub dft: Dft,
    /// Analysis method.
    pub method: Method,
    /// Points a successful answer carries.
    pub points: usize,
}

impl Request {
    fn new(dft: &Dft, method: Method, json_tree: bool, sweep: bool) -> Request {
        let tree = if json_tree {
            ("tree", dft::json_format::encode(dft))
        } else {
            ("galileo", Json::Str(dft::galileo::to_galileo(dft)))
        };
        let queries = if sweep { SWEEP_QUERIES } else { QUERIES };
        let body = Json::obj([
            tree,
            ("method", method_name(method).into()),
            (
                "queries",
                Json::Arr(queries.iter().map(|q| (*q).into()).collect()),
            ),
        ])
        .render();
        // Analyse exactly what the server will see: the tree parsed back
        // from the body.
        let parsed = parse_request(&body).expect("generated bodies parse");
        let per_valuation: usize = parsed
            .measures
            .iter()
            .map(|m| match m {
                Measure::UnreliabilityCurve(times) => times.len(),
                _ => 1,
            })
            .sum();
        Request {
            path: if sweep { "/sweep" } else { "/submit" },
            body,
            points: per_valuation * parsed.sweep.as_ref().map_or(1, SweepSpec::len),
            dft: parsed.dft,
            method,
        }
    }
}

fn parse_request(body: &str) -> Result<AnalysisRequest, String> {
    let doc = dft::json::parse(body)?;
    AnalysisRequest::from_json(&doc).map_err(|e| e.to_string())
}

/// What an op sends.
#[derive(Debug, Clone)]
pub enum OpKind {
    /// Hot key `index` (tree `index / 2`, method by parity).
    Hot(usize),
    /// A fresh tree, checked against an in-process build when `check`.
    Fresh {
        /// The request.
        request: Box<Request>,
        /// Whether the answer is verified after the run.
        check: bool,
    },
    /// A sweep on hot tree `index / 2` with the method by parity.
    Sweep(usize),
}

/// The hot set: requests and their reference answers.
pub struct Hot {
    /// Plain requests, two per tree (compositional, hybrid).
    pub requests: Vec<Request>,
    /// Sweep requests, two per tree.
    pub sweeps: Vec<Request>,
    /// Reference values of each plain request.
    pub reference: Vec<Vec<f64>>,
}

/// Draws the hot set of `seed`: the paper's CAS and every mini-corpus tree,
/// rate-jittered.  The structures are fixed, so every seed's hot set costs
/// the same to query; they are also pairwise distinct, and sweeps share one
/// parametric model per structure.
pub fn hot_set(seed: u64) -> Result<Hot, String> {
    let mut gen = Gen::new(seed, 3);
    let mut trees = vec![gen::jitter(&mut gen, &dft_core::casestudies::cas())];
    trees.extend((0..gen::CORPUS_TREES).map(|i| gen::corpus_tree(&mut gen, i)));
    let mut requests = Vec::new();
    let mut sweeps = Vec::new();
    let mut reference = Vec::new();
    for dft in &trees {
        for method in [Method::Compositional, Method::Hybrid] {
            let request = Request::new(dft, method, false, false);
            reference.push(reference_values(&request)?);
            requests.push(request);
            sweeps.push(Request::new(dft, method, false, true));
        }
    }
    Ok(Hot {
        requests,
        sweeps,
        reference,
    })
}

/// The values an in-process `Analyzer` gives for a plain request.
pub fn reference_values(request: &Request) -> Result<Vec<f64>, String> {
    let parsed = parse_request(&request.body)?;
    let session = Analyzer::new(&request.dft, parsed.options).map_err(|e| e.to_string())?;
    let results = session
        .query_all(&parsed.measures)
        .map_err(|e| e.to_string())?;
    Ok(results.iter().flat_map(|r| r.values()).collect())
}

/// The values `instantiate()` + `query()` give for a sweep request, by
/// valuation.
pub fn sweep_reference(request: &Request) -> Result<Vec<f64>, String> {
    let parsed = parse_request(&request.body)?;
    let model = ParametricAnalyzer::new(&request.dft, parsed.options).map_err(|e| e.to_string())?;
    let valuations = parsed
        .sweep
        .ok_or("no sweep")?
        .resolve(model.params())
        .map_err(|e| e.to_string())?;
    let mut values = Vec::new();
    for valuation in &valuations {
        let session = model.instantiate(valuation).map_err(|e| e.to_string())?;
        for result in session
            .query_all(&parsed.measures)
            .map_err(|e| e.to_string())?
        {
            values.extend(result.values());
        }
    }
    Ok(values)
}

/// The op stream of one client.
pub struct Stream {
    gen: Gen,
    client: usize,
    fresh: usize,
    /// Families, elements and gate kinds of the fresh trees drawn so far.
    pub mix: ShapeMix,
}

impl Stream {
    /// Client `client`'s stream for `seed`; `phase` separates the streams
    /// of a run's phases.
    pub fn new(seed: u64, client: usize, phase: u64) -> Stream {
        Stream {
            gen: Gen::new(seed, 100 + 10 * phase + client as u64),
            client,
            fresh: 0,
            mix: ShapeMix::default(),
        }
    }

    /// The next op.
    pub fn next_op(&mut self, hot_keys: usize) -> OpKind {
        let roll = self.gen.usize_in(0, 100);
        if roll < 80 {
            OpKind::Hot(self.gen.usize_in(0, hot_keys))
        } else if roll < 95 {
            let shapes = [
                Shape::SparePool,
                Shape::FdepMesh,
                Shape::Seq,
                Shape::PandCascade,
                Shape::Inhibit,
                Shape::Repair,
                Shape::Corpus,
                Shape::Cas,
            ];
            let shape = shapes[self.gen.usize_in(0, shapes.len())];
            let tag = format!("c{}f{}", self.client, self.fresh);
            let tree = gen::tree(&mut self.gen, shape, &tag);
            self.mix.add(&tree);
            let dft = tree.dft;
            let method = if self.gen.chance(0.5) {
                Method::Hybrid
            } else {
                Method::Compositional
            };
            let json_tree = self.gen.chance(0.25);
            let check = self.fresh.is_multiple_of(FRESH_CHECK_EVERY);
            self.fresh += 1;
            OpKind::Fresh {
                request: Box::new(Request::new(&dft, method, json_tree, false)),
                check,
            }
        } else {
            OpKind::Sweep(self.gen.usize_in(0, hot_keys))
        }
    }
}

fn request_of<'a>(op: &'a OpKind, hot: &'a Hot) -> &'a Request {
    match op {
        OpKind::Hot(i) => &hot.requests[*i],
        OpKind::Fresh { request, .. } => request,
        OpKind::Sweep(i) => &hot.sweeps[*i],
    }
}

fn field<'a>(doc: &'a Json, key: &str) -> Option<&'a Json> {
    match doc {
        Json::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn items(doc: Option<&Json>) -> &[Json] {
    match doc {
        Some(Json::Arr(items)) => items,
        _ => &[],
    }
}

/// Every `value` of a job's `results[].points[]`, or of a sweep's
/// `points[].results[].points[]`, in order.
fn answer_values(doc: &Json) -> Result<Vec<f64>, String> {
    if let Some(error) = field(doc, "error") {
        return Err(format!("the job failed: {}", error.render()));
    }
    let mut values = Vec::new();
    let mut take = |results: &[Json]| -> Result<(), String> {
        for result in results {
            for point in items(field(result, "points")) {
                match field(point, "value") {
                    Some(Json::Num(v)) => values.push(*v),
                    _ => return Err("a point carries no value".to_owned()),
                }
            }
        }
        Ok(())
    };
    if let Some(Json::Arr(points)) = field(doc, "points") {
        for point in points {
            if let Some(error) = field(point, "error") {
                return Err(format!("a sweep point failed: {}", error.render()));
            }
            take(items(field(point, "results")))?;
        }
    } else {
        take(items(field(doc, "results")))?;
    }
    Ok(values)
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// A finished op: its answer values and how many `202` polls it took.
pub struct Answer {
    /// Values in the reply.
    pub values: Vec<f64>,
    /// `/result` replies that said "not yet".
    pub polls: u64,
}

/// One op over HTTP: submit, then poll `/result/{id}` until done.
///
/// # Errors
///
/// A connect or I/O failure, a non-2xx reply or a reply without values.
pub fn http_op(addr: SocketAddr, path: &str, body: &str) -> Result<Answer, String> {
    let (status, doc) =
        client::request(addr, "POST", path, body).map_err(|e| format!("POST {path}: {e}"))?;
    if status != 202 {
        return Err(format!("POST {path} answered {status}: {}", doc.render()));
    }
    let Some(Json::Num(id)) = field(&doc, "id") else {
        return Err(format!("POST {path} returned no id: {}", doc.render()));
    };
    let result_path = format!("/result/{id}");
    let mut polls = 0;
    loop {
        let (status, doc) = client::request(addr, "GET", &result_path, "")
            .map_err(|e| format!("GET {result_path}: {e}"))?;
        match status {
            202 => {
                polls += 1;
                std::thread::sleep(POLL_PAUSE);
            }
            200 => {
                return Ok(Answer {
                    values: answer_values(&doc)?,
                    polls,
                })
            }
            other => {
                return Err(format!(
                    "GET {result_path} answered {other}: {}",
                    doc.render()
                ))
            }
        }
    }
}

/// Answers to verify after the window closes.
#[derive(Default)]
struct Deferred {
    fresh: Vec<(Request, Vec<f64>)>,
    sweeps: BTreeMap<usize, Vec<Vec<f64>>>,
}

/// Checks an op's answer now when a reference is at hand, or keeps it for
/// after the window.
fn check_answer(
    op: &OpKind,
    hot: &Hot,
    values: Vec<f64>,
    deferred: &Mutex<Deferred>,
) -> Result<(), String> {
    match op {
        OpKind::Hot(i) if !same_bits(&values, &hot.reference[*i]) => Err(format!(
            "hot key {i}: HTTP values {values:?} differ from in-process {:?}",
            hot.reference[*i]
        )),
        OpKind::Hot(_) | OpKind::Fresh { check: false, .. } => Ok(()),
        OpKind::Fresh { request, .. } => {
            lock(deferred).fresh.push(((**request).clone(), values));
            Ok(())
        }
        OpKind::Sweep(i) => {
            lock(deferred).sweeps.entry(*i).or_default().push(values);
            Ok(())
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock()
        .expect("no benchmark thread panics while holding this lock")
}

/// Verifies deferred answers: fresh ones against an in-process `Analyzer`,
/// sweeps against `instantiate()` + `query()`; and, on a few fresh trees,
/// hybrid against compositional within 1e-12.
fn verify_deferred(deferred: Deferred, hot: &Hot, report: &mut Report) {
    for (request, values) in &deferred.fresh {
        report.late_check(match reference_values(request) {
            Ok(reference) if same_bits(values, &reference) => Ok(()),
            Ok(reference) => Err(format!(
                "fresh tree: HTTP values {values:?} differ from in-process {reference:?}"
            )),
            Err(e) => Err(format!("fresh tree reference failed: {e}")),
        });
    }
    for (key, answers) in &deferred.sweeps {
        let reference = sweep_reference(&hot.sweeps[*key]);
        for values in answers {
            report.late_check(match &reference {
                Ok(r) if same_bits(values, r) => Ok(()),
                Ok(r) => Err(format!(
                    "sweep on hot key {key}: HTTP values {values:?} differ from \
                     instantiate()+query() {r:?}"
                )),
                Err(e) => Err(format!("sweep reference failed: {e}")),
            });
        }
    }
    for (request, _) in deferred.fresh.iter().take(4) {
        report.late_check(hybrid_agrees(&request.dft));
    }
}

/// Hybrid and compositional unreliability curves agree within 1e-12 (at
/// ε = 1e-13 on both sides).
pub fn hybrid_agrees(dft: &Dft) -> Result<(), String> {
    let times = [0.5, 1.0, 2.0];
    let curve = |method| -> Result<Vec<f64>, String> {
        let options = AnalysisOptions {
            epsilon: 1e-13,
            method,
        };
        let session = Analyzer::new(dft, options).map_err(|e| e.to_string())?;
        let result = session
            .unreliability_curve(&times)
            .map_err(|e| e.to_string())?;
        Ok(result.values().collect())
    };
    let hybrid = curve(Method::Hybrid)?;
    let compositional = curve(Method::Compositional)?;
    let worst = hybrid
        .iter()
        .zip(&compositional)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    if worst <= 1e-12 {
        Ok(())
    } else {
        Err(format!("hybrid and compositional differ by {worst:e}"))
    }
}

/// A temporary directory for this process under `.bench_out`, removed on drop.
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates `.bench_out/serve-<pid>-<name>`, emptying any leftover.
    pub fn new(name: &str) -> std::io::Result<TempDir> {
        let path = report::out_dir().join(format!("serve-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(TempDir(path))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A started server with a pre-warmed store.
struct Fleet {
    server: Server,
    _store: TempDir,
}

impl Fleet {
    fn stop(self) {
        self.server.shutdown();
        self.server.join();
    }
}

/// Starts a server over a fresh store and sends every hot request once, so
/// the store holds the whole hot set.
fn start_fleet(hot: &Hot, attempt: usize) -> Result<Fleet, String> {
    let store = TempDir::new(&format!("fleet{attempt}")).map_err(|e| e.to_string())?;
    let server = Server::start(server_options(service_options(store.path().to_owned())))
        .map_err(|e| format!("server did not start: {e}"))?;
    let fleet = Fleet {
        server,
        _store: store,
    };
    let addr = fleet.server.local_addr();
    let warm = hot
        .requests
        .iter()
        .zip(&hot.reference)
        .try_for_each(|(request, reference)| {
            let answer = http_op(addr, request.path, &request.body)?;
            if same_bits(&answer.values, reference) {
                Ok(())
            } else {
                Err("pre-warm answer differs from the in-process reference".to_owned())
            }
        });
    match warm {
        Ok(()) => Ok(fleet),
        Err(e) => {
            fleet.stop();
            Err(e)
        }
    }
}

/// Runs the workload.
pub fn run(seed: u64, seconds: u64, traced: bool, report: &mut Report) {
    let hot = match hot_set(seed) {
        Ok(hot) => hot,
        Err(e) => return report.problem(format!("hot set: {e}")),
    };
    report.meta("clients", THREADS);
    report.meta("connections", THREADS);
    report.meta("hot_keys", hot.requests.len());
    if traced {
        run_traced(&hot, seed, seconds, report);
        return;
    }
    let mut setups = Vec::new();
    let mut fleet = None;
    for attempt in 0..3 {
        let start = Instant::now();
        let started = start_fleet(&hot, attempt);
        setups.push(start.elapsed().as_secs_f64());
        if let Some(previous) = fleet.take() {
            Fleet::stop(previous);
        }
        match started {
            Ok(f) => fleet = Some(f),
            Err(e) => report.problem(format!("set-up failed: {e}")),
        }
    }
    let Some(fleet) = fleet else { return };
    report.meta("setup_repeats", setups.len());
    report.set("setup_s", report::median(&setups));

    let addr = fleet.server.local_addr();
    let deferred = Mutex::new(Deferred::default());
    let window = Duration::from_secs(seconds);
    let start = Instant::now();
    let per_client: Vec<ClientRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|client| {
                let (hot, deferred) = (&hot, &deferred);
                scope.spawn(move || {
                    let mut stream = Stream::new(seed, client, 0);
                    let mut run = ClientRun::default();
                    while start.elapsed() < window {
                        let op = stream.next_op(hot.requests.len());
                        let request = request_of(&op, hot);
                        let op_start = Instant::now();
                        let outcome = http_op(addr, request.path, &request.body);
                        run.finished.push(report::Finished {
                            latency: op_start.elapsed(),
                            points: if outcome.is_ok() {
                                request.points as u64
                            } else {
                                0
                            },
                        });
                        run.outcomes.push(outcome.and_then(|answer| {
                            run.polls += answer.polls;
                            check_answer(&op, hot, answer.values, deferred)
                        }));
                    }
                    run.mix = stream.mix;
                    run
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let wall = start.elapsed();
    Fleet::stop(fleet);

    let mut finished = Vec::new();
    let mut polls = 0;
    let mut fresh_mix = ShapeMix::default();
    for run in per_client {
        fresh_mix.merge(&run.mix);
        finished.extend(run.finished);
        polls += run.polls;
        for outcome in run.outcomes {
            report.op(outcome);
        }
    }
    report::timed_metrics(report, &finished, wall);
    report.meta("polls_per_op", polls as f64 / finished.len().max(1) as f64);
    report.meta("fresh_shape_mix", crate::shape_mix_json(&fresh_mix));
    verify_deferred(deferred.into_inner().expect("clients joined"), &hot, report);
}

#[derive(Default)]
struct ClientRun {
    mix: ShapeMix,
    finished: Vec<report::Finished>,
    outcomes: Vec<Result<(), String>>,
    polls: u64,
}

/// The traced run, in two phases over the same kind of op stream:
/// A drives `AnalysisService::run_request` directly (decode, hybrid plan,
/// service, cache, queue and store layers); B drives `http::parse_request`
/// and `Router::handle` without sockets (HTTP and router layers).
fn run_traced(hot: &Hot, seed: u64, seconds: u64, report: &mut Report) {
    let ops = TRACED_OPS_PER_CLIENT_SECOND * seconds as usize;
    let origin = Instant::now();
    let store = match TempDir::new("traced") {
        Ok(dir) => dir,
        Err(e) => return report.problem(format!("temp store: {e}")),
    };
    let deferred = Mutex::new(Deferred::default());

    // Phase A: the service layer.
    let service = AnalysisService::new(service_options(store.path().to_owned()));
    for (request, reference) in hot.requests.iter().zip(&hot.reference) {
        let warm = parse_request(&request.body)
            .map(|parsed| service.run_request(parsed))
            .and_then(|outcome| outcome_values(&outcome));
        if !warm.is_ok_and(|(values, _)| same_bits(&values, reference)) {
            report.problem("pre-warm answer differs from the in-process reference");
        }
    }
    let cache0 = service.cache_stats();
    let queue0 = service.queue_stats();
    let store0 = service.store_stats().unwrap_or_default();
    let kernel0 = markov::kernel::stats();
    let rec = run_clients(seed, 1, hot.requests.len(), ops, origin, |rec, op| {
        let request = request_of(op, hot);
        let parsed = rec
            .span("decode", |_| parse_request(&request.body))
            .map_err(|e| format!("decode: {e}"))?;
        if request.method == Method::Hybrid {
            let plan = rec.span("hybrid.plan", |_| hybrid_plan(&parsed.dft));
            rec.span("hybrid.bdd", |_| crown_bdd(&parsed.dft, &plan))?;
        }
        let outcome = rec.span("service", |_| service.run_request(parsed));
        let (values, runs) = outcome_values(&outcome)?;
        check_answer(op, hot, values, &deferred).map(|()| (runs, 0))
    });
    let cache = service.cache_stats();
    let queue = service.queue_stats();
    let store_stats = service.store_stats().unwrap_or_default();
    let kernel = markov::kernel::stats();
    drop(service);
    crate::set_kernel_metrics(report, kernel0, kernel);
    let lookups = (cache.hits - cache0.hits) + (cache.misses - cache0.misses);
    report.set(
        "service.cache_hit_ratio",
        (cache.hits - cache0.hits) as f64 / lookups.max(1) as f64,
    );
    report.set(
        "service.evictions",
        (cache.evictions - cache0.evictions) as f64,
    );
    report.set("service.aggregation_runs", rec.aggregations as f64);
    report.set("queue.parked", (queue.parked - queue0.parked) as f64);
    report.set("store.hits", (store_stats.hits - store0.hits) as f64);
    report.set("store.writes", (store_stats.writes - store0.writes) as f64);
    report.set(
        "store.read_bytes",
        (store_stats.read_bytes - store0.read_bytes) as f64,
    );
    report.set(
        "store.write_bytes",
        (store_stats.write_bytes - store0.write_bytes) as f64,
    );
    report.set("service.run_request_ms", ms(rec.rec.total("service")));
    report.set("decode.parse_us", mean_us(&rec.rec, "decode"));
    report.set("hybrid.plan_us", mean_us(&rec.rec, "hybrid.plan"));
    report.set("hybrid.bdd_build_us", mean_us(&rec.rec, "hybrid.bdd"));
    let phase_a = rec;

    // Phase B: HTTP parsing and routing on a fresh service over the same
    // (now warm) store, with a stream the store has not seen.
    let server = server_options(service_options(store.path().to_owned()));
    let router = Router::new(
        AnalysisService::new(server.service),
        server.max_jobs,
        server.max_done,
    );
    let limits = HttpLimits::default();
    let mut rec = run_clients(seed, 2, hot.requests.len(), ops, origin, |rec, op| {
        let request = request_of(op, hot);
        let exchange = |rec: &mut Recorder, method: &str, path: &str, body: &str| {
            let raw = format!(
                "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\
                 Connection: close\r\n\r\n{body}",
                body.len()
            );
            let parsed = rec
                .span("http.parse", |_| {
                    http::parse_request(raw.as_bytes(), &limits)
                })
                .map_err(|e| format!("{path}: {e:?}"))?
                .ok_or_else(|| format!("{path}: incomplete request"))?;
            let reply = rec.span("router", |_| router.handle(&parsed));
            let doc = dft::json::parse(&reply.body).unwrap_or(Json::Null);
            Ok::<_, String>((reply.status, doc))
        };
        let (status, doc) = exchange(rec, "POST", request.path, &request.body)?;
        let Some(Json::Num(id)) = field(&doc, "id").filter(|_| status == 202) else {
            return Err(format!("POST {} answered {status}", request.path));
        };
        let result_path = format!("/result/{id}");
        let mut polls = 0;
        loop {
            let (status, doc) = exchange(rec, "GET", &result_path, "")?;
            match status {
                202 => {
                    polls += 1;
                    rec.span("poll.wait", |_| std::thread::sleep(POLL_PAUSE));
                }
                200 => {
                    let values = answer_values(&doc)?;
                    return check_answer(op, hot, values, &deferred).map(|()| (0, polls));
                }
                other => return Err(format!("GET {result_path} answered {other}")),
            }
        }
    });
    drop(router);
    report.set("http.parse_us", mean_us(&rec.rec, "http.parse"));
    report.set("router.handle_us", mean_us(&rec.rec, "router"));
    report.set(
        "http.polls_per_op",
        rec.polls as f64 / rec.completed.max(1) as f64,
    );

    // Explicit store round trips of the hot sessions.
    match store_round_trips(hot) {
        Ok((load, save)) => {
            report.set("store.load_ms", ms(load));
            report.set("store.save_ms", ms(save));
        }
        Err(e) => report.problem(format!("store round trip: {e}")),
    }

    for outcome in phase_a
        .outcomes
        .into_iter()
        .chain(std::mem::take(&mut rec.outcomes))
    {
        report.op(outcome);
    }
    rec.rec.absorb(phase_a.rec);
    crate::build_mix::set_trace_metrics(
        report,
        &rec.rec,
        &["decode", "service", "http.parse", "router", "poll.wait"],
    );
    verify_deferred(deferred.into_inner().expect("clients joined"), hot, report);
    crate::write_trace(&rec.rec, &format!("serve_mixed-{seed}"), report);
}

fn mean_us(rec: &Recorder, name: &str) -> f64 {
    let n = rec.count(name);
    if n == 0 {
        0.0
    } else {
        rec.total(name).as_secs_f64() * 1e6 / n as f64
    }
}

/// The crown BDD the hybrid backend evaluates: crown basic events and core
/// exits are its leaves.
fn crown_bdd(dft: &Dft, plan: &dft::modules::HybridPlan) -> Result<(), String> {
    let mut leaf = vec![false; dft.num_elements()];
    for &e in &plan.crown {
        if matches!(dft.element(e), Element::BasicEvent(_)) {
            leaf[e.index()] = true;
        }
    }
    for core in &plan.cores {
        leaf[core.exit.index()] = true;
    }
    let bdd = Bdd::build(dft, dft.top(), |e| leaf[e.index()]).map_err(|e| e.to_string())?;
    std::hint::black_box(bdd.node_count());
    Ok(())
}

/// Values of a service outcome and the aggregations it ran.
fn outcome_values(outcome: &RequestOutcome) -> Result<(Vec<f64>, u64), String> {
    match outcome {
        RequestOutcome::Job(report) => {
            let results = report.results.as_ref().map_err(|e| e.to_string())?;
            Ok((
                results.iter().flat_map(|r| r.values()).collect(),
                report.aggregation_runs as u64,
            ))
        }
        RequestOutcome::Sweep(report) => {
            let mut values = Vec::new();
            for point in &report.points {
                let results = point.results.as_ref().map_err(|e| e.to_string())?;
                values.extend(results.iter().flat_map(|r| r.values()));
            }
            Ok((values, report.stats.aggregation_runs as u64))
        }
    }
}

/// Saves and reloads every hot session through an explicit `ModelStore`;
/// returns total load and save time.
fn store_round_trips(hot: &Hot) -> Result<(Duration, Duration), String> {
    let dir = TempDir::new("roundtrip").map_err(|e| e.to_string())?;
    let store = ModelStore::open(dir.path()).map_err(|e| e.to_string())?;
    let (mut load, mut save) = (Duration::ZERO, Duration::ZERO);
    for request in &hot.requests {
        let options = parse_request(&request.body)?.options;
        let session = Analyzer::new(&request.dft, options.clone()).map_err(|e| e.to_string())?;
        let key = request.dft.fingerprint();
        let start = Instant::now();
        store
            .save_analyzer(key, &session)
            .map_err(|e| e.to_string())?;
        save += start.elapsed();
        let start = Instant::now();
        let loaded = store.load_analyzer(key, &options);
        load += start.elapsed();
        if loaded.map(|a| a.model_stats()) != Some(session.model_stats()) {
            return Err("a reloaded session differs from the saved one".to_owned());
        }
    }
    Ok((load, save))
}

/// Spans and tallies of one traced phase.
struct Phase {
    rec: Recorder,
    outcomes: Vec<Result<(), String>>,
    aggregations: u64,
    polls: u64,
    completed: u64,
}

/// Runs `ops` ops per client on [`THREADS`] threads; `op` returns the
/// aggregations and polls an op cost.
fn run_clients<F>(
    seed: u64,
    phase: u64,
    hot_keys: usize,
    ops: usize,
    origin: Instant,
    op: F,
) -> Phase
where
    F: Fn(&mut Recorder, &OpKind) -> Result<(u64, u64), String> + Sync,
{
    let runs: Vec<Phase> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|client| {
                let op = &op;
                scope.spawn(move || {
                    let mut stream = Stream::new(seed, client, phase);
                    let mut run = Phase {
                        rec: Recorder::new(origin),
                        outcomes: Vec::new(),
                        aggregations: 0,
                        polls: 0,
                        completed: 0,
                    };
                    for i in 0..ops {
                        let kind = stream.next_op(hot_keys);
                        run.rec
                            .set_op((phase << 40) | ((client as u64) << 32) | i as u64);
                        let outcome = run.rec.span("op", |rec| op(rec, &kind));
                        run.outcomes.push(outcome.map(|(aggregations, polls)| {
                            run.aggregations += aggregations;
                            run.polls += polls;
                            run.completed += 1;
                        }));
                    }
                    run
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let mut merged = Phase {
        rec: Recorder::new(origin),
        outcomes: Vec::new(),
        aggregations: 0,
        polls: 0,
        completed: 0,
    };
    for run in runs {
        merged.rec.absorb(run.rec);
        merged.outcomes.extend(run.outcomes);
        merged.aggregations += run.aggregations;
        merged.polls += run.polls;
        merged.completed += run.completed;
    }
    merged
}
