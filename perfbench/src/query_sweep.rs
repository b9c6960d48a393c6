//! `query_sweep`: a seeded stream of queries against sessions built in
//! set-up.  One thread; one op = one call: a `query` point, a 64-point
//! curve, a mixed `query_all` batch or a 16–32-valuation `sweep_query`.
//!
//! The sessions are built in set-up, so aggregation and minimisation land
//! in `setup_s`; the measured window is the markov kernel and the sweep path.

use crate::build_mix::{set_pipeline_metrics, set_trace_metrics};
use crate::gen::{static_heavy_tree, Gen};
use crate::replay::{replay, ReplayCounts};
use crate::report::{self, ms, Report};
use crate::trace::Recorder;
use crate::{check_cas_anchor, check_probabilities};
use dft::Dft;
use dft_core::casestudies;
use dft_core::{
    AnalysisOptions, Analyzer, Measure, MeasureResult, Method, ParametricAnalyzer, Valuation,
};
use std::time::{Duration, Instant};

/// Ops whose kernel work is recorded as an exact count.
const COUNTED_OPS: usize = 64;

/// Traced runs answer this many ops per second of `--seconds`.
const TRACED_OPS_PER_SECOND: usize = 40;

/// The sessions every op runs against.
pub struct Sessions {
    /// Compositional sessions: CAS, CPS and the static-heavy tree.
    pub numeric: Vec<(&'static str, Analyzer)>,
    /// Parametric sessions: CAS and `cascaded_pand(4)`.
    pub parametric: Vec<(&'static str, ParametricAnalyzer)>,
    /// Wall time of each parametric build.
    pub parametric_build: Duration,
}

fn numeric_trees() -> [(&'static str, Dft); 3] {
    [
        ("cas", casestudies::cas()),
        ("cps", casestudies::cps()),
        ("static_heavy_12", static_heavy_tree(12)),
    ]
}

fn parametric_trees() -> [(&'static str, Dft); 2] {
    [
        ("cas", casestudies::cas()),
        ("cascaded_pand_4", casestudies::cascaded_pand(4, 1.0)),
    ]
}

/// Builds the sessions.
///
/// # Errors
///
/// Propagates build errors.
pub fn build_sessions() -> Result<Sessions, String> {
    let options = AnalysisOptions {
        method: Method::Compositional,
        ..AnalysisOptions::default()
    };
    let numeric = numeric_trees()
        .into_iter()
        .map(|(name, dft)| Ok((name, Analyzer::new(&dft, options.clone())?)))
        .collect::<Result<Vec<_>, dft_core::Error>>()
        .map_err(|e| e.to_string())?;
    let start = Instant::now();
    let parametric = parametric_trees()
        .into_iter()
        .map(|(name, dft)| Ok((name, ParametricAnalyzer::new(&dft, options.clone())?)))
        .collect::<Result<Vec<_>, dft_core::Error>>()
        .map_err(|e| e.to_string())?;
    Ok(Sessions {
        numeric,
        parametric,
        parametric_build: start.elapsed(),
    })
}

/// One call against the sessions.
#[derive(Debug, Clone)]
pub enum Op {
    /// `query` on numeric session `session`.
    Query {
        /// Index into [`Sessions::numeric`].
        session: usize,
        /// The measure (a point or a curve).
        measure: Measure,
    },
    /// `query_all` on numeric session `session`.
    Batch {
        /// Index into [`Sessions::numeric`].
        session: usize,
        /// The measures.
        measures: Vec<Measure>,
    },
    /// `sweep_query` on parametric session `session`.
    Sweep {
        /// Index into [`Sessions::parametric`].
        session: usize,
        /// The measure.
        measure: Measure,
        /// The valuations.
        valuations: Vec<Valuation>,
    },
}

/// Points one measure answers.
fn points_of(measure: &Measure) -> u64 {
    match measure {
        Measure::UnreliabilityCurve(times) => times.len() as u64,
        _ => 1,
    }
}

impl Op {
    /// Points the op answers when it succeeds.
    pub fn points(&self) -> u64 {
        match self {
            Op::Query { measure, .. } => points_of(measure),
            Op::Batch { measures, .. } => measures.iter().map(points_of).sum(),
            Op::Sweep {
                measure,
                valuations,
                ..
            } => points_of(measure) * valuations.len() as u64,
        }
    }
}

fn sorted_times(gen: &mut Gen, n: usize) -> Vec<f64> {
    let mut times: Vec<f64> = (0..n).map(|_| gen.f64_in(0.05, 3.0)).collect();
    times.sort_by(f64::total_cmp);
    times
}

/// The kinds of op, for block stratification.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Point,
    Curve,
    Batch,
    Sweep,
}

/// One block of the op stream: (kind, session) and how many of each.  Every
/// seed draws the same mix, so the costly static-heavy and sweep calls take
/// the same share of every run; the seed draws times and valuations and
/// shuffles the order.  Numeric sessions: 0 = CAS, 1 = CPS, 2 = static-heavy
/// (36 ms a point); parametric: 0 = CAS, 1 = `cascaded_pand(4)`.
///
/// The counts put the median op (the 9th of 18) on the CAS curves: six
/// calls of a block always cost less than a CAS curve, seven always more,
/// and the two CAS batches fall either side.  A 64-point curve costs about
/// the same every time, as its last time is always close to 3; a single
/// point's cost grows with its time, drawn from 0.1–3.  When the median fell
/// on the CAS points, `latency_p50_ms` swung 1.3–2× as much as `ops_per_s`
/// between runs of the same code.
const BLOCK: [(Kind, usize, usize); 11] = [
    (Kind::Point, 0, 3),
    (Kind::Point, 1, 1),
    (Kind::Point, 2, 1),
    (Kind::Curve, 0, 3),
    (Kind::Curve, 1, 1),
    (Kind::Curve, 2, 1),
    (Kind::Batch, 0, 2),
    (Kind::Batch, 1, 1),
    (Kind::Batch, 2, 1),
    (Kind::Sweep, 0, 2),
    (Kind::Sweep, 1, 2),
];

/// Ops drawn for an untraced run, more than a run gets through; the stream
/// cycles if a run outlasts them.
const STREAM_OPS: usize = 6000;

/// Draws `n` ops of the stream of `seed` (rounded up to whole blocks).
pub fn draw_ops(seed: u64, n: usize, sessions: &Sessions) -> Vec<Op> {
    let mut gen = Gen::new(seed, 2);
    let mut ops = Vec::new();
    while ops.len() < n {
        let mut block: Vec<(Kind, usize)> = BLOCK
            .iter()
            .flat_map(|&(kind, session, count)| std::iter::repeat_n((kind, session), count))
            .collect();
        gen.shuffle(&mut block);
        for (kind, session) in block {
            ops.push(draw_op(&mut gen, kind, session, sessions));
        }
    }
    ops
}

fn draw_op(gen: &mut Gen, kind: Kind, session: usize, sessions: &Sessions) -> Op {
    match kind {
        Kind::Point => Op::Query {
            session,
            measure: Measure::Unreliability(gen.f64_in(0.1, 3.0)),
        },
        Kind::Curve => Op::Query {
            session,
            measure: Measure::curve(sorted_times(gen, 64)),
        },
        Kind::Batch => {
            let measures = (0..gen.usize_in(2, 6))
                .map(|_| {
                    if gen.chance(0.5) {
                        Measure::Unreliability(gen.f64_in(0.1, 3.0))
                    } else {
                        Measure::curve(sorted_times(gen, 8))
                    }
                })
                .collect();
            Op::Batch { session, measures }
        }
        Kind::Sweep => {
            let base = sessions.parametric[session].1.base_valuation();
            let valuations = (0..gen.usize_in(16, 33))
                .map(|_| {
                    Valuation::new(
                        base.values()
                            .iter()
                            .map(|v| v * gen.f64_in(0.7, 1.4))
                            .collect(),
                    )
                })
                .collect();
            let measure = if gen.chance(0.5) {
                Measure::Unreliability(gen.f64_in(0.1, 3.0))
            } else {
                Measure::curve(sorted_times(gen, 4))
            };
            Op::Sweep {
                session,
                measure,
                valuations,
            }
        }
    }
}

/// What one op returned.
pub enum Answer {
    /// Results of a `query`/`query_all`, one per measure.
    Results(Vec<MeasureResult>),
    /// A sweep: results per valuation plus its instantiate/query split.
    Sweep(dft_core::RateSweep),
}

/// Runs one op and checks its answer.
///
/// # Errors
///
/// A library error or an answer that fails its checks.
pub fn execute(op: &Op, sessions: &Sessions) -> Result<Answer, String> {
    let answer = match op {
        Op::Query { session, measure } => Answer::Results(vec![sessions.numeric[*session]
            .1
            .query(measure)
            .map_err(|e| e.to_string())?]),
        Op::Batch { session, measures } => Answer::Results(
            sessions.numeric[*session]
                .1
                .query_all(measures)
                .map_err(|e| e.to_string())?,
        ),
        Op::Sweep {
            session,
            measure,
            valuations,
        } => Answer::Sweep(
            sessions.parametric[*session]
                .1
                .sweep_query(measure, valuations)
                .map_err(|e| e.to_string())?,
        ),
    };
    let results = match &answer {
        Answer::Results(results) => results.as_slice(),
        Answer::Sweep(sweep) => sweep.results(),
    };
    let mut answered = 0;
    for result in results {
        check_probabilities(result)?;
        answered += result.len() as u64;
    }
    if answered != op.points() {
        return Err(format!("{answered} points answered, {} asked", op.points()));
    }
    Ok(answer)
}

/// Sweep points must be bit-identical to `instantiate()` + `query()`.
fn check_sweep_against_instantiate(
    op: &Op,
    answer: &Answer,
    sessions: &Sessions,
) -> Result<(), String> {
    let (
        Op::Sweep {
            session,
            measure,
            valuations,
        },
        Answer::Sweep(sweep),
    ) = (op, answer)
    else {
        return Ok(());
    };
    let parametric = &sessions.parametric[*session].1;
    for (valuation, swept) in valuations.iter().zip(sweep.results()) {
        let direct = parametric
            .instantiate(valuation)
            .and_then(|a| a.query(measure))
            .map_err(|e| e.to_string())?;
        let bits = |r: &MeasureResult| -> Vec<(u64, u64)> {
            r.points()
                .iter()
                .map(|p| (p.bounds().0.to_bits(), p.bounds().1.to_bits()))
                .collect()
        };
        if bits(&direct) != bits(swept) {
            return Err(format!(
                "sweep point on {} differs from instantiate()+query()",
                sessions.parametric[*session].0
            ));
        }
    }
    Ok(())
}

/// Runs the workload.
pub fn run(seed: u64, seconds: u64, traced: bool, report: &mut Report) {
    let mut setups = Vec::new();
    let mut sessions = None;
    for _ in 0..3 {
        let start = Instant::now();
        let built = build_sessions();
        setups.push(start.elapsed().as_secs_f64());
        match built {
            Ok(s) => sessions = Some(s),
            Err(e) => report.problem(format!("set-up failed: {e}")),
        }
    }
    let Some(sessions) = sessions else { return };
    let cas = &sessions.numeric[0].1;
    check_cas_anchor(report, cas.unreliability(1.0).map(|r| r.value()));
    report.meta("setup_repeats", setups.len());
    report.meta("threads", 1usize);
    let sizes: Vec<(String, dft::json::Json)> = sessions
        .numeric
        .iter()
        .map(|(n, a)| (format!("numeric.{n}"), a.model_stats().states.into()))
        .chain(
            sessions
                .parametric
                .iter()
                .map(|(n, p)| (format!("parametric.{n}"), p.model_stats().states.into())),
        )
        .collect();
    report.meta("session_states", dft::json::Json::Obj(sizes));

    let aggregations = || {
        sessions
            .numeric
            .iter()
            .filter_map(|(_, session)| session.aggregation_stats())
    };
    let peak = aggregations()
        .map(|a| a.peak.states as u64)
        .max()
        .unwrap_or(0);
    let final_states: u64 = aggregations().map(|a| a.final_model.states as u64).sum();
    let parametric_states: u64 = sessions
        .parametric
        .iter()
        .map(|(_, p)| p.model_stats().states as u64)
        .sum();

    let counted_ops = draw_ops(seed, COUNTED_OPS, &sessions);
    let inputs = report::fnv1a(format!("{:?}", &counted_ops[..COUNTED_OPS]).into_bytes());
    let relax_passes = if traced {
        let n = (TRACED_OPS_PER_SECOND * seconds as usize).max(COUNTED_OPS);
        run_traced(&sessions, &draw_ops(seed, n, &sessions), seed, report)
    } else {
        report.set("setup_s", report::median(&setups));
        let ops = draw_ops(seed, STREAM_OPS, &sessions);
        run_timed(&sessions, &ops, Duration::from_secs(seconds), report)
    };
    report::check_exact_counts(
        report,
        &format!("query_sweep-{seed}"),
        inputs,
        &[
            ("aggregate.peak_states", peak),
            ("aggregate.final_states", final_states),
            ("parametric.states", parametric_states),
            ("kernel.relax_passes", relax_passes),
        ],
    );
}

/// Sweeps checked bit for bit against `instantiate()` + `query()` after
/// the window (the check is slower than the sweep itself).
const CHECKED_SWEEPS: usize = 2;

/// Times ops until the window closes; returns the kernel relax passes of the
/// first [`COUNTED_OPS`] ops.
fn run_timed(sessions: &Sessions, ops: &[Op], window: Duration, report: &mut Report) -> u64 {
    let mut finished = Vec::new();
    let mut to_check = Vec::new();
    let kernel_before = markov::kernel::stats();
    let mut relax_passes = 0;
    let start = Instant::now();
    for (i, op) in ops.iter().cycle().enumerate() {
        if start.elapsed() >= window && i >= COUNTED_OPS {
            break;
        }
        let op_start = Instant::now();
        let outcome = execute(op, sessions);
        let latency = op_start.elapsed();
        if i + 1 == COUNTED_OPS {
            relax_passes = markov::kernel::stats().relax_passes - kernel_before.relax_passes;
        }
        let points = if outcome.is_ok() { op.points() } else { 0 };
        finished.push(report::Finished { latency, points });
        match outcome {
            Ok(answer) => {
                if matches!(op, Op::Sweep { .. }) && to_check.len() < CHECKED_SWEEPS {
                    to_check.push((i % ops.len(), answer));
                }
                report.op(Ok(()));
            }
            Err(e) => report.op(Err(format!("op {i}: {e}"))),
        }
    }
    report::timed_metrics(report, &finished, start.elapsed());
    check_sweeps(&to_check, ops, sessions, report);
    relax_passes
}

fn run_traced(sessions: &Sessions, ops: &[Op], seed: u64, report: &mut Report) -> u64 {
    // Rebuild and replay the set-up sessions so the trace shows where
    // `setup_s` goes.
    let mut setup = Recorder::new(Instant::now());
    let mut counts = ReplayCounts::default();
    for (name, dft) in numeric_trees() {
        setup.span("setup", |rec| {
            let session = rec.span("engine", |_| {
                Analyzer::new(&dft, AnalysisOptions::default())
            });
            match session
                .map_err(|e| e.to_string())
                .and_then(|s| replay(&dft, &s, rec))
            {
                Ok(c) => counts.merge(&c),
                Err(e) => report.problem(format!("replay of {name}: {e}")),
            }
        });
    }
    set_pipeline_metrics(report, &setup, &counts);
    report.set("parametric.build_ms", ms(sessions.parametric_build));
    report.set(
        "parametric.states",
        sessions
            .parametric
            .iter()
            .map(|(_, p)| p.model_stats().states as f64)
            .sum(),
    );

    let mut rec = Recorder::new(Instant::now());
    let kernel_before = markov::kernel::stats();
    let mut relax_passes = 0;
    let (mut points, mut instantiate, mut query) = (0u64, Duration::ZERO, Duration::ZERO);
    let mut to_check = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        rec.set_op(i as u64);
        let name = if matches!(op, Op::Sweep { .. }) {
            "sweep"
        } else {
            "query"
        };
        let outcome = rec.span("op", |rec| rec.span(name, |_| execute(op, sessions)));
        if i + 1 == COUNTED_OPS {
            relax_passes = markov::kernel::stats().relax_passes - kernel_before.relax_passes;
        }
        match outcome {
            Ok(answer) => {
                points += op.points();
                if let Answer::Sweep(sweep) = &answer {
                    instantiate += sweep.instantiate_time();
                    query += sweep.query_time();
                    if to_check.len() < CHECKED_SWEEPS {
                        to_check.push((i, answer));
                    }
                }
                report.op(Ok(()));
            }
            Err(e) => report.op(Err(format!("op {i}: {e}"))),
        }
    }
    let kernel = markov::kernel::stats();
    check_sweeps(&to_check, ops, sessions, report);
    report.set("query.self_ms", ms(rec.total("query")));
    report.set("query.points", points as f64);
    report.set("sweep.instantiate_ms", ms(instantiate));
    report.set("sweep.query_ms", ms(query));
    crate::set_kernel_metrics(report, kernel_before, kernel);
    set_trace_metrics(report, &rec, &["query", "sweep"]);
    rec.absorb(setup);
    crate::write_trace(&rec, &format!("query_sweep-{seed}"), report);
    relax_passes
}

fn check_sweeps(
    to_check: &[(usize, Answer)],
    ops: &[Op],
    sessions: &Sessions,
    report: &mut Report,
) {
    for (i, answer) in to_check {
        if let Err(e) = check_sweep_against_instantiate(&ops[*i], answer, sessions) {
            report.late_failure(format!("op {i}: {e}"));
        }
    }
}
