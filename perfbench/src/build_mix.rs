//! `build_mix`: cold compositional builds of a seeded stream of distinct
//! dynamic trees, one `unreliability(1.0)` each.  One thread; one op = one
//! tree.
//!
//! Minimisation is most of a build, so this workload moves with the
//! aggregation pipeline while the markov kernel and the service barely run.

use crate::gen::{self, Gen, Shape, ShapeMix, Tree};
use crate::replay::{replay, ReplayCounts};
use crate::report::{self, ms, Report};
use crate::trace::Recorder;
use crate::{check_cas_anchor, check_probabilities};
use dft_core::{casestudies, AnalysisOptions, Analyzer, Method};
use std::time::{Duration, Instant};

/// One block of the stream: families and how many trees of each.  Blocks
/// are stratified so every seed draws the same mix of sizes (from ~0.5 ms
/// spare pools to ~300 ms static-heavy builds); the seed shuffles the order
/// and draws shapes and rates within each family.
const BLOCK: [(Shape, usize); 10] = [
    (Shape::SparePool, 8),
    (Shape::FdepMesh, 8),
    (Shape::Seq, 6),
    (Shape::PandCascade, 6),
    (Shape::Inhibit, 6),
    (Shape::Repair, 6),
    (Shape::Corpus, 11),
    (Shape::Cas, 6),
    (Shape::Cps, 6),
    (Shape::StaticHeavy, 1),
];

/// Blocks generated in set-up, more than a run gets through; the stream
/// cycles through them if a run outlasts them (every build stays cold:
/// `Analyzer::new` keeps no cache).
const BLOCKS: usize = 48;

/// Ops whose exact counts are recorded and compared across runs.
const COUNTED_OPS: usize = 64;

/// Traced runs replay a fixed amount of work: this many ops per second of
/// `--seconds`, so their counts do not depend on the host's speed.
const TRACED_OPS_PER_SECOND: usize = 24;

fn options() -> AnalysisOptions {
    AnalysisOptions {
        method: Method::Compositional,
        ..AnalysisOptions::default()
    }
}

/// Draws the tree stream of `seed`.
pub fn stream(seed: u64, blocks: usize) -> Vec<Tree> {
    let mut gen = Gen::new(seed, 1);
    let mut trees = Vec::new();
    for block in 0..blocks {
        let mut shapes: Vec<Shape> = BLOCK
            .iter()
            .flat_map(|&(shape, n)| std::iter::repeat_n(shape, n))
            .collect();
        gen.shuffle(&mut shapes);
        for (i, shape) in shapes.into_iter().enumerate() {
            trees.push(gen::tree(&mut gen, shape, &format!("b{block}n{i}")));
        }
    }
    trees
}

/// One op: a cold build and one unreliability point, checked for range.
fn build_and_query(tree: &Tree) -> Result<Analyzer, String> {
    let session = Analyzer::new(&tree.dft, options()).map_err(|e| e.to_string())?;
    let result = session.unreliability(1.0).map_err(|e| e.to_string())?;
    check_probabilities(&result)?;
    Ok(session)
}

/// Runs the workload.
pub fn run(seed: u64, seconds: u64, traced: bool, report: &mut Report) {
    let mut setups = Vec::new();
    let mut trees = Vec::new();
    for _ in 0..5 {
        let start = Instant::now();
        trees = stream(seed, BLOCKS);
        let cas = Analyzer::new(&casestudies::cas(), options());
        check_cas_anchor(
            report,
            cas.and_then(|a| a.unreliability(1.0)).map(|r| r.value()),
        );
        setups.push(start.elapsed().as_secs_f64());
    }
    report.meta("setup_repeats", setups.len());
    report.meta("threads", 1usize);
    let mut mix = ShapeMix::default();
    for tree in &trees {
        mix.add(tree);
    }
    report.meta("shape_mix", crate::shape_mix_json(&mix));

    if traced {
        let ops = (TRACED_OPS_PER_SECOND * seconds as usize).max(COUNTED_OPS);
        run_traced(&trees, ops, seed, report);
    } else {
        report.set("setup_s", report::median(&setups));
        run_timed(&trees, Duration::from_secs(seconds), seed, report);
    }
}

fn run_timed(trees: &[Tree], window: Duration, seed: u64, report: &mut Report) {
    let mut finished = Vec::new();
    let mut counted = ReplayCounts::default();
    let mut counted_states = 0u64;
    let kernel_before = markov::kernel::stats();
    let mut relax_passes = 0;
    let start = Instant::now();
    for (i, tree) in trees.iter().cycle().enumerate() {
        if start.elapsed() >= window && i >= COUNTED_OPS {
            break;
        }
        let op_start = Instant::now();
        let outcome = build_and_query(tree);
        let latency = op_start.elapsed();
        if i < COUNTED_OPS {
            if let Ok(session) = &outcome {
                counted.merge(&session_counts(session));
                counted_states += session.model_stats().states as u64;
            }
            if i + 1 == COUNTED_OPS {
                relax_passes = markov::kernel::stats().relax_passes - kernel_before.relax_passes;
            }
        }
        // One unreliability point per tree.
        let points = u64::from(outcome.is_ok());
        finished.push(report::Finished { latency, points });
        report.op(outcome.map(|_| ()).map_err(|e| format!("op {i}: {e}")));
    }
    report::timed_metrics(report, &finished, start.elapsed());
    report::check_exact_counts(
        report,
        &format!("build_mix-{seed}"),
        inputs_hash(trees),
        &exact_counts(&counted, counted_states, relax_passes),
    );
}

/// Identifies the trees the exact counts cover.
fn inputs_hash(trees: &[Tree]) -> u64 {
    report::fnv1a(
        trees
            .iter()
            .cycle()
            .take(COUNTED_OPS)
            .flat_map(|t| t.dft.fingerprint().to_le_bytes()),
    )
}

/// The counts `Analyzer` itself reports about a session's aggregation.
fn session_counts(session: &Analyzer) -> ReplayCounts {
    let stats = session.aggregation_stats();
    ReplayCounts {
        peak_states: stats.map_or(0, |s| s.peak.states as u64),
        final_states: stats.map_or(0, |s| s.final_model.states as u64),
        steps: stats.map_or(0, |s| s.steps.len() as u64),
        ..ReplayCounts::default()
    }
}

fn exact_counts(counts: &ReplayCounts, states: u64, relax_passes: u64) -> Vec<(&'static str, u64)> {
    vec![
        ("aggregate.peak_states", counts.peak_states),
        ("aggregate.final_states", counts.final_states),
        ("aggregate.steps", counts.steps),
        ("closed_states", states),
        ("kernel.relax_passes", relax_passes),
    ]
}

fn run_traced(trees: &[Tree], ops: usize, seed: u64, report: &mut Report) {
    let mut rec = Recorder::new(Instant::now());
    let mut counts = ReplayCounts::default();
    let mut counted = ReplayCounts::default();
    let mut counted_states = 0u64;
    let kernel_before = markov::kernel::stats();
    let mut relax_passes = 0;
    let mut points = 0u64;
    for (i, tree) in trees.iter().cycle().take(ops).enumerate() {
        rec.set_op(i as u64);
        let outcome = rec.span("op", |rec| {
            let session = rec
                .span("engine", |_| Analyzer::new(&tree.dft, options()))
                .map_err(|e| e.to_string())?;
            let replayed = replay(&tree.dft, &session, rec)?;
            let result = rec
                .span("query", |_| session.unreliability(1.0))
                .map_err(|e| e.to_string())?;
            check_probabilities(&result)?;
            Ok::<_, String>((session, replayed))
        });
        if let Ok((session, replayed)) = &outcome {
            counts.merge(replayed);
            points += 1;
            if i < COUNTED_OPS {
                counted.merge(&session_counts(session));
                counted_states += session.model_stats().states as u64;
            }
        }
        if i + 1 == COUNTED_OPS {
            relax_passes = markov::kernel::stats().relax_passes - kernel_before.relax_passes;
        }
        report.op(outcome.map(|_| ()).map_err(|e| format!("op {i}: {e}")));
    }
    let kernel = markov::kernel::stats();
    report.set("query.points", points as f64);
    crate::set_kernel_metrics(report, kernel_before, kernel);
    set_pipeline_metrics(report, &rec, &counts);
    set_trace_metrics(report, &rec, &["engine", "query"]);
    report::check_exact_counts(
        report,
        &format!("build_mix-{seed}"),
        inputs_hash(trees),
        &exact_counts(&counted, counted_states, relax_passes),
    );
    crate::write_trace(&rec, &format!("build_mix-{seed}"), report);
}

/// Sets the pipeline-layer metrics from replayed builds: self times from the
/// spans, sizes from the replay counts, and `engine.other_ms` as the library
/// build's wall minus the replayed stages.
pub fn set_pipeline_metrics(report: &mut Report, rec: &Recorder, counts: &ReplayCounts) {
    let selfs = rec.self_times();
    let self_ms = |name: &str| selfs.get(name).copied().map_or(0.0, ms);
    report.set("convert.self_ms", self_ms("convert"));
    report.set("convert.models_out", counts.models_out as f64);
    report.set("convert.states_out", counts.states_out as f64);
    for (stage, key, [self_name, in_name, out_name, reduction_name]) in [
        (
            counts.element,
            "minimize.element",
            [
                "minimize.element.self_ms",
                "minimize.element.states_in",
                "minimize.element.states_out",
                "minimize.element.reduction",
            ],
        ),
        (
            counts.step,
            "minimize.step",
            [
                "minimize.step.self_ms",
                "minimize.step.states_in",
                "minimize.step.states_out",
                "minimize.step.reduction",
            ],
        ),
        (
            counts.close,
            "minimize.close",
            [
                "minimize.close.self_ms",
                "minimize.close.states_in",
                "minimize.close.states_out",
                "minimize.close.reduction",
            ],
        ),
    ] {
        report.set(self_name, self_ms(key));
        report.set(in_name, stage.states_in as f64);
        report.set(out_name, stage.states_out as f64);
        let reduction = if stage.states_in == 0 {
            0.0
        } else {
            stage.states_out as f64 / stage.states_in as f64
        };
        report.set(reduction_name, reduction);
    }
    report.set("compose.self_ms", self_ms("compose"));
    report.set("compose.states_out", counts.compose_states as f64);
    report.set("compose.transitions_out", counts.compose_transitions as f64);
    report.set("hide.self_ms", self_ms("hide"));
    report.set("hide.actions", counts.hidden as f64);
    report.set("aggregate.peak_states", counts.peak_states as f64);
    report.set("aggregate.final_states", counts.final_states as f64);
    report.set("aggregate.steps", counts.steps as f64);
    report.set("goals.self_ms", self_ms("goals"));
    let replayed: f64 = [
        "convert",
        "minimize.element",
        "compose",
        "hide",
        "minimize.step",
        "minimize.close",
        "goals",
    ]
    .iter()
    .map(|n| self_ms(n))
    .sum();
    // Can read slightly below zero when the replay runs slower than the
    // library's own build of the same tree.
    report.set("engine.other_ms", ms(rec.total("engine")) - replayed);
    report.set("query.self_ms", self_ms("query"));
}

/// Sets `trace.*`: the traced wall (sum of `op` spans), the share of it the
/// named layers account for, and the overhead: traced wall over the wall of
/// the `work` spans an untraced op also runs, minus one.
pub fn set_trace_metrics(report: &mut Report, rec: &Recorder, work: &[&str]) {
    let wall = rec.total("op");
    let selfs = rec.self_times();
    let attributed: Duration = selfs
        .iter()
        .filter(|(name, _)| **name != "op")
        .map(|(_, d)| *d)
        .sum();
    let work: Duration = work.iter().map(|n| rec.total(n)).sum();
    report.set("trace.ops", rec.count("op") as f64);
    report.set("trace.wall_ms", ms(wall));
    report.set(
        "trace.attributed_ratio",
        attributed.as_secs_f64() / wall.as_secs_f64().max(1e-12),
    );
    report.set(
        "trace.overhead_ratio",
        wall.as_secs_f64() / work.as_secs_f64().max(1e-12) - 1.0,
    );
}
