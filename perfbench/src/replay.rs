//! Replays the compositional pipeline of `Analyzer::new` through public calls,
//! one span per layer, so a traced run can say where a build's time and states
//! went without instrumenting the library.
//!
//! The order is the library's: `convert`, per-element `minimize`, then each
//! step recorded in `AggregationStats::steps` as `compose` → `hide` →
//! `minimize`, the closing `minimize(drop_input_transitions(..))` and the goal
//! sets.  [`replay`] checks every step's sizes against the session's own
//! statistics and the final `ModelStats` against the session's, so the trace
//! measures the same program the untraced run times.

use crate::trace::Recorder;
use dft::Dft;
use dft_core::aggregate::StepStats;
use dft_core::convert::convert;
use dft_core::semantics::monitor;
use dft_core::Analyzer;
use ioimc::bisim::minimize;
use ioimc::closed::{can_fire_immediately, drop_input_transitions, must_fire_immediately};
use ioimc::compose::compose;
use ioimc::hide::hide;
use ioimc::stats::ModelStats;
use ioimc::{Action, IoImc};
use std::collections::BTreeSet;

/// The monitor process `Analyzer::new` composes into every community.
const MONITOR_NAME: &str = "system monitor";

/// States into and out of one minimisation stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stage {
    /// States handed to `minimize`.
    pub states_in: u64,
    /// States it returned.
    pub states_out: u64,
}

impl Stage {
    fn add(&mut self, before: usize, after: usize) {
        self.states_in += before as u64;
        self.states_out += after as u64;
    }

    /// Accumulates another stage's counts.
    pub fn merge(&mut self, other: Stage) {
        self.states_in += other.states_in;
        self.states_out += other.states_out;
    }
}

/// Exact counts of one replayed build.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayCounts {
    /// Elementary models `convert` produced (the monitor included).
    pub models_out: u64,
    /// Their total states.
    pub states_out: u64,
    /// Per-element minimisation.
    pub element: Stage,
    /// Minimisation after each compose/hide step.
    pub step: Stage,
    /// The closing minimisation.
    pub close: Stage,
    /// States of the composed products.
    pub compose_states: u64,
    /// Transitions of the composed products.
    pub compose_transitions: u64,
    /// Actions hidden over all steps.
    pub hidden: u64,
    /// Composition steps.
    pub steps: u64,
    /// Largest intermediate model, in states.
    pub peak_states: u64,
    /// States of the aggregated model before closing.
    pub final_states: u64,
}

impl ReplayCounts {
    /// Sums counts over builds (the peak is a maximum).
    pub fn merge(&mut self, other: &ReplayCounts) {
        self.models_out += other.models_out;
        self.states_out += other.states_out;
        self.element.merge(other.element);
        self.step.merge(other.step);
        self.close.merge(other.close);
        self.compose_states += other.compose_states;
        self.compose_transitions += other.compose_transitions;
        self.hidden += other.hidden;
        self.steps += other.steps;
        self.peak_states = self.peak_states.max(other.peak_states);
        self.final_states += other.final_states;
    }
}

/// Replays the compositional build of `dft`, following the composition order
/// `session` (a compositional [`Analyzer`] of the same tree) recorded.
///
/// # Errors
///
/// Describes the first point where the replay and the session disagree, or
/// a library error.
pub fn replay(dft: &Dft, session: &Analyzer, rec: &mut Recorder) -> Result<ReplayCounts, String> {
    let steps: &[StepStats] = &session
        .aggregation_stats()
        .ok_or("the session ran no aggregation")?
        .steps;
    let mut counts = ReplayCounts::default();
    let mut peak = 0usize;

    let (models, top_failure) = rec.span("convert", |_| {
        let community = convert(dft).map_err(|e| e.to_string())?;
        let mut models = community.models;
        models.push(
            monitor(MONITOR_NAME, community.top_failure, community.top_repair)
                .map_err(|e| e.to_string())?,
        );
        Ok::<_, String>((models, community.top_failure))
    })?;
    counts.models_out = models.len() as u64;
    counts.states_out = models.iter().map(|m| m.num_states() as u64).sum();

    let mut community: Vec<IoImc> = rec.span("minimize.element", |_| {
        models.iter().map(minimize).collect()
    });
    for (before, after) in models.iter().zip(&community) {
        counts.element.add(before.num_states(), after.num_states());
        peak = peak.max(after.num_states());
    }

    for step in steps {
        let left = take(&mut community, &step.composed.0)?;
        let right = take(&mut community, &step.composed.1)?;
        let composed = rec
            .span("compose", |_| compose(&left, &right))
            .map_err(|e| e.to_string())?;
        let before = ModelStats::of(&composed);
        if before != step.before_aggregation {
            return Err(format!("step {:?}: product sizes differ", step.composed));
        }
        let hidden = rec.span("hide", |_| {
            let needed: BTreeSet<Action> = community
                .iter()
                .flat_map(|m| m.signature().inputs().collect::<Vec<_>>())
                .chain([top_failure])
                .collect();
            let to_hide: Vec<Action> = composed
                .signature()
                .outputs()
                .filter(|a| !needed.contains(a))
                .collect();
            counts.hidden += to_hide.len() as u64;
            if to_hide.len() != step.hidden {
                return Err(format!("step {:?}: hidden actions differ", step.composed));
            }
            hide(&composed, &to_hide).map_err(|e| e.to_string())
        })?;
        let reduced = rec.span("minimize.step", |_| minimize(&hidden));
        if ModelStats::of(&reduced) != step.after_aggregation {
            return Err(format!("step {:?}: minimised sizes differ", step.composed));
        }
        counts.compose_states += before.states as u64;
        counts.compose_transitions += before.transitions() as u64;
        counts.step.add(hidden.num_states(), reduced.num_states());
        counts.steps += 1;
        peak = peak.max(before.states).max(reduced.num_states());
        community.push(reduced);
    }

    let [aggregated] = <[IoImc; 1]>::try_from(community)
        .map_err(|rest| format!("{} models left after the recorded steps", rest.len()))?;
    counts.peak_states = peak as u64;
    counts.final_states = aggregated.num_states() as u64;

    let closed = rec.span("minimize.close", |_| {
        minimize(&drop_input_transitions(&aggregated))
    });
    counts
        .close
        .add(aggregated.num_states(), closed.num_states());
    rec.span("goals", |_| {
        let can = can_fire_immediately(&closed, top_failure);
        let must = must_fire_immediately(&closed, top_failure);
        std::hint::black_box((can, must));
    });

    if ModelStats::of(&closed) != session.model_stats() {
        return Err("replayed closed model differs from the session's".to_owned());
    }
    let stats = session.aggregation_stats().ok_or("no aggregation")?;
    if counts.peak_states != stats.peak.states as u64
        || counts.final_states != stats.final_model.states as u64
    {
        return Err("replayed peak/final states differ from the session's".to_owned());
    }
    Ok(counts)
}

/// Removes the one community member called `name`.
fn take(community: &mut Vec<IoImc>, name: &str) -> Result<IoImc, String> {
    let mut hits = community
        .iter()
        .enumerate()
        .filter(|(_, m)| m.name() == name);
    match (hits.next(), hits.next()) {
        (Some((i, _)), None) => Ok(community.swap_remove(i)),
        (None, _) => Err(format!("no community member named '{name}'")),
        (Some(_), Some(_)) => Err(format!("several community members named '{name}'")),
    }
}
