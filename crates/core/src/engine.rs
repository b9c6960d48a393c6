//! The session-style analysis engine: build the model once, query it many times.
//!
//! The paper's pipeline — convert the DFT to an I/O-IMC community, then
//! compose/hide/minimise it down to one small model — is by far the most expensive
//! part of an analysis, yet it does not depend on the measure being asked.
//! [`Analyzer::new`] therefore runs validation, conversion and compositional
//! aggregation (or monolithic CTMC generation) *exactly once*, caches the closed
//! final model together with its [`AggregationStats`]/[`ModelStats`], and then
//! serves any number of typed [`Measure`] queries against
//! the cache:
//!
//! ```text
//! Analyzer::new:  DFT ──convert──▶ community (+ monitor) ──aggregate──▶ model
//! query(…):       model ──uniformisation──▶ unreliability (point or curve)
//!                 model ──steady state───▶ unavailability
//!                 model ──first passage──▶ MTTF
//! ```
//!
//! A mission-time sweep through [`Measure::UnreliabilityCurve`] additionally
//! shares the uniformisation pass between all time points, so a 100-point curve
//! costs one aggregation and roughly one analysis, where 100 single-point
//! sessions would have paid for 100 of each.
//!
//! # Example
//!
//! ```
//! use dft::{DftBuilder, Dormancy};
//! use dft_core::engine::Analyzer;
//! use dft_core::query::Measure;
//! use dft_core::AnalysisOptions;
//!
//! # fn main() -> Result<(), dft_core::Error> {
//! let mut b = DftBuilder::new();
//! let x = b.basic_event("X", 1.0, Dormancy::Hot)?;
//! let top = b.or_gate("Top", &[x])?;
//! let dft = b.build(top)?;
//!
//! // Build the aggregation pipeline once …
//! let analyzer = Analyzer::new(&dft, AnalysisOptions::default())?;
//! // … then answer many queries against the cached model.
//! let curve = analyzer.query(Measure::curve([0.5, 1.0, 2.0]))?;
//! let mttf = analyzer.query(Measure::Mttf)?;
//! assert_eq!(curve.len(), 3);
//! assert!((mttf.value() - 1.0).abs() < 1e-6);
//! assert_eq!(analyzer.aggregation_runs(), 1);
//! # Ok(())
//! # }
//! ```

use crate::aggregate::{aggregate, AggregationOptions, AggregationStats};
use crate::analysis::{AnalysisOptions, Method};
use crate::baseline;
use crate::convert::{convert, convert_parametric, CommunityOf};
use crate::parametric::{ParamKind, ParamTable, Valuation};
use crate::query::{Measure, MeasurePoint, MeasureResult};
use crate::semantics::monitor;
use crate::store;
use crate::{Error, Result};
use dft::bdd::Bdd;
use dft::modules::{hybrid_plan, ModuleStats};
use dft::{BasicEvent, Dft, Element, ElementId};
use ioimc::bisim::minimize;
use ioimc::closed::{
    can_fire_immediately, check_deterministic, drop_input_transitions, must_fire_immediately,
};
use ioimc::stats::ModelStats;
use ioimc::{Action, IoImc, IoImcOf, ParametricIoImc, Rate};
use markov::steady::steady_state_probability;
use markov::Ctmc;
use markov::{CtmdpState, RelaxKernel};
use std::borrow::Borrow;
use std::collections::HashMap;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Name of the monitor process composed into the community, and of the atomic
/// proposition it attaches to its "system is down" state.
const MONITOR_NAME: &str = "system monitor";
const DOWN_PROP: &str = "down";

/// The closed, minimised model a compositional session is served from, with
/// its scheduler goal sets.
#[derive(Debug)]
pub(crate) struct ClosedModel<R> {
    pub(crate) closed: IoImcOf<R>,
    pub(crate) top_failure: Action,
    pub(crate) has_repair: bool,
    /// Optimistic goal set: "can fire the top failure immediately" —
    /// depends only on the interactive structure, so a parametric model
    /// shares it with every valuation.
    pub(crate) can: Vec<bool>,
    /// Pessimistic goal set: "must fire the top failure immediately".
    pub(crate) must: Vec<bool>,
    /// `true` when the closed model has no immediate non-determinism *and*
    /// the optimistic and pessimistic goal sets coincide, so unreliability is
    /// a point value rather than an interval.
    pub(crate) point_valued: bool,
}

/// The kernel lowering of a closed model before rates are assigned: the
/// CTMDP structure (with placeholder Markovian rates) and the rate of every
/// Markovian edge in kernel edge order — state order, row order within a
/// state, the walk of [`ctmdp_states_of`].  A numeric session lowers its model
/// once, into one single-lane kernel; a parametric session caches this and
/// assigns K valuations per sweep.
#[derive(Debug)]
pub(crate) struct Lowering<R> {
    states: Vec<CtmdpState>,
    rates: Vec<R>,
}

impl<R: Rate> Lowering<R> {
    fn of(closed: &IoImcOf<R>) -> Lowering<R> {
        let mut rates = Vec::new();
        let states = ctmdp_states_of(closed, |rate| {
            rates.push(rate.clone());
            1.0
        });
        Lowering { states, rates }
    }

    /// The one kernel of `lanes` rate assignments: lane `k` rates an edge
    /// of rate `r` at `rate(r, k)`.
    fn kernel(&self, lanes: usize, rate: impl Fn(&R, usize) -> f64) -> Result<RelaxKernel> {
        let mut lane_rates = Vec::with_capacity(self.rates.len() * lanes);
        for r in &self.rates {
            lane_rates.extend((0..lanes).map(|k| rate(r, k)));
        }
        Ok(RelaxKernel::from_template(
            &self.states,
            &lane_rates,
            lanes,
        )?)
    }
}

/// Compositional unreliability over the merged time grid `times`, for every
/// lane of `kernel` — one lane for a session, K for a sweep: the upper bound
/// is the maximal probability of reaching the `can` goals, the lower bound
/// the minimal probability of reaching the `must` goals.  When the model is
/// point-valued the two passes would be the same value iteration over the
/// same kernel, so the lower pass is skipped.
fn unreliability_lanes<R: Rate>(
    model: &ClosedModel<R>,
    kernel: &RelaxKernel,
    times: &[f64],
    epsilon: f64,
) -> Result<Vec<MeasureResult>> {
    let initial = model.closed.initial().index();
    let workers = kernel.auto_workers();
    let reach = |goal: &[bool], maximise| {
        kernel.reachability(initial, goal, times, epsilon, maximise, workers)
    };
    let uppers = reach(&model.can, true)?;
    let lowers = if model.point_valued {
        uppers.clone()
    } else {
        reach(&model.must, false)?
    };
    let lanes = kernel.lanes();
    Ok((0..lanes)
        .map(|k| {
            MeasureResult::new(
                times
                    .iter()
                    .enumerate()
                    .map(|(slot, &t)| {
                        let hi = uppers[slot * lanes + k];
                        let lo = lowers[slot * lanes + k];
                        MeasurePoint::bounded(Some(t), model.point_valued.then_some(hi), (lo, hi))
                    })
                    .collect(),
            )
        })
        .collect())
}

/// The shared tail of both compositional constructors ([`Analyzer::new`] and
/// [`ParametricAnalyzer::new`]): compose the monitor into the community,
/// aggregate with the top failure kept observable, close and minimise the
/// result, and compute the goal sets — identically for numeric and symbolic
/// rates, so the two pipelines cannot drift apart.
fn aggregate_and_close<R: Rate>(
    dft: &Dft,
    options: AnalysisOptions,
    community: CommunityOf<R>,
) -> Result<(Header, ClosedModel<R>)> {
    let top_failure = community.top_failure;
    let has_repair = community.top_repair.is_some();

    // One community serves every measure: the monitor tracks whether the top
    // event is currently (repairable) or has ever been (non-repairable)
    // failed, and the kept top-failure output drives the reachability goals.
    let mut models = community.models;
    models.push(
        monitor(MONITOR_NAME, top_failure, community.top_repair)?
            .map_rates(|_| unreachable!("the monitor carries no Markovian transitions")),
    );
    let (final_model, stats) = aggregate(
        &models,
        &AggregationOptions {
            keep: vec![top_failure],
            ..AggregationOptions::default()
        },
    )?;
    let closed = minimize(&drop_input_transitions(&final_model));

    let can = can_fire_immediately(&closed, top_failure);
    let must = must_fire_immediately(&closed, top_failure);
    let deterministic = check_deterministic(&closed).is_ok();
    let point_valued = deterministic && can == must;

    let header = Header {
        options,
        repairable: dft.is_repairable(),
        aggregation: Some(stats),
        model_stats: ModelStats::of(&closed),
        aggregation_runs: 1,
    };
    let model = ClosedModel {
        closed,
        top_failure,
        has_repair,
        can,
        must,
        point_valued,
    };
    Ok((header, model))
}

/// The build record every session carries, whatever its rates and backend:
/// the options it was built with, what the build ran and how large its result
/// is.
#[derive(Debug)]
pub(crate) struct Header {
    pub(crate) options: AnalysisOptions,
    pub(crate) repairable: bool,
    /// Statistics of the compositional aggregation, merged over the cores of
    /// a hybrid build.  Absent for monolithic builds and parametric
    /// instantiations; always present on parametric sessions.
    pub(crate) aggregation: Option<AggregationStats>,
    pub(crate) model_stats: ModelStats,
    /// Aggregation pipelines *this* session executed: 1 for a compositional
    /// build, one per dynamic core for a hybrid build, 0 for monolithic
    /// builds, parametric instantiations and sessions restored from bytes
    /// (whose `aggregation` describes the run of the original builder, not of
    /// this process).
    pub(crate) aggregation_runs: usize,
}

/// What the rate-generic session code — the one hybrid builder, the store
/// codec and the service cache — needs from the two session types,
/// [`Analyzer`] (numeric rates) and [`ParametricAnalyzer`] (rate forms).
pub(crate) trait Session: Sized {
    /// What a crown basic-event leaf carries: its failure rate in a numeric
    /// session, its parameter slot in a parametric one.
    type Basic: Copy;
    /// One dynamic core of a hybrid decomposition.
    type Core;

    /// Runs the compositional pipeline over the whole tree.
    fn compositional(dft: &Dft, options: AnalysisOptions) -> Result<Self>;
    fn header(&self) -> &Header;
    fn is_nondeterministic(&self) -> bool;
    fn module_stats(&self) -> Option<ModuleStats>;
}

/// The hybrid static/dynamic decomposition (see [`dft::modules::hybrid_plan`])
/// of either session type: each maximal dynamic core is a nested
/// compositional session `C` over its sub-DFT, and the static crown above the
/// cores is a BDD over crown basic events (carrying `B`) and core exits,
/// evaluated combinatorially at query time.  Only built for unrepairable
/// trees whose cores are all deterministic — the conditions under which crown
/// composition is exact; anything else falls back to the compositional
/// backend under the same [`Method::Hybrid`] label.
#[derive(Debug)]
pub(crate) struct Hybrid<B, C> {
    /// The crown function; its variables are original [`dft::ElementId`]
    /// indices described by `leaves`.
    pub(crate) crown: Bdd,
    /// One entry per element of the original tree: what the crown variable
    /// with that index stands for.
    pub(crate) leaves: Vec<Leaf<B>>,
    /// The nested compositional sessions, one per dynamic core.
    pub(crate) cores: Vec<C>,
    /// The modularization decision record of the plan that produced this
    /// decomposition.
    pub(crate) modules: ModuleStats,
}

/// What one crown-BDD variable (an original element id) stands for in a
/// hybrid session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Leaf<B> {
    /// Not a crown leaf: an internal crown gate, or a core member that is not
    /// an exit.  Never referenced by the crown BDD.
    Unused,
    /// A crown basic event, failing exponentially with the (active) rate `B`
    /// stands for — crown events are never spare inputs, so dormancy cannot
    /// apply.
    Basic(B),
    /// The exit of the dynamic core with this index: its failure probability
    /// at `t` is that core's unreliability at `t`.
    Core(u32),
}

impl<B: Copy, C> Hybrid<B, C> {
    /// The per-lane crown step of both session types: one exact BDD
    /// probability per mission time, with `rate` resolving a basic-event leaf
    /// and `core(c)` core `c`'s unreliability over `times` in this lane.
    /// Exact because the cores are pairwise independent and independent of
    /// every crown basic event, and all indicators are monotone ("failed by
    /// t").
    fn crown_points<'a>(
        &self,
        times: &[f64],
        rate: impl Fn(B) -> f64,
        core: impl Fn(usize) -> &'a MeasureResult,
    ) -> MeasureResult {
        let mut probabilities = vec![0.0f64; self.leaves.len()];
        MeasureResult::new(
            times
                .iter()
                .enumerate()
                .map(|(i, &t)| {
                    for (p, leaf) in probabilities.iter_mut().zip(&self.leaves) {
                        *p = match *leaf {
                            Leaf::Unused => 0.0,
                            Leaf::Basic(b) => -(-rate(b) * t).exp_m1(),
                            Leaf::Core(index) => core(index as usize).points()[i].value(),
                        };
                    }
                    MeasurePoint::exact(Some(t), self.crown.probability(&probabilities))
                })
                .collect(),
        )
    }
}

fn add_model_stats(a: ModelStats, b: ModelStats) -> ModelStats {
    ModelStats {
        states: a.states + b.states,
        interactive_transitions: a.interactive_transitions + b.interactive_transitions,
        markovian_transitions: a.markovian_transitions + b.markovian_transitions,
        inputs: a.inputs + b.inputs,
        outputs: a.outputs + b.outputs,
        internals: a.internals + b.internals,
    }
}

/// The one hybrid builder behind [`Analyzer::new`] and
/// [`ParametricAnalyzer::new`]: plans the decomposition, builds one
/// compositional session per dynamic core (wrapped by `core_of`), gives every
/// crown basic event its `basic` leaf and builds the crown BDD, then hands the
/// parts to `assemble`.
///
/// Falls back to the full compositional pipeline (still labelled
/// [`Method::Hybrid`]) whenever the decomposition would not be exact: the
/// tree is repairable (crown BDDs assume monotone "failed by `t`" indicators)
/// or some dynamic core turns out non-deterministic (per-core bounds do not
/// compose through the crown).
fn build_hybrid<S: Session>(
    dft: &Dft,
    options: AnalysisOptions,
    core_of: impl Fn(S) -> S::Core,
    basic: impl Fn(ElementId, &BasicEvent) -> S::Basic,
    assemble: impl FnOnce(Header, Hybrid<S::Basic, S::Core>) -> S,
) -> Result<S> {
    if dft.is_repairable() {
        return S::compositional(dft, options);
    }
    let plan = hybrid_plan(dft);
    let core_options = AnalysisOptions {
        method: Method::Compositional,
        ..options
    };
    // Steps concatenate in core order (the cores run their pipelines
    // sequentially), the peak is the componentwise maximum, and the final
    // model is the disjoint union of the core models — the crown adds no
    // states at all.
    let mut aggregation = AggregationStats::default();
    let mut model_stats = ModelStats::default();
    let mut cores = Vec::with_capacity(plan.cores.len());
    for core in &plan.cores {
        let session = S::compositional(&core.dft, core_options.clone())?;
        if session.is_nondeterministic() {
            return S::compositional(dft, options);
        }
        let header = session.header();
        if let Some(stats) = &header.aggregation {
            aggregation.steps.extend(stats.steps.iter().cloned());
            aggregation.peak = aggregation.peak.max(stats.peak);
            aggregation.final_model = add_model_stats(aggregation.final_model, stats.final_model);
        }
        model_stats = add_model_stats(model_stats, header.model_stats);
        cores.push(core_of(session));
    }

    let mut leaves = vec![Leaf::Unused; dft.num_elements()];
    for &e in &plan.crown {
        if let Element::BasicEvent(be) = dft.element(e) {
            leaves[e.index()] = Leaf::Basic(basic(e, be));
        }
    }
    for (index, core) in plan.cores.iter().enumerate() {
        leaves[core.exit.index()] =
            Leaf::Core(u32::try_from(index).expect("core count fits in u32"));
    }
    let crown = Bdd::build(dft, dft.top(), |e| {
        !matches!(leaves[e.index()], Leaf::Unused)
    })?;

    let header = Header {
        options,
        repairable: false,
        aggregation: Some(aggregation),
        model_stats,
        aggregation_runs: cores.len(),
    };
    Ok(assemble(
        header,
        Hybrid {
            crown,
            leaves,
            cores,
            modules: plan.stats,
        },
    ))
}

/// A reusable analysis session for one DFT: the aggregation pipeline runs once in
/// [`Analyzer::new`], every [`query`](Analyzer::query) after that only touches the
/// cached final model.
///
/// `Analyzer` is `Send + Sync` (statically asserted below): queries take `&self`
/// and mutate nothing but an internal [`OnceLock`], so one session behind an
/// `Arc` can serve any number of threads concurrently — this is what the
/// [`AnalysisService`](crate::service::AnalysisService) worker pool and its model
/// cache rely on.
///
/// See the [module documentation](self) for an example.
#[derive(Debug)]
pub struct Analyzer {
    pub(crate) header: Header,
    pub(crate) backend: Backend,
}

/// The service layer shares `Arc<Analyzer>` across worker threads; losing either
/// auto-trait would silently serialize it again, so assert both at compile time.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Analyzer>()
};

/// The cached artifacts the queries are answered from.
#[derive(Debug)]
// One Backend lives per session, so the size gap between the variants is
// irrelevant — boxing the compositional payload would only add indirection.
#[allow(clippy::large_enum_variant)]
pub(crate) enum Backend {
    /// The paper's compositional pipeline: the closed, minimised I/O-IMC with the
    /// top failure signal kept observable and a monitor process composed in.
    Compositional {
        model: ClosedModel<f64>,
        /// The one lowering of `model`: its unreliability bounds are the
        /// maximising pass towards the `can` goals and the minimising pass
        /// towards the `must` goals over this kernel.
        kernel: RelaxKernel,
        /// Embedded CTMC with the monitor's "down" labels, extracted lazily for
        /// the steady-state and first-passage measures (fails for CTMDPs).  A
        /// [`OnceLock`] rather than a `OnceCell` so a shared `Arc<Analyzer>` can
        /// be queried from many threads at once.
        tangible: OnceLock<Result<(Ctmc, Vec<bool>)>>,
    },
    /// The DIFTree-style baseline: one CTMC over the whole tree.
    Monolithic { ctmc: Ctmc, goal: Vec<bool> },
    /// The hybrid decomposition; crown basic events carry their rate.
    Hybrid(Hybrid<f64, Analyzer>),
}

impl Session for Analyzer {
    type Basic = f64;
    type Core = Analyzer;

    fn compositional(dft: &Dft, options: AnalysisOptions) -> Result<Analyzer> {
        let (header, model) = aggregate_and_close(dft, options, convert(dft)?)?;
        Ok(Analyzer {
            header,
            backend: Backend::compositional(model)?,
        })
    }

    fn header(&self) -> &Header {
        &self.header
    }

    fn is_nondeterministic(&self) -> bool {
        Self::is_nondeterministic(self)
    }

    fn module_stats(&self) -> Option<ModuleStats> {
        Self::module_stats(self)
    }
}

impl Backend {
    /// The compositional backend of a closed numeric model: lowers it, once,
    /// into the kernel its unreliability bounds are computed on.
    pub(crate) fn compositional(model: ClosedModel<f64>) -> Result<Backend> {
        let kernel = Lowering::of(&model.closed).kernel(1, |&rate, _| rate)?;
        Ok(Backend::Compositional {
            model,
            kernel,
            tangible: OnceLock::new(),
        })
    }
}

impl Analyzer {
    /// Builds the analysis session: validates and converts the DFT and runs
    /// compositional aggregation (or monolithic CTMC generation) exactly once.
    ///
    /// # Errors
    ///
    /// Propagates conversion, aggregation and numerical errors; returns
    /// [`Error::Unsupported`] for DFT features outside the selected method's
    /// scope.
    pub fn new(dft: &Dft, options: AnalysisOptions) -> Result<Analyzer> {
        match options.method {
            Method::Compositional => Analyzer::compositional(dft, options),
            Method::Monolithic => Analyzer::monolithic(dft, options),
            Method::Hybrid => build_hybrid(
                dft,
                options,
                |core| core,
                |_, be| be.rate,
                |header, hybrid| Analyzer {
                    header,
                    backend: Backend::Hybrid(hybrid),
                },
            ),
        }
    }

    fn monolithic(dft: &Dft, options: AnalysisOptions) -> Result<Analyzer> {
        let result = baseline::monolithic_ctmc(dft)?;
        let model_stats = ModelStats {
            states: result.ctmc.num_states(),
            markovian_transitions: result.ctmc.num_transitions(),
            ..ModelStats::default()
        };
        Ok(Analyzer {
            header: Header {
                options,
                repairable: dft.is_repairable(),
                aggregation: None,
                model_stats,
                aggregation_runs: 0,
            },
            backend: Backend::Monolithic {
                ctmc: result.ctmc,
                goal: result.goal,
            },
        })
    }

    /// Answers one typed query against the cached model.
    ///
    /// Accepts the measure by value or by reference (`Measure` is owned data, so
    /// batch callers keep their measures and pass `&m`).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Unsupported`] when the cached method cannot produce the
    /// measure (unavailability needs a repairable model and the compositional
    /// method), [`Error::EmptyCurve`] for a curve query without time points,
    /// [`Error::InvalidMissionTime`] for a NaN/infinite/negative mission time
    /// (validated here at the boundary, not deep inside the numerics), and
    /// propagates numerical errors.  The construction work is *not* repeated on
    /// any path.
    pub fn query(&self, measure: impl Borrow<Measure>) -> Result<MeasureResult> {
        let mut results = self.query_all(std::slice::from_ref(measure.borrow()))?;
        Ok(results.pop().expect("query_all answers every measure"))
    }

    /// Answers a whole batch of measures against the cached model, sharing one
    /// uniformisation / value-iteration pass between *all* time-bounded measures
    /// in the batch.
    ///
    /// The requested mission times of every [`Measure::Unreliability`] and
    /// [`Measure::UnreliabilityCurve`] in `measures` are merged (deduplicated
    /// bit-exactly), evaluated in a single multi-time reachability pass, and
    /// distributed back to their measures.  Because the value-iteration
    /// trajectory does not depend on the set of requested times — only each
    /// time's Poisson mixture weights do — every returned point is bit-identical
    /// to what a separate [`query`](Self::query) for that measure would produce.
    ///
    /// Results are returned in the same order as `measures`.
    ///
    /// # Errors
    ///
    /// If any measure in the batch would fail individually, the whole batch
    /// fails with one of those errors and no partial result is returned.  The
    /// error conditions are exactly those of [`query`](Self::query) — in
    /// particular, NaN/infinite/negative mission times are rejected with
    /// [`Error::InvalidMissionTime`] while merging, before any numerical work
    /// starts — but when several measures are faulty the reported error is not
    /// necessarily the first in batch order: curve shapes and mission times
    /// are validated by the shared merged pass, before any scalar measure is
    /// evaluated.
    pub fn query_all(&self, measures: &[Measure]) -> Result<Vec<MeasureResult>> {
        // Merge the mission times of all time-bounded measures, remembering for
        // each measure which slots of the merged grid it reads back.
        let mut grid = TimeGrid::default();
        let plans = measures
            .iter()
            .map(|measure| {
                mission_times(measure)?
                    .map(|times| grid.slots(times))
                    .transpose()
            })
            .collect::<Result<Vec<Option<Vec<usize>>>>>()?;

        let merged = if grid.times.is_empty() {
            None
        } else {
            Some(self.unreliability_points(&grid.times)?)
        };

        measures
            .iter()
            .zip(plans)
            .map(|(measure, plan)| match (plan, &merged) {
                (Some(slots), Some(merged)) => Ok(MeasureResult::new(
                    slots.iter().map(|&slot| merged.points()[slot]).collect(),
                )),
                _ => self.scalar_point(measure),
            })
            .collect()
    }

    /// Convenience for [`Measure::Unreliability`].
    ///
    /// # Errors
    ///
    /// Same as [`query`](Self::query).
    pub fn unreliability(&self, mission_time: f64) -> Result<MeasureResult> {
        self.query(Measure::Unreliability(mission_time))
    }

    /// Convenience for [`Measure::UnreliabilityCurve`].
    ///
    /// # Errors
    ///
    /// Same as [`query`](Self::query).
    pub fn unreliability_curve(&self, mission_times: &[f64]) -> Result<MeasureResult> {
        self.query(Measure::UnreliabilityCurve(mission_times.to_vec()))
    }

    /// Convenience for [`Measure::Unavailability`].
    ///
    /// # Errors
    ///
    /// Same as [`query`](Self::query).
    pub fn unavailability(&self) -> Result<MeasureResult> {
        self.query(Measure::Unavailability)
    }

    /// Convenience for [`Measure::Mttf`].
    ///
    /// # Errors
    ///
    /// Same as [`query`](Self::query).
    pub fn mttf(&self) -> Result<MeasureResult> {
        self.query(Measure::Mttf)
    }

    fn unreliability_points(&self, times: &[f64]) -> Result<MeasureResult> {
        let epsilon = self.header.options.epsilon;
        match &self.backend {
            Backend::Monolithic { ctmc, goal } => {
                let values = ctmc.reachability_multi(goal, times, epsilon)?;
                Ok(MeasureResult::new(
                    times
                        .iter()
                        .zip(values)
                        .map(|(&t, v)| MeasurePoint::exact(Some(t), v))
                        .collect(),
                ))
            }
            Backend::Compositional { model, kernel, .. } => {
                let mut lanes = unreliability_lanes(model, kernel, times, epsilon)?;
                Ok(lanes.pop().expect("a session kernel has one lane"))
            }
            Backend::Hybrid(hybrid) => {
                // One multi-time pass per dynamic core, then the crown per
                // time point.
                let cores = hybrid
                    .cores
                    .iter()
                    .map(|core| core.unreliability_points(times))
                    .collect::<Result<Vec<MeasureResult>>>()?;
                Ok(hybrid.crown_points(times, |rate| rate, |core| &cores[core]))
            }
        }
    }

    /// Answers [`Measure::Unavailability`] or [`Measure::Mttf`].
    fn scalar_point(&self, measure: &Measure) -> Result<MeasureResult> {
        let epsilon = self.header.options.epsilon;
        let value = match (measure, &self.backend) {
            (Measure::Unavailability, _) if !self.header.repairable => {
                return Err(Error::Unsupported {
                    message: "unavailability analysis needs at least one repairable basic event"
                        .to_owned(),
                })
            }
            (Measure::Unavailability, Backend::Monolithic { .. }) => {
                return Err(Error::Unsupported {
                    message: "the monolithic baseline only supports unreliability analysis"
                        .to_owned(),
                })
            }
            // Defensive: a genuine hybrid backend implies an unrepairable tree,
            // so the check above already returned.
            (Measure::Unavailability, Backend::Hybrid(_)) => {
                return Err(Error::Unsupported {
                    message: "the hybrid decomposition only exists for unrepairable trees"
                        .to_owned(),
                })
            }
            (Measure::Unavailability, Backend::Compositional { model, .. }) => {
                if !model.has_repair {
                    return Err(Error::Unsupported {
                        message: "the top event never emits a repair signal".to_owned(),
                    });
                }
                let (ctmc, down) = self.tangible()?;
                steady_state_probability(ctmc, down, epsilon)?
            }
            (_, Backend::Monolithic { ctmc, goal }) => {
                markov::mttf::mean_time_to_absorption(ctmc, goal, epsilon)?
            }
            (_, Backend::Compositional { .. }) => {
                let (ctmc, down) = self.tangible()?;
                markov::mttf::mean_time_to_absorption(ctmc, down, epsilon)?
            }
            // MTTF needs a single first-passage model; the hybrid crown only
            // composes time-bounded failure probabilities.
            (_, Backend::Hybrid(_)) => {
                return Err(Error::Unsupported {
                    message: "the hybrid decomposition only supports unreliability analysis; \
                              use the compositional method for MTTF"
                        .to_owned(),
                });
            }
        };
        Ok(MeasureResult::new(vec![MeasurePoint::exact(None, value)]))
    }

    /// The embedded CTMC of the closed model with its "down" labels, extracted on
    /// first use and cached for the session.
    fn tangible(&self) -> Result<(&Ctmc, &[bool])> {
        let Backend::Compositional {
            model, tangible, ..
        } = &self.backend
        else {
            unreachable!("tangible() is only called on the compositional backend");
        };
        match tangible.get_or_init(|| extract_ctmc_with_label(&model.closed, DOWN_PROP)) {
            Ok((ctmc, labels)) => Ok((ctmc, labels)),
            Err(e) => Err(e.clone()),
        }
    }

    /// The options the session was built with.
    pub fn options(&self) -> &AnalysisOptions {
        &self.header.options
    }

    /// The analysis method backing this session.
    pub fn method(&self) -> Method {
        self.header.options.method
    }

    /// Statistics of the compositional aggregation run (absent for the monolithic
    /// method).  The statistics are computed during [`Analyzer::new`] and never
    /// change afterwards, however many queries are answered.
    pub fn aggregation_stats(&self) -> Option<&AggregationStats> {
        self.header.aggregation.as_ref()
    }

    /// Size of the final analysed model (the closed aggregated I/O-IMC or the
    /// monolithic CTMC).
    pub fn model_stats(&self) -> ModelStats {
        self.header.model_stats
    }

    /// How many times this session has run compositional aggregation: 1 for a
    /// compositional build, one per dynamic core for a hybrid build, 0 for the
    /// monolithic baseline, for parametric instantiations *and* for sessions
    /// restored from bytes (a restored session carries the original run's
    /// [`aggregation_stats`] but ran no pipeline of its own — that is the
    /// entire point of persisting it) — and never more, regardless of how many
    /// queries were answered.
    ///
    /// [`aggregation_stats`]: Self::aggregation_stats
    pub fn aggregation_runs(&self) -> usize {
        self.header.aggregation_runs
    }

    /// Returns `true` if the final model contained immediate non-determinism, so
    /// unreliability queries report scheduler bounds instead of point values.
    pub fn is_nondeterministic(&self) -> bool {
        match &self.backend {
            Backend::Compositional { model, .. } => !model.point_valued,
            // A hybrid backend is only ever built from deterministic cores.
            Backend::Monolithic { .. } | Backend::Hybrid(_) => false,
        }
    }

    /// The closed, minimised final I/O-IMC (compositional method only; a hybrid
    /// session has one closed model *per core* and no single final I/O-IMC).
    pub fn final_model(&self) -> Option<&IoImc> {
        match &self.backend {
            Backend::Compositional { model, .. } => Some(&model.closed),
            Backend::Monolithic { .. } | Backend::Hybrid(_) => None,
        }
    }

    /// The observable top-failure action of the cached model (compositional
    /// method only).
    pub fn top_failure(&self) -> Option<Action> {
        match &self.backend {
            Backend::Compositional { model, .. } => Some(model.top_failure),
            Backend::Monolithic { .. } | Backend::Hybrid(_) => None,
        }
    }

    /// The modularization record of the hybrid decomposition: how many static
    /// modules were found, how many elements ended up in the BDD crown and how
    /// many in dynamic cores.  `None` for the other methods *and* for hybrid
    /// sessions that fell back to the compositional pipeline (repairable tree
    /// or a non-deterministic core) — so `Some` here certifies that the
    /// decomposition actually happened.
    pub fn module_stats(&self) -> Option<ModuleStats> {
        match &self.backend {
            Backend::Hybrid(hybrid) => Some(hybrid.modules),
            Backend::Compositional { .. } | Backend::Monolithic { .. } => None,
        }
    }

    /// Serializes the session into the versioned binary container of the
    /// persistent model cache (see [`crate::store`]): the closed model, its
    /// CTMDP lowering once with the can and once with the must goal vector,
    /// the statistics and the options, framed with magic, format version and
    /// a payload checksum.
    ///
    /// The inverse is [`from_bytes`](Self::from_bytes); a restored session
    /// answers every query bit-identically to this one and reports
    /// [`aggregation_runs`](Self::aggregation_runs)` == 0`.
    pub fn to_bytes(&self) -> Vec<u8> {
        store::to_bytes(self)
    }

    /// Restores a session serialized with [`to_bytes`](Self::to_bytes).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Store`] when the bytes are truncated, corrupted, from
    /// a different format version, or decode to a model that fails
    /// validation.  Never panics on malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Analyzer> {
        store::from_bytes(bytes)
    }
}

/// A *parametric* analysis session: the symbolic-rate aggregation pipeline runs
/// once in [`ParametricAnalyzer::new`], and [`instantiate`](Self::instantiate)
/// then turns the cached parametric model into a numeric [`Analyzer`] for any
/// rate [`Valuation`] — by evaluating linear [`RateForm`](ioimc::RateForm)s,
/// **without** re-running conversion, composition or bisimulation minimisation.
///
/// This is the engine behind rate-sensitivity sweeps: a K-point sweep costs one
/// aggregation plus K cheap instantiations, where K independent
/// [`Analyzer::new`] calls would pay K full aggregations.  The aggregation lumps
/// states only when their cumulative rate *forms* coincide, which is sound for
/// every positive valuation at once; each instantiated session therefore
/// answers every [`Measure`] within numerical tolerance of (and typically
/// bit-identical to) a direct build on the equivalently re-rated tree.
///
/// # Example
///
/// ```
/// use dft::{DftBuilder, Dormancy};
/// use dft_core::engine::ParametricAnalyzer;
/// use dft_core::AnalysisOptions;
///
/// # fn main() -> Result<(), dft_core::Error> {
/// let mut b = DftBuilder::new();
/// let x = b.basic_event("X", 1.0, Dormancy::Hot)?;
/// let top = b.or_gate("Top", &[x])?;
/// let dft = b.build(top)?;
///
/// // Aggregate the *structure* once …
/// let parametric = ParametricAnalyzer::new(&dft, AnalysisOptions::default())?;
/// // … then sweep the failure-rate scale without re-aggregating.
/// let valuations: Vec<_> = (1..=5)
///     .map(|i| parametric.params().scaled_valuation(i as f64))
///     .collect();
/// let sweep = parametric.sweep_unreliability(1.0, &valuations)?;
/// assert_eq!(sweep.len(), 5);
/// assert_eq!(parametric.aggregation_runs(), 1);
/// // Each point matches the closed form 1 - exp(-scale·t).
/// for (i, value) in sweep.values().enumerate() {
///     let exact = 1.0 - (-((i + 1) as f64)).exp();
///     assert!((value - exact).abs() < 1e-6);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ParametricAnalyzer {
    pub(crate) header: Header,
    /// What every slot of a [`Valuation`] means.  Always the table
    /// [`convert_parametric`] builds for the tree — one failure (and, where
    /// repairable, repair) slot per basic event in element order — whichever
    /// backend answers the queries.
    pub(crate) params: ParamTable,
    pub(crate) backend: ParametricBackend,
}

/// The parametric counterpart of [`Backend`]: what [`ParametricAnalyzer`]
/// caches between [`instantiate`](ParametricAnalyzer::instantiate) calls.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
pub(crate) enum ParametricBackend {
    /// The symbolic closed model of the full tree (rates are linear forms).
    Compositional {
        model: ClosedModel<ioimc::RateForm>,
        /// The lowering of the closed model, computed on first sweep:
        /// batched sweeps evaluate its rate forms straight into kernel lanes
        /// instead of instantiating one session per valuation.
        lowering: OnceLock<Lowering<ioimc::RateForm>>,
    },
    /// The hybrid decomposition; crown basic events carry their failure slot
    /// in the session's global [`ParamTable`].
    Hybrid(Hybrid<u32, ParametricCore>),
}

/// One dynamic core of a parametric hybrid session: the nested parametric
/// session over the core's sub-DFT plus the projection from the global
/// parameter table onto the core's own table.
#[derive(Debug)]
pub(crate) struct ParametricCore {
    pub(crate) analyzer: ParametricAnalyzer,
    /// `slots[i]` is the global slot feeding slot `i` of `analyzer.params()`.
    pub(crate) slots: Vec<u32>,
}

impl ParametricCore {
    /// Projects a global valuation onto the core's own parameter table.
    fn project(&self, values: &[f64]) -> Valuation {
        Valuation::new(self.slots.iter().map(|&s| values[s as usize]).collect())
    }
}

const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ParametricAnalyzer>()
};

impl Session for ParametricAnalyzer {
    type Basic = u32;
    type Core = ParametricCore;

    fn compositional(dft: &Dft, options: AnalysisOptions) -> Result<ParametricAnalyzer> {
        let (community, params) = convert_parametric(dft)?;
        let (header, model) = aggregate_and_close(dft, options, community)?;
        Ok(ParametricAnalyzer {
            header,
            params,
            backend: ParametricBackend::Compositional {
                model,
                lowering: OnceLock::new(),
            },
        })
    }

    fn header(&self) -> &Header {
        &self.header
    }

    fn is_nondeterministic(&self) -> bool {
        Self::is_nondeterministic(self)
    }

    fn module_stats(&self) -> Option<ModuleStats> {
        Self::module_stats(self)
    }
}

impl ParametricAnalyzer {
    /// Builds the parametric session: validates and converts the DFT with
    /// symbolic rates and runs compositional aggregation exactly once — per
    /// dynamic core for [`Method::Hybrid`], over the whole tree otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Unsupported`] for [`Method::Monolithic`] options (the
    /// monolithic baseline has no parametric form) and propagates conversion
    /// and aggregation errors.
    pub fn new(dft: &Dft, options: AnalysisOptions) -> Result<ParametricAnalyzer> {
        match options.method {
            Method::Compositional => ParametricAnalyzer::compositional(dft, options),
            Method::Monolithic => Err(Error::Unsupported {
                message: "the monolithic baseline has no parametric form".to_owned(),
            }),
            Method::Hybrid => {
                // The session-global parameter table: exactly what
                // `convert_parametric` builds, so valuations, base valuations
                // and slot lookups are identical across backends.  Extraction
                // preserves element names, so every core and crown parameter
                // maps onto a global slot.
                let params = ParamTable::from_dft(dft);
                let slot = |element: &str, kind: ParamKind| {
                    params
                        .slot_of(element, kind)
                        .expect("core and crown basic events are basic events of the tree")
                        as u32
                };
                build_hybrid(
                    dft,
                    options,
                    |analyzer: ParametricAnalyzer| ParametricCore {
                        slots: analyzer
                            .params
                            .slots()
                            .iter()
                            .map(|s| slot(&s.element, s.kind))
                            .collect(),
                        analyzer,
                    },
                    |e, _| slot(dft.name(e), ParamKind::Failure),
                    |header, hybrid| ParametricAnalyzer {
                        header,
                        params: params.clone(),
                        backend: ParametricBackend::Hybrid(hybrid),
                    },
                )
            }
        }
    }

    /// Instantiates the cached parametric model for one rate assignment,
    /// returning a numeric [`Analyzer`] ready to answer queries.
    ///
    /// Only the linear rate forms are evaluated (in deterministic slot order);
    /// no conversion, composition or minimisation is repeated — the returned
    /// session reports [`aggregation_runs`](Analyzer::aggregation_runs) `== 0`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidValuation`] when the valuation does not fit the
    /// model's [`ParamTable`] and propagates kernel construction errors.
    pub fn instantiate(&self, valuation: &Valuation) -> Result<Analyzer> {
        valuation.check_against(&self.params)?;
        let values = valuation.values();
        let backend = match &self.backend {
            ParametricBackend::Compositional { model, .. } => {
                let closed = model.closed.map_rates(|form| form.eval(values));
                debug_assert!(closed.validate().is_ok());
                Backend::compositional(ClosedModel {
                    closed,
                    top_failure: model.top_failure,
                    has_repair: model.has_repair,
                    can: model.can.clone(),
                    must: model.must.clone(),
                    point_valued: model.point_valued,
                })?
            }
            // Instantiate every core through its slot projection; the crown
            // structure is shared (it does not depend on rates).
            ParametricBackend::Hybrid(hybrid) => Backend::Hybrid(Hybrid {
                crown: hybrid.crown.clone(),
                leaves: hybrid
                    .leaves
                    .iter()
                    .map(|leaf| match *leaf {
                        Leaf::Unused => Leaf::Unused,
                        Leaf::Basic(slot) => Leaf::Basic(values[slot as usize]),
                        Leaf::Core(index) => Leaf::Core(index),
                    })
                    .collect(),
                cores: hybrid
                    .cores
                    .iter()
                    .map(|core| core.analyzer.instantiate(&core.project(values)))
                    .collect::<Result<Vec<Analyzer>>>()?,
                modules: hybrid.modules,
            }),
        };
        Ok(Analyzer {
            header: Header {
                options: self.header.options.clone(),
                repairable: self.header.repairable,
                // Instantiation runs no aggregation; the stats live on `self`.
                aggregation: None,
                model_stats: self.header.model_stats,
                aggregation_runs: 0,
            },
            backend,
        })
    }

    /// Evaluates one measure across a whole sweep of valuations with zero
    /// re-aggregations.
    ///
    /// Time-bounded measures ([`Measure::Unreliability`] and
    /// [`Measure::UnreliabilityCurve`]) run *batched*: every valuation
    /// becomes one lane of a [`RelaxKernel`], so the whole sweep costs one
    /// (or two, for non-deterministic models) traversal of the shared
    /// structure instead of one value iteration per point.  Each lane keeps
    /// its own uniformisation rate, so every result is bit-identical to
    /// [`instantiate`](Self::instantiate)` + `[`Analyzer::query`] on that
    /// valuation alone — and independent of the kernel's worker count.
    /// [`Measure::Unavailability`] and [`Measure::Mttf`] fall back to the
    /// per-point loop.
    ///
    /// # Errors
    ///
    /// Fails on the first invalid valuation or query error (see
    /// [`instantiate`](Self::instantiate) and [`Analyzer::query`]).  A sweep
    /// over zero valuations succeeds without validating the measure, like
    /// the per-point loop it replaces.
    pub fn sweep_query(&self, measure: &Measure, valuations: &[Valuation]) -> Result<RateSweep> {
        if valuations.is_empty() {
            return Ok(RateSweep {
                results: Vec::new(),
                instantiate_time: Duration::ZERO,
                query_time: Duration::ZERO,
            });
        }
        match mission_times(measure)? {
            Some(times) => self.sweep_batched(times, valuations),
            None => self.sweep_per_point(measure, valuations),
        }
    }

    /// The pre-kernel sweep loop: instantiate + query per valuation.  Still
    /// the path for measures the batched kernel does not cover.
    fn sweep_per_point(&self, measure: &Measure, valuations: &[Valuation]) -> Result<RateSweep> {
        let mut results = Vec::with_capacity(valuations.len());
        let mut instantiate_time = Duration::ZERO;
        let mut query_time = Duration::ZERO;
        for valuation in valuations {
            let started = Instant::now();
            let session = self.instantiate(valuation)?;
            instantiate_time += started.elapsed();
            let started = Instant::now();
            results.push(session.query(measure)?);
            query_time += started.elapsed();
        }
        Ok(RateSweep {
            results,
            instantiate_time,
            query_time,
        })
    }

    /// The batched sweep: K valuations become K lanes of one [`RelaxKernel`]
    /// built from the cached [`Lowering`], and one value-iteration pass per
    /// goal set answers every lane and every time bound at once.
    fn sweep_batched(&self, times: &[f64], valuations: &[Valuation]) -> Result<RateSweep> {
        // Merge duplicate time bounds exactly as `Analyzer::query_all` does,
        // so each lane reads the same merged grid a per-point query would.
        let mut grid = TimeGrid::default();
        let slots = grid.slots(times)?;
        let unique_times = &grid.times;

        let started = Instant::now();
        for valuation in valuations {
            valuation.check_against(&self.params)?;
        }
        let mut instantiate_time = started.elapsed();
        let mut query_time = Duration::ZERO;
        let lanes = match &self.backend {
            ParametricBackend::Compositional { model, lowering } => {
                let started = Instant::now();
                // Same forms, same eval, same slot order as `map_rates`
                // inside `instantiate` — lane k's rates carry identical bits.
                let kernel = lowering
                    .get_or_init(|| Lowering::of(&model.closed))
                    .kernel(valuations.len(), |form, k| {
                        form.eval(valuations[k].values())
                    })?;
                instantiate_time += started.elapsed();
                let started = Instant::now();
                let lanes =
                    unreliability_lanes(model, &kernel, unique_times, self.header.options.epsilon)?;
                query_time += started.elapsed();
                lanes
            }
            ParametricBackend::Hybrid(hybrid) => {
                // One nested batched sweep per core over the merged grid.
                // Each core sweep is bit-identical to instantiating that core
                // per valuation, so the whole hybrid sweep matches the
                // per-point hybrid path bit for bit.
                let measure = Measure::UnreliabilityCurve(unique_times.clone());
                let mut cores = Vec::with_capacity(hybrid.cores.len());
                for core in &hybrid.cores {
                    let projected: Vec<Valuation> = valuations
                        .iter()
                        .map(|v| core.project(v.values()))
                        .collect();
                    let sweep = core.analyzer.sweep_query(&measure, &projected)?;
                    instantiate_time += sweep.instantiate_time();
                    query_time += sweep.query_time();
                    cores.push(sweep.results);
                }
                let started = Instant::now();
                let lanes = valuations
                    .iter()
                    .enumerate()
                    .map(|(k, valuation)| {
                        let values = valuation.values();
                        hybrid.crown_points(
                            unique_times,
                            |slot| values[slot as usize],
                            |core| &cores[core][k],
                        )
                    })
                    .collect();
                query_time += started.elapsed();
                lanes
            }
        };
        Ok(RateSweep {
            results: lanes
                .iter()
                .map(|lane| {
                    MeasureResult::new(slots.iter().map(|&slot| lane.points()[slot]).collect())
                })
                .collect(),
            instantiate_time,
            query_time,
        })
    }

    /// Convenience sweep of [`Measure::Unreliability`] at mission time `t`: the
    /// query surface of a rate-sensitivity study (one unreliability value per
    /// valuation, one aggregation total).
    ///
    /// # Errors
    ///
    /// Same as [`sweep_query`](Self::sweep_query).
    pub fn sweep_unreliability(&self, t: f64, valuations: &[Valuation]) -> Result<RateSweep> {
        self.sweep_query(&Measure::Unreliability(t), valuations)
    }

    /// The parameter slots of the model: what each slot means, its base value,
    /// and the [`Valuation`] constructors.
    pub fn params(&self) -> &ParamTable {
        &self.params
    }

    /// The valuation reproducing the original tree's rates.
    pub fn base_valuation(&self) -> Valuation {
        self.params.base_valuation()
    }

    /// The options the session was built with.
    pub fn options(&self) -> &AnalysisOptions {
        &self.header.options
    }

    /// Statistics of the (single) compositional aggregation run.
    pub fn aggregation_stats(&self) -> &AggregationStats {
        self.header
            .aggregation
            .as_ref()
            .expect("every parametric session carries its aggregation record")
    }

    /// Size of the closed parametric model.
    pub fn model_stats(&self) -> ModelStats {
        self.header.model_stats
    }

    /// How many times this session has run compositional aggregation: 1 for a
    /// freshly built session — however many valuations were instantiated or
    /// swept — one per dynamic core for a hybrid build, and 0 for a session
    /// restored via [`from_bytes`](Self::from_bytes), which reuses the
    /// original builder's aggregation instead of running its own.
    pub fn aggregation_runs(&self) -> usize {
        self.header.aggregation_runs
    }

    /// Returns `true` if the parametric model contains immediate
    /// non-determinism, so instantiated sessions report scheduler bounds.
    pub fn is_nondeterministic(&self) -> bool {
        match &self.backend {
            ParametricBackend::Compositional { model, .. } => !model.point_valued,
            // Hybrid sessions are only ever built from deterministic cores.
            ParametricBackend::Hybrid(_) => false,
        }
    }

    /// The closed, minimised parametric I/O-IMC (compositional backend only; a
    /// hybrid session has one parametric model per core).
    pub fn final_model(&self) -> Option<&ParametricIoImc> {
        match &self.backend {
            ParametricBackend::Compositional { model, .. } => Some(&model.closed),
            ParametricBackend::Hybrid(_) => None,
        }
    }

    /// The observable top-failure action of the cached model (compositional
    /// backend only).
    pub fn top_failure(&self) -> Option<Action> {
        match &self.backend {
            ParametricBackend::Compositional { model, .. } => Some(model.top_failure),
            ParametricBackend::Hybrid(_) => None,
        }
    }

    /// The modularization record of the hybrid decomposition — same contract
    /// as [`Analyzer::module_stats`]: `Some` certifies that the decomposition
    /// actually happened rather than falling back.
    pub fn module_stats(&self) -> Option<ModuleStats> {
        match &self.backend {
            ParametricBackend::Hybrid(hybrid) => Some(hybrid.modules),
            ParametricBackend::Compositional { .. } => None,
        }
    }

    /// Serializes the parametric session into the versioned binary container
    /// of the persistent model cache (see [`crate::store`]): the closed
    /// parametric quotient (rates as sparse linear forms), the
    /// [`ParamTable`], the precomputed can/must goal sets, statistics and
    /// options.
    ///
    /// The inverse is [`from_bytes`](Self::from_bytes); a restored session
    /// instantiates every valuation bit-identically to this one and reports
    /// [`aggregation_runs`](Self::aggregation_runs)` == 0`.
    pub fn to_bytes(&self) -> Vec<u8> {
        store::to_bytes(self)
    }

    /// Restores a session serialized with [`to_bytes`](Self::to_bytes).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Store`] on truncated, corrupted or stale input; never
    /// panics on malformed bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<ParametricAnalyzer> {
        store::from_bytes(bytes)
    }
}

/// The result of a rate sweep: one [`MeasureResult`] per valuation, in request
/// order, plus the wall-clock split between instantiation and querying.
#[derive(Debug, Clone)]
pub struct RateSweep {
    results: Vec<MeasureResult>,
    instantiate_time: Duration,
    query_time: Duration,
}

impl RateSweep {
    /// One result per valuation, in the order the valuations were passed.
    pub fn results(&self) -> &[MeasureResult] {
        &self.results
    }

    /// The scalar values of all results, in valuation order (see
    /// [`MeasureResult::value`] for the non-determinism convention).
    pub fn values(&self) -> impl Iterator<Item = f64> + '_ {
        self.results.iter().map(MeasureResult::value)
    }

    /// Number of valuations evaluated.
    pub fn len(&self) -> usize {
        self.results.len()
    }

    /// Returns `true` for a sweep over no valuations.
    pub fn is_empty(&self) -> bool {
        self.results.is_empty()
    }

    /// Total time spent evaluating rate forms and building kernels.
    pub fn instantiate_time(&self) -> Duration {
        self.instantiate_time
    }

    /// Total time spent answering the measure queries.
    pub fn query_time(&self) -> Duration {
        self.query_time
    }
}

/// Rejects mission times no transient analysis can answer — NaN, infinite or
/// negative — with a typed error at the query boundary, so they never reach
/// the uniformisation routines (which would report them as an untyped
/// numerical [`markov::Error::InvalidValue`] from deep inside the kernel).
fn validate_mission_time(t: f64) -> Result<()> {
    if t.is_finite() && t >= 0.0 {
        Ok(())
    } else {
        Err(Error::InvalidMissionTime { value: t })
    }
}

/// The mission times of a time-bounded measure, `None` for the scalar
/// measures; an empty curve is a typed [`Error::EmptyCurve`].
fn mission_times(measure: &Measure) -> Result<Option<&[f64]>> {
    match measure {
        Measure::Unreliability(t) => Ok(Some(std::slice::from_ref(t))),
        Measure::UnreliabilityCurve(times) if times.is_empty() => Err(Error::EmptyCurve),
        Measure::UnreliabilityCurve(times) => Ok(Some(times)),
        Measure::Unavailability | Measure::Mttf => Ok(None),
    }
}

/// The merged mission-time grid of a batch: every distinct time (compared
/// bit-exactly) once, in first-occurrence order, so one multi-time pass
/// answers every time-bounded measure of a query batch or sweep.
#[derive(Default)]
struct TimeGrid {
    times: Vec<f64>,
    slot_of: HashMap<u64, usize>,
}

impl TimeGrid {
    /// Validates `times`, adds the new ones to the grid and returns the grid
    /// slot each of them reads back.
    fn slots(&mut self, times: &[f64]) -> Result<Vec<usize>> {
        times
            .iter()
            .map(|&t| {
                validate_mission_time(t)?;
                Ok(*self.slot_of.entry(t.to_bits()).or_insert_with(|| {
                    self.times.push(t);
                    self.times.len() - 1
                }))
            })
            .collect()
    }
}

/// Converts a closed I/O-IMC into the CTMDP state vector used by the `markov`
/// crate: urgent states offer their immediate successors as a non-deterministic
/// choice, all other states race their Markovian transitions, each at the rate
/// `rate_of` gives it (called in state order, row order within a state).
pub(crate) fn ctmdp_states_of<R: Rate>(
    closed: &IoImcOf<R>,
    mut rate_of: impl FnMut(&R) -> f64,
) -> Vec<CtmdpState> {
    closed
        .states()
        .map(|s| {
            let immediate: Vec<u32> = closed
                .interactive_from(s)
                .iter()
                .filter(|t| t.label.is_immediate())
                .map(|t| t.to.index() as u32)
                .collect();
            if !immediate.is_empty() {
                CtmdpState::Immediate(immediate)
            } else {
                CtmdpState::Markovian(
                    closed
                        .markovian_from(s)
                        .iter()
                        .map(|t| (t.to.index() as u32, rate_of(&t.rate)))
                        .collect(),
                )
            }
        })
        .collect()
}

/// Eliminates the remaining immediate (vanishing) states of a closed, deterministic
/// I/O-IMC and returns the embedded CTMC together with a boolean label vector for
/// the given atomic proposition.
///
/// # Errors
///
/// Returns [`Error::Ioimc`] wrapping a non-determinism error if some vanishing
/// state has more than one immediate successor, and [`Error::Unsupported`] if an
/// immediate cycle (divergence) survives into the closed model — such a chain has
/// no embedded CTMC.
fn extract_ctmc_with_label(closed: &IoImc, prop: &str) -> Result<(Ctmc, Vec<bool>)> {
    check_deterministic(closed).map_err(Error::from)?;
    let prop_id = closed.prop(prop);

    // Resolve each state to the non-urgent state its immediate chain ends in; an
    // immediate cycle never reaches one, which surfaces as an error rather than a
    // panic further down.
    let resolve = |start: ioimc::StateId| -> Result<ioimc::StateId> {
        let mut current = start;
        let mut hops = 0;
        loop {
            let next = closed
                .interactive_from(current)
                .iter()
                .find(|t| t.label.is_immediate())
                .map(|t| t.to);
            match next {
                Some(n) => {
                    current = n;
                    hops += 1;
                    if hops > closed.num_states() {
                        return Err(Error::Unsupported {
                            message: format!(
                                "the closed model diverges: state {} starts a cycle of \
                                 immediate transitions, so no embedded CTMC exists",
                                start.index()
                            ),
                        });
                    }
                }
                None => return Ok(current),
            }
        }
    };

    // Tangible states (no outgoing immediate transition) form the CTMC.
    let tangible: Vec<ioimc::StateId> = closed.states().filter(|&s| !closed.is_urgent(s)).collect();
    let index_of = |s: ioimc::StateId| -> u32 {
        tangible
            .binary_search(&s)
            .expect("resolve() only returns non-urgent states, which are all tangible")
            as u32
    };

    let mut transitions: Vec<(u32, u32, f64)> = Vec::new();
    for &s in &tangible {
        for t in closed.markovian_from(s) {
            transitions.push((index_of(s), index_of(resolve(t.to)?), t.rate));
        }
    }
    let initial = index_of(resolve(closed.initial())?) as usize;
    let ctmc = Ctmc::from_transitions(tangible.len(), initial, &transitions)?;
    let labels = tangible
        .iter()
        .map(|&s| prop_id.map(|p| closed.has_prop(s, p)).unwrap_or(false))
        .collect();
    Ok((ctmc, labels))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use dft::{DftBuilder, Dormancy};

    fn exp_cdf(rate: f64, t: f64) -> f64 {
        1.0 - (-rate * t).exp()
    }

    #[test]
    fn one_session_serves_every_measure() {
        let mut b = DftBuilder::new();
        let p = b.basic_event("en_P", 1.0, Dormancy::Hot).unwrap();
        let s = b.basic_event("en_S", 1.0, Dormancy::Cold).unwrap();
        let top = b.spare_gate("en_Top", &[p, s]).unwrap();
        let dft = b.build(top).unwrap();
        let analyzer = Analyzer::new(&dft, AnalysisOptions::default()).unwrap();

        // Erlang(2, 1) failure time.
        let t = 1.0;
        let r = analyzer.unreliability(t).unwrap();
        let exact = 1.0 - (-t).exp() * (1.0 + t);
        assert!((r.value() - exact).abs() < 1e-6, "{} vs {exact}", r.value());
        assert!(!r.is_nondeterministic());

        let mttf = analyzer.mttf().unwrap();
        assert!((mttf.value() - 2.0).abs() < 1e-6, "{}", mttf.value());

        assert!(analyzer.unavailability().is_err(), "not repairable");
        assert_eq!(analyzer.aggregation_runs(), 1);
        assert!(analyzer.aggregation_stats().is_some());
        assert!(analyzer.model_stats().states > 0);
        assert!(analyzer.final_model().is_some());
        assert!(analyzer.top_failure().is_some());
    }

    #[test]
    fn curve_points_match_single_time_queries_exactly() {
        let mut b = DftBuilder::new();
        let x = b.basic_event("en2_X", 0.7, Dormancy::Hot).unwrap();
        let y = b.basic_event("en2_Y", 1.3, Dormancy::Hot).unwrap();
        let top = b.and_gate("en2_Top", &[x, y]).unwrap();
        let dft = b.build(top).unwrap();
        let analyzer = Analyzer::new(&dft, AnalysisOptions::default()).unwrap();

        let times = [0.1, 0.5, 1.0, 2.0, 4.0];
        let curve = analyzer.unreliability_curve(&times).unwrap();
        assert_eq!(curve.len(), times.len());
        for (point, &t) in curve.points().iter().zip(&times) {
            assert_eq!(point.time(), Some(t));
            let single = analyzer.unreliability(t).unwrap();
            assert_eq!(point.value().to_bits(), single.value().to_bits());
            let exact = exp_cdf(0.7, t) * exp_cdf(1.3, t);
            assert!((point.value() - exact).abs() < 1e-7);
        }
    }

    #[test]
    fn monolithic_sessions_answer_curves_too() {
        let mut b = DftBuilder::new();
        let x = b.basic_event("en3_X", 1.0, Dormancy::Hot).unwrap();
        let top = b.or_gate("en3_Top", &[x]).unwrap();
        let dft = b.build(top).unwrap();
        let analyzer = Analyzer::new(
            &dft,
            AnalysisOptions {
                method: Method::Monolithic,
                ..AnalysisOptions::default()
            },
        )
        .unwrap();
        assert_eq!(analyzer.aggregation_runs(), 0);
        assert!(analyzer.aggregation_stats().is_none());
        let curve = analyzer.unreliability_curve(&[0.5, 1.0]).unwrap();
        for (point, t) in curve.points().iter().zip([0.5, 1.0]) {
            assert!((point.value() - exp_cdf(1.0, t)).abs() < 1e-7);
        }
        assert!(analyzer.unavailability().is_err());
        assert!((analyzer.mttf().unwrap().value() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn repairable_sessions_serve_unavailability() {
        let mut b = DftBuilder::new();
        let x = b
            .repairable_basic_event("en4_X", 1.0, Dormancy::Hot, 9.0)
            .unwrap();
        let top = b.or_gate("en4_Top", &[x]).unwrap();
        let dft = b.build(top).unwrap();
        let analyzer = Analyzer::new(&dft, AnalysisOptions::default()).unwrap();
        let u = analyzer.unavailability().unwrap();
        assert!((u.value() - 0.1).abs() < 1e-6, "{}", u.value());
        assert!(!u.is_nondeterministic());
        // The same session also answers unreliability and MTTF queries.
        let r = analyzer.unreliability(1.0).unwrap();
        assert!(r.value() > 0.0 && r.value() < 1.0);
        let mttf = analyzer.mttf().unwrap();
        assert!((mttf.value() - 1.0).abs() < 1e-6, "{}", mttf.value());
        assert_eq!(analyzer.aggregation_runs(), 1);
    }

    fn bits_of(result: &MeasureResult) -> Vec<(Option<u64>, u64, u64, u64)> {
        result
            .points()
            .iter()
            .map(|p| {
                (
                    p.time().map(f64::to_bits),
                    p.value().to_bits(),
                    p.bounds().0.to_bits(),
                    p.bounds().1.to_bits(),
                )
            })
            .collect()
    }

    #[test]
    fn batched_sweeps_match_per_point_queries_bit_for_bit() {
        // A nondeterministic model (FDEP trigger under a PAND) exercises both
        // the optimistic and pessimistic kernel passes of the batched sweep.
        let mut b = DftBuilder::new();
        let t = b.basic_event("en11_T", 0.5, Dormancy::Hot).unwrap();
        let x = b.basic_event("en11_X", 1.0, Dormancy::Hot).unwrap();
        let y = b.basic_event("en11_Y", 1.3, Dormancy::Hot).unwrap();
        let _f = b.fdep_gate("en11_F", t, &[x, y]).unwrap();
        let top = b.pand_gate("en11_Top", &[x, y]).unwrap();
        let dft = b.build(top).unwrap();
        let parametric = ParametricAnalyzer::new(&dft, AnalysisOptions::default()).unwrap();
        assert!(parametric.is_nondeterministic());

        let valuations: Vec<Valuation> = [0.6, 1.0, 1.7]
            .iter()
            .map(|&s| parametric.params().scaled_valuation(s))
            .collect();
        // A curve with a duplicate time bound exercises the merged-grid plan.
        let measure = Measure::curve([0.4, 1.0, 0.4, 2.0]);
        for cap in [1usize, 2, 4] {
            markov::kernel::set_max_workers(cap);
            let sweep = parametric.sweep_query(&measure, &valuations).unwrap();
            assert_eq!(sweep.len(), valuations.len());
            for (valuation, result) in valuations.iter().zip(sweep.results()) {
                let reference = parametric
                    .instantiate(valuation)
                    .unwrap()
                    .query(measure.clone())
                    .unwrap();
                assert_eq!(bits_of(result), bits_of(&reference), "cap {cap}");
            }
        }
        markov::kernel::set_max_workers(0);

        // An empty sweep stays a no-op, and an empty curve still errors when
        // there is at least one valuation to evaluate it for.
        assert!(parametric.sweep_query(&measure, &[]).unwrap().is_empty());
        assert!(parametric
            .sweep_query(&Measure::curve([]), &valuations)
            .is_err());
        assert!(parametric
            .sweep_query(&Measure::curve([]), &[])
            .unwrap()
            .is_empty());
    }

    #[test]
    fn point_valued_sweeps_batch_through_one_pass() {
        // A deterministic model takes the point-valued shortcut (the lower
        // pass is the upper pass); results must still match per-point queries.
        let mut b = DftBuilder::new();
        let p = b.basic_event("en12_P", 0.8, Dormancy::Hot).unwrap();
        let s = b.basic_event("en12_S", 1.2, Dormancy::Cold).unwrap();
        let top = b.spare_gate("en12_Top", &[p, s]).unwrap();
        let dft = b.build(top).unwrap();
        let parametric = ParametricAnalyzer::new(&dft, AnalysisOptions::default()).unwrap();
        assert!(!parametric.is_nondeterministic());

        let valuations: Vec<Valuation> = [1.0, 1.5]
            .iter()
            .map(|&s| parametric.params().scaled_valuation(s))
            .collect();
        let sweep = parametric.sweep_unreliability(0.9, &valuations).unwrap();
        for (valuation, result) in valuations.iter().zip(sweep.results()) {
            assert!(!result.is_nondeterministic());
            let reference = parametric
                .instantiate(valuation)
                .unwrap()
                .unreliability(0.9)
                .unwrap();
            assert_eq!(bits_of(result), bits_of(&reference));
        }
    }

    #[test]
    fn nondeterministic_models_report_bounds() {
        // FDEP trigger feeding both inputs of a PAND (Figure 6a): the failure
        // order is unresolved, so unreliability is an interval.
        let mut b = DftBuilder::new();
        let t = b.basic_event("en5_T", 0.5, Dormancy::Hot).unwrap();
        let x = b.basic_event("en5_X", 1.0, Dormancy::Hot).unwrap();
        let y = b.basic_event("en5_Y", 1.0, Dormancy::Hot).unwrap();
        let _f = b.fdep_gate("en5_F", t, &[x, y]).unwrap();
        let top = b.pand_gate("en5_Top", &[x, y]).unwrap();
        let dft = b.build(top).unwrap();
        let analyzer = Analyzer::new(&dft, AnalysisOptions::default()).unwrap();
        assert!(analyzer.is_nondeterministic());
        let r = analyzer.unreliability(1.0).unwrap();
        assert!(r.is_nondeterministic());
        let (lo, hi) = r.bounds();
        assert!(lo < hi, "bounds ({lo}, {hi}) should be a proper interval");
        // MTTF needs a CTMC; the CTMDP must be rejected, not mis-analysed.
        assert!(analyzer.mttf().is_err());
    }

    /// A mixed tree whose dynamic core (a spare pair) sits under a static
    /// crown: OR(SPARE(P, S), AND(X, Y)).
    pub(crate) fn mixed_tree(prefix: &str) -> Dft {
        let mut b = DftBuilder::new();
        let p = b
            .basic_event(&format!("{prefix}_P"), 1.0, Dormancy::Hot)
            .unwrap();
        let s = b
            .basic_event(&format!("{prefix}_S"), 1.0, Dormancy::Cold)
            .unwrap();
        let core = b.spare_gate(&format!("{prefix}_Core"), &[p, s]).unwrap();
        let x = b
            .basic_event(&format!("{prefix}_X"), 0.5, Dormancy::Hot)
            .unwrap();
        let y = b
            .basic_event(&format!("{prefix}_Y"), 0.25, Dormancy::Hot)
            .unwrap();
        let stat = b.and_gate(&format!("{prefix}_Stat"), &[x, y]).unwrap();
        let top = b.or_gate(&format!("{prefix}_Top"), &[core, stat]).unwrap();
        b.build(top).unwrap()
    }

    #[test]
    fn hybrid_matches_compositional_on_a_mixed_tree() {
        let dft = mixed_tree("en13");
        let options = AnalysisOptions {
            epsilon: 1e-13,
            ..AnalysisOptions::default()
        };
        let reference = Analyzer::new(&dft, options.clone()).unwrap();
        let hybrid = Analyzer::new(
            &dft,
            AnalysisOptions {
                method: Method::Hybrid,
                ..options
            },
        )
        .unwrap();

        assert_eq!(hybrid.method(), Method::Hybrid);
        let modules = hybrid
            .module_stats()
            .expect("the decomposition must happen");
        assert_eq!(modules.core_count, 1);
        assert!(
            hybrid.model_stats().states < reference.model_stats().states,
            "{} vs {}",
            hybrid.model_stats().states,
            reference.model_stats().states
        );
        // One aggregation pipeline per core.
        assert_eq!(hybrid.aggregation_runs(), 1);
        assert!(hybrid.aggregation_stats().is_some());
        assert!(!hybrid.is_nondeterministic());

        let times = [0.25, 0.5, 1.0, 2.0];
        let h = hybrid.unreliability_curve(&times).unwrap();
        let c = reference.unreliability_curve(&times).unwrap();
        for (hp, cp) in h.points().iter().zip(c.points()) {
            assert!(
                (hp.value() - cp.value()).abs() < 1e-12,
                "{} vs {}",
                hp.value(),
                cp.value()
            );
        }
        // MTTF and unavailability are outside the hybrid crown's scope.
        assert!(hybrid.mttf().is_err());
        assert!(hybrid.unavailability().is_err());
    }

    #[test]
    fn hybrid_on_a_fully_static_tree_needs_no_states_at_all() {
        let mut b = DftBuilder::new();
        let x = b.basic_event("en14_X", 0.5, Dormancy::Hot).unwrap();
        let y = b.basic_event("en14_Y", 1.0, Dormancy::Hot).unwrap();
        let z = b.basic_event("en14_Z", 2.0, Dormancy::Hot).unwrap();
        let vote = b.voting_gate("en14_Top", 2, &[x, y, z]).unwrap();
        let dft = b.build(vote).unwrap();
        let hybrid = Analyzer::new(
            &dft,
            AnalysisOptions {
                method: Method::Hybrid,
                ..AnalysisOptions::default()
            },
        )
        .unwrap();
        let modules = hybrid.module_stats().unwrap();
        assert_eq!(modules.core_count, 0);
        assert_eq!(hybrid.model_stats().states, 0);
        assert_eq!(hybrid.aggregation_runs(), 0);

        // 2-of-3 closed form: sum of pairs minus twice the triple.
        let t = 0.8;
        let (px, py, pz) = (exp_cdf(0.5, t), exp_cdf(1.0, t), exp_cdf(2.0, t));
        let exact = px * py + px * pz + py * pz - 2.0 * px * py * pz;
        let r = hybrid.unreliability(t).unwrap();
        assert!(
            (r.value() - exact).abs() < 1e-14,
            "{} vs {exact}",
            r.value()
        );
    }

    #[test]
    fn hybrid_falls_back_for_repairable_and_nondeterministic_trees() {
        // Repairable tree: the fallback must still serve unavailability.
        let mut b = DftBuilder::new();
        let x = b
            .repairable_basic_event("en15_X", 1.0, Dormancy::Hot, 2.0)
            .unwrap();
        let top = b.or_gate("en15_Top", &[x]).unwrap();
        let dft = b.build(top).unwrap();
        let hybrid = Analyzer::new(
            &dft,
            AnalysisOptions {
                method: Method::Hybrid,
                ..AnalysisOptions::default()
            },
        )
        .unwrap();
        assert_eq!(hybrid.method(), Method::Hybrid);
        assert!(hybrid.module_stats().is_none(), "fallback, not hybrid");
        // Steady-state unavailability of a single repairable event: λ/(λ+μ).
        let u = hybrid.unavailability().unwrap();
        assert!((u.value() - 1.0 / 3.0).abs() < 1e-6, "{}", u.value());

        // Non-deterministic core (FDEP trigger into a PAND): the hybrid label
        // must keep reporting honest scheduler bounds via the fallback.
        let mut b = DftBuilder::new();
        let t = b.basic_event("en15_T", 0.5, Dormancy::Hot).unwrap();
        let p = b.basic_event("en15_P", 1.0, Dormancy::Hot).unwrap();
        let q = b.basic_event("en15_Q", 1.0, Dormancy::Hot).unwrap();
        let _f = b.fdep_gate("en15_F", t, &[p, q]).unwrap();
        let pand = b.pand_gate("en15_Pand", &[p, q]).unwrap();
        let dft = b.build(pand).unwrap();
        let hybrid = Analyzer::new(
            &dft,
            AnalysisOptions {
                method: Method::Hybrid,
                ..AnalysisOptions::default()
            },
        )
        .unwrap();
        assert!(hybrid.module_stats().is_none(), "fallback, not hybrid");
        assert!(hybrid.is_nondeterministic());
        let r = hybrid.unreliability(1.0).unwrap();
        let (lo, hi) = r.bounds();
        assert!(lo < hi);
    }

    #[test]
    fn parametric_hybrid_matches_instantiate_plus_query() {
        let dft = mixed_tree("en17");
        let options = AnalysisOptions {
            method: Method::Hybrid,
            ..AnalysisOptions::default()
        };
        let parametric = ParametricAnalyzer::new(&dft, options.clone()).unwrap();
        assert!(parametric.module_stats().is_some());
        assert_eq!(parametric.aggregation_runs(), 1);

        // The parameter surface is the same table the compositional session
        // exposes: one failure slot per basic event, in element order.
        let reference = ParametricAnalyzer::new(&dft, AnalysisOptions::default()).unwrap();
        assert_eq!(
            parametric.params().len(),
            reference.params().len(),
            "hybrid and compositional sessions must agree on the slots"
        );

        let valuations: Vec<Valuation> = (1..=4)
            .map(|i| parametric.params().scaled_valuation(i as f64 * 0.5))
            .collect();
        let measure = Measure::UnreliabilityCurve(vec![0.5, 1.0, 2.0]);
        let sweep = parametric.sweep_query(&measure, &valuations).unwrap();

        for (valuation, swept) in valuations.iter().zip(sweep.results()) {
            // Bit-identical to the per-point path on the hybrid session …
            let direct = parametric
                .instantiate(valuation)
                .unwrap()
                .query(&measure)
                .unwrap();
            assert_eq!(bits_of(swept), bits_of(&direct));
            // … and within tolerance of the compositional reference.
            let full = reference
                .instantiate(valuation)
                .unwrap()
                .query(&measure)
                .unwrap();
            for (hp, cp) in swept.points().iter().zip(full.points()) {
                assert!(
                    (hp.value() - cp.value()).abs() < 1e-7,
                    "{} vs {}",
                    hp.value(),
                    cp.value()
                );
            }
        }
    }

    /// A cold-spare pair: compositional, deterministic, not repairable.
    fn spare_pair(prefix: &str) -> Dft {
        let mut b = DftBuilder::new();
        let p = b
            .basic_event(&format!("{prefix}_P"), 0.8, Dormancy::Hot)
            .unwrap();
        let s = b
            .basic_event(&format!("{prefix}_S"), 1.2, Dormancy::Cold)
            .unwrap();
        let top = b.spare_gate(&format!("{prefix}_Top"), &[p, s]).unwrap();
        b.build(top).unwrap()
    }

    fn with(method: Method) -> AnalysisOptions {
        AnalysisOptions {
            method,
            ..AnalysisOptions::default()
        }
    }

    #[test]
    fn every_session_flavour_round_trips_bit_identically_through_bytes() {
        let mut b = DftBuilder::new();
        let x = b
            .repairable_basic_event("en8_X", 1.0, Dormancy::Hot, 9.0)
            .unwrap();
        let top = b.or_gate("en8_Top", &[x]).unwrap();
        let repairable = b.build(top).unwrap();
        let measures = [
            Measure::Unreliability(1.0),
            Measure::curve([0.25, 0.5, 1.0, 2.0]),
            Measure::Mttf,
            // Exercises the lazily extracted tangible CTMC, which a restored
            // session re-derives from the decoded closed model.
            Measure::Unavailability,
        ];
        for (dft, method) in [
            (spare_pair("en6"), Method::Compositional),
            (spare_pair("en7"), Method::Monolithic),
            (repairable, Method::Compositional),
            (mixed_tree("en16"), Method::Hybrid),
        ] {
            let built = Analyzer::new(&dft, with(method)).unwrap();
            let bytes = built.to_bytes();
            let restored = Analyzer::from_bytes(&bytes).unwrap();
            assert_eq!(restored.method(), method);
            assert_eq!(
                built.aggregation_runs(),
                usize::from(method != Method::Monolithic)
            );
            assert_eq!(restored.aggregation_runs(), 0, "no pipeline ran on restore");
            let shape = |a: &Analyzer| a.aggregation_stats().map(|s| (s.peak, s.steps.len()));
            assert_eq!(shape(&restored), shape(&built));
            assert_eq!(restored.model_stats(), built.model_stats());
            assert_eq!(restored.module_stats(), built.module_stats());
            // Every answer — and every refusal — survives the round trip.
            for measure in &measures {
                let bits = |a: &Analyzer| a.query(measure).ok().map(|r| bits_of(&r));
                assert_eq!(bits(&built), bits(&restored), "{method:?} {measure:?}");
            }

            // Corruption safety: session bytes are not parametric bytes (the
            // kind tag differs), every truncation fails cleanly, and any
            // flipped payload byte trips the checksum.
            assert!(ParametricAnalyzer::from_bytes(&bytes).is_err());
            for cut in [0, 4, 9, 17, 33, bytes.len() - 1] {
                assert!(Analyzer::from_bytes(&bytes[..cut]).is_err());
            }
            for i in (41..bytes.len()).step_by(7) {
                let mut bad = bytes.clone();
                bad[i] ^= 0x10;
                assert!(Analyzer::from_bytes(&bad).is_err());
            }
        }
        assert!(Analyzer::from_bytes(&[]).is_err());
        assert!(Analyzer::from_bytes(b"not a store entry at all").is_err());
        assert!(ParametricAnalyzer::from_bytes(&[0xff; 64]).is_err());
    }

    #[test]
    fn parametric_sessions_round_trip_bit_identically_through_bytes() {
        for (dft, method) in [
            (spare_pair("en9"), Method::Compositional),
            (mixed_tree("en17"), Method::Hybrid),
        ] {
            let built = ParametricAnalyzer::new(&dft, with(method)).unwrap();
            let restored = ParametricAnalyzer::from_bytes(&built.to_bytes()).unwrap();
            assert_eq!(restored.aggregation_runs(), 0);
            assert_eq!(built.aggregation_runs(), 1);
            assert_eq!(restored.params(), built.params());
            assert_eq!(restored.model_stats(), built.model_stats());
            assert_eq!(restored.module_stats(), built.module_stats());
            for scale in [0.5, 1.0, 2.5] {
                let valuation = built.params().scaled_valuation(scale);
                let a = built.instantiate(&valuation).unwrap();
                let b = restored.instantiate(&valuation).unwrap();
                assert_eq!(b.aggregation_runs(), 0);
                let qa = a.query(Measure::curve([0.5, 1.0])).unwrap();
                let qb = b.query(Measure::curve([0.5, 1.0])).unwrap();
                assert_eq!(bits_of(&qa), bits_of(&qb));
            }
        }
    }
}
