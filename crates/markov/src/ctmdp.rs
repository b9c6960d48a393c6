//! Continuous-time Markov decision processes.
//!
//! When a DFT contains inherent non-determinism (Section 4.4 of the paper — e.g. an
//! FDEP gate triggering two dependent events "simultaneously" underneath a PAND
//! gate), compositional aggregation produces a CTMDP instead of a CTMC.  The paper
//! follows Baier, Hermanns, Katoen & Haverkort (TCS 345, 2005) and reports *bounds*
//! on the measure of interest.  This module implements that scheme for the model
//! shape produced by our pipeline:
//!
//! * **Markovian states** race exponential delays (a single stochastic choice);
//! * **immediate states** choose non-deterministically among instantaneous
//!   successors (the unresolved orderings of simultaneous events).
//!
//! Time-bounded reachability is computed by uniformisation: the chain of Markovian
//! steps is uniformised with a global rate, and a step-indexed value iteration
//! resolves the non-deterministic choices greedily (maximising or minimising),
//! which yields the optimum over time-abstract schedulers — an upper, respectively
//! lower, bound for the measure under general schedulers.

use crate::kernel::RelaxKernel;
use crate::{Error, Result};
use std::sync::OnceLock;

/// One state of a CTMDP.
#[derive(Debug, Clone, PartialEq)]
pub enum CtmdpState {
    /// A stochastic state racing exponential delays; entries are `(target, rate)`.
    Markovian(Vec<(u32, f64)>),
    /// An instantaneous state with a non-deterministic choice among successors.
    Immediate(Vec<u32>),
}

/// A continuous-time Markov decision process with goal states.
#[derive(Debug, Clone)]
pub struct Ctmdp {
    states: Vec<CtmdpState>,
    initial: usize,
    goal: Vec<bool>,
    /// The flat CSR lowering of `states`, built lazily on first query and
    /// reused by every subsequent reachability call on this model.
    kernel: OnceLock<RelaxKernel>,
}

/// The result of a bounded-reachability analysis: an interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bounds {
    /// Minimum probability over schedulers.
    pub min: f64,
    /// Maximum probability over schedulers.
    pub max: f64,
}

impl Ctmdp {
    /// Builds a CTMDP.
    ///
    /// # Errors
    ///
    /// Returns an error if a target index is out of range, a rate is not finite and
    /// strictly positive, the goal vector has the wrong length, or the initial
    /// state is out of range.
    pub fn new(states: Vec<CtmdpState>, initial: usize, goal: Vec<bool>) -> Result<Ctmdp> {
        let n = states.len();
        if initial >= n {
            return Err(Error::InvalidState {
                state: initial as u32,
                num_states: n as u32,
            });
        }
        if goal.len() != n {
            return Err(Error::DimensionMismatch {
                expected: n,
                actual: goal.len(),
            });
        }
        for st in &states {
            match st {
                CtmdpState::Markovian(rates) => {
                    for &(t, r) in rates {
                        if t as usize >= n {
                            return Err(Error::InvalidState {
                                state: t,
                                num_states: n as u32,
                            });
                        }
                        if !(r.is_finite() && r > 0.0) {
                            return Err(Error::InvalidValue { value: r });
                        }
                    }
                }
                CtmdpState::Immediate(succs) => {
                    for &t in succs {
                        if t as usize >= n {
                            return Err(Error::InvalidState {
                                state: t,
                                num_states: n as u32,
                            });
                        }
                    }
                }
            }
        }
        Ok(Ctmdp {
            states,
            initial,
            goal,
            kernel: OnceLock::new(),
        })
    }

    /// The cached CSR lowering of this model's states.
    fn kernel(&self) -> &RelaxKernel {
        self.kernel
            .get_or_init(|| RelaxKernel::from_states(&self.states))
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    /// The initial state.
    pub fn initial(&self) -> usize {
        self.initial
    }

    /// The state vector, in index order.
    ///
    /// Together with [`initial`](Self::initial) and [`goal`](Self::goal) this
    /// makes a CTMDP fully externalizable: feeding the three back into
    /// [`Ctmdp::new`] reconstructs a model that answers every reachability
    /// query bit-identically (the analysis only reads these fields, in this
    /// order) — which is how the persistent model cache serializes the
    /// can/must CTMDP pair of a closed model.
    pub fn states(&self) -> &[CtmdpState] {
        &self.states
    }

    /// The goal-state indicator vector, one flag per state.
    pub fn goal(&self) -> &[bool] {
        &self.goal
    }

    /// Returns `true` if no state has more than one immediate successor, i.e. the
    /// model is actually a CTMC in disguise.
    pub fn is_deterministic(&self) -> bool {
        self.states.iter().all(|s| match s {
            CtmdpState::Immediate(succs) => succs.len() <= 1,
            CtmdpState::Markovian(_) => true,
        })
    }

    /// One extremal reachability value per requested time bound, computed in a
    /// *single* value-iteration pass.
    ///
    /// The step-indexed values `value_k[initial]` of the uniformised process do not
    /// depend on the time bound — only the Poisson mixture weights do — so a whole
    /// mission-time sweep costs one pass to the largest truncation point instead of
    /// one pass per point.  Results are returned in the same order as `times`.
    ///
    /// Runs on the cached [`RelaxKernel`]; results are bit-identical to the
    /// original nested-loop value iteration (kept as a test oracle)
    /// regardless of the worker count the kernel chooses.
    fn reachability_extremal_multi(
        &self,
        times: &[f64],
        epsilon: f64,
        maximise: bool,
    ) -> Result<Vec<f64>> {
        let kernel = self.kernel();
        kernel.reachability(
            self.initial,
            &self.goal,
            times,
            epsilon,
            maximise,
            kernel.auto_workers(),
        )
    }

    fn reachability_extremal(&self, t: f64, epsilon: f64, maximise: bool) -> Result<f64> {
        Ok(self.reachability_extremal_multi(&[t], epsilon, maximise)?[0])
    }

    /// Minimum and maximum probability (over time-abstract schedulers) of reaching
    /// a goal state within time `t`, with truncation error `epsilon`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidValue`] for a negative/NaN time bound or an invalid
    /// `epsilon`.
    pub fn reachability_bounds(&self, t: f64, epsilon: f64) -> Result<Bounds> {
        let min = self.reachability_extremal(t, epsilon, false)?;
        let max = self.reachability_extremal(t, epsilon, true)?;
        Ok(Bounds { min, max })
    }

    /// [`reachability_bounds`](Self::reachability_bounds) for many time bounds at
    /// once: two value-iteration passes (one minimising, one maximising) answer the
    /// whole sweep, instead of two passes per point.
    ///
    /// Results are returned in the same order as `times`; a single-element slice
    /// produces bit-identical values to the single-time method.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidValue`] for a negative/NaN time bound or an invalid
    /// `epsilon`.
    pub fn reachability_bounds_multi(&self, times: &[f64], epsilon: f64) -> Result<Vec<Bounds>> {
        let min = self.reachability_min_multi(times, epsilon)?;
        let max = self.reachability_max_multi(times, epsilon)?;
        Ok(min
            .into_iter()
            .zip(max)
            .map(|(min, max)| Bounds { min, max })
            .collect())
    }

    /// Maximum reachability probability (over time-abstract schedulers) for each
    /// time bound, in one value-iteration pass.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidValue`] for a negative/NaN time bound or an invalid
    /// `epsilon`.
    pub fn reachability_max_multi(&self, times: &[f64], epsilon: f64) -> Result<Vec<f64>> {
        self.reachability_extremal_multi(times, epsilon, true)
    }

    /// Minimum reachability probability (over time-abstract schedulers) for each
    /// time bound, in one value-iteration pass.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidValue`] for a negative/NaN time bound or an invalid
    /// `epsilon`.
    pub fn reachability_min_multi(&self, times: &[f64], epsilon: f64) -> Result<Vec<f64>> {
        self.reachability_extremal_multi(times, epsilon, false)
    }
}

/// The reference implementation the kernel is tested against.
#[cfg(test)]
impl Ctmdp {
    fn max_exit_rate(&self) -> f64 {
        self.states
            .iter()
            .map(|s| match s {
                CtmdpState::Markovian(rates) => rates.iter().map(|&(_, r)| r).sum(),
                CtmdpState::Immediate(_) => 0.0,
            })
            .fold(0.0, f64::max)
    }

    /// Resolves the values of immediate states given the current values of
    /// Markovian/goal states, by iterating the optimisation until a fixpoint.
    /// Chains of immediate states are bounded by the state count, so `n` rounds
    /// suffice; immediate cycles (divergence) settle at their pessimistic value.
    fn settle_immediate(&self, value: &mut [f64], maximise: bool) {
        let n = self.states.len();
        for _ in 0..n {
            let mut changed = false;
            for s in 0..n {
                if self.goal[s] {
                    continue;
                }
                if let CtmdpState::Immediate(succs) = &self.states[s] {
                    if succs.is_empty() {
                        continue;
                    }
                    let candidate = succs.iter().map(|&t| value[t as usize]).fold(
                        if maximise {
                            f64::NEG_INFINITY
                        } else {
                            f64::INFINITY
                        },
                        |a, b| {
                            if maximise {
                                a.max(b)
                            } else {
                                a.min(b)
                            }
                        },
                    );
                    if (candidate - value[s]).abs() > 1e-15 {
                        value[s] = candidate;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
    }

    /// The original nested-loop value iteration, kept verbatim as the
    /// test oracle for the CSR kernel ([`crate::kernel`]): its semantics and
    /// bit patterns define the contract the kernel must honour.
    pub(crate) fn reachability_extremal_multi_legacy(
        &self,
        times: &[f64],
        epsilon: f64,
        maximise: bool,
    ) -> Result<Vec<f64>> {
        for &t in times {
            if !t.is_finite() || t < 0.0 {
                return Err(Error::InvalidValue { value: t });
            }
        }
        let n = self.states.len();
        let lambda = self.max_exit_rate();

        // Value at "zero remaining steps": goal states count, and immediate states
        // resolve instantaneously.
        let mut terminal: Vec<f64> = self
            .goal
            .iter()
            .map(|&g| if g { 1.0 } else { 0.0 })
            .collect();
        self.settle_immediate(&mut terminal, maximise);

        if lambda == 0.0 {
            return Ok(vec![terminal[self.initial]; times.len()]);
        }

        // Poisson weights per time bound; a bound of zero yields the degenerate
        // single weight 1 at k = 0, so it needs no special casing below.
        let weights = times
            .iter()
            .map(|&t| crate::poisson::poisson_weights(lambda * t, epsilon))
            .collect::<Result<Vec<_>>>()?;
        let k_max = weights
            .iter()
            .map(|w| w.weights.len() - 1)
            .max()
            .unwrap_or(0);

        // value[s] = optimal probability of reaching a goal within `k` uniformised
        // steps; computed backwards from k = 0 upwards, accumulating each time
        // bound's Poisson mixture for the initial state on the fly.
        let mut value = terminal;
        let mut results: Vec<f64> = weights
            .iter()
            .map(|w| w.weights[0] * value[self.initial])
            .collect();
        for k in 1..=k_max {
            let mut next = vec![0.0; n];
            for s in 0..n {
                if self.goal[s] {
                    next[s] = 1.0;
                    continue;
                }
                match &self.states[s] {
                    CtmdpState::Markovian(rates) => {
                        let exit: f64 = rates.iter().map(|&(_, r)| r).sum();
                        let mut acc = (1.0 - exit / lambda) * value[s];
                        for &(target, rate) in rates {
                            acc += rate / lambda * value[target as usize];
                        }
                        next[s] = acc;
                    }
                    CtmdpState::Immediate(_) => {
                        // Filled in by settle_immediate below.
                        next[s] = 0.0;
                    }
                }
            }
            self.settle_immediate(&mut next, maximise);
            value = next;
            for (result, w) in results.iter_mut().zip(weights.iter()) {
                if let Some(&weight) = w.weights.get(k) {
                    *result += weight * value[self.initial];
                }
            }
        }
        Ok(results.into_iter().map(|r| r.clamp(0.0, 1.0)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_round_trip_through_new() {
        let mdp = Ctmdp::new(
            vec![
                CtmdpState::Immediate(vec![1, 2]),
                CtmdpState::Markovian(vec![(2, 0.5)]),
                CtmdpState::Markovian(vec![]),
            ],
            0,
            vec![false, false, true],
        )
        .unwrap();
        let rebuilt =
            Ctmdp::new(mdp.states().to_vec(), mdp.initial(), mdp.goal().to_vec()).unwrap();
        assert_eq!(rebuilt.states(), mdp.states());
        assert_eq!(rebuilt.goal(), mdp.goal());
        let a = mdp.reachability_bounds(0.7, 1e-12).unwrap();
        let b = rebuilt.reachability_bounds(0.7, 1e-12).unwrap();
        assert_eq!(a.min.to_bits(), b.min.to_bits());
        assert_eq!(a.max.to_bits(), b.max.to_bits());
    }

    #[test]
    fn deterministic_ctmdp_matches_ctmc() {
        // 0 --lambda--> 1 (goal): both bounds equal 1 - exp(-lambda t).
        let lambda = 1.7;
        let mdp = Ctmdp::new(
            vec![
                CtmdpState::Markovian(vec![(1, lambda)]),
                CtmdpState::Markovian(vec![]),
            ],
            0,
            vec![false, true],
        )
        .unwrap();
        assert!(mdp.is_deterministic());
        let t = 0.9;
        let b = mdp.reachability_bounds(t, 1e-12).unwrap();
        let exact = 1.0 - (-lambda * t).exp();
        assert!((b.min - exact).abs() < 1e-9);
        assert!((b.max - exact).abs() < 1e-9);
    }

    #[test]
    fn nondeterministic_choice_gives_interval() {
        // Initial immediate choice between a fast branch (rate 10) and a slow
        // branch (rate 0.1) towards the goal.
        let mdp = Ctmdp::new(
            vec![
                CtmdpState::Immediate(vec![1, 2]),
                CtmdpState::Markovian(vec![(3, 10.0)]),
                CtmdpState::Markovian(vec![(3, 0.1)]),
                CtmdpState::Markovian(vec![]),
            ],
            0,
            vec![false, false, false, true],
        )
        .unwrap();
        assert!(!mdp.is_deterministic());
        let t = 1.0;
        let b = mdp.reachability_bounds(t, 1e-12).unwrap();
        let fast = 1.0 - (-10.0f64 * t).exp();
        let slow = 1.0 - (-0.1f64 * t).exp();
        assert!((b.max - fast).abs() < 1e-6, "max {} vs {}", b.max, fast);
        assert!((b.min - slow).abs() < 1e-6, "min {} vs {}", b.min, slow);
        assert!(b.min < b.max);
    }

    #[test]
    fn goal_at_initial_state_is_certain() {
        let mdp = Ctmdp::new(vec![CtmdpState::Markovian(vec![])], 0, vec![true]).unwrap();
        let b = mdp.reachability_bounds(2.0, 1e-9).unwrap();
        assert_eq!(b.min, 1.0);
        assert_eq!(b.max, 1.0);
    }

    #[test]
    fn immediate_chain_resolves_through_layers() {
        // 0 (immediate) -> 1 (immediate) -> 2 (goal): reachable with probability 1
        // immediately, under any scheduler.
        let mdp = Ctmdp::new(
            vec![
                CtmdpState::Immediate(vec![1]),
                CtmdpState::Immediate(vec![2]),
                CtmdpState::Markovian(vec![]),
            ],
            0,
            vec![false, false, true],
        )
        .unwrap();
        let b = mdp.reachability_bounds(0.0, 1e-9).unwrap();
        assert_eq!(b.min, 1.0);
        assert_eq!(b.max, 1.0);
    }

    #[test]
    fn dead_end_immediate_state_never_reaches_goal() {
        let mdp = Ctmdp::new(
            vec![CtmdpState::Immediate(vec![]), CtmdpState::Markovian(vec![])],
            0,
            vec![false, true],
        )
        .unwrap();
        let b = mdp.reachability_bounds(10.0, 1e-9).unwrap();
        assert_eq!(b.min, 0.0);
        assert_eq!(b.max, 0.0);
    }

    #[test]
    fn construction_errors() {
        assert!(Ctmdp::new(vec![CtmdpState::Immediate(vec![5])], 0, vec![false]).is_err());
        assert!(Ctmdp::new(vec![CtmdpState::Markovian(vec![(0, -1.0)])], 0, vec![false]).is_err());
        assert!(Ctmdp::new(vec![CtmdpState::Markovian(vec![])], 3, vec![false]).is_err());
        assert!(Ctmdp::new(vec![CtmdpState::Markovian(vec![])], 0, vec![false, true]).is_err());
        let mdp = Ctmdp::new(vec![CtmdpState::Markovian(vec![])], 0, vec![false]).unwrap();
        assert!(mdp.reachability_bounds(-1.0, 1e-9).is_err());
    }

    #[test]
    fn bounds_bracket_the_uniform_resolution() {
        // Non-deterministic choice between two moderate branches; any fixed
        // resolution must lie within the bounds.
        let mdp = Ctmdp::new(
            vec![
                CtmdpState::Immediate(vec![1, 2]),
                CtmdpState::Markovian(vec![(3, 2.0)]),
                CtmdpState::Markovian(vec![(3, 3.0)]),
                CtmdpState::Markovian(vec![]),
            ],
            0,
            vec![false, false, false, true],
        )
        .unwrap();
        let t = 0.4;
        let b = mdp.reachability_bounds(t, 1e-12).unwrap();
        let p2 = 1.0 - (-2.0f64 * t).exp();
        let p3 = 1.0 - (-3.0f64 * t).exp();
        assert!(b.min <= p2 + 1e-9 && p2 <= b.max + 1e-9);
        assert!(b.min <= p3 + 1e-9 && p3 <= b.max + 1e-9);
    }
}
