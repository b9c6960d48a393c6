//! The reference implementation of CTMDP time-bounded reachability, compiled
//! for tests only: the oracle the CSR kernel ([`crate::kernel`]) is held to.
//!
//! When a DFT contains inherent non-determinism (Section 4.4 of the paper — e.g. an
//! FDEP gate triggering two dependent events "simultaneously" underneath a PAND
//! gate), compositional aggregation produces a CTMDP instead of a CTMC.  The paper
//! follows Baier, Hermanns, Katoen & Haverkort (TCS 345, 2005) and reports *bounds*
//! on the measure of interest: the chain of Markovian steps is uniformised with a
//! global rate, and a step-indexed value iteration resolves the non-deterministic
//! choices greedily (maximising or minimising), which yields the optimum over
//! time-abstract schedulers.  [`Ctmdp::reachability_extremal_multi_legacy`] is
//! that value iteration as the original nested loop; its semantics and bit
//! patterns define the contract the kernel must honour.

use crate::kernel::{CtmdpState, RelaxKernel};
use crate::{Error, Result};

/// A CTMDP with an initial state and goal states, as the kernel tests build
/// it.  Unvalidated: the kernel's constructor and reachability call reject
/// bad input, which is what the tests exercise.
#[derive(Debug, Clone)]
pub(crate) struct Ctmdp {
    pub(crate) states: Vec<CtmdpState>,
    pub(crate) initial: usize,
    pub(crate) goal: Vec<bool>,
}

/// The result of a bounded-reachability analysis: an interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Bounds {
    /// Minimum probability over schedulers.
    pub(crate) min: f64,
    /// Maximum probability over schedulers.
    pub(crate) max: f64,
}

impl Ctmdp {
    pub(crate) fn new(states: Vec<CtmdpState>, initial: usize, goal: Vec<bool>) -> Ctmdp {
        Ctmdp {
            states,
            initial,
            goal,
        }
    }

    /// The Markovian rates in kernel edge order: state order, row order
    /// within a state.
    pub(crate) fn edge_rates(&self) -> Vec<f64> {
        self.states
            .iter()
            .flat_map(|st| match st {
                CtmdpState::Markovian(row) => row.iter().map(|&(_, r)| r).collect(),
                CtmdpState::Immediate(_) => Vec::new(),
            })
            .collect()
    }

    /// The single-lane kernel of this model, through the one constructor.
    pub(crate) fn kernel(&self) -> Result<RelaxKernel> {
        RelaxKernel::from_template(&self.states, &self.edge_rates(), 1)
    }

    /// Returns `true` if no state has more than one immediate successor, i.e. the
    /// model is actually a CTMC in disguise.
    pub(crate) fn is_deterministic(&self) -> bool {
        self.states.iter().all(|s| match s {
            CtmdpState::Immediate(succs) => succs.len() <= 1,
            CtmdpState::Markovian(_) => true,
        })
    }

    /// Extremal reachability per time bound, through the kernel.
    pub(crate) fn reachability_multi(
        &self,
        times: &[f64],
        epsilon: f64,
        maximise: bool,
    ) -> Result<Vec<f64>> {
        let kernel = self.kernel()?;
        kernel.reachability(
            self.initial,
            &self.goal,
            times,
            epsilon,
            maximise,
            kernel.auto_workers(),
        )
    }

    /// Minimum and maximum reachability within `t`, through the kernel.
    pub(crate) fn reachability_bounds(&self, t: f64, epsilon: f64) -> Result<Bounds> {
        Ok(Bounds {
            min: self.reachability_multi(&[t], epsilon, false)?[0],
            max: self.reachability_multi(&[t], epsilon, true)?[0],
        })
    }

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
    /// test oracle for the CSR kernel.
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
