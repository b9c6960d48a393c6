//! Parameter bookkeeping for parametric (symbolic-rate) models.
//!
//! [`convert_parametric`](crate::convert::convert_parametric) gives every basic
//! event one *parameter slot* per independent rate — a failure-rate slot, plus
//! a repair-rate slot for repairable events — and threads
//! [`RateForm`](ioimc::RateForm)s over those slots through the whole
//! composition/aggregation pipeline.  A [`ParamTable`] records what each slot
//! means and its *base* value (the rate written in the tree); a [`Valuation`]
//! assigns one concrete value per slot and is what turns the aggregated
//! parametric model back into numbers at query time (see
//! [`ParametricAnalyzer::instantiate`](crate::engine::ParametricAnalyzer::instantiate)).

use crate::{Error, Result};
use dft::{Dft, Element};
use std::fmt;

/// What a parameter slot controls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParamKind {
    /// The active failure rate λ of a basic event (its dormant rate is the
    /// structural multiple α·λ of the same slot, so one slot drives both).
    Failure,
    /// The repair rate µ of a repairable basic event.
    Repair,
}

impl fmt::Display for ParamKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamKind::Failure => write!(f, "failure"),
            ParamKind::Repair => write!(f, "repair"),
        }
    }
}

/// One parameter slot of a parametric model.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamSlot {
    /// Name of the basic event the slot belongs to.
    pub element: String,
    /// Which rate of that event the slot controls.
    pub kind: ParamKind,
    /// The rate value written in the tree the model was converted from.
    pub base: f64,
}

/// The parameter slots of a parametric model, in slot order.
///
/// The table is produced by
/// [`convert_parametric`](crate::convert::convert_parametric) and is the only
/// way to build meaningful [`Valuation`]s: slot indices are dense and assigned
/// in element order, so a valuation is just one `f64` per slot.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParamTable {
    slots: Vec<ParamSlot>,
}

impl ParamTable {
    /// The slot table of `dft` itself: one failure slot per basic event, then
    /// a repair slot when the event is repairable, in element order — exactly
    /// the table [`convert_parametric`](crate::convert::convert_parametric)
    /// records, with the tree's own names and rates as the base values.
    ///
    /// Slot layout depends only on the structure, so this table fits every
    /// parametric model of a structurally identical tree; resolving a sweep
    /// against it (rather than against a cached model's table) keeps the
    /// request's own rates as the base.
    pub fn from_dft(dft: &Dft) -> ParamTable {
        let mut table = ParamTable::default();
        for id in dft.elements() {
            if let Element::BasicEvent(be) = dft.element(id) {
                table.push(dft.name(id), ParamKind::Failure, be.rate);
                if let Some(mu) = be.repair_rate {
                    table.push(dft.name(id), ParamKind::Repair, mu);
                }
            }
        }
        table
    }

    /// Registers a new slot and returns its index.
    pub(crate) fn push(&mut self, element: &str, kind: ParamKind, base: f64) -> u32 {
        self.slots.push(ParamSlot {
            element: element.to_owned(),
            kind,
            base,
        });
        (self.slots.len() - 1) as u32
    }

    /// Number of parameter slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Returns `true` for a model without parameters (no basic events — never
    /// the case for a valid DFT).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// All slots, in slot order.
    pub fn slots(&self) -> &[ParamSlot] {
        &self.slots
    }

    /// Finds the slot controlling the given rate of the named basic event.
    pub fn slot_of(&self, element: &str, kind: ParamKind) -> Option<usize> {
        self.slots
            .iter()
            .position(|s| s.kind == kind && s.element == element)
    }

    /// The valuation assigning every slot its base value: instantiating with it
    /// reproduces the original tree's rates exactly.
    pub fn base_valuation(&self) -> Valuation {
        Valuation::new(self.slots.iter().map(|s| s.base).collect())
    }

    /// The base valuation with every *failure* rate multiplied by
    /// `failure_scale` (repair rates keep their base value) — the classic
    /// sensitivity-sweep axis, matching a tree whose failure rates were all
    /// pre-scaled by the same factor.
    pub fn scaled_valuation(&self, failure_scale: f64) -> Valuation {
        Valuation::new(
            self.slots
                .iter()
                .map(|s| match s.kind {
                    ParamKind::Failure => s.base * failure_scale,
                    ParamKind::Repair => s.base,
                })
                .collect(),
        )
    }
}

/// A concrete rate assignment: one value per parameter slot of a [`ParamTable`].
#[derive(Debug, Clone, PartialEq)]
pub struct Valuation {
    values: Vec<f64>,
}

impl Valuation {
    /// Wraps per-slot values (in slot order) into a valuation.
    pub fn new(values: Vec<f64>) -> Valuation {
        Valuation { values }
    }

    /// The per-slot values, in slot order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of slots this valuation covers.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` for a valuation without slots.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Overwrites the value of one slot (e.g. looked up via
    /// [`ParamTable::slot_of`]).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn set(&mut self, slot: usize, value: f64) -> &mut Valuation {
        self.values[slot] = value;
        self
    }

    /// Checks the valuation against a parameter table: the slot count must
    /// match and every value must be finite and strictly positive (a rate some
    /// transition carries with coefficient > 0 must stay a valid rate).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidValuation`] describing the first violation.
    pub fn check_against(&self, table: &ParamTable) -> Result<()> {
        if self.values.len() != table.len() {
            return Err(Error::InvalidValuation {
                message: format!(
                    "valuation has {} values but the model has {} parameter slots",
                    self.values.len(),
                    table.len()
                ),
            });
        }
        for (i, &v) in self.values.iter().enumerate() {
            if !(v.is_finite() && v > 0.0) {
                let slot = &table.slots()[i];
                return Err(Error::InvalidValuation {
                    message: format!(
                        "slot {i} ({} rate of '{}') has invalid value {v}",
                        slot.kind, slot.element
                    ),
                });
            }
        }
        Ok(())
    }

    /// A deterministic FNV-1a fingerprint of the value vector (bit patterns,
    /// `-0.0` folded onto `0.0`), stable across processes — together with
    /// [`Dft::structural_fingerprint`](dft::Dft::structural_fingerprint) it
    /// keys instantiated sessions in the
    /// [`AnalysisService`](crate::service::AnalysisService) cache.
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(PRIME);
            }
        };
        eat(self.values.len() as u64);
        for &v in &self.values {
            eat(if v == 0.0 { 0 } else { v.to_bits() });
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> ParamTable {
        let mut t = ParamTable::default();
        t.push("X", ParamKind::Failure, 0.5);
        t.push("X", ParamKind::Repair, 4.0);
        t.push("Y", ParamKind::Failure, 1.5);
        t
    }

    #[test]
    fn slots_round_trip() {
        let t = table();
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert_eq!(t.slot_of("X", ParamKind::Repair), Some(1));
        assert_eq!(t.slot_of("Y", ParamKind::Failure), Some(2));
        assert_eq!(t.slot_of("Y", ParamKind::Repair), None);
        assert_eq!(t.slots()[0].base, 0.5);
    }

    #[test]
    fn tables_from_trees_match_the_conversion() {
        let mut b = dft::DftBuilder::new();
        let x = b
            .repairable_basic_event("X", 0.5, dft::Dormancy::Hot, 4.0)
            .unwrap();
        let y = b.basic_event("Y", 1.5, dft::Dormancy::Hot).unwrap();
        let top = b.and_gate("Top", &[x, y]).unwrap();
        let tree = b.build(top).unwrap();
        let (_, converted) = crate::convert::convert_parametric(&tree).unwrap();
        assert_eq!(ParamTable::from_dft(&tree), converted);
        assert_eq!(converted, table());
    }

    #[test]
    fn base_and_scaled_valuations() {
        let t = table();
        let base = t.base_valuation();
        assert_eq!(base.values(), &[0.5, 4.0, 1.5]);
        let scaled = t.scaled_valuation(2.0);
        // Failure slots scale, the repair slot does not.
        assert_eq!(scaled.values(), &[1.0, 4.0, 3.0]);
        assert!(base.check_against(&t).is_ok());
        assert!(scaled.check_against(&t).is_ok());
    }

    #[test]
    fn invalid_valuations_are_rejected() {
        let t = table();
        let short = Valuation::new(vec![1.0]);
        assert!(short.check_against(&t).is_err());
        let mut bad = t.base_valuation();
        bad.set(1, 0.0);
        assert!(bad.check_against(&t).is_err());
        bad.set(1, f64::NAN);
        assert!(bad.check_against(&t).is_err());
    }

    #[test]
    fn fingerprints_track_values() {
        let t = table();
        let a = t.base_valuation();
        let b = t.base_valuation();
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = t.scaled_valuation(1.1);
        assert_ne!(a.fingerprint(), c.fingerprint());
        // Stable constant: guards against accidental hash changes that would
        // silently split a persistent cache.
        assert_eq!(
            Valuation::new(vec![1.0]).fingerprint(),
            Valuation::new(vec![1.0]).fingerprint()
        );
    }
}
