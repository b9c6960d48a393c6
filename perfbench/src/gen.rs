//! Seeded workload generator.
//!
//! Every input the benchmark hands to the program comes from here, drawn from
//! a SplitMix64 stream seeded by `--seed`: the same seed gives the same trees,
//! rates and request mix.  Trees are *dynamic* (spare pools, FDEP meshes, SEQ,
//! PAND cascades, inhibition, repairable voting) plus rate-jittered copies of
//! the paper's case studies and the repository's mini-corpus.
//!
//! Jitter multiplies every rate by a factor in `[0.8, 1.25)`, so a jittered
//! tree keeps its structure (and roughly its state counts) while getting a
//! fingerprint of its own: the service sees a distinct model.

use dft::{Dft, DftBuilder, Dormancy, Element, ElementId, GateKind};
use dft_core::rng::SplitMix64;
use std::collections::BTreeMap;

/// The repository's FFORT-style mini-corpus, compiled in.
const CORPUS: [(&str, &str); 11] = [
    (
        "cas_lite",
        include_str!("../../tests/fixtures/corpus/cas_lite.dft"),
    ),
    (
        "cps_lite",
        include_str!("../../tests/fixtures/corpus/cps_lite.dft"),
    ),
    ("ftpp", include_str!("../../tests/fixtures/corpus/ftpp.dft")),
    (
        "hcps_repair",
        include_str!("../../tests/fixtures/corpus/hcps_repair.dft"),
    ),
    ("hecs", include_str!("../../tests/fixtures/corpus/hecs.dft")),
    ("mdcs", include_str!("../../tests/fixtures/corpus/mdcs.dft")),
    (
        "pand_chain",
        include_str!("../../tests/fixtures/corpus/pand_chain.dft"),
    ),
    (
        "rc_gate",
        include_str!("../../tests/fixtures/corpus/rc_gate.dft"),
    ),
    (
        "safety_interlock",
        include_str!("../../tests/fixtures/corpus/safety_interlock.dft"),
    ),
    ("sap", include_str!("../../tests/fixtures/corpus/sap.dft")),
    (
        "static_crown",
        include_str!("../../tests/fixtures/corpus/static_crown.dft"),
    ),
];

/// Trees in the mini-corpus.
pub const CORPUS_TREES: usize = CORPUS.len();

/// Corpus tree `index`, rate-jittered.
pub fn corpus_tree(gen: &mut Gen, index: usize) -> Dft {
    let (_, text) = CORPUS[index];
    jitter(gen, &dft::galileo::parse(text).expect("corpus trees parse"))
}

/// A seeded random stream.
#[derive(Debug, Clone)]
pub struct Gen {
    rng: SplitMix64,
}

impl Gen {
    /// A stream for `seed`; `salt` separates independent streams of one run.
    pub fn new(seed: u64, salt: u64) -> Gen {
        let mut mix = SplitMix64::new(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        Gen {
            rng: SplitMix64::new(mix.next_u64()),
        }
    }

    /// Uniform in `lo..hi`.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty range {lo}..{hi}");
        let span = u64::try_from(hi - lo).expect("usize fits u64");
        lo + usize::try_from(self.rng.next_u64() % span).expect("below a usize span")
    }

    /// Uniform in `[lo, hi)`.
    pub fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.rng.next_f64() * (hi - lo)
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.rng.next_f64() < p
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.usize_in(0, i + 1);
            items.swap(i, j);
        }
    }

    fn rate(&mut self) -> f64 {
        self.f64_in(0.2, 2.0)
    }

    fn dormancy(&mut self) -> Dormancy {
        if self.chance(0.5) {
            Dormancy::Cold
        } else {
            Dormancy::Warm(self.f64_in(0.1, 0.6))
        }
    }
}

/// The tree families of the workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Shape {
    /// Spare gates over private primaries sharing a pool of spares.
    SparePool,
    /// FDEP triggers knocking out random subsets of voting dependents.
    FdepMesh,
    /// A SEQ chain beside a static module.
    Seq,
    /// PAND over AND modules of random widths.
    PandCascade,
    /// An inhibition gate beside a static module.
    Inhibit,
    /// Repairable basic events under voting gates (static gates only).
    Repair,
    /// The paper's cardiac assist system, rate-jittered.
    Cas,
    /// The paper's cascaded PAND system, rate-jittered.
    Cps,
    /// One tree of the mini-corpus, rate-jittered.
    Corpus,
    /// A wide static crown over one cold-spare pair, rate-jittered.
    StaticHeavy,
}

impl Shape {
    /// Stable name used in the shape-mix record.
    pub fn name(self) -> &'static str {
        match self {
            Shape::SparePool => "spare_pool",
            Shape::FdepMesh => "fdep_mesh",
            Shape::Seq => "seq",
            Shape::PandCascade => "pand_cascade",
            Shape::Inhibit => "inhibit",
            Shape::Repair => "repair",
            Shape::Cas => "cas",
            Shape::Cps => "cps",
            Shape::Corpus => "corpus",
            Shape::StaticHeavy => "static_heavy",
        }
    }
}

/// A generated tree and the family it came from.
#[derive(Debug, Clone)]
pub struct Tree {
    /// Family of the tree.
    pub shape: Shape,
    /// The tree itself.
    pub dft: Dft,
}

/// Draws one tree of `shape`.  Element names carry `tag`, so trees drawn
/// for different slots never share names.
pub fn tree(gen: &mut Gen, shape: Shape, tag: &str) -> Tree {
    let dft = match shape {
        Shape::SparePool => built(tag, |b| spare_pool(gen, b, tag)),
        Shape::FdepMesh => built(tag, |b| fdep_mesh(gen, b, tag)),
        Shape::Seq => built(tag, |b| seq(gen, b, tag)),
        Shape::PandCascade => built(tag, |b| pand_cascade(gen, b, tag)),
        Shape::Inhibit => built(tag, |b| inhibit(gen, b, tag)),
        Shape::Repair => built(tag, |b| repair(gen, b, tag)),
        Shape::Cas => jitter(gen, &dft_core::casestudies::cas()),
        Shape::Cps => jitter(gen, &dft_core::casestudies::cps()),
        Shape::Corpus => {
            let index = gen.usize_in(0, CORPUS_TREES);
            corpus_tree(gen, index)
        }
        Shape::StaticHeavy => jitter(gen, &static_heavy_tree(12)),
    };
    Tree { shape, dft }
}

fn built(tag: &str, body: impl FnOnce(&mut DftBuilder) -> ElementId) -> Dft {
    let mut b = DftBuilder::new();
    let top = body(&mut b);
    b.build(top)
        .unwrap_or_else(|e| panic!("generated tree {tag} is ill-formed: {e}"))
}

fn be(gen: &mut Gen, b: &mut DftBuilder, name: String, dormancy: Dormancy) -> ElementId {
    let rate = gen.rate();
    b.basic_event(&name, rate, dormancy).expect("fresh event")
}

fn hot_events(gen: &mut Gen, b: &mut DftBuilder, prefix: &str, n: usize) -> Vec<ElementId> {
    (0..n)
        .map(|i| be(gen, b, format!("{prefix}{i}"), Dormancy::Hot))
        .collect()
}

/// A static module: AND, OR or a 2-of-n vote over 2–3 hot events.
fn static_module(gen: &mut Gen, b: &mut DftBuilder, tag: &str) -> ElementId {
    let n = gen.usize_in(2, 4);
    let events = hot_events(gen, b, &format!("{tag}_s"), n);
    let name = format!("{tag}_static");
    match gen.usize_in(0, 3) {
        0 => b.and_gate(&name, &events),
        1 => b.or_gate(&name, &events),
        _ => b.voting_gate(&name, 2, &events),
    }
    .expect("fresh gate")
}

fn spare_pool(gen: &mut Gen, b: &mut DftBuilder, tag: &str) -> ElementId {
    let units = gen.usize_in(2, 4);
    let pool: Vec<ElementId> = (0..gen.usize_in(1, 3))
        .map(|i| {
            let d = gen.dormancy();
            be(gen, b, format!("{tag}_pool{i}"), d)
        })
        .collect();
    let gates: Vec<ElementId> = (0..units)
        .map(|u| {
            let mut inputs = vec![be(gen, b, format!("{tag}_p{u}"), Dormancy::Hot)];
            inputs.extend(&pool);
            b.spare_gate(&format!("{tag}_unit{u}"), &inputs)
                .expect("fresh gate")
        })
        .collect();
    let name = format!("{tag}_units");
    match gen.usize_in(0, 3) {
        0 => b.and_gate(&name, &gates),
        1 => b.or_gate(&name, &gates),
        _ => b.voting_gate(&name, 2, &gates),
    }
    .expect("fresh gate")
}

fn fdep_mesh(gen: &mut Gen, b: &mut DftBuilder, tag: &str) -> ElementId {
    let n = gen.usize_in(3, 6);
    let dependents = hot_events(gen, b, &format!("{tag}_d"), n);
    for t in 0..gen.usize_in(1, 3) {
        let trigger = be(gen, b, format!("{tag}_t{t}"), Dormancy::Hot);
        let mut chosen = dependents.clone();
        gen.shuffle(&mut chosen);
        chosen.truncate(gen.usize_in(1, n + 1));
        b.fdep_gate(&format!("{tag}_fdep{t}"), trigger, &chosen)
            .expect("fresh gate");
    }
    let k = u32::try_from(gen.usize_in(2, n + 1)).expect("small threshold");
    b.voting_gate(&format!("{tag}_vote"), k, &dependents)
        .expect("fresh gate")
}

fn seq(gen: &mut Gen, b: &mut DftBuilder, tag: &str) -> ElementId {
    let n = gen.usize_in(2, 5);
    let chain: Vec<ElementId> = (0..n)
        .map(|i| {
            let d = if i == 0 {
                Dormancy::Hot
            } else {
                Dormancy::Cold
            };
            be(gen, b, format!("{tag}_q{i}"), d)
        })
        .collect();
    let seq = b
        .seq_gate(&format!("{tag}_seq"), &chain)
        .expect("fresh gate");
    let side = static_module(gen, b, tag);
    b.or_gate(&format!("{tag}_top"), &[seq, side])
        .expect("fresh gate")
}

fn pand_cascade(gen: &mut Gen, b: &mut DftBuilder, tag: &str) -> ElementId {
    let modules: Vec<ElementId> = (0..gen.usize_in(2, 4))
        .map(|m| {
            let n = gen.usize_in(2, 4);
            let events = hot_events(gen, b, &format!("{tag}_m{m}e"), n);
            b.and_gate(&format!("{tag}_m{m}"), &events)
                .expect("fresh gate")
        })
        .collect();
    b.pand_gate(&format!("{tag}_pand"), &modules)
        .expect("fresh gate")
}

fn inhibit(gen: &mut Gen, b: &mut DftBuilder, tag: &str) -> ElementId {
    let subject = static_module(gen, b, &format!("{tag}a"));
    let n = gen.usize_in(1, 3);
    let inhibitors = hot_events(gen, b, &format!("{tag}_i"), n);
    let gate = b
        .inhibit_gate(&format!("{tag}_inhibit"), subject, &inhibitors)
        .expect("fresh gate");
    let side = static_module(gen, b, &format!("{tag}b"));
    b.or_gate(&format!("{tag}_top"), &[gate, side])
        .expect("fresh gate")
}

fn repair(gen: &mut Gen, b: &mut DftBuilder, tag: &str) -> ElementId {
    let groups: Vec<ElementId> = (0..gen.usize_in(1, 3))
        .map(|g| {
            let n = gen.usize_in(3, 5);
            let events: Vec<ElementId> = (0..n)
                .map(|i| {
                    let rate = gen.f64_in(0.2, 1.0);
                    let mu = gen.f64_in(1.0, 5.0);
                    b.repairable_basic_event(&format!("{tag}_g{g}r{i}"), rate, Dormancy::Hot, mu)
                        .expect("fresh event")
                })
                .collect();
            let k = u32::try_from(gen.usize_in(2, n + 1)).expect("small threshold");
            b.voting_gate(&format!("{tag}_g{g}"), k, &events)
                .expect("fresh gate")
        })
        .collect();
    b.or_gate(&format!("{tag}_top"), &groups)
        .expect("fresh gate")
}

/// `dft` with every failure and repair rate multiplied by its own factor in
/// `[0.8, 1.25)`; structure, names and element order are unchanged.
pub fn jitter(gen: &mut Gen, dft: &Dft) -> Dft {
    let mut b = DftBuilder::new();
    for id in dft.elements() {
        let name = dft.name(id);
        let made = match dft.element(id) {
            Element::BasicEvent(e) => {
                let rate = e.rate * gen.f64_in(0.8, 1.25);
                match e.repair_rate {
                    Some(mu) => {
                        let mu = mu * gen.f64_in(0.8, 1.25);
                        b.repairable_basic_event(name, rate, e.dormancy, mu)
                    }
                    None => b.basic_event(name, rate, e.dormancy),
                }
            }
            Element::Gate(g) => {
                let (first, rest) = g.inputs.split_first().expect("gates have inputs");
                match g.kind {
                    GateKind::And => b.and_gate(name, &g.inputs),
                    GateKind::Or => b.or_gate(name, &g.inputs),
                    GateKind::Voting { k } => b.voting_gate(name, k, &g.inputs),
                    GateKind::Pand => b.pand_gate(name, &g.inputs),
                    GateKind::Spare => b.spare_gate(name, &g.inputs),
                    GateKind::Seq => b.seq_gate(name, &g.inputs),
                    GateKind::Fdep => b.fdep_gate(name, *first, rest),
                    GateKind::Inhibit => b.inhibit_gate(name, *first, rest),
                }
            }
        };
        assert_eq!(
            made.expect("a valid tree rebuilds"),
            id,
            "element order kept"
        );
    }
    b.build(dft.top()).expect("a valid tree rebuilds")
}

/// `static_width` distinct-rate basic events grouped three at a time under
/// alternating AND / 2-of-3 / OR gates, OR'd at the top with one cold-spare
/// pair: all the dynamism in a two-element core, all the bulk in a static
/// crown.  Pinned here (not imported) so the workload cannot drift when the
/// repository's own experiments change their subjects.
pub fn static_heavy_tree(static_width: usize) -> Dft {
    let mut b = DftBuilder::new();
    let mut groups = Vec::new();
    let mut leaves = Vec::new();
    for i in 0..static_width {
        let rate = 0.25 + 0.05 * i as f64;
        leaves.push(
            b.basic_event(&format!("hx_e{i}"), rate, Dormancy::Hot)
                .expect("fresh name"),
        );
        if leaves.len() == 3 {
            let inputs = std::mem::take(&mut leaves);
            let name = format!("hx_g{}", groups.len());
            let gate = match groups.len() % 3 {
                0 => b.and_gate(&name, &inputs),
                1 => b.voting_gate(&name, 2, &inputs),
                _ => b.or_gate(&name, &inputs),
            };
            groups.push(gate.expect("fresh gate"));
        }
    }
    groups.extend(leaves);
    let p = b.basic_event("hx_p", 1.0, Dormancy::Hot).expect("fresh");
    let s = b.basic_event("hx_s", 1.0, Dormancy::Cold).expect("fresh");
    groups.push(b.spare_gate("hx_spare", &[p, s]).expect("fresh gate"));
    let top = b.or_gate("hx_top", &groups).expect("fresh gate");
    b.build(top).expect("well-formed tree")
}

/// Tally of the trees a run handed to the program: families, element count
/// and gate kinds.
#[derive(Debug, Clone, Default)]
pub struct ShapeMix {
    /// Trees per family.
    pub shapes: BTreeMap<&'static str, u64>,
    /// Gates per kind.
    pub gates: BTreeMap<&'static str, u64>,
    /// Basic events.
    pub basic_events: u64,
    /// Elements (basic events and gates).
    pub elements: u64,
}

impl ShapeMix {
    /// Adds another tally to this one.
    pub fn merge(&mut self, other: &ShapeMix) {
        for (k, v) in &other.shapes {
            *self.shapes.entry(k).or_default() += v;
        }
        for (k, v) in &other.gates {
            *self.gates.entry(k).or_default() += v;
        }
        self.basic_events += other.basic_events;
        self.elements += other.elements;
    }

    /// Counts one tree.
    pub fn add(&mut self, tree: &Tree) {
        *self.shapes.entry(tree.shape.name()).or_default() += 1;
        for id in tree.dft.elements() {
            self.elements += 1;
            match tree.dft.element(id) {
                Element::BasicEvent(_) => self.basic_events += 1,
                Element::Gate(g) => *self.gates.entry(gate_name(g.kind)).or_default() += 1,
            }
        }
    }
}

fn gate_name(kind: GateKind) -> &'static str {
    match kind {
        GateKind::And => "and",
        GateKind::Or => "or",
        GateKind::Voting { .. } => "voting",
        GateKind::Pand => "pand",
        GateKind::Spare => "spare",
        GateKind::Fdep => "fdep",
        GateKind::Seq => "seq",
        GateKind::Inhibit => "inhibit",
    }
}
