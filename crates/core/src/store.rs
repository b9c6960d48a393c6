//! The persistent cross-process model cache.
//!
//! Compositional aggregation (convert → compose → hide → lump) is by far the
//! dominant cost per DFT, and it is fully determined by the tree's structure:
//! [`Dft::fingerprint`](dft::Dft::fingerprint) and
//! [`Dft::structural_fingerprint`](dft::Dft::structural_fingerprint) are stable
//! across processes and platforms by construction.  A [`ModelStore`] therefore
//! serializes *closed* models — the final minimised I/O-IMC with its can/must
//! goal vectors, or the parametric quotient with its [`ParamTable`] — into a
//! directory shared between runs and between a fleet of analysis servers,
//! turning a restart from N full aggregations into N disk reads.  A numeric
//! compositional body stores its goal vectors as two CTMDP sections (state
//! vector, initial state, goal vector); both are re-derived from the closed
//! model on encode, and the decoder refuses sections that disagree with the
//! closed model it decoded.  A restored session lowers that closed model into
//! its kernel exactly as a fresh build does.
//!
//! # Entry format
//!
//! Every entry is one file:
//!
//! ```text
//! magic "DFTM" | format version u32 | kind u8 | fingerprint u64 |
//! epsilon bits u64 | payload length u64 | payload FNV-1a checksum u64 | payload
//! ```
//!
//! The payload is a session body, written and read by this module's one
//! session codec for both [`Analyzer`] and [`ParametricAnalyzer`] on top of
//! the rate-generic [`ioimc::codec`]; a hybrid body nests one compositional
//! body per dynamic core.  Readers reject — and callers then rebuild —
//! on *any* mismatch: wrong magic or version, foreign fingerprint, different
//! ε, short file, checksum failure, or a payload that decodes but fails model
//! validation.  Rejections are counted in [`StoreStats::rejected`]; they are
//! never errors on the cache path.
//!
//! # Concurrency
//!
//! Writers serialize to a temporary file in the store directory and publish
//! it with an atomic `rename`, so a concurrent reader (another process, or
//! another service sharing the directory) either sees the complete entry or
//! none at all — never a torn write.  Last writer wins; entries for one key
//! are deterministic, so the race is benign.
//!
//! # Errors
//!
//! Only the *explicit* [`ModelStore`] API ([`save_analyzer`],
//! [`save_parametric`], [`ModelStore::open`]) reports typed
//! [`Error::Store`] failures.  The [`AnalysisService`](crate::service) cache
//! path treats every store problem as a miss (load) or a skipped write-back
//! (save) and keeps serving from memory.
//!
//! [`save_analyzer`]: ModelStore::save_analyzer
//! [`save_parametric`]: ModelStore::save_parametric

use crate::aggregate::{AggregationStats, StepStats};
use crate::analysis::{AnalysisOptions, Method};
use crate::engine::{
    ctmdp_states_of, Analyzer, Backend, ClosedModel, Header, Hybrid, Leaf, ParametricAnalyzer,
    ParametricBackend, ParametricCore, Session,
};
use crate::parametric::{ParamKind, ParamTable};
use crate::{Error, Result};
use dft::bdd::{Bdd, BddNode};
use dft::modules::ModuleStats;
use ioimc::codec::{self, DecodeError, DecodeResult, Reader, Writer};
use ioimc::stats::ModelStats;
use ioimc::Action;
use markov::{Ctmc, CtmdpState};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// File magic: "DFTM" (dynamic fault tree model).
const MAGIC: [u8; 4] = *b"DFTM";

/// Version of the on-disk format.  Bumped on any incompatible layout change;
/// readers reject every version but their own (a stale entry is rebuilt and
/// overwritten, never migrated in place).
pub const FORMAT_VERSION: u32 = 1;

/// What an entry holds; part of the frame so a session entry renamed onto a
/// parametric path (or vice versa) is rejected instead of misdecoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    /// A numeric closed model (an [`Analyzer`] payload).
    Session,
    /// A parametric closed model (a [`ParametricAnalyzer`] payload).
    Parametric,
}

impl Kind {
    fn tag(self) -> u8 {
        match self {
            Kind::Session => 1,
            Kind::Parametric => 2,
        }
    }

    fn prefix(self) -> char {
        match self {
            Kind::Session => 's',
            Kind::Parametric => 'p',
        }
    }
}

/// FNV-1a over a byte slice: the payload checksum.  Not cryptographic — it
/// guards against torn or bit-rotted files, not adversaries (the store
/// directory is trusted infrastructure, like the build cache it is).
fn fnv1a64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(PRIME);
    }
    h
}

/// Frames a payload: magic, version, kind, identity, length, checksum, body.
fn seal(kind: Kind, fingerprint: u64, epsilon_bits: u64, payload: &[u8]) -> Vec<u8> {
    let mut w = Writer::new();
    w.bytes(&MAGIC);
    w.u32(FORMAT_VERSION);
    w.u8(kind.tag());
    w.u64(fingerprint);
    w.u64(epsilon_bits);
    w.len_prefix(payload.len());
    w.u64(fnv1a64(payload));
    w.bytes(payload);
    w.into_bytes()
}

/// Opens a frame and returns its payload slice.  `expected` carries the
/// fingerprint and ε-bits the caller is looking up; `None` (the
/// `from_bytes` path) accepts any identity but still verifies magic,
/// version, kind, length and checksum.
fn unseal(bytes: &[u8], kind: Kind, expected: Option<(u64, u64)>) -> DecodeResult<&[u8]> {
    let mut r = Reader::new(bytes);
    let mut magic = [0u8; 4];
    for b in &mut magic {
        *b = r.u8()?;
    }
    if magic != MAGIC {
        return Err(DecodeError::new("bad magic: not a model-store entry"));
    }
    let version = r.u32()?;
    if version != FORMAT_VERSION {
        return Err(DecodeError::new(format!(
            "format version {version} (this build reads {FORMAT_VERSION})"
        )));
    }
    let tag = r.u8()?;
    if tag != kind.tag() {
        return Err(DecodeError::new(format!(
            "entry kind {tag} where {} was expected",
            kind.tag()
        )));
    }
    let fingerprint = r.u64()?;
    let epsilon_bits = r.u64()?;
    if let Some((expected_fp, expected_eps)) = expected {
        if fingerprint != expected_fp {
            return Err(DecodeError::new(format!(
                "fingerprint {fingerprint:016x} does not match the requested {expected_fp:016x}"
            )));
        }
        if epsilon_bits != expected_eps {
            return Err(DecodeError::new("entry was built with a different epsilon"));
        }
    }
    let len = r.len_prefix(0)?;
    let checksum = r.u64()?;
    if r.remaining() != len {
        return Err(DecodeError::new(format!(
            "payload length {len} disagrees with the {} bytes present",
            r.remaining()
        )));
    }
    // `remaining == len` was just checked, so the suffix exists; go through
    // get() anyway so a future refactor cannot reintroduce a panic here.
    let payload = bytes
        .len()
        .checked_sub(len)
        .and_then(|start| bytes.get(start..))
        .ok_or_else(|| DecodeError::new("payload length exceeds the entry"))?;
    if fnv1a64(payload) != checksum {
        return Err(DecodeError::new("payload checksum mismatch"));
    }
    Ok(payload)
}

// ---------------------------------------------------------------------------
// Shared payload helpers of the session codec below.
// ---------------------------------------------------------------------------

fn encode_options(options: &AnalysisOptions, w: &mut Writer) {
    w.f64(options.epsilon);
    w.u8(match options.method {
        Method::Compositional => 0,
        Method::Monolithic => 1,
        Method::Hybrid => 2,
    });
}

fn decode_options(r: &mut Reader<'_>) -> DecodeResult<AnalysisOptions> {
    let epsilon = r.f64()?;
    let method = match r.u8()? {
        0 => Method::Compositional,
        1 => Method::Monolithic,
        2 => Method::Hybrid,
        other => return Err(DecodeError::new(format!("invalid method tag {other}"))),
    };
    Ok(AnalysisOptions { epsilon, method })
}

fn encode_model_stats(stats: ModelStats, w: &mut Writer) {
    w.len_prefix(stats.states);
    w.len_prefix(stats.interactive_transitions);
    w.len_prefix(stats.markovian_transitions);
    w.len_prefix(stats.inputs);
    w.len_prefix(stats.outputs);
    w.len_prefix(stats.internals);
}

fn decode_model_stats(r: &mut Reader<'_>) -> DecodeResult<ModelStats> {
    Ok(ModelStats {
        states: r.len_prefix(0)?,
        interactive_transitions: r.len_prefix(0)?,
        markovian_transitions: r.len_prefix(0)?,
        inputs: r.len_prefix(0)?,
        outputs: r.len_prefix(0)?,
        internals: r.len_prefix(0)?,
    })
}

fn encode_module_stats(stats: ModuleStats, w: &mut Writer) {
    w.len_prefix(stats.total_elements);
    w.len_prefix(stats.static_modules);
    w.len_prefix(stats.dynamic_modules);
    w.len_prefix(stats.static_modules_retained);
    w.len_prefix(stats.crown_elements);
    w.len_prefix(stats.core_count);
    w.len_prefix(stats.core_elements);
}

fn decode_module_stats(r: &mut Reader<'_>) -> DecodeResult<ModuleStats> {
    Ok(ModuleStats {
        total_elements: r.len_prefix(0)?,
        static_modules: r.len_prefix(0)?,
        dynamic_modules: r.len_prefix(0)?,
        static_modules_retained: r.len_prefix(0)?,
        crown_elements: r.len_prefix(0)?,
        core_count: r.len_prefix(0)?,
        core_elements: r.len_prefix(0)?,
    })
}

fn encode_aggregation_stats(stats: &AggregationStats, w: &mut Writer) {
    w.len_prefix(stats.steps.len());
    for step in &stats.steps {
        w.str(&step.composed.0);
        w.str(&step.composed.1);
        encode_model_stats(step.before_aggregation, w);
        encode_model_stats(step.after_aggregation, w);
        w.len_prefix(step.hidden);
    }
    encode_model_stats(stats.peak, w);
    encode_model_stats(stats.final_model, w);
}

fn decode_aggregation_stats(r: &mut Reader<'_>) -> DecodeResult<AggregationStats> {
    let num_steps = r.len_prefix(1)?;
    let mut steps = Vec::with_capacity(num_steps);
    for _ in 0..num_steps {
        let left = r.str()?;
        let right = r.str()?;
        let before_aggregation = decode_model_stats(r)?;
        let after_aggregation = decode_model_stats(r)?;
        let hidden = r.len_prefix(0)?;
        steps.push(StepStats {
            composed: (left, right),
            before_aggregation,
            after_aggregation,
            hidden,
        });
    }
    let peak = decode_model_stats(r)?;
    let final_model = decode_model_stats(r)?;
    Ok(AggregationStats {
        steps,
        peak,
        final_model,
    })
}

fn encode_bools(bools: &[bool], w: &mut Writer) {
    w.len_prefix(bools.len());
    for &b in bools {
        w.bool(b);
    }
}

fn decode_bools(r: &mut Reader<'_>) -> DecodeResult<Vec<bool>> {
    let n = r.len_prefix(1)?;
    (0..n).map(|_| r.bool()).collect()
}

/// Serializes a CTMDP section: the state vector, the initial state and the
/// goal vector.
fn encode_ctmdp(states: &[CtmdpState], initial: usize, goal: &[bool], w: &mut Writer) {
    w.len_prefix(states.len());
    for state in states {
        match state {
            CtmdpState::Markovian(rates) => {
                w.u8(0);
                w.len_prefix(rates.len());
                for &(target, rate) in rates {
                    w.u32(target);
                    w.f64(rate);
                }
            }
            CtmdpState::Immediate(successors) => {
                w.u8(1);
                w.len_prefix(successors.len());
                for &target in successors {
                    w.u32(target);
                }
            }
        }
    }
    w.len_prefix(initial);
    encode_bools(goal, w);
}

/// Decodes a CTMDP section and returns its goal vector.  The section's state
/// vector and initial state must be exactly `expected` and
/// `expected_initial`, the lowering of the closed model decoded before it,
/// and its goal vector must cover every state: a section that disagrees with
/// its model is refused.
fn decode_ctmdp(
    r: &mut Reader<'_>,
    expected: &[CtmdpState],
    expected_initial: usize,
) -> DecodeResult<Vec<bool>> {
    let num_states = r.len_prefix(1)?;
    let mut states = Vec::with_capacity(num_states);
    for _ in 0..num_states {
        states.push(match r.u8()? {
            0 => {
                let n = r.len_prefix(12)?;
                let mut rates = Vec::with_capacity(n);
                for _ in 0..n {
                    rates.push((r.u32()?, r.f64()?));
                }
                CtmdpState::Markovian(rates)
            }
            1 => {
                let n = r.len_prefix(4)?;
                let mut successors = Vec::with_capacity(n);
                for _ in 0..n {
                    successors.push(r.u32()?);
                }
                CtmdpState::Immediate(successors)
            }
            other => return Err(DecodeError::new(format!("invalid CTMDP state tag {other}"))),
        });
    }
    let initial = r.len_prefix(0)?;
    let goal = decode_bools(r)?;
    if states != expected || initial != expected_initial || goal.len() != expected.len() {
        return Err(DecodeError::new(
            "a CTMDP section disagrees with the closed model",
        ));
    }
    Ok(goal)
}

// ---------------------------------------------------------------------------
// The session codec: one body layout per session type, framed, loaded and
// saved through the same generic paths.
// ---------------------------------------------------------------------------

/// A session type the store persists: [`Analyzer`] or [`ParametricAnalyzer`].
pub(crate) trait Persist: Session {
    /// The frame kind of its entries.
    const KIND: Kind;

    /// Writes the session body onto a shared writer, without framing or
    /// trailing checks: a hybrid body embeds one body per core back to back
    /// on the same writer, so bodies must compose.
    fn encode_body(&self, w: &mut Writer);

    /// Reads one session body (the inverse of
    /// [`encode_body`](Self::encode_body)).  `core` marks the body of a
    /// hybrid core, which must be a compositional session: that is checked
    /// before its backend is decoded, so a crafted entry cannot nest hybrid
    /// bodies into unbounded recursion.
    fn decode_body(r: &mut Reader<'_>, core: bool) -> DecodeResult<Self>;
}

/// Frames a session on its own (`to_bytes`).
pub(crate) fn to_bytes<S: Persist>(session: &S) -> Vec<u8> {
    // A free-standing serialization is not bound to a DFT fingerprint; the
    // store writes its own frames with the real one.
    let epsilon_bits = session.header().options.epsilon.to_bits();
    seal(S::KIND, 0, epsilon_bits, &encode_payload(session))
}

/// Restores a session framed by [`to_bytes`] (`from_bytes`).
pub(crate) fn from_bytes<S: Persist>(bytes: &[u8]) -> Result<S> {
    unseal(bytes, S::KIND, None)
        .and_then(decode_payload)
        .map_err(|e| Error::Store {
            message: e.to_string(),
        })
}

/// The unframed payload of a session.
fn encode_payload<S: Persist>(session: &S) -> Vec<u8> {
    let mut w = Writer::new();
    session.encode_body(&mut w);
    w.into_bytes()
}

/// Decodes a payload produced by [`encode_payload`], re-validating every
/// embedded model.
fn decode_payload<S: Persist>(payload: &[u8]) -> DecodeResult<S> {
    let mut r = Reader::new(payload);
    let session = S::decode_body(&mut r, false)?;
    if !r.is_done() {
        return Err(DecodeError::new("trailing bytes after the session payload"));
    }
    Ok(session)
}

/// The header every body starts with.  Numeric sessions may lack
/// aggregation statistics and flag their presence; parametric ones always
/// carry them, unflagged.
fn encode_header(header: &Header, optional_aggregation: bool, w: &mut Writer) {
    encode_options(&header.options, w);
    w.bool(header.repairable);
    if optional_aggregation {
        w.bool(header.aggregation.is_some());
    }
    if let Some(stats) = &header.aggregation {
        encode_aggregation_stats(stats, w);
    }
    encode_model_stats(header.model_stats, w);
}

fn decode_header(
    r: &mut Reader<'_>,
    optional_aggregation: bool,
    core: bool,
) -> DecodeResult<Header> {
    let options = decode_options(r)?;
    if core && options.method != Method::Compositional {
        return Err(DecodeError::new(
            "hybrid cores must be compositional sessions",
        ));
    }
    let repairable = r.bool()?;
    let aggregation = if !optional_aggregation || r.bool()? {
        Some(decode_aggregation_stats(r)?)
    } else {
        None
    };
    Ok(Header {
        options,
        repairable,
        aggregation,
        model_stats: decode_model_stats(r)?,
        // A restored session ran no pipeline of its own.
        aggregation_runs: 0,
    })
}

/// The crown, leaves and cores of a hybrid body, for both session types:
/// `basic` writes what a crown basic event carries, `core` writes one core.
fn encode_hybrid<B: Copy, C>(
    hybrid: &Hybrid<B, C>,
    w: &mut Writer,
    basic: impl Fn(B, &mut Writer),
    core: impl Fn(&C, &mut Writer),
) {
    encode_module_stats(hybrid.modules, w);
    w.len_prefix(hybrid.crown.node_count());
    for node in hybrid.crown.nodes() {
        w.u32(node.var);
        w.u32(node.lo);
        w.u32(node.hi);
    }
    w.u32(hybrid.crown.root());
    w.len_prefix(hybrid.leaves.len());
    for leaf in &hybrid.leaves {
        match *leaf {
            Leaf::Unused => w.u8(0),
            Leaf::Basic(b) => {
                w.u8(1);
                basic(b, w);
            }
            Leaf::Core(index) => {
                w.u8(2);
                w.u32(index);
            }
        }
    }
    w.len_prefix(hybrid.cores.len());
    for c in &hybrid.cores {
        core(c, w);
    }
}

/// Decodes what [`encode_hybrid`] wrote: `basic` reads and range-checks one
/// basic-event payload, `core` reads one core.  The crown arena is
/// re-validated, and every leaf must point at a core that exists and every
/// crown variable at a used leaf.
fn decode_hybrid<B: Copy, C>(
    r: &mut Reader<'_>,
    repairable: bool,
    basic: impl Fn(&mut Reader<'_>) -> DecodeResult<B>,
    mut core: impl FnMut(&mut Reader<'_>) -> DecodeResult<C>,
) -> DecodeResult<Hybrid<B, C>> {
    if repairable {
        return Err(DecodeError::new(
            "a hybrid decomposition cannot be repairable",
        ));
    }
    let modules = decode_module_stats(r)?;
    let n = r.len_prefix(12)?;
    let mut nodes = Vec::with_capacity(n);
    for _ in 0..n {
        nodes.push(BddNode {
            var: r.u32()?,
            lo: r.u32()?,
            hi: r.u32()?,
        });
    }
    let root = r.u32()?;
    let crown = Bdd::from_parts(nodes, root)
        .map_err(|e| DecodeError::new(format!("decoded crown BDD is invalid: {e}")))?;
    let n_leaves = r.len_prefix(1)?;
    let mut leaves = Vec::with_capacity(n_leaves);
    for _ in 0..n_leaves {
        leaves.push(match r.u8()? {
            0 => Leaf::Unused,
            1 => Leaf::Basic(basic(r)?),
            2 => Leaf::Core(r.u32()?),
            tag => return Err(DecodeError::new(format!("unknown hybrid leaf tag {tag}"))),
        });
    }
    let n_cores = r.len_prefix(1)?;
    let cores = (0..n_cores)
        .map(|_| core(r))
        .collect::<DecodeResult<Vec<C>>>()?;
    let missing_core = |index: u32| usize::try_from(index).map_or(true, |i| i >= cores.len());
    if leaves
        .iter()
        .any(|leaf| matches!(*leaf, Leaf::Core(index) if missing_core(index)))
    {
        return Err(DecodeError::new("hybrid leaf references a missing core"));
    }
    for var in crown.support() {
        if !matches!(
            leaves.get(var.index()),
            Some(Leaf::Basic(_) | Leaf::Core(_))
        ) {
            return Err(DecodeError::new("crown BDD references an unused leaf"));
        }
    }
    Ok(Hybrid {
        crown,
        leaves,
        cores,
        modules,
    })
}

/// Rejects a parameter slot outside the decoded table: `RateForm::eval` and
/// the slot projections index valuations unchecked at instantiation time, so
/// an out-of-range slot in a corrupted entry must die here.
fn check_slot(slot: u32, params: &ParamTable, what: &str) -> DecodeResult<u32> {
    match usize::try_from(slot) {
        Ok(index) if index < params.len() => Ok(slot),
        _ => Err(DecodeError::new(format!(
            "{what} references slot {slot} but the table has {} slots",
            params.len()
        ))),
    }
}

/// The one check both decoders apply to a decoded core.
fn deterministic_core<S: Session>(core: S) -> DecodeResult<S> {
    if core.is_nondeterministic() {
        return Err(DecodeError::new(
            "hybrid cores must be deterministic compositional sessions",
        ));
    }
    Ok(core)
}

impl Persist for Analyzer {
    const KIND: Kind = Kind::Session;

    fn encode_body(&self, w: &mut Writer) {
        encode_header(&self.header, true, w);
        match &self.backend {
            Backend::Compositional {
                model,
                // Both derived deterministically from `model.closed`.
                kernel: _,
                tangible: _,
            } => {
                w.u8(0);
                w.str(model.top_failure.name());
                w.bool(model.has_repair);
                w.bool(model.point_valued);
                codec::encode_model(&model.closed, w);
                // Format 1 carries the closed model's CTMDP lowering twice:
                // once with the can and once with the must goal vector.
                let states = ctmdp_states_of(&model.closed, |&rate| rate);
                let initial = model.closed.initial().index();
                encode_ctmdp(&states, initial, &model.can, w);
                encode_ctmdp(&states, initial, &model.must, w);
            }
            Backend::Monolithic { ctmc, goal } => {
                w.u8(1);
                w.len_prefix(ctmc.num_states());
                w.len_prefix(ctmc.initial());
                let transitions = ctmc.transitions();
                w.len_prefix(transitions.len());
                for (from, to, rate) in transitions {
                    w.u32(from);
                    w.u32(to);
                    w.f64(rate);
                }
                encode_bools(goal, w);
            }
            Backend::Hybrid(hybrid) => {
                w.u8(2);
                encode_hybrid(
                    hybrid,
                    w,
                    |rate, w| w.f64(rate),
                    |core, w| core.encode_body(w),
                );
            }
        }
    }

    fn decode_body(r: &mut Reader<'_>, core: bool) -> DecodeResult<Analyzer> {
        let header = decode_header(r, true, core)?;
        let backend = match (r.u8()?, header.options.method) {
            // Tag 0 under `Method::Hybrid` is a hybrid session that fell back
            // to the compositional pipeline (repairable tree or
            // non-deterministic core): same body, different label.
            (0, Method::Compositional | Method::Hybrid) => {
                let top_failure = Action::new(&r.str()?);
                let has_repair = r.bool()?;
                let point_valued = r.bool()?;
                let closed = codec::decode_model::<f64>(r)?;
                let states = ctmdp_states_of(&closed, |&rate| rate);
                let initial = closed.initial().index();
                let can = decode_ctmdp(r, &states, initial)?;
                let must = decode_ctmdp(r, &states, initial)?;
                Backend::compositional(ClosedModel {
                    closed,
                    top_failure,
                    has_repair,
                    can,
                    must,
                    point_valued,
                })
                .map_err(|e| DecodeError::new(format!("decoded model is invalid: {e}")))?
            }
            (1, Method::Monolithic) => {
                let num_states = r.len_prefix(0)?;
                let initial = r.len_prefix(0)?;
                let n = r.len_prefix(16)?;
                let mut transitions = Vec::with_capacity(n);
                for _ in 0..n {
                    transitions.push((r.u32()?, r.u32()?, r.f64()?));
                }
                let ctmc = Ctmc::from_transitions(num_states, initial, &transitions)
                    .map_err(|e| DecodeError::new(format!("decoded CTMC is invalid: {e}")))?;
                let goal = decode_bools(r)?;
                if goal.len() != num_states {
                    return Err(DecodeError::new("goal vector length mismatch"));
                }
                Backend::Monolithic { ctmc, goal }
            }
            (2, Method::Hybrid) => Backend::Hybrid(decode_hybrid(
                r,
                header.repairable,
                |r| {
                    let rate = r.f64()?;
                    if !rate.is_finite() || rate <= 0.0 {
                        return Err(DecodeError::new("crown basic-event rate out of range"));
                    }
                    Ok(rate)
                },
                |r| deterministic_core(Analyzer::decode_body(r, true)?),
            )?),
            (tag, method) => {
                return Err(DecodeError::new(format!(
                    "backend tag {tag} disagrees with method {method:?}"
                )))
            }
        };
        Ok(Analyzer { header, backend })
    }
}

/// Compositional-method parametric payloads keep the exact format-1 byte
/// layout; under [`Method::Hybrid`] a backend tag follows the header
/// (0 = compositional fallback, 2 = genuine hybrid).
impl Persist for ParametricAnalyzer {
    const KIND: Kind = Kind::Parametric;

    fn encode_body(&self, w: &mut Writer) {
        encode_header(&self.header, false, w);
        match &self.backend {
            ParametricBackend::Compositional {
                model,
                lowering: _, // derived lazily and deterministically
            } => {
                if self.header.options.method == Method::Hybrid {
                    w.u8(0);
                }
                w.str(model.top_failure.name());
                w.bool(model.has_repair);
                w.bool(model.point_valued);
                encode_params(&self.params, w);
                codec::encode_model(&model.closed, w);
                encode_bools(&model.can, w);
                encode_bools(&model.must, w);
            }
            ParametricBackend::Hybrid(hybrid) => {
                w.u8(2);
                encode_params(&self.params, w);
                encode_hybrid(
                    hybrid,
                    w,
                    |slot, w| w.u32(slot),
                    |core, w| {
                        w.len_prefix(core.slots.len());
                        for &slot in &core.slots {
                            w.u32(slot);
                        }
                        core.analyzer.encode_body(w);
                    },
                );
            }
        }
    }

    fn decode_body(r: &mut Reader<'_>, core: bool) -> DecodeResult<ParametricAnalyzer> {
        let header = decode_header(r, false, core)?;
        let method = header.options.method;
        if method == Method::Monolithic {
            return Err(DecodeError::new("parametric sessions are never monolithic"));
        }
        let tag = if method == Method::Hybrid { r.u8()? } else { 0 };
        let (params, backend) = match tag {
            0 => {
                let top_failure = Action::new(&r.str()?);
                let has_repair = r.bool()?;
                let point_valued = r.bool()?;
                let params = decode_params(r)?;
                let closed = codec::decode_model::<ioimc::RateForm>(r)?;
                for t in closed.markovian() {
                    if let Some(max_slot) = t.rate.max_slot() {
                        check_slot(max_slot, &params, "a rate form")?;
                    }
                }
                let can = decode_bools(r)?;
                let must = decode_bools(r)?;
                if can.len() != closed.num_states() || must.len() != closed.num_states() {
                    return Err(DecodeError::new(
                        "goal-set lengths disagree with the closed model",
                    ));
                }
                let backend = ParametricBackend::Compositional {
                    model: ClosedModel {
                        closed,
                        top_failure,
                        has_repair,
                        can,
                        must,
                        point_valued,
                    },
                    lowering: OnceLock::new(),
                };
                (params, backend)
            }
            2 => {
                let params = decode_params(r)?;
                let hybrid = decode_hybrid(
                    r,
                    header.repairable,
                    |r| check_slot(r.u32()?, &params, "a crown leaf"),
                    |r| {
                        let n_slots = r.len_prefix(4)?;
                        let slots = (0..n_slots)
                            .map(|_| check_slot(r.u32()?, &params, "a core projection"))
                            .collect::<DecodeResult<Vec<u32>>>()?;
                        let analyzer = deterministic_core(Self::decode_body(r, true)?)?;
                        if slots.len() != analyzer.params.len() {
                            return Err(DecodeError::new(
                                "core projection length disagrees with the core's parameter table",
                            ));
                        }
                        Ok(ParametricCore { analyzer, slots })
                    },
                )?;
                (params, ParametricBackend::Hybrid(hybrid))
            }
            tag => {
                return Err(DecodeError::new(format!(
                    "unknown parametric backend tag {tag}"
                )))
            }
        };
        Ok(ParametricAnalyzer {
            header,
            params,
            backend,
        })
    }
}

/// The [`ParamTable`] codec of the parametric payload layouts.
fn encode_params(params: &ParamTable, w: &mut Writer) {
    w.len_prefix(params.len());
    for slot in params.slots() {
        w.str(&slot.element);
        w.u8(match slot.kind {
            ParamKind::Failure => 0,
            ParamKind::Repair => 1,
        });
        w.f64(slot.base);
    }
}

fn decode_params(r: &mut Reader<'_>) -> DecodeResult<ParamTable> {
    let num_slots = r.len_prefix(10)?;
    let mut params = ParamTable::default();
    for _ in 0..num_slots {
        let element = r.str()?;
        let kind = match r.u8()? {
            0 => ParamKind::Failure,
            1 => ParamKind::Repair,
            other => {
                return Err(DecodeError::new(format!(
                    "invalid parameter kind tag {other}"
                )))
            }
        };
        let base = r.f64()?;
        params.push(&element, kind, base);
    }
    Ok(params)
}

// ---------------------------------------------------------------------------
// The store itself.
// ---------------------------------------------------------------------------

/// Cumulative counters of one [`ModelStore`] handle.
///
/// `hits + misses` is the number of load attempts; `rejected` is the subset
/// of misses where an entry *existed* but was refused (truncated, corrupted,
/// wrong version, foreign fingerprint, failed validation) — the
/// distinguishing signal between "cold store" and "store with a problem".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Loads that produced a usable model.
    pub hits: u64,
    /// Loads that found nothing usable (absent entries and rejections).
    pub misses: u64,
    /// Entries that existed but were refused and will be rebuilt.
    pub rejected: u64,
    /// Entries successfully written (atomically published).
    pub writes: u64,
    /// Write-backs that failed; on the service path these degrade to an
    /// in-memory-only cache entry, never to an error.
    pub write_errors: u64,
    /// Bytes read from disk across all load attempts.
    pub read_bytes: u64,
    /// Bytes written to disk across all successful writes.
    pub write_bytes: u64,
}

/// A directory-backed, cross-process cache of closed models.
///
/// One handle is cheap and thread-safe (`&self` everywhere, atomic counters);
/// any number of handles — in this process, in other processes, on other
/// machines sharing the directory — may read and write concurrently, see the
/// [module documentation](self) for the format and concurrency story.
///
/// # Example
///
/// ```no_run
/// use dft_core::store::ModelStore;
/// use dft_core::{AnalysisOptions, Analyzer};
/// # fn main() -> Result<(), dft_core::Error> {
/// # let dft = dft_core::casestudies::cas();
/// let store = ModelStore::open("/var/cache/dftmc")?;
/// let options = AnalysisOptions::default();
/// let analyzer = match store.load_analyzer(dft.fingerprint(), &options) {
///     Some(warm) => warm, // no aggregation ran
///     None => {
///         let built = Analyzer::new(&dft, options.clone())?;
///         store.save_analyzer(dft.fingerprint(), &built)?;
///         built
///     }
/// };
/// # let _ = analyzer;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ModelStore {
    dir: PathBuf,
    /// Distinguishes concurrent temporary files of one handle; combined with
    /// the process id to distinguish handles.
    tmp_seq: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    rejected: AtomicU64,
    writes: AtomicU64,
    write_errors: AtomicU64,
    read_bytes: AtomicU64,
    write_bytes: AtomicU64,
}

impl ModelStore {
    /// Opens (creating if necessary) the store directory.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Store`] when the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<ModelStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| Error::Store {
            message: format!("cannot create store directory {}: {e}", dir.display()),
        })?;
        Ok(ModelStore {
            dir,
            tmp_seq: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
            read_bytes: AtomicU64::new(0),
            write_bytes: AtomicU64::new(0),
        })
    }

    /// The directory this store reads and writes.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Snapshot of the cumulative counters of this handle.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            write_errors: self.write_errors.load(Ordering::Relaxed),
            read_bytes: self.read_bytes.load(Ordering::Relaxed),
            write_bytes: self.write_bytes.load(Ordering::Relaxed),
        }
    }

    /// The entry path for a (kind, method, fingerprint, ε) quadruple.  All
    /// four are part of the name, so distinct configurations never collide.
    fn entry_path(&self, kind: Kind, method: Method, fingerprint: u64, eps_bits: u64) -> PathBuf {
        let method = match method {
            Method::Compositional => 'c',
            Method::Monolithic => 'm',
            Method::Hybrid => 'h',
        };
        self.dir.join(format!(
            "{}{method}-{fingerprint:016x}-{eps_bits:016x}.dftm",
            kind.prefix()
        ))
    }

    /// Loads the numeric closed model cached for `fingerprint`
    /// ([`Dft::fingerprint`](dft::Dft::fingerprint)) under `options`, or
    /// `None` when no usable entry exists.  Corrupt, truncated, stale and
    /// foreign entries are rejected (counted in [`StoreStats::rejected`]) and
    /// reported as a miss — the caller rebuilds and overwrites.
    pub fn load_analyzer(&self, fingerprint: u64, options: &AnalysisOptions) -> Option<Analyzer> {
        self.load(fingerprint, options)
    }

    /// Writes the entry for `fingerprint` ([`Dft::fingerprint`](dft::Dft::fingerprint)),
    /// atomically replacing any previous one.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Store`] when serialization cannot be persisted (I/O
    /// failure); the failure is also counted in [`StoreStats::write_errors`].
    pub fn save_analyzer(&self, fingerprint: u64, analyzer: &Analyzer) -> Result<()> {
        self.save(fingerprint, analyzer)
    }

    /// Loads the parametric closed model cached for `structural_fingerprint`
    /// ([`Dft::structural_fingerprint`](dft::Dft::structural_fingerprint))
    /// under `options`; same rejection semantics as
    /// [`load_analyzer`](Self::load_analyzer).
    pub fn load_parametric(
        &self,
        structural_fingerprint: u64,
        options: &AnalysisOptions,
    ) -> Option<ParametricAnalyzer> {
        self.load(structural_fingerprint, options)
    }

    /// Writes the parametric entry for `structural_fingerprint`, atomically
    /// replacing any previous one.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Store`] when the entry cannot be persisted.
    pub fn save_parametric(
        &self,
        structural_fingerprint: u64,
        parametric: &ParametricAnalyzer,
    ) -> Result<()> {
        self.save(structural_fingerprint, parametric)
    }

    /// The one load path of both session types: read, unseal, decode; count
    /// the outcome.
    pub(crate) fn load<S: Persist>(
        &self,
        fingerprint: u64,
        options: &AnalysisOptions,
    ) -> Option<S> {
        let eps_bits = options.epsilon.to_bits();
        let path = self.entry_path(S::KIND, options.method, fingerprint, eps_bits);
        let bytes = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(_) => {
                // Absent entry: an ordinary cold miss, not a rejection.
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        // xlint: allow(cast) -- usize to u64 widening is lossless on every supported target
        let read = bytes.len() as u64;
        self.read_bytes.fetch_add(read, Ordering::Relaxed);
        // The frame carries fingerprint and ε; the method is encoded in the
        // payload (and the file name), so verify it survived the round trip.
        // The check lives inside the decode step so a mismatch counts as one
        // rejection, like every other refusal — never as a hit.
        let decoded = unseal(&bytes, S::KIND, Some((fingerprint, eps_bits)))
            .and_then(decode_payload::<S>)
            .and_then(|session| {
                if session.header().options.method == options.method {
                    Ok(session)
                } else {
                    Err(DecodeError::new("entry method disagrees with the request"))
                }
            });
        match decoded {
            Ok(session) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(session)
            }
            Err(_) => {
                self.reject_one();
                None
            }
        }
    }

    /// The one save path of both session types: frame the session with its
    /// real fingerprint and publish it atomically.
    pub(crate) fn save<S: Persist>(&self, fingerprint: u64, session: &S) -> Result<()> {
        let options = &session.header().options;
        let eps_bits = options.epsilon.to_bits();
        let path = self.entry_path(S::KIND, options.method, fingerprint, eps_bits);
        let framed = seal(S::KIND, fingerprint, eps_bits, &encode_payload(session));
        self.write_atomic(&path, &framed)
    }

    /// Counts one rejection (an entry that existed but was refused).
    fn reject_one(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Writes `bytes` to `path` via a unique temporary file in the same
    /// directory and an atomic rename, so concurrent readers never observe a
    /// partial entry.
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> Result<()> {
        // Entry paths are built from hex fingerprints, so the file name is
        // always UTF-8; the fallback merely keeps this path panic-free.
        let file_name = path.file_name().and_then(|n| n.to_str()).unwrap_or("entry");
        let tmp = self.dir.join(format!(
            ".{file_name}.tmp-{}-{}",
            std::process::id(),
            self.tmp_seq.fetch_add(1, Ordering::Relaxed)
        ));
        let publish = std::fs::write(&tmp, bytes).and_then(|()| std::fs::rename(&tmp, path));
        match publish {
            Ok(()) => {
                self.writes.fetch_add(1, Ordering::Relaxed);
                // xlint: allow(cast) -- usize to u64 widening is lossless on every supported target
                let written = bytes.len() as u64;
                self.write_bytes.fetch_add(written, Ordering::Relaxed);
                Ok(())
            }
            Err(e) => {
                self.write_errors.fetch_add(1, Ordering::Relaxed);
                let _ = std::fs::remove_file(&tmp);
                Err(Error::Store {
                    message: format!("cannot write store entry {}: {e}", path.display()),
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_and_reject_mismatches() {
        let payload = b"model bytes".to_vec();
        let framed = seal(Kind::Session, 0xfeed, 0x1234, &payload);
        assert_eq!(
            unseal(&framed, Kind::Session, Some((0xfeed, 0x1234))).unwrap(),
            payload.as_slice()
        );
        // Identity-agnostic open (the from_bytes path).
        assert_eq!(
            unseal(&framed, Kind::Session, None).unwrap(),
            payload.as_slice()
        );
        // Foreign fingerprint, foreign epsilon, wrong kind.
        assert!(unseal(&framed, Kind::Session, Some((0xbeef, 0x1234))).is_err());
        assert!(unseal(&framed, Kind::Session, Some((0xfeed, 0x9999))).is_err());
        assert!(unseal(&framed, Kind::Parametric, Some((0xfeed, 0x1234))).is_err());
    }

    #[test]
    fn corruption_is_detected() {
        let framed = seal(Kind::Parametric, 1, 2, b"payload!");
        // Any strict prefix is truncated.
        for cut in 0..framed.len() {
            assert!(unseal(&framed[..cut], Kind::Parametric, None).is_err());
        }
        // Any single flipped payload byte breaks the checksum.
        let payload_start = framed.len() - b"payload!".len();
        for i in payload_start..framed.len() {
            let mut bad = framed.clone();
            bad[i] ^= 0x40;
            assert!(unseal(&bad, Kind::Parametric, None).is_err());
        }
        // A bumped format version is stale.
        let mut stale = framed.clone();
        stale[4] = stale[4].wrapping_add(1);
        assert!(unseal(&stale, Kind::Parametric, None).is_err());
        // Bad magic.
        let mut foreign = framed;
        foreign[0] = b'X';
        assert!(unseal(&foreign, Kind::Parametric, None).is_err());
    }

    /// Decodes a crafted entry that nests the hybrid level of `session`
    /// 20 000 times above the body of its single `core` — hybrid cores that
    /// are hybrid sessions again, built with the real encoders — on a thread
    /// with the 2 MiB default stack of a spawned thread, service workers
    /// included.  Unbounded recursion would abort the whole process here.
    fn decode_nested<S: Persist + 'static>(session: &S, core: &[u8]) -> Option<Error> {
        let body = encode_payload(session);
        let level = &body[..body.len() - core.len()];
        let frame = |depth| {
            let mut nested = level.repeat(depth);
            nested.extend_from_slice(core);
            seal(
                S::KIND,
                0,
                session.header().options.epsilon.to_bits(),
                &nested,
            )
        };
        // One level is the genuine session, so the construction is sound.
        assert!(from_bytes::<S>(&frame(1)).is_ok());
        let deep = frame(20_000);
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || from_bytes::<S>(&deep).err())
            .unwrap()
            .join()
            .unwrap()
    }

    #[test]
    fn ctmdp_sections_that_disagree_with_the_closed_model_fail_typed() {
        let dft = crate::engine::tests::mixed_tree("sc");
        let analyzer = Analyzer::new(&dft, AnalysisOptions::default()).unwrap();
        let Backend::Compositional { model, .. } = &analyzer.backend else {
            panic!("a compositional build has a compositional backend")
        };
        let section = |states: &[CtmdpState], initial: usize, goal: &[bool]| {
            let mut w = Writer::new();
            encode_ctmdp(states, initial, goal, &mut w);
            w.into_bytes()
        };
        // The genuine body ends with its two sections; splice tampered ones
        // in their place and reseal, so only the section check can object.
        let states = ctmdp_states_of(&model.closed, |&rate| rate);
        let initial = model.closed.initial().index();
        let upper = section(&states, initial, &model.can);
        let lower = section(&states, initial, &model.must);
        let payload = encode_payload(&analyzer);
        let prefix = &payload[..payload.len() - upper.len() - lower.len()];
        assert_eq!([prefix, &upper, &lower].concat(), payload);
        let decode = |upper: &[u8], lower: &[u8]| {
            let epsilon = analyzer.header.options.epsilon.to_bits();
            from_bytes::<Analyzer>(&seal(
                Kind::Session,
                0,
                epsilon,
                &[prefix, upper, lower].concat(),
            ))
        };
        assert!(decode(&upper, &lower).is_ok());

        let mut rerated = states.clone();
        let row = rerated
            .iter_mut()
            .find_map(|state| match state {
                CtmdpState::Markovian(row) if !row.is_empty() => Some(row),
                _ => None,
            })
            .expect("the closed model races at least one delay");
        row[0].1 *= 2.0;
        let rerated_upper = section(&rerated, initial, &model.can);
        let rerated_lower = section(&rerated, initial, &model.must);
        let moved_initial = section(&states, initial + 1, &model.can);
        let short_goal = section(&states, initial, &model.must[1..]);
        for (upper, lower) in [
            (&rerated_upper, &lower),
            (&upper, &rerated_lower),
            (&moved_initial, &lower),
            (&upper, &short_goal),
        ] {
            let error = decode(upper, lower).err();
            assert!(
                matches!(&error, Some(Error::Store { message }) if message.contains("disagrees")),
                "{error:?}"
            );
        }
    }

    #[test]
    fn nested_hybrid_cores_fail_typed_instead_of_overflowing_the_stack() {
        let dft = crate::engine::tests::mixed_tree("st");
        let options = AnalysisOptions {
            method: Method::Hybrid,
            ..AnalysisOptions::default()
        };
        let numeric = Analyzer::new(&dft, options.clone()).unwrap();
        let Backend::Hybrid(hybrid) = &numeric.backend else {
            panic!("the mixed tree decomposes")
        };
        let numeric = decode_nested(&numeric, &encode_payload(&hybrid.cores[0]));
        let parametric = ParametricAnalyzer::new(&dft, options).unwrap();
        let ParametricBackend::Hybrid(hybrid) = &parametric.backend else {
            panic!("the mixed tree decomposes")
        };
        let parametric = decode_nested(&parametric, &encode_payload(&hybrid.cores[0].analyzer));
        for error in [numeric, parametric] {
            assert!(
                matches!(&error, Some(Error::Store { message }) if message.contains("compositional")),
                "{error:?}"
            );
        }
    }
}
