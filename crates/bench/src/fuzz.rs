//! Deterministic fuzzing of every untrusted-byte decoder in the workspace.
//!
//! The engine's hardening claim (see `xlint`'s `panic` rule and ROADMAP
//! item 4) is that bytes from outside the process — model-cache entries,
//! Galileo files, committed `BENCH_*.json` baselines, raw HTTP requests on a
//! `dftmc-serve` socket — can be arbitrarily corrupt and the decoders still
//! return a typed error instead of unwinding.
//! This module drives that claim dynamically: it mutates valid encodings and
//! throws pure random bytes at each decoder, catching any panic.
//!
//! Everything is seeded through the in-repo [`SplitMix64`], so a failure
//! reproduces exactly from its `(seed, iterations)` pair — the CI lane runs a
//! fixed seed batch, and any crashing input can be committed as a regression
//! fixture.  Run it locally with:
//!
//! ```text
//! cargo run --release -p dftmc-bench --bin fuzz_decode -- --iters 10000 --seed 3735928559
//! ```

use dft_core::rng::SplitMix64;
use dft_core::{AnalysisOptions, Analyzer, Method, ParametricAnalyzer};
use ioimc::action::Action;
use ioimc::builder::IoImcBuilderOf;
use ioimc::codec::{decode_model, encode_model, Reader, Writer};
use ioimc::model::IoImcOf;
use ioimc::rate::{Rate, RateForm};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Outcome of one fuzzing campaign against a single decoder.
#[derive(Debug)]
pub struct FuzzReport {
    /// Decoder name, as printed by the bin and the CI log.
    pub target: &'static str,
    /// Inputs executed.
    pub runs: usize,
    /// Inputs the decoder accepted.
    pub accepted: usize,
    /// Inputs the decoder rejected with a typed error.
    pub rejected: usize,
    /// Inputs that made the decoder panic — the bug class this harness
    /// exists to catch.  Empty on a healthy tree.
    pub panics: Vec<Vec<u8>>,
}

impl FuzzReport {
    /// True when no input panicked.
    pub fn clean(&self) -> bool {
        self.panics.is_empty()
    }
}

/// A tiny numeric I/O-IMC exercising every codec feature (all three label
/// kinds, Markovian transitions, propositions).
fn sample_model() -> IoImcOf<f64> {
    let mut b = IoImcBuilderOf::<f64>::new("fuzz-sample");
    let s = [b.add_state(), b.add_state(), b.add_state(), b.add_state()];
    b.initial(s[0]);
    b.markovian(s[0], 1.5, s[1]);
    b.markovian(s[1], 0.25, s[2]);
    b.input(s[0], Action::new("fuzz_go"), s[2]);
    b.output(s[2], Action::new("fuzz_done"), s[3]);
    b.internal(s[1], Action::new("fuzz_step"), s[3]);
    let failed = b.prop("failed");
    b.set_prop(s[3], failed);
    b.build().expect("the fuzz sample model is valid")
}

/// Same, with parametric rates, so `RateForm` decoding is covered too.
fn sample_parametric_model() -> IoImcOf<RateForm> {
    let mut b = IoImcBuilderOf::<RateForm>::new("fuzz-parametric");
    let s = [b.add_state(), b.add_state()];
    b.initial(s[0]);
    let mut form = RateForm::var(0);
    form.add_assign(&RateForm::scaled_var(3, 0.25));
    b.markovian(s[0], form, s[1]);
    b.output(s[1], Action::new("fuzz_pfail"), s[1]);
    b.build().expect("the fuzz parametric model is valid")
}

/// A small but feature-complete Galileo description (spare, FDEP, voting,
/// dormancy, repair) used as the text-mutation corpus.
pub const GALILEO_SEED_TEXT: &str = r#"
toplevel "System";
"System" or "CPU_unit" "Votes" "Pump";
"CPU_unit" wsp "P" "B";
"CPU_fdep" fdep "Trigger" "P" "B";
"Trigger" or "CS" "SS";
"Votes" 2of3 "V1" "V2" "V3";
"Pump" and "PA" "PB";
"CS" lambda=0.2;
"SS" lambda=0.2;
"P" lambda=0.5;
"B" lambda=0.5 dorm=0.5;
"V1" lambda=1.0;
"V2" lambda=1.0;
"V3" lambda=1.0 repair=2.0;
"PA" lambda=1.0;
"PB" lambda=1.0 dorm=0.0;
"#;

/// The byte corpora, one per binary decoder.
fn model_corpus() -> Vec<Vec<u8>> {
    let mut numeric = Writer::new();
    encode_model(&sample_model(), &mut numeric);
    let mut parametric = Writer::new();
    encode_model(&sample_parametric_model(), &mut parametric);
    vec![numeric.into_bytes(), parametric.into_bytes()]
}

/// A small DFT the analysis engine fully supports (no repair + spare mix),
/// used to build genuine session frames for the store-loading fuzz target.
const SESSION_SEED_TEXT: &str = r#"
toplevel "Top";
"Top" or "Left" "Votes";
"Left" wsp "P" "B";
"Votes" 2of3 "V1" "V2" "V3";
"P" lambda=0.5;
"B" lambda=0.5 dorm=0.5;
"V1" lambda=1.0;
"V2" lambda=1.0;
"V3" lambda=1.0;
"#;

/// Sealed session frames, as the persistent store loads them from disk: the
/// compositional, monolithic and hybrid numeric bodies and the compositional
/// and hybrid parametric ones, so every backend branch of both session
/// decoders — the crown, leaf and core branches included — has a seed.
fn session_corpus() -> Vec<Vec<u8>> {
    let dft = dft::galileo::parse(SESSION_SEED_TEXT).expect("the fuzz session corpus parses");
    let with = |method| AnalysisOptions {
        method,
        ..AnalysisOptions::default()
    };
    let analyzer = |method| Analyzer::new(&dft, with(method)).expect("the fuzz sample analyzes");
    let parametric = |method| {
        ParametricAnalyzer::new(&dft, with(method))
            .expect("the fuzz sample analyzes parametrically")
    };
    let hybrid = analyzer(Method::Hybrid);
    let parametric_hybrid = parametric(Method::Hybrid);
    assert!(
        hybrid.module_stats().is_some() && parametric_hybrid.module_stats().is_some(),
        "the fuzz sample must decompose, or the hybrid decode branches go unseeded"
    );
    vec![
        analyzer(Method::Compositional).to_bytes(),
        parametric(Method::Compositional).to_bytes(),
        analyzer(Method::Monolithic).to_bytes(),
        hybrid.to_bytes(),
        parametric_hybrid.to_bytes(),
    ]
}

/// Serialized HTTP/1.1 requests as `dftmc-serve` reads them off a socket:
/// a JSON-bodied submit, a bare poll, and a shutdown — every branch of the
/// head parser (body, no body, each verb) has a seed.
fn http_corpus() -> Vec<Vec<u8>> {
    let submit_body = "{\"galileo\": \"toplevel \\\"T\\\"; \\\"T\\\" lambda=1.0;\", \
                       \"measures\": [{\"type\": \"mttf\"}]}";
    let submit = format!(
        "POST /submit HTTP/1.1\r\nHost: fuzz\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{submit_body}",
        submit_body.len()
    );
    let poll = "GET /result/7 HTTP/1.1\r\nHost: fuzz\r\n\r\n".to_owned();
    let shutdown = "POST /shutdown HTTP/1.1\r\nContent-Length: 0\r\n\r\n".to_owned();
    vec![
        submit.into_bytes(),
        poll.into_bytes(),
        shutdown.into_bytes(),
    ]
}

/// A dftlib-schema interchange document covering every node flavour the
/// decoder handles, derived from the Galileo seed so the two text corpora
/// describe the same tree.
fn json_tree_corpus() -> Vec<Vec<u8>> {
    let dft = dft::galileo::parse(GALILEO_SEED_TEXT).expect("the fuzz Galileo corpus parses");
    vec![dft::json_format::to_json(&dft).into_bytes()]
}

fn json_corpus() -> Vec<Vec<u8>> {
    let doc = dft::json::Json::obj([
        ("name", "fuzz".into()),
        ("ok", true.into()),
        ("none", dft::json::Json::Null),
        (
            "escaped",
            dft::json::Json::Str("a\"b\\c\nd\u{1}é".to_owned()),
        ),
        (
            "rows",
            dft::json::Json::Arr(vec![
                dft::json::Json::obj([("width", 2usize.into()), ("x", (-1.5e-3f64).into())]),
                dft::json::Json::Bool(false),
            ]),
        ),
    ]);
    vec![doc.render().into_bytes()]
}

/// Produces one fuzz input: a mutation of a corpus item, a splice of two, or
/// pure random bytes.  All randomness comes from `rng`, so campaigns are
/// reproducible from their seed.
pub fn mutate(rng: &mut SplitMix64, corpus: &[Vec<u8>]) -> Vec<u8> {
    let pick = |rng: &mut SplitMix64, n: usize| -> usize {
        if n == 0 {
            0
        } else {
            (rng.next_u64() % n as u64) as usize
        }
    };
    let base = corpus[pick(rng, corpus.len())].clone();
    match rng.next_u64() % 8 {
        // Pure random bytes, random length.
        0 => {
            let len = pick(rng, 513);
            (0..len).map(|_| (rng.next_u64() & 0xff) as u8).collect()
        }
        // Truncation.
        1 => {
            let mut bytes = base;
            bytes.truncate(pick(rng, bytes.len() + 1));
            bytes
        }
        // A handful of bit flips.
        2 => {
            let mut bytes = base;
            for _ in 0..=pick(rng, 8) {
                if bytes.is_empty() {
                    break;
                }
                let i = pick(rng, bytes.len());
                bytes[i] ^= 1 << pick(rng, 8);
            }
            bytes
        }
        // A handful of byte overwrites.
        3 => {
            let mut bytes = base;
            for _ in 0..=pick(rng, 8) {
                if bytes.is_empty() {
                    break;
                }
                let i = pick(rng, bytes.len());
                bytes[i] = (rng.next_u64() & 0xff) as u8;
            }
            bytes
        }
        // Insertion of random bytes.
        4 => {
            let mut bytes = base;
            let at = pick(rng, bytes.len() + 1);
            let insert: Vec<u8> = (0..=pick(rng, 16))
                .map(|_| (rng.next_u64() & 0xff) as u8)
                .collect();
            bytes.splice(at..at, insert);
            bytes
        }
        // Deletion of a range.
        5 => {
            let mut bytes = base;
            if !bytes.is_empty() {
                let start = pick(rng, bytes.len());
                let end = (start + 1 + pick(rng, 16)).min(bytes.len());
                bytes.drain(start..end);
            }
            bytes
        }
        // Splice of two corpus items.
        6 => {
            let other = &corpus[pick(rng, corpus.len())];
            let cut_a = pick(rng, base.len() + 1);
            let cut_b = pick(rng, other.len() + 1);
            let mut bytes = base[..cut_a].to_vec();
            bytes.extend_from_slice(&other[cut_b..]);
            bytes
        }
        // The unmutated item itself (keeps the accept path exercised).
        _ => base,
    }
}

/// Runs `iters` fuzz inputs against `decode`.  `decode` returns whether the
/// input was accepted; any panic it raises is caught and recorded.
pub fn run_target(
    target: &'static str,
    seed: u64,
    iters: usize,
    corpus: &[Vec<u8>],
    decode: impl Fn(&[u8]) -> bool,
) -> FuzzReport {
    // Independent stream per target: campaigns don't perturb each other even
    // when iteration counts change.
    let mut rng = SplitMix64::new(seed ^ fnv1a64(target.as_bytes()));
    let mut report = FuzzReport {
        target,
        runs: 0,
        accepted: 0,
        rejected: 0,
        panics: Vec::new(),
    };
    // The pristine corpus items must be accepted — otherwise the campaign
    // only proves the reject path and the accept path goes untested.
    for item in corpus {
        report.runs += 1;
        match catch_unwind(AssertUnwindSafe(|| decode(item))) {
            Ok(true) => report.accepted += 1,
            Ok(false) => report.rejected += 1,
            Err(_) => report.panics.push(item.clone()),
        }
    }
    for _ in 0..iters {
        let input = mutate(&mut rng, corpus);
        report.runs += 1;
        match catch_unwind(AssertUnwindSafe(|| decode(&input))) {
            Ok(true) => report.accepted += 1,
            Ok(false) => report.rejected += 1,
            Err(_) => report.panics.push(input),
        }
    }
    report
}

/// Runs the full campaign: every decoder, `iters` inputs each, derived from
/// `seed`.  This is what the `fuzz_decode` bin and the CI lane execute.
pub fn run_all(seed: u64, iters: usize) -> Vec<FuzzReport> {
    let models = model_corpus();
    let sessions = session_corpus();
    let galileo: Vec<Vec<u8>> = vec![GALILEO_SEED_TEXT.as_bytes().to_vec()];
    let json = json_corpus();
    vec![
        run_target("decode_model<f64>", seed, iters, &models, |bytes| {
            decode_model::<f64>(&mut Reader::new(bytes)).is_ok()
        }),
        run_target("decode_model<RateForm>", seed, iters, &models, |bytes| {
            decode_model::<RateForm>(&mut Reader::new(bytes)).is_ok()
        }),
        run_target("Analyzer::from_bytes", seed, iters, &sessions, |bytes| {
            Analyzer::from_bytes(bytes).is_ok()
        }),
        run_target(
            "ParametricAnalyzer::from_bytes",
            seed,
            iters,
            &sessions,
            |bytes| ParametricAnalyzer::from_bytes(bytes).is_ok(),
        ),
        run_target("galileo::parse", seed, iters, &galileo, |bytes| {
            dft::galileo::parse(&String::from_utf8_lossy(bytes)).is_ok()
        }),
        run_target("json::parse", seed, iters, &json, |bytes| {
            dft::json::parse(&String::from_utf8_lossy(bytes)).is_ok()
        }),
        run_target(
            "json_format::parse",
            seed,
            iters,
            &json_tree_corpus(),
            |bytes| dft::json_format::parse(&String::from_utf8_lossy(bytes)).is_ok(),
        ),
        run_target(
            "http::parse_request",
            seed,
            iters,
            &http_corpus(),
            |bytes| {
                // `Ok(None)` means "read more bytes" — a valid, non-accepting
                // outcome for a truncated request; only a complete parse accepts.
                matches!(
                    dftmc_serve::http::parse_request(
                        bytes,
                        &dftmc_serve::http::HttpLimits::default()
                    ),
                    Ok(Some(_))
                )
            },
        ),
    ]
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pristine_corpus_items_are_accepted() {
        // Zero mutated inputs: only the corpus sanity pass runs.
        for report in run_all(7, 0) {
            assert!(
                report.clean(),
                "{} panicked on its own corpus",
                report.target
            );
            assert!(
                report.accepted >= 1,
                "{} rejected its own corpus ({} accepted / {} runs)",
                report.target,
                report.accepted,
                report.runs
            );
        }
    }

    #[test]
    fn short_campaign_finds_no_panics() {
        for report in run_all(0xDF7, 300) {
            assert!(
                report.clean(),
                "{}: {} panics in {} runs; first input: {:?}",
                report.target,
                report.panics.len(),
                report.runs,
                report.panics.first()
            );
            assert_eq!(report.runs, 300 + report_corpus_len(report.target));
        }
    }

    #[test]
    fn campaigns_are_deterministic() {
        let a = run_all(42, 50);
        let b = run_all(42, 50);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.accepted, y.accepted);
            assert_eq!(x.rejected, y.rejected);
        }
    }

    fn report_corpus_len(target: &str) -> usize {
        match target {
            "galileo::parse" | "json::parse" | "json_format::parse" => 1,
            "http::parse_request" => 3,
            "Analyzer::from_bytes" | "ParametricAnalyzer::from_bytes" => 5,
            _ => 2,
        }
    }
}
