//! BENCH trend tracking: compares fresh `BENCH_<name>.json` records against a
//! committed `BENCH_baseline/` snapshot and fails on *state-space* regressions.
//!
//! State counts are deterministic — a change means the pipeline itself changed
//! — so any growth of a `*states*`/`*transitions*` metric over the baseline is
//! an error.  Wall-clock metrics (`*_seconds`, `speedup`) vary with the host
//! and are reported but never gated.
//!
//! Run with
//! `cargo run --release -p dftmc-bench --bin bench_diff -- [baseline_dir] [name...]`
//! after `experiment all --smoke`; the default baseline dir is `BENCH_baseline` and
//! the default name set is everything the baseline dir contains.
//!
//! `bench_diff -- --validate FILE...` instead only checks that each file is
//! non-empty, well-formed JSON (using the in-repo [`json::parse`]), replacing
//! the `python3 -m json.tool` shell-out CI used to depend on — the pipeline
//! stays pure Rust.

#![forbid(unsafe_code)]

use dft::json::{self, Json};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// A numeric metric is *gated* (fresh must not exceed baseline) when its key
/// names a state-space size.
fn is_gated(key: &str) -> bool {
    key.contains("states") || key.contains("transitions")
}

/// Wall-clock metrics are reported but never gated.
fn is_timing(key: &str) -> bool {
    key.ends_with("_seconds") || key == "speedup"
}

/// Marginal per-point cost is a timing, but one the kernel batching makes a
/// promise about: a fresh value more than this factor above the committed
/// baseline fails the diff.  The slack absorbs runner noise while still
/// catching "the sweep quietly fell back to per-point instantiation".
const MARGINAL_REGRESSION_FACTOR: f64 = 3.0;

/// Timing metrics that *are* gated, with noise tolerance.
fn is_gated_timing(key: &str) -> bool {
    key == "marginal_us_per_point"
}

struct Diff {
    regressions: Vec<String>,
    notes: Vec<String>,
}

impl Diff {
    fn new() -> Diff {
        Diff {
            regressions: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Walks baseline and fresh in lockstep; `path` names the current node.
    fn walk(&mut self, path: &str, baseline: &Json, fresh: &Json) {
        match (baseline, fresh) {
            (Json::Obj(base_entries), Json::Obj(fresh_entries)) => {
                for (key, base_value) in base_entries {
                    let child = format!("{path}.{key}");
                    match fresh_entries.iter().find(|(k, _)| k == key) {
                        None => self.regressions.push(format!(
                            "{child}: present in baseline, missing in fresh record"
                        )),
                        Some((_, fresh_value)) => self.walk(&child, base_value, fresh_value),
                    }
                }
            }
            (Json::Arr(base_items), Json::Arr(fresh_items)) => {
                if base_items.len() != fresh_items.len() {
                    self.regressions.push(format!(
                        "{path}: baseline has {} entries, fresh has {}",
                        base_items.len(),
                        fresh_items.len()
                    ));
                    return;
                }
                for (i, (b, f)) in base_items.iter().zip(fresh_items).enumerate() {
                    self.walk(&format!("{path}[{i}]"), b, f);
                }
            }
            (Json::Num(base), Json::Num(fresh)) => {
                let key = path.rsplit('.').next().unwrap_or(path);
                if is_gated(key) {
                    if fresh > base {
                        self.regressions
                            .push(format!("{path}: state-space regression {base} -> {fresh}"));
                    } else if fresh < base {
                        self.notes.push(format!(
                            "{path}: improved {base} -> {fresh} (update baseline?)"
                        ));
                    }
                } else if is_gated_timing(key) {
                    if *fresh > base * MARGINAL_REGRESSION_FACTOR {
                        self.regressions.push(format!(
                            "{path}: marginal per-point cost regression {base} -> {fresh} \
                             (more than {MARGINAL_REGRESSION_FACTOR}x the baseline)"
                        ));
                    } else if (fresh - base).abs() > f64::EPSILON {
                        self.notes.push(format!(
                            "{path}: {base} -> {fresh} (gated timing, within tolerance)"
                        ));
                    }
                } else if is_timing(key) && (fresh - base).abs() > f64::EPSILON {
                    self.notes
                        .push(format!("{path}: {base} -> {fresh} (timing, not gated)"));
                }
            }
            // Non-numeric leaves (strings, bools, null) and type changes are
            // only compared when gated by key would make no sense; a type
            // change on a gated key is a schema break and must fail.
            (b, f) => {
                let key = path.rsplit('.').next().unwrap_or(path);
                if is_gated(key) && std::mem::discriminant(b) != std::mem::discriminant(f) {
                    self.regressions.push(format!(
                        "{path}: baseline and fresh record disagree on type"
                    ));
                }
            }
        }
    }
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))
}

/// The record's `smoke` flag, when it carries one.
fn smoke_flag(record: &Json) -> Option<bool> {
    match record {
        Json::Obj(entries) => entries.iter().find_map(|(k, v)| match v {
            Json::Bool(b) if k == "smoke" => Some(*b),
            _ => None,
        }),
        _ => None,
    }
}

/// `--validate FILE...`: each file must exist, be non-empty and parse as
/// JSON.  No baseline comparison — this is the machine-readability gate the
/// experiment records pass through in CI.
fn validate(files: &[String]) -> ExitCode {
    if files.is_empty() {
        eprintln!("--validate needs at least one file");
        return ExitCode::FAILURE;
    }
    let mut failed = false;
    for file in files {
        match load(Path::new(file)) {
            Ok(Json::Obj(entries)) if !entries.is_empty() => {
                println!("{file}: valid JSON ({} top-level fields)", entries.len());
            }
            Ok(_) => {
                eprintln!("FAIL: {file}: expected a non-empty JSON object");
                failed = true;
            }
            Err(e) => {
                eprintln!("FAIL: {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--validate") {
        return validate(&args[1..]);
    }
    let baseline_dir = PathBuf::from(args.first().map(String::as_str).unwrap_or("BENCH_baseline"));

    // Which experiments to diff: explicit names, or every BENCH_*.json in the
    // baseline directory.
    let names: Vec<String> = if args.len() > 1 {
        args[1..].to_vec()
    } else {
        let mut names: Vec<String> = match std::fs::read_dir(&baseline_dir) {
            Ok(dir) => dir
                .filter_map(|entry| {
                    let name = entry.ok()?.file_name().into_string().ok()?;
                    Some(
                        name.strip_prefix("BENCH_")?
                            .strip_suffix(".json")?
                            .to_owned(),
                    )
                })
                .collect(),
            Err(e) => {
                eprintln!("cannot list {}: {e}", baseline_dir.display());
                return ExitCode::FAILURE;
            }
        };
        names.sort();
        names
    };
    if names.is_empty() {
        eprintln!("no baselines found in {}", baseline_dir.display());
        return ExitCode::FAILURE;
    }

    let mut failed = false;
    for name in &names {
        let file = format!("BENCH_{name}.json");
        let baseline = match load(&baseline_dir.join(&file)) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("{e}");
                failed = true;
                continue;
            }
        };
        let fresh = match load(Path::new(&file)) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("{e}");
                failed = true;
                continue;
            }
        };
        // A smoke record has fewer rows than a full one: comparing the two
        // would report bogus "regressions", so demand matching configurations
        // up front with an actionable message.
        let (base_smoke, fresh_smoke) = (smoke_flag(&baseline), smoke_flag(&fresh));
        if base_smoke != fresh_smoke {
            let describe = |s: Option<bool>| match s {
                Some(true) => "--smoke",
                Some(false) => "full",
                None => "unflagged",
            };
            eprintln!(
                "FAIL: {name}: baseline is a {} run but the fresh record is a {} run — \
                 re-run the experiment with the baseline's configuration",
                describe(base_smoke),
                describe(fresh_smoke)
            );
            failed = true;
            continue;
        }
        let mut diff = Diff::new();
        diff.walk(name, &baseline, &fresh);
        for note in &diff.notes {
            println!("note: {note}");
        }
        if diff.regressions.is_empty() {
            println!("{name}: OK (no state-space regressions)");
        } else {
            for regression in &diff.regressions {
                eprintln!("FAIL: {regression}");
            }
            failed = true;
        }
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
