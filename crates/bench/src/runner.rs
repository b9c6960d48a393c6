//! The experiment runner: the table of experiments, the command line, one
//! generic record printer and the `BENCH_<record>.json` emitter.
//!
//! ```text
//! experiment <name>... | all [--smoke] [--store DIR] [--expect-warm]
//! ```
//!
//! `--smoke` selects the CI-sized configuration (the committed
//! `BENCH_baseline/` is a smoke snapshot).  `--store DIR` is the model-store
//! directory of the persistence experiment (default `dftmc-store`), and
//! `--expect-warm` makes it assert the warm-store contract: store hits, zero
//! aggregations, nothing rejected.  Selected experiments run in table order;
//! an unknown name or flag is a usage error (exit 2), a failed analysis an
//! error (exit 1), and a broken self-assert a panic.

use crate::timing::format_duration;
use dft::json::Json;
use dft_core::Result;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// What one invocation asks of every experiment it runs.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Config {
    /// The CI-sized configuration.
    pub(crate) smoke: bool,
    /// Model-store directory of the persistence experiment.
    pub(crate) store: PathBuf,
    /// The persistence experiment asserts the warm-store contract.
    pub(crate) expect_warm: bool,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            smoke: false,
            store: PathBuf::from("dftmc-store"),
            expect_warm: false,
        }
    }
}

/// One entry of [`EXPERIMENTS`].
pub(crate) struct Experiment {
    /// Name on the command line.
    pub(crate) name: &'static str,
    /// Record name: the `experiment` key and the `BENCH_<record>.json` file.
    pub(crate) record: &'static str,
    /// Heading printed above the record.
    title: &'static str,
    run: fn(&Config) -> Result<Json>,
}

impl Experiment {
    /// Runs the experiment, self-asserts included, and returns its record:
    /// `experiment` and `smoke` first, then the experiment's own keys.
    ///
    /// # Errors
    ///
    /// Propagates analysis errors.
    ///
    /// # Panics
    ///
    /// Panics when one of the experiment's self-asserts fails.
    pub(crate) fn record(&self, config: &Config) -> Result<Json> {
        // A service caps the process-global kernel threading when its pool
        // starts, and the cap outlives it; restore the host default so an
        // experiment measures the same in `all` as when it runs alone.
        markov::kernel::set_max_workers(0);
        let Json::Obj(body) = (self.run)(config)? else {
            unreachable!("every experiment returns an object");
        };
        let head = [
            ("experiment".to_owned(), self.record.into()),
            ("smoke".to_owned(), config.smoke.into()),
        ];
        Ok(Json::Obj(head.into_iter().chain(body).collect()))
    }
}

/// Every experiment, in the order `all` runs them.
pub(crate) const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "cas",
        record: "cas",
        title: "E2: cardiac assist system (Section 5.1)",
        run: crate::cas_experiment,
    },
    Experiment {
        name: "cps",
        record: "cps",
        title: "E3/E4: cascaded PAND system (Section 5.2, Figures 8/9)",
        run: crate::cps_experiment,
    },
    Experiment {
        name: "repair",
        record: "repair",
        title: "E8: repairable AND gate (Section 7.2, Figures 13-15)",
        run: crate::repair_experiment,
    },
    Experiment {
        name: "nondeterminism",
        record: "nondeterminism",
        title: "E5: simultaneity and non-determinism (Section 4.4, Figure 6a)",
        run: crate::nondeterminism_experiment,
    },
    Experiment {
        name: "scaling",
        record: "scaling",
        title: "E9: state-space scaling, modular vs highly connected trees",
        run: crate::scaling_experiment,
    },
    Experiment {
        name: "portfolio",
        record: "portfolio",
        title: "E10: portfolio throughput over the AnalysisService",
        run: crate::portfolio_experiment,
    },
    Experiment {
        name: "sweep",
        record: "sweep",
        title: "rate sweep: one parametric aggregation vs independent builds",
        run: crate::sweep_experiment,
    },
    Experiment {
        name: "kernel",
        record: "kernel",
        title: "CSR relax kernel: sequential, batched, threaded",
        run: crate::kernel_experiment,
    },
    Experiment {
        name: "throughput",
        record: "async",
        title: "E11: async submission throughput over the AnalysisService",
        run: crate::throughput_experiment,
    },
    Experiment {
        name: "persistence",
        record: "persist",
        title: "E12: persistent cross-process model cache",
        run: crate::persistence_experiment,
    },
    Experiment {
        name: "serve",
        record: "serve",
        title: "E13: HTTP front end under load",
        run: crate::serve_load::serve_experiment,
    },
    Experiment {
        name: "hybrid",
        record: "hybrid",
        title: "hybrid backend: BDD crown over state-space cores",
        run: crate::hybrid_experiment,
    },
    Experiment {
        name: "corpus",
        record: "corpus",
        title: "corpus: FFORT-style mini-benchmark through the request layer",
        run: crate::corpus_experiment,
    },
];

/// The experiment called `name` on the command line.
pub(crate) fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// The command-line synopsis.
const USAGE: &str = "usage: experiment <name>... | all [--smoke] [--store DIR] [--expect-warm]";

/// Parses the arguments (without the program name) into the selected
/// experiments, in table order, and the configuration.
///
/// # Errors
///
/// Returns a one-line message for an unknown flag or experiment name,
/// `--store` without a value, or no experiment at all.
fn parse_args(
    args: impl IntoIterator<Item = String>,
) -> std::result::Result<(Vec<&'static Experiment>, Config), String> {
    let mut config = Config::default();
    let mut all = false;
    let mut named = Vec::new();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => config.smoke = true,
            "--expect-warm" => config.expect_warm = true,
            "--store" => match args.next() {
                Some(dir) if !dir.starts_with("--") => config.store = PathBuf::from(dir),
                _ => return Err("--store needs a directory".to_owned()),
            },
            "all" => all = true,
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            name => {
                let Some(experiment) = find(name) else {
                    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
                    return Err(format!(
                        "unknown experiment {name} (known: {}, all)",
                        names.join(", ")
                    ));
                };
                named.push(experiment.name);
            }
        }
    }
    let experiments: Vec<&'static Experiment> = EXPERIMENTS
        .iter()
        .filter(|e| all || named.contains(&e.name))
        .collect();
    if experiments.is_empty() {
        return Err("no experiment named".to_owned());
    }
    Ok((experiments, config))
}

/// The `experiment` binary: parses `args`, then runs, prints and emits every
/// selected experiment.
pub fn main(args: impl IntoIterator<Item = String>) -> ExitCode {
    let (experiments, config) = match parse_args(args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    for experiment in experiments {
        println!("== {} ==\n", experiment.title);
        match experiment.record(&config) {
            Ok(record) => {
                print_record(&record);
                emit(experiment.record, &record);
            }
            Err(e) => {
                eprintln!("error: experiment {} failed: {e}", experiment.name);
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// Prints a record: one aligned `key value` line per scalar, dotted keys for
/// nested objects, and a table per array of objects.  `*_seconds` values
/// print as durations.
fn print_record(record: &Json) {
    let Json::Obj(entries) = record else {
        println!("{}\n", record.render());
        return;
    };
    for (key, value) in entries {
        if let Some(rows) = table_rows(value) {
            print_table(key, rows);
        } else if let Json::Obj(fields) = value {
            for (sub, v) in fields {
                println!("{:<40} {}", format!("{key}.{sub}"), cell(sub, v));
            }
        } else {
            println!("{key:<40} {}", cell(key, value));
        }
    }
    // A table already ends with a blank line.
    if entries.last().is_none_or(|(_, v)| table_rows(v).is_none()) {
        println!();
    }
}

/// The rows of a value that prints as a table: a non-empty array of objects.
fn table_rows(value: &Json) -> Option<&[Json]> {
    match value {
        Json::Arr(rows) if !rows.is_empty() && rows.iter().all(|r| matches!(r, Json::Obj(_))) => {
            Some(rows)
        }
        _ => None,
    }
}

/// A table with one column per key of the first row, set off by blank lines.
fn print_table(title: &str, rows: &[Json]) {
    let columns: Vec<&str> = match rows.first() {
        Some(Json::Obj(fields)) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        _ => Vec::new(),
    };
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            columns
                .iter()
                .map(|&c| row.get(c).map(|v| cell(c, v)).unwrap_or_default())
                .collect()
        })
        .collect();
    let widths: Vec<usize> = columns
        .iter()
        .enumerate()
        .map(|(i, c)| {
            cells
                .iter()
                .map(|row| row[i].chars().count())
                .fold(c.len(), usize::max)
        })
        .collect();
    let line = |values: &mut dyn Iterator<Item = &str>| {
        let padded: Vec<String> = values
            .zip(&widths)
            .map(|(v, &w)| format!("{v:>w$}"))
            .collect();
        println!("  {}", padded.join("  "));
    };
    println!("\n{title}:");
    line(&mut columns.iter().copied());
    for row in &cells {
        line(&mut row.iter().map(String::as_str));
    }
    println!();
}

/// One value as printed: strings bare, `*_seconds` as durations.
fn cell(key: &str, value: &Json) -> String {
    match value {
        Json::Str(s) => s.clone(),
        Json::Num(secs) if key.ends_with("_seconds") => Duration::try_from_secs_f64(*secs)
            .map(format_duration)
            .unwrap_or_else(|_| value.render()),
        other => other.render(),
    }
}

/// Writes `record` to `BENCH_<name>.json` in the current directory (with a
/// trailing newline for line-oriented tooling) and says where it went; an
/// I/O failure is a warning on stderr, not a failed run.
fn emit(name: &str, record: &Json) {
    let path = format!("BENCH_{name}.json");
    match std::fs::write(&path, record.render() + "\n") {
        Ok(()) => println!("machine-readable record: {path}\n"),
        Err(e) => eprintln!("warning: could not write {path}: {e}\n"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> std::result::Result<(Vec<&'static str>, Config), String> {
        parse_args(args.iter().map(|a| a.to_string()))
            .map(|(experiments, config)| (experiments.iter().map(|e| e.name).collect(), config))
    }

    #[test]
    fn parser_selects_experiments_in_table_order() {
        let (names, config) = parse(&["sweep", "--smoke", "cas", "sweep"]).unwrap();
        assert_eq!(names, ["cas", "sweep"]);
        assert_eq!(
            config,
            Config {
                smoke: true,
                ..Config::default()
            }
        );
        let (names, _) = parse(&["all"]).unwrap();
        assert_eq!(names.len(), EXPERIMENTS.len());
        let (names, _) = parse(&["persistence", "throughput"]).unwrap();
        assert_eq!(names, ["throughput", "persistence"]);
        let (_, config) = parse(&["persistence", "--store", "dir", "--expect-warm"]).unwrap();
        assert_eq!(config.store, PathBuf::from("dir"));
        assert!(config.expect_warm && !config.smoke);
    }

    #[test]
    fn parser_rejects_what_it_does_not_know() {
        assert!(parse(&["cas", "--smok"]).unwrap_err().contains("--smok"));
        assert!(parse(&["cas", "-x"]).unwrap_err().contains("unknown flag"));
        assert!(parse(&["css"])
            .unwrap_err()
            .contains("unknown experiment css"));
        // Record names name files, not experiments.
        assert!(parse(&["persist"]).is_err());
        assert!(parse(&["persistence", "--store"]).is_err());
        assert!(parse(&["persistence", "--store", "--smoke"]).is_err());
        assert!(parse(&[]).is_err());
        assert!(parse(&["--smoke"]).is_err());
    }

    #[test]
    fn the_table_names_exactly_the_committed_baselines() {
        let baseline =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_baseline");
        let mut committed: Vec<String> = std::fs::read_dir(&baseline)
            .unwrap()
            .filter_map(|entry| {
                let name = entry.ok()?.file_name().into_string().ok()?;
                Some(
                    name.strip_prefix("BENCH_")?
                        .strip_suffix(".json")?
                        .to_owned(),
                )
            })
            .collect();
        committed.sort();
        let mut records: Vec<&str> = EXPERIMENTS.iter().map(|e| e.record).collect();
        records.sort();
        assert_eq!(committed, records);
        let mut names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        names.sort();
        names.dedup();
        assert_eq!(
            names.len(),
            EXPERIMENTS.len(),
            "experiment names are unique"
        );
    }

    #[test]
    fn cells_format_durations_and_bare_strings() {
        assert_eq!(cell("build_seconds", &Json::Num(0.25)), "250.0 ms");
        assert_eq!(cell("tree", &Json::Str("cas".to_owned())), "cas");
        assert_eq!(cell("states", &Json::Num(740.0)), "740");
        assert_eq!(cell("ok", &Json::Bool(true)), "true");
    }
}
