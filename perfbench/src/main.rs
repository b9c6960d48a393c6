//! `perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Prints a `{"meta": …}` line, then the result line: `correct`,
//! `attempted`, `failed` and `metrics` (end-to-end metrics untraced,
//! per-layer metrics traced).  Exits 0 only when every check passed.

#![forbid(unsafe_code)]

use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::{Args, THREADS};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let cores = perfbench::nproc();
    if THREADS > cores {
        eprintln!("perfbench: configured for {THREADS} threads but this host has {cores} core(s)");
        std::process::exit(2);
    }
    let report = perfbench::run(&args);
    let declared: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for line in &report.problems {
        eprintln!("perfbench: check failed: {line}");
    }
    println!("{}", report.meta_line());
    println!("{}", report.result_line(declared));
    let missing = report.missing(declared);
    if !missing.is_empty() {
        eprintln!("perfbench: metrics without a value: {missing:?}");
        std::process::exit(1);
    }
    if !report.correct() {
        std::process::exit(1);
    }
}
