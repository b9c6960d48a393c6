//! The experiment runner: reproduces the paper's evaluation and the engine's
//! benchmarks, printing each record and writing it to `BENCH_<record>.json`.
//!
//! Run with
//! `cargo run --release -p dftmc-bench --bin experiment -- <name>... | all [--smoke] [--store DIR] [--expect-warm]`;
//! see `dftmc_bench::runner` for the experiments and flags.

#![forbid(unsafe_code)]

fn main() -> std::process::ExitCode {
    dftmc_bench::runner::main(std::env::args().skip(1))
}
