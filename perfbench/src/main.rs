//! `perfbench`: the compiled half of the end-to-end benchmark.
//!
//! `perfbench/run.py` builds this binary next to `kmm` and calls one
//! subcommand per step. Every subcommand prints one compact JSON object
//! on stdout; errors go to stderr with a nonzero exit.
//!
//! ```text
//! perfbench gen       --seed S --reads N --out DIR
//! perfbench check-map --dir DIR --tsv OUT.tsv -k K --seed S
//! perfbench client    --port P --index IDX --reads FQ -k K --method M
//!                     --rates LO,HI --phase-seconds T [--trace 0|1]
//! perfbench layers    --dir DIR -k K --method M --threads N
//!                     [--bidir 0|1] [--mmap 0|1]
//! ```

mod args;
mod check;
mod client;
mod gen;
mod layers;
mod tracer;

use std::process::ExitCode;

use kmm_core::Method;

use crate::args::Args;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.split_first() {
        Some((cmd, rest)) => Args::parse(rest).and_then(|args| match cmd.as_str() {
            "gen" => gen::run(&args),
            "check-map" => check::run(&args),
            "client" => client::run(&args),
            "layers" => layers::run(&args),
            other => Err(format!("unknown subcommand {other:?}")),
        }),
        None => Err("usage: perfbench <gen|check-map|client|layers> [--flag value ...]".into()),
    };
    match result {
        Ok(doc) => {
            println!("{}", doc.to_compact());
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// The `--method` names the benchmark passes to `kmm`, mapped to the
/// library's methods so in-process calls run the same search.
pub fn parse_method(name: &str) -> Result<Method, String> {
    match name {
        "a" => Ok(Method::ALGORITHM_A),
        "bwt" => Ok(Method::Bwt { use_phi: true }),
        "bidir" => Ok(Method::Bidirectional),
        other => Err(format!("unsupported method {other:?}")),
    }
}
