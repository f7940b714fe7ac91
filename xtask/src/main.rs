//! `cargo xtask` — repository automation.
//!
//! Subcommands:
//!
//! * `lint` — run the rules rustc and clippy cannot express (no vector of
//!   vectors on the access path, invariant coverage, the one release build
//!   definition and the workspace lint opt-in). Exits non-zero on any
//!   violation; CI gates on it.

mod lint;

use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => run_lint(),
        Some(other) => {
            eprintln!("unknown xtask `{other}`\n");
            usage();
            ExitCode::FAILURE
        }
        None => {
            usage();
            ExitCode::FAILURE
        }
    }
}

fn usage() {
    eprintln!(
        "usage: cargo xtask <command>\n\ncommands:\n  \
         lint      run the custom lint pass"
    );
}

fn run_lint() -> ExitCode {
    // xtask lives one level below the workspace root.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("workspace root");
    match lint::lint_workspace(root) {
        Ok(violations) if violations.is_empty() => {
            println!("xtask lint: clean");
            ExitCode::SUCCESS
        }
        Ok(violations) => {
            for v in &violations {
                println!("{v}");
            }
            println!("xtask lint: {} violation(s)", violations.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("xtask lint: walk failed: {e}");
            ExitCode::FAILURE
        }
    }
}
