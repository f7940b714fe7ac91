//! `cargo xtask` — repository automation.
//!
//! Subcommands:
//!
//! * `lint` — run the workspace's custom lint pass (determinism, unwrap
//!   hygiene, unsafe-code bans, `VersionManager` completeness, trace-event
//!   reconciliation, no `dyn VersionManager`, the one release build
//!   definition). Exits non-zero on any violation; CI gates on it.
//! * `verify` — run the `suv-verify` small-scope model checkers (protocol
//!   product machine over all six schemes + scheduler interleavings).
//!   Exits non-zero on any violation; CI gates on it.

#![forbid(unsafe_code)]

mod lint;

use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => run_lint(),
        Some("verify") => run_verify(),
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
         lint      run the custom lint pass\n  \
         verify    run the small-scope model checkers"
    );
}

fn run_verify() -> ExitCode {
    let runs = suv_verify::run_verify(&suv_verify::VerifyRequest::default());
    let failed = runs.iter().filter(|r| !r.ok()).count();
    for r in &runs {
        print!("{}", r.render());
    }
    println!("xtask verify: {}/{} explorations passed", runs.len() - failed, runs.len());
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
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
