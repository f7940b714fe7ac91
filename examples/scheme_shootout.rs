//! Run one STAMP application under every implemented HTM scheme and
//! print a comparison table.
//!
//! ```sh
//! cargo run --release -p suv --example scheme_shootout [app]
//! ```
//!
//! `app` defaults to `intruder`; any Table IV name works.

use suv::prelude::*;

fn main() {
    let app = std::env::args().nth(1).unwrap_or_else(|| "intruder".to_string());
    let cfg = MachineConfig::small_test();
    println!("`{app}` on a {}-core machine, all schemes:\n", cfg.n_cores);
    println!(
        "{:<11} {:>10} {:>8} {:>8} {:>8} {:>9} {:>10}",
        "scheme", "cycles", "commits", "aborts", "speedup", "stalled%", "aborting%"
    );
    let mut baseline = None;
    for scheme in SchemeKind::ALL {
        let mut w = by_name(&app, SuiteScale::Tiny)
            .unwrap_or_else(|| panic!("unknown workload {app}; use a Table IV name"));
        let r = run_workload(&cfg, scheme, w.as_mut());
        let base = *baseline.get_or_insert(r.stats.cycles);
        let b = r.stats.total_breakdown();
        let total = b.total().max(1) as f64;
        println!(
            "{:<11} {:>10} {:>8} {:>8} {:>7.2}x {:>8.1}% {:>9.2}%",
            r.scheme.name(),
            r.stats.cycles,
            r.stats.tx.commits,
            r.stats.tx.aborts,
            base as f64 / r.stats.cycles as f64,
            100.0 * b.stalled as f64 / total,
            100.0 * b.aborting as f64 / total,
        );
    }
    println!("\n(speedup is relative to LogTM-SE; every run passes the workload's");
    println!("own functional verification before reporting)");
}
