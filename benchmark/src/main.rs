//! `suv-benchmark` — the repo benchmark (see README.md).
//!
//! ```text
//! run.sh --workload W --seed N --seconds S --trace 0|1   one workload; last line is the result
//! run.sh [--seed N] [--seconds S] [--smoke]               all five + canary -> out/results.json
//! run.sh --compare A.json B.json                          two result files against the bounds
//! run.sh --manifest                                       print BENCHMARK.json
//! ```

mod cell;
mod compare;
mod json;
mod measure;
mod metrics;
mod probes;
mod spans;
mod stats;
mod workloads;

use measure::{measure, Options, Report};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use suv::trace::Json;
use workloads::{Size, NAMES};

const USAGE: &str = "\
usage: run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
       run.sh [--seed N] [--seconds S] [--smoke]
       run.sh --compare A.json B.json
       run.sh --manifest
workloads: stamp_eager stamp_lazy stamp_traced oltp_wide overflow_stm";

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
    manifest: bool,
    compare: Option<(String, String)>,
    out_dir: Option<PathBuf>,
    /// Internal, parent to child: where to leave the full detail document.
    detail: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?.clone()),
            "--seed" => {
                let v = value()?;
                a.seed = Some(v.parse().map_err(|_| format!("--seed {v}: not a whole number"))?);
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v.parse().map_err(|_| format!("--seconds {v}: not a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {v}: must be in (0, 600]"));
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v}: expected 0 or 1")),
                });
            }
            "--smoke" => a.smoke = true,
            "--manifest" => a.manifest = true,
            "--compare" => a.compare = Some((value()?.clone(), value()?.clone())),
            "--out-dir" => a.out_dir = Some(PathBuf::from(value()?)),
            "--detail" => a.detail = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.workload.is_none() && a.trace.is_some() {
        return Err("--trace needs --workload".into());
    }
    Ok(a)
}

fn write_file(path: &Path, body: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, body).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// The spans document of one traced run.
fn spans_doc(report: &Report) -> Option<Json> {
    let log = report.spans.as_ref()?;
    let overhead = report
        .metrics
        .iter()
        .find(|(n, ..)| n == "bench.trace_overhead_pct")
        .map_or(0.0, |(_, v, _)| *v);
    Some(Json::obj([
        ("workload", Json::from(report.def.name)),
        ("seed", Json::U64(report.options.seed)),
        ("bench.trace_overhead_pct", Json::F64(overhead)),
        ("spans", log.to_json()),
    ]))
}

/// One workload in this process: the driver's form.
fn run_one(args: &Args, name: &str) -> Result<ExitCode, String> {
    let size = if args.smoke { Size::Smoke } else { Size::Full };
    let options = Options {
        workload: name.to_string(),
        seed: args.seed.unwrap_or(1),
        // Smoke size measures the minimum number of passes and stops.
        seconds: args.seconds.unwrap_or(if args.smoke { 0.0 } else { metrics::RUN_SECONDS as f64 }),
        trace: args.trace.unwrap_or(false),
        size,
    };
    println!(
        "# suv-benchmark workload={name} seed={} seconds={} trace={} size={size:?}",
        options.seed,
        options.seconds,
        u8::from(options.trace)
    );
    let report = measure(&options).ok_or_else(|| format!("unknown workload {name}\n{USAGE}"))?;
    report.print();
    if let Some(path) = &args.detail {
        write_file(path, &report.detail().render())?;
    }
    if let (Some(dir), Some(doc)) = (&args.out_dir, spans_doc(&report)) {
        write_file(&dir.join("trace.json"), &doc.render())?;
    }
    println!("{}", report.result_line());
    Ok(if report.correct() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// The product-bug canary, in this process. Kept out of every metric and
/// out of `ops`: it reports whether the known lost update still occurs.
fn run_canary() -> Json {
    let how = cell::Instrument { tracer: false, probe: false };
    let (status, detail) = match cell::run_cell(&workloads::canary_cell(), how) {
        Ok(run) => ("pass", format!("verified; {} cycles", run.result.stats.cycles)),
        Err(reason) => ("fail", reason.split_whitespace().collect::<Vec<_>>().join(" ")),
    };
    println!("canary.lazy_stm_overflow {status}   # {detail}");
    Json::obj([("status", Json::from(status)), ("detail", Json::from(detail))])
}

/// All five workloads, each in child processes of its own (so peak RSS
/// is per workload): an end-to-end run, then a traced run.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let out_dir = args.out_dir.clone().ok_or("the full run needs --out-dir (run.sh passes it)")?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let seed = args.seed.unwrap_or(1);
    let part = out_dir.join("part.json");
    let mut workloads = Vec::new();
    let mut traces = Vec::new();
    let mut all_correct = true;
    for name in NAMES {
        let mut runs = Vec::new();
        for trace in ["0", "1"] {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", name, "--seed", &seed.to_string(), "--trace", trace]);
            cmd.arg("--detail").arg(&part).arg("--out-dir").arg(&out_dir);
            if let Some(s) = args.seconds {
                cmd.args(["--seconds", &s.to_string()]);
            }
            if args.smoke {
                cmd.arg("--smoke");
            }
            // The child prints its own metric lines straight through.
            let status = cmd.status().map_err(|e| format!("cannot run {name}: {e}"))?;
            all_correct &= status.success();
            let text = std::fs::read_to_string(&part)
                .map_err(|e| format!("{name} --trace {trace} left no detail: {e}"))?;
            runs.push(Json::Raw(text));
        }
        let traced = runs.pop().expect("two runs");
        let end_to_end = runs.pop().expect("two runs");
        workloads.push((
            name.to_string(),
            Json::obj([("end_to_end", end_to_end), ("per_layer", traced)]),
        ));
        let trace_path = out_dir.join("trace.json");
        traces.push((
            name.to_string(),
            Json::Raw(
                std::fs::read_to_string(&trace_path)
                    .map_err(|e| format!("{name}: no spans: {e}"))?,
            ),
        ));
    }
    let _ = std::fs::remove_file(&part);
    let canary = run_canary();
    let results = Json::obj([
        ("schema", Json::from("suv-benchmark/v1")),
        ("seed", Json::U64(seed)),
        ("size", Json::from(if args.smoke { "smoke" } else { "full" })),
        (
            "host_cores",
            Json::U64(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        ("workloads", Json::Obj(workloads)),
        ("canary.lazy_stm_overflow", canary),
    ]);
    write_file(&out_dir.join("results.json"), &results.render())?;
    write_file(&out_dir.join("trace.json"), &Json::Obj(traces).render())?;
    println!("# wrote {} and trace.json beside it", out_dir.join("results.json").display());
    Ok(if all_correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    // A failing cell is reported by the gate; keep its panic to one line
    // (the default hook would print a backtrace per failing cell).
    std::panic::set_hook(Box::new(|info| {
        let at = info.location().map(|l| format!(" at {}:{}", l.file(), l.line()));
        let what = cell::panic_message(info.payload());
        let first_line = what.lines().next().unwrap_or_default();
        eprintln!("# panic{}: {first_line}", at.unwrap_or_default());
    }));
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("suv-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.manifest {
        println!("{}", metrics::manifest().render());
        Ok(ExitCode::SUCCESS)
    } else if let Some((a, b)) = &args.compare {
        compare::compare_files(a, b)
    } else if let Some(name) = args.workload.clone() {
        run_one(&args, &name)
    } else {
        run_all(&args)
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("suv-benchmark: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(ToString::to_string).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_drivers_form_and_rejects_junk() {
        let a =
            args(&["--workload", "oltp_wide", "--seed", "7", "--seconds", "10", "--trace", "1"])
                .unwrap();
        assert_eq!(a.workload.as_deref(), Some("oltp_wide"));
        assert_eq!((a.seed, a.seconds, a.trace), (Some(7), Some(10.0), Some(true)));
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--seed", "x"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--trace", "2", "--workload", "w"]).is_err());
        assert!(args(&["--trace", "1"]).is_err(), "--trace without --workload");
        assert!(args(&["--frobnicate"]).is_err());
        let c = args(&["--compare", "a.json", "b.json"]).unwrap();
        assert_eq!(c.compare, Some(("a.json".into(), "b.json".into())));
    }

    /// The smoke test: every metric `BENCHMARK.json` names appears in the
    /// output of the run that owes it, finite and positive — counts may
    /// be 0 only where the workload table says the layer is idle.
    #[test]
    fn smoke_run_reports_every_declared_metric() {
        let manifest = metrics::manifest();
        let names = |key: &str| -> Vec<String> {
            json::as_arr(json::get(&manifest, key).unwrap())
                .unwrap()
                .iter()
                .map(|m| json::as_str(json::get(m, "name").unwrap()).unwrap().to_string())
                .collect()
        };
        for workload in NAMES {
            for (trace, declared) in [(false, names("end_to_end")), (true, names("per_layer"))] {
                let options = Options {
                    workload: workload.to_string(),
                    seed: 3,
                    seconds: 0.01,
                    trace,
                    size: Size::Smoke,
                };
                let report = measure(&options).expect("known workload");
                assert!(
                    report.correct(),
                    "{workload}: {:?} {:?}",
                    report.failures,
                    report.probe_failure
                );
                assert!(report.attempted >= 1 && report.failed == 0);
                let line = json::parse(&report.result_line()).expect("result line parses");
                let keys: Vec<&str> =
                    json::as_obj(&line).unwrap().iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
                let got = json::as_obj(json::get(&line, "metrics").unwrap()).unwrap();
                let got_names: Vec<&str> = got.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(got_names, declared.iter().map(String::as_str).collect::<Vec<_>>());
                for (name, entry) in got {
                    let v = json::as_f64(json::get(entry, "value").unwrap()).unwrap();
                    assert!(v.is_finite(), "{workload} {name} = {v}");
                    if may_be_zero(workload, name) {
                        assert!(
                            v >= 0.0 || name.ends_with("overhead_pct"),
                            "{workload} {name} = {v}"
                        );
                    } else {
                        assert!(v > 0.0, "{workload} {name} = {v} must be positive");
                    }
                }
                if trace {
                    let doc = spans_doc(&report).expect("a traced run has spans").render();
                    assert!(
                        doc.contains("bench.trace_overhead_pct") && doc.contains("run.machine")
                    );
                }
            }
        }
    }

    /// Where the issue allows a 0: layers a workload leaves idle, and
    /// overheads (differences of two timings, either sign at smoke size).
    fn may_be_zero(workload: &str, metric: &str) -> bool {
        let oltp = matches!(workload, "oltp_wide" | "overflow_stm");
        match metric {
            m if m.ends_with("overhead_pct") => true,
            "htm.sw_commits" => workload != "overflow_stm",
            "htm.irrevocable_commits" | "htm.nacks" | "htm.aborts" | "coh.l2_misses" => true,
            "oltp.sim_p99_kcyc" | "oltp.sim_txn_per_kcyc" => !oltp,
            m if m.starts_with("vm.") => true,
            _ => false,
        }
    }
}
