//! Validated argument parsing for the `suvtm` binary.
//!
//! Every malformed invocation — unknown subcommand, unknown flag, missing
//! value, unknown app/scheme/experiment, out-of-range core count — comes
//! back as a [`CliError`] so `main` can print the usage message and exit
//! with a non-zero status instead of panicking with a backtrace.

use crate::engine::{matrix, CellSpec, RenderDoc, SCALES};
use crate::exp::{self, Cells, Experiment, Output};
use suv::oltp::{parse_traffic_spec, TrafficConfig};
use suv::prelude::*;
use suv::registry::by_name;
use suv::types::MAX_CORES;
use suv_verify::protocol::{ProtocolMutation, ALL_PROTOCOL_MUTATIONS};

/// The usage banner: printed to stderr on any parse error (exit code 2)
/// and to stdout by `suvtm --help` (exit code 0).
pub const USAGE: &str = "\
usage: suvtm <run|sweep|bench|exp|verify|list> [options]

  run    --app NAME [--scheme NAME] [--cores N] [--scale tiny|paper|scale]
         [--breakdown] [--trace PATH] [--trace-summary] [--check off|cheap|full]
         [--faults SPEC]  (SPEC: seed=N,nack=P,delay=P:C,pool=N,log=N,wb=N
          — deterministic fault injection / capacity clamps; exit 3 on a
          simulated out-of-memory)
         [--fallback off|stm|irrevocable-only]  (capacity-escalation tier:
          `stm` retries overflowing transactions as software transactions
          before the serial irrevocable token; `off` never escalates;
          default irrevocable-only — the pre-hybrid ladder)
         [--traffic SPEC] (--app oltp only; SPEC:
          zipf=THETA,rw=R:W,rate=C,reqs=N,keys=N,seed=N,storm=E:L:H,tenants=N
          — open-loop traffic shape: Zipfian skew, read/write mix, mean
          inter-arrival cycles, hot-key storms, tenant phases; the
          oltp-storm app is rw=50:50,storm=32:16:2)
         [--json]         (print the machine-readable run report, incl. the
          `latency` block with p50/p99/p999 cycles and txns/kcycle, to
          stdout; forces tracing so the payload carries the trace hash)
  sweep  --app NAME  (every scheme on one app, with speedups vs LogTM-SE)
         [--cores N] [--scale tiny|paper|scale] [--breakdown] [--check LEVEL]
         [--faults SPEC] [--fallback MODE]
  bench  [--apps A,B,..] [--schemes S,..] [--cores N,M,..] [--scale tiny|paper|scale]
         [--jobs N] [--out PATH] (default out: results/BENCH_sweep.json;
          a panicking cell is quarantined as a \"status\":\"quarantined\"
          row, the rest of the matrix completes, and the run exits 1)
         [--scaling] (many-core scaling curve: sweep cores 1..512 on the
          `scale` inputs, all six schemes, default out
          results/SCALING_curve.json)
         [--profile] (the schedule pin of the full paper matrix: cycles,
          trace hash and scheduler handoffs per cell, default out
          results/BENCH_host.json; host time is benchmark/run.sh's)
         (every document is byte-identical across runs and any --jobs)
  exp    NAME | --all  [--jobs N] [--out DIR] [--json PATH]
         (regenerate a figure or table of the evaluation at paper scale —
          `suvtm list` names them; the text report goes to stdout, or with
          --out to DIR/NAME.txt plus DIR/NAME.json for the experiments that
          have a JSON report; --json PATH writes just that report;
          `exp --all --out results` regenerates everything committed there)
  verify [--scheme NAME] [--max-states N] [--mutate-protocol NAME] [--out PATH]
         (exhaustive small-scope model checking of the HTM protocol product
          machine for every scheme; exit 1 with counterexample traces —
          written to --out, default results/VERIFY_counterexamples.txt — on
          any violation; --mutate-protocol seeds a known-broken variant the
          checker must catch)
  list   show workloads, schemes, scales, check levels and experiments
  help   (also --help, -h) print this text

run `suvtm list` for valid names";

/// A human-readable parse/validation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

fn err<T>(msg: impl Into<String>) -> Result<T, CliError> {
    Err(CliError(msg.into()))
}

/// Options for `suvtm run` and `suvtm sweep` (which takes no `--scheme`,
/// `--trace`, `--trace-summary`, `--traffic` or `--json`).
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Workload name.
    pub app: String,
    /// Scheme to simulate (`run` only; `sweep` runs all of them).
    pub scheme: SchemeKind,
    /// Simulated core count.
    pub cores: usize,
    /// Input scale.
    pub scale: SuiteScale,
    /// Print the execution-time breakdown.
    pub breakdown: bool,
    /// Write a Chrome-trace JSON file here.
    pub trace_path: Option<String>,
    /// Print the top-N trace summary.
    pub trace_summary: bool,
    /// Runtime invariant checking level.
    pub check: CheckLevel,
    /// Deterministic fault-injection spec (`--faults`), already parsed.
    pub faults: Option<FaultSpec>,
    /// Capacity-escalation tier (`--fallback`): what an overflowing
    /// transaction becomes after its hardware retries run out.
    pub fallback: FallbackMode,
    /// Open-loop traffic shape (`--traffic`), already parsed; only valid
    /// with `--app oltp`.
    pub traffic: Option<TrafficConfig>,
    /// Print the machine-readable JSON run report to stdout (`--json`).
    pub json: bool,
}

/// Options for `suvtm bench`.
#[derive(Debug, Clone)]
pub struct BenchOpts {
    /// The cells to run, in deterministic matrix order.
    pub cells: Vec<CellSpec>,
    /// Input scale.
    pub scale: SuiteScale,
    /// Host worker threads (`None` = the host's available parallelism).
    pub jobs: Option<usize>,
    /// Where to write the matrix document (`None` = don't write).
    pub out: Option<String>,
    /// The preset's document renderer (sweep, scaling curve or profile).
    pub render: RenderDoc,
}

/// Options for `suvtm exp`.
#[derive(Debug, Clone)]
pub struct ExpOpts {
    /// The report rows to run, in table order.
    pub experiments: Vec<&'static Experiment>,
    /// Host worker threads (`None` = the host's available parallelism).
    pub jobs: Option<usize>,
    /// Write `<name>.txt` / `<name>.json` into this directory instead of
    /// printing the text report.
    pub out: Option<String>,
    /// Write the (single) experiment's JSON report here.
    pub json: Option<String>,
}

/// Options for `suvtm verify` (the small-scope model checker).
#[derive(Debug, Clone)]
pub struct VerifyOpts {
    /// Restrict the run to one scheme (`None` = all six).
    pub scheme: Option<SchemeKind>,
    /// Seeded protocol mutation (the run must then FAIL to be healthy).
    pub mutate_protocol: Option<ProtocolMutation>,
    /// State budget per exploration.
    pub max_states: usize,
    /// Where to write counterexample traces on failure.
    pub out: String,
}

/// A fully parsed and validated `suvtm` invocation.
#[derive(Debug, Clone)]
pub enum Command {
    /// `suvtm run`: one (app, scheme) cell, verbose report.
    Run(RunOpts),
    /// `suvtm sweep --app X`: all schemes on one app, with speedups vs
    /// LogTM-SE.
    Sweep(RunOpts),
    /// `suvtm bench`: the parallel matrix engine.
    Bench(BenchOpts),
    /// `suvtm exp`: regenerate figures and tables of the evaluation.
    Exp(ExpOpts),
    /// `suvtm verify`: exhaustive small-scope model checking.
    Verify(VerifyOpts),
    /// `suvtm list`: print valid names.
    List,
    /// `suvtm --help` / `-h` / `help`: print [`USAGE`] and succeed.
    Help,
}

/// The one flag walker: a cursor over an argument list that remembers
/// the token it last handed out, so every value and error names its flag.
struct Flags<'a> {
    rest: std::slice::Iter<'a, String>,
    flag: &'a str,
}

impl<'a> Flags<'a> {
    fn new(args: &'a [String]) -> Self {
        Flags { rest: args.iter(), flag: "" }
    }

    /// The next token (a flag, or a positional argument).
    fn token(&mut self) -> Option<&'a str> {
        self.flag = self.rest.next()?;
        Some(self.flag)
    }

    /// The current flag's value.
    fn value(&mut self) -> Result<&'a str, CliError> {
        match self.rest.next() {
            Some(v) => Ok(v),
            None => err(format!("{} needs a value", self.flag)),
        }
    }

    /// The current flag's value as a number ≥ 1.
    fn positive(&mut self) -> Result<usize, CliError> {
        let v = self.value()?;
        match v.parse() {
            Ok(n) if n > 0 => Ok(n),
            _ => err(format!("{}: `{v}` is not a positive number", self.flag)),
        }
    }

    /// The current flag's value through `parse`; a miss names the flag,
    /// the rejected value and the `candidates`.
    fn choice<T>(
        &mut self,
        noun: &str,
        parse: impl Fn(&str) -> Option<T>,
        candidates: &[&str],
    ) -> Result<T, CliError> {
        let v = self.value()?;
        choose(self.flag, noun, v, parse, candidates)
    }

    /// The current flag's value as a comma-separated list.
    fn list<T>(
        &mut self,
        parse_one: impl Fn(&'a str, &'a str) -> Result<T, CliError>,
    ) -> Result<Vec<T>, CliError> {
        let (flag, v) = (self.flag, self.value()?);
        v.split(',').map(|entry| parse_one(flag, entry)).collect()
    }

    /// The error for a token no arm recognised.
    fn unknown<T>(&self) -> Result<T, CliError> {
        err(format!("unknown option `{}`", self.flag))
    }
}

fn choose<T>(
    flag: &str,
    noun: &str,
    v: &str,
    parse: impl Fn(&str) -> Option<T>,
    candidates: &[&str],
) -> Result<T, CliError> {
    parse(v).ok_or_else(|| {
        CliError(format!("{flag}: unknown {noun} `{v}`; try {}", candidates.join("|")))
    })
}

fn parse_scheme(flag: &str, s: &str) -> Result<SchemeKind, CliError> {
    choose(flag, "scheme", s, SchemeKind::parse, &SchemeKind::ALL.map(SchemeKind::flag))
}

fn parse_scale(f: &mut Flags) -> Result<SuiteScale, CliError> {
    let by_name = |v: &str| SCALES.iter().find(|(name, _)| *name == v).map(|&(_, scale)| scale);
    f.choice("scale", by_name, &SCALES.map(|(name, _)| name))
}

fn parse_cores(flag: &str, s: &str) -> Result<usize, CliError> {
    match s.parse() {
        Err(_) => err(format!("{flag}: `{s}` is not a number")),
        Ok(0) => err(format!("{flag}: need at least 1 simulated core")),
        Ok(n) if n > MAX_CORES => {
            err(format!("{flag}: {n} exceeds the {MAX_CORES}-core limit (10-bit core-id field)"))
        }
        Ok(n) => Ok(n),
    }
}

fn validate_app<'a>(flag: &str, name: &'a str) -> Result<&'a str, CliError> {
    if by_name(name, SuiteScale::Tiny).is_some() {
        Ok(name)
    } else {
        err(format!("{flag}: unknown app `{name}`; run `suvtm list` for valid names"))
    }
}

/// The `run` flags `sweep` rejects: it runs every scheme on a registry
/// workload and writes no trace, trace summary or JSON report.
const RUN_ONLY: [&str; 5] = ["--scheme", "--trace", "--trace-summary", "--traffic", "--json"];

fn parse_run_opts(args: &[String], sweep: bool) -> Result<RunOpts, CliError> {
    let mut o = RunOpts {
        app: "genome".into(),
        scheme: SchemeKind::SuvTm,
        cores: 16,
        scale: SuiteScale::Tiny,
        breakdown: false,
        trace_path: None,
        trace_summary: false,
        check: CheckLevel::Off,
        faults: None,
        fallback: FallbackMode::default(),
        traffic: None,
        json: false,
    };
    let mut f = Flags::new(args);
    while let Some(flag) = f.token() {
        match flag {
            _ if sweep && RUN_ONLY.contains(&flag) => {
                return err(format!("{flag} is only valid with `run`"));
            }
            "--app" => o.app = validate_app(flag, f.value()?)?.to_string(),
            "--scheme" => o.scheme = parse_scheme(flag, f.value()?)?,
            "--cores" => o.cores = parse_cores(flag, f.value()?)?,
            "--scale" => o.scale = parse_scale(&mut f)?,
            "--breakdown" => o.breakdown = true,
            "--check" => {
                o.check = f.choice("check level", CheckLevel::parse, &["off", "cheap", "full"])?;
            }
            "--trace" => o.trace_path = Some(f.value()?.to_string()),
            "--trace-summary" => o.trace_summary = true,
            "--faults" => o.faults = Some(parse_fault_spec(f.value()?).map_err(CliError)?),
            "--fallback" => {
                o.fallback =
                    f.choice("mode", FallbackMode::parse, &["off", "stm", "irrevocable-only"])?;
            }
            "--traffic" => {
                let spec = parse_traffic_spec(f.value()?);
                o.traffic = Some(spec.map_err(|e| CliError(format!("--traffic: {e}")))?);
            }
            "--json" => o.json = true,
            _ => return f.unknown(),
        }
    }
    if o.traffic.is_some() && o.app != "oltp" {
        return err(format!(
            "--traffic only applies to --app oltp (got `{}`); \
             oltp-storm is --app oltp --traffic rw=50:50,storm=32:16:2",
            o.app
        ));
    }
    Ok(o)
}

fn parse_bench_opts(args: &[String]) -> Result<BenchOpts, CliError> {
    // `--profile` and `--scaling` pick the preset row whose axes, scale,
    // output path and renderer are the defaults, so detect them before
    // walking the flags in order.
    let profile = args.iter().any(|a| a == "--profile");
    let name = match (profile, args.iter().any(|a| a == "--scaling")) {
        (true, true) => return err("--profile and --scaling are mutually exclusive"),
        (true, false) => "profile",
        (false, true) => "scaling",
        (false, false) => "sweep",
    };
    let (preset, out, render) = exp::preset(name);
    let Cells::Matrix { apps, schemes, cores } = preset.cells else {
        unreachable!("bench presets are matrices")
    };
    let (mut apps, mut schemes, mut core_counts) =
        (apps.to_vec(), schemes.to_vec(), cores.to_vec());
    let mut o = BenchOpts {
        cells: Vec::new(),
        scale: preset.scale,
        jobs: None,
        out: Some(out.into()),
        render,
    };
    let mut f = Flags::new(args);
    while let Some(flag) = f.token() {
        match flag {
            "--apps" => apps = f.list(validate_app)?,
            "--schemes" => schemes = f.list(parse_scheme)?,
            "--cores" => core_counts = f.list(parse_cores)?,
            "--scale" => o.scale = parse_scale(&mut f)?,
            "--jobs" => o.jobs = Some(f.positive()?),
            "--out" => o.out = Some(f.value()?.to_string()),
            "--profile" | "--scaling" => {} // pre-scanned above
            _ => return f.unknown(),
        }
    }
    if apps.is_empty() || schemes.is_empty() || core_counts.is_empty() {
        return err("bench: the matrix has an empty axis");
    }
    o.cells = matrix(&apps, &schemes, &core_counts);
    Ok(o)
}

fn parse_exp_opts(args: &[String]) -> Result<ExpOpts, CliError> {
    let valid = || exp::reports().map(|e| e.name).collect::<Vec<_>>().join(" ");
    let mut o = ExpOpts { experiments: Vec::new(), jobs: None, out: None, json: None };
    let mut all = false;
    let mut f = Flags::new(args);
    while let Some(flag) = f.token() {
        match flag {
            "--all" => all = true,
            "--jobs" => o.jobs = Some(f.positive()?),
            "--out" => o.out = Some(f.value()?.to_string()),
            "--json" => o.json = Some(f.value()?.to_string()),
            name if !name.starts_with("--") => match exp::find(name) {
                Some(e) => o.experiments.push(e),
                None => {
                    return err(format!("unknown experiment `{name}`; valid names: {}", valid()))
                }
            },
            _ => return f.unknown(),
        }
    }
    match (all, o.experiments.as_slice()) {
        (true, []) => o.experiments = exp::reports().collect(),
        (false, [_]) => {}
        _ => return err(format!("exp: name one experiment, or --all; valid names: {}", valid())),
    }
    if o.json.is_some() {
        match o.experiments.as_slice() {
            [e] if matches!(e.output, Output::Report { json: true, .. }) => {}
            [e] => return err(format!("--json: `{}` has no JSON report", e.name)),
            _ => return err("--json names one file; with --all use --out DIR"),
        }
    }
    Ok(o)
}

fn parse_verify_opts(args: &[String]) -> Result<VerifyOpts, CliError> {
    let mut o = VerifyOpts {
        scheme: None,
        mutate_protocol: None,
        max_states: suv_verify::DEFAULT_MAX_STATES,
        out: "results/VERIFY_counterexamples.txt".into(),
    };
    let mut f = Flags::new(args);
    while let Some(flag) = f.token() {
        match flag {
            "--scheme" => o.scheme = Some(parse_scheme(flag, f.value()?)?),
            "--mutate-protocol" => {
                o.mutate_protocol = Some(f.choice(
                    "mutation",
                    ProtocolMutation::parse,
                    &ALL_PROTOCOL_MUTATIONS.map(ProtocolMutation::name),
                )?);
            }
            "--max-states" => o.max_states = f.positive()?,
            "--out" => o.out = f.value()?.to_string(),
            _ => return f.unknown(),
        }
    }
    Ok(o)
}

/// Parse a full `suvtm` argument list (without the program name).
pub fn parse(args: &[String]) -> Result<Command, CliError> {
    let Some((command, rest)) = args.split_first() else {
        return err("no command given");
    };
    match command.as_str() {
        "run" => Ok(Command::Run(parse_run_opts(rest, false)?)),
        "sweep" => Ok(Command::Sweep(parse_run_opts(rest, true)?)),
        "bench" => Ok(Command::Bench(parse_bench_opts(rest)?)),
        "exp" => Ok(Command::Exp(parse_exp_opts(rest)?)),
        "verify" => Ok(Command::Verify(parse_verify_opts(rest)?)),
        "list" => match rest.first() {
            Some(extra) => err(format!("list takes no arguments (got `{extra}`)")),
            None => Ok(Command::List),
        },
        "--help" | "-h" | "help" => Ok(Command::Help),
        other => err(format!("unknown command `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn valid_run_parses() {
        let cmd = parse(&args("run --app kmeans --scheme suv --cores 8 --scale paper"))
            .expect("valid invocation");
        match cmd {
            Command::Run(o) => {
                assert_eq!(o.app, "kmeans");
                assert_eq!(o.scheme, SchemeKind::SuvTm);
                assert_eq!(o.cores, 8);
                assert_eq!(o.scale, SuiteScale::Paper);
            }
            other => panic!("expected Run, got {other:?}"),
        }
    }

    #[test]
    fn unknown_app_is_an_error_not_a_panic() {
        let e = parse(&args("run --app nonesuch")).expect_err("must reject");
        assert!(e.0.contains("unknown app"), "{e}");
    }

    #[test]
    fn zero_cores_rejected() {
        let e = parse(&args("run --app kmeans --cores 0")).expect_err("must reject");
        assert!(e.0.contains("at least 1"), "{e}");
    }

    #[test]
    fn oversized_cores_rejected() {
        let e = parse(&args("run --cores 1025")).expect_err("must reject");
        assert!(e.0.contains("1024-core limit"), "{e}");
        assert!(parse(&args("run --cores 1024")).is_ok(), "1024 is the inclusive max");
        // The old u64 sharer-bit-vector ceiling is gone.
        assert!(parse(&args("run --cores 65")).is_ok(), "65 cores must parse");
        assert!(parse(&args("run --cores 256")).is_ok(), "256 cores must parse");
    }

    #[test]
    fn non_numeric_cores_rejected() {
        let e = parse(&args("run --cores sixteen")).expect_err("must reject");
        assert!(e.0.contains("not a number"), "{e}");
    }

    #[test]
    fn missing_value_rejected() {
        let e = parse(&args("run --app")).expect_err("must reject");
        assert!(e.0.contains("needs a value"), "{e}");
    }

    #[test]
    fn unknown_flag_rejected() {
        let e = parse(&args("run --frobnicate")).expect_err("must reject");
        assert!(e.0.contains("unknown option"), "{e}");
    }

    #[test]
    fn unknown_command_rejected() {
        assert!(parse(&args("benchmark")).is_err());
        assert!(parse(&[]).is_err());
    }

    #[test]
    fn bench_defaults_cover_full_matrix() {
        match parse(&args("bench")).expect("valid") {
            Command::Bench(o) => {
                assert_eq!(o.cells.len(), 8 * 6, "8 apps x 6 schemes x 1 core count");
                assert_eq!(o.out.as_deref(), Some("results/BENCH_sweep.json"));
            }
            other => panic!("expected Bench, got {other:?}"),
        }
    }

    #[test]
    fn bench_axes_parse_as_lists() {
        match parse(&args("bench --apps kmeans,genome --schemes suv,logtm --cores 4,8,16"))
            .expect("valid")
        {
            Command::Bench(o) => assert_eq!(o.cells.len(), 2 * 2 * 3),
            other => panic!("expected Bench, got {other:?}"),
        }
    }

    #[test]
    fn help_spellings_ask_for_the_usage_block() {
        for spelling in ["--help", "-h", "help"] {
            assert!(matches!(parse(&args(spelling)), Ok(Command::Help)), "{spelling}");
        }
        // No other spelling: `-help` and a help flag after a command stay errors.
        assert!(parse(&args("-help")).is_err());
        assert!(parse(&args("run --help")).is_err());
    }

    #[test]
    fn removed_spellings_are_rejected() {
        for gone in [
            "sweep --all",
            "run --all",
            "bench --serial",
            "bench --all",
            "bench --profile --baseline results/BENCH_host.json",
            "bench --profile --tolerance 15",
            "bench --profile --reps 3",
            "bench --resume",
            "verify --engine sched",
            "verify --mutate-sched stale-horizon",
            "verify --engine protocol",
            "verify --mutate-hybrid sw-skip-validation",
        ] {
            let e = parse(&args(gone)).expect_err(gone);
            assert!(e.0.contains("unknown option"), "{gone}: {e}");
        }
    }

    #[test]
    fn exp_resolves_names_from_the_table() {
        match parse(&args("exp fig6 --jobs 2 --json /tmp/fig6.json")).expect("valid") {
            Command::Exp(o) => {
                assert_eq!(o.experiments.len(), 1);
                assert_eq!(o.experiments[0].name, "fig6");
                assert_eq!(o.jobs, Some(2));
                assert_eq!(o.json.as_deref(), Some("/tmp/fig6.json"));
            }
            other => panic!("expected Exp, got {other:?}"),
        }
        match parse(&args("exp --all --out results")).expect("valid") {
            Command::Exp(o) => {
                assert_eq!(o.experiments.len(), exp::reports().count());
                assert_eq!(o.out.as_deref(), Some("results"));
            }
            other => panic!("expected Exp, got {other:?}"),
        }
    }

    #[test]
    fn exp_errors_list_the_valid_names() {
        for bad in ["exp", "exp nonesuch", "exp sweep", "exp fig6 fig7", "exp --all fig6"] {
            let e = parse(&args(bad)).expect_err(bad);
            assert!(e.0.contains("fig1 fig6 fig7"), "{bad}: {e}");
            assert!(e.0.contains("fallback_cost"), "{bad}: {e}");
        }
        let e = parse(&args("exp fig6 --json")).expect_err("must reject");
        assert!(e.0.contains("--json needs a value"), "{e}");
        let e = parse(&args("exp fig7 --json /tmp/x.json")).expect_err("must reject");
        assert!(e.0.contains("no JSON report"), "{e}");
        assert!(parse(&args("exp --all --json /tmp/x.json")).is_err());
        assert!(parse(&args("exp fig6 --jobs 0")).is_err());
    }

    #[test]
    fn run_parses_fault_spec() {
        match parse(&args("run --app kmeans --faults seed=9,nack=10,delay=5:30,pool=4"))
            .expect("valid")
        {
            Command::Run(o) => {
                let f = o.faults.expect("spec parsed");
                assert_eq!(f.seed, 9);
                assert_eq!(f.nack_pct, 10);
                assert_eq!((f.delay_pct, f.delay_cycles), (5, 30));
                assert_eq!(f.pool_pages, 4);
            }
            other => panic!("expected Run, got {other:?}"),
        }
        let e = parse(&args("run --faults nack=200")).expect_err("must reject");
        assert!(e.0.contains("0..=100"), "{e}");
    }

    #[test]
    fn fallback_modes_parse_and_default_to_irrevocable_only() {
        match parse(&args("run --app kmeans")).expect("valid") {
            Command::Run(o) => assert_eq!(o.fallback, FallbackMode::IrrevocableOnly),
            other => panic!("expected Run, got {other:?}"),
        }
        for (raw, want) in [
            ("off", FallbackMode::Off),
            ("stm", FallbackMode::Stm),
            ("irrevocable-only", FallbackMode::IrrevocableOnly),
        ] {
            match parse(&args(&format!("run --app kmeans --fallback {raw}"))).expect("valid") {
                Command::Run(o) => assert_eq!(o.fallback, want, "--fallback {raw}"),
                other => panic!("expected Run, got {other:?}"),
            }
        }
        let e = parse(&args("run --fallback hardware")).expect_err("must reject");
        assert!(e.0.contains("off|stm|irrevocable-only"), "{e}");
    }

    #[test]
    fn scaling_defaults_cover_the_curve() {
        match parse(&args("bench --scaling")).expect("valid") {
            Command::Bench(o) => {
                assert_eq!(o.scale, SuiteScale::Scale);
                assert_eq!(o.out.as_deref(), Some("results/SCALING_curve.json"));
                // 3 apps x 6 schemes x 10 core counts, 1 -> 512.
                assert_eq!(o.cells.len(), 3 * 6 * 10);
                let cores: Vec<usize> = o.cells.iter().map(|c| c.cfg.n_cores).collect();
                assert!(cores.contains(&1) && cores.contains(&512));
            }
            other => panic!("expected Bench, got {other:?}"),
        }
    }

    #[test]
    fn scaling_axes_are_overridable() {
        match parse(&args("bench --scaling --apps genome --cores 64,128 --schemes suv,logtm"))
            .expect("valid")
        {
            Command::Bench(o) => {
                assert_eq!(o.cells.len(), 2 * 2, "one app, two core counts, two schemes");
                assert_eq!(o.scale, SuiteScale::Scale, "--scaling keeps the scale inputs");
            }
            other => panic!("expected Bench, got {other:?}"),
        }
        // An explicit --scale still wins (e.g. a clamped CI smoke run).
        match parse(&args("bench --scaling --scale tiny")).expect("valid") {
            Command::Bench(o) => assert_eq!(o.scale, SuiteScale::Tiny),
            other => panic!("expected Bench, got {other:?}"),
        }
        assert!(parse(&args("bench --scaling --profile")).is_err(), "modes are exclusive");
    }

    #[test]
    fn scale_preset_parses_everywhere() {
        match parse(&args("run --app genome --scale scale --cores 128")).expect("valid") {
            Command::Run(o) => {
                assert_eq!(o.scale, SuiteScale::Scale);
                assert_eq!(o.cores, 128);
            }
            other => panic!("expected Run, got {other:?}"),
        }
        let e = parse(&args("run --scale huge")).expect_err("must reject");
        assert!(e.0.contains("tiny|paper|scale"), "{e}");
    }

    #[test]
    fn bench_rejects_bad_axis_entries() {
        assert!(parse(&args("bench --apps kmeans,bogus")).is_err());
        assert!(parse(&args("bench --schemes suv,htm9000")).is_err());
        assert!(parse(&args("bench --cores 4,0")).is_err());
        assert!(parse(&args("bench --jobs 0")).is_err());
    }

    #[test]
    fn bad_list_entries_name_the_flag_and_entry() {
        let e = parse(&args("bench --apps kmeans,bogus")).expect_err("must reject");
        assert!(e.0.starts_with("--apps:"), "{e}");
        assert!(e.0.contains("`bogus`"), "{e}");
        let e = parse(&args("bench --schemes suv,htm9000")).expect_err("must reject");
        assert!(e.0.starts_with("--schemes:"), "{e}");
        assert!(e.0.contains("`htm9000`"), "{e}");
        // parse_cores already names its flag; no double prefix.
        let e = parse(&args("bench --cores 4,zero")).expect_err("must reject");
        assert!(e.0.starts_with("--cores:"), "{e}");
        assert!(!e.0.contains("--cores: --cores:"), "{e}");
    }

    #[test]
    fn oltp_apps_resolve_and_traffic_parses() {
        match parse(&args("run --app oltp --traffic zipf=0.99,rw=90:10 --json")).expect("valid") {
            Command::Run(o) => {
                assert_eq!(o.app, "oltp");
                assert!(o.json);
                let t = o.traffic.expect("traffic parsed");
                assert_eq!(t.theta, 0.99);
                assert_eq!(t.read_pct, 90);
            }
            other => panic!("expected Run, got {other:?}"),
        }
        assert!(parse(&args("run --app oltp-storm")).is_ok());
    }

    #[test]
    fn traffic_errors_name_the_offending_key() {
        let e = parse(&args("run --app oltp --traffic zipf=0.9,bogus=1")).expect_err("must reject");
        assert!(e.0.starts_with("--traffic:"), "{e}");
        assert!(e.0.contains("unknown key `bogus`"), "{e}");
        let e = parse(&args("run --app oltp --traffic rw=70:40")).expect_err("must reject");
        assert!(e.0.contains("rw=70:40"), "{e}");
    }

    #[test]
    fn traffic_requires_an_oltp_app() {
        let e = parse(&args("run --app kmeans --traffic zipf=0.5")).expect_err("must reject");
        assert!(e.0.contains("oltp"), "{e}");
        // Default app (genome) is not oltp either.
        assert!(parse(&args("run --traffic zipf=0.5")).is_err());
        // `oltp-storm` is a preset of its own: a spec beside it would run
        // plain `oltp` under that spec instead.
        let e = parse(&args("run --app oltp-storm --traffic reqs=8")).expect_err("must reject");
        assert!(e.0.contains("rw=50:50,storm=32:16:2"), "{e}");
    }

    #[test]
    fn json_is_run_only() {
        let e = parse(&args("sweep --app kmeans --json")).expect_err("must reject");
        assert!(e.0.contains("--json"), "{e}");
    }

    #[test]
    fn sweep_rejects_the_flags_it_cannot_honour() {
        for (flag, extra) in [
            ("--scheme", "--scheme logtm"),
            ("--trace", "--trace /tmp/sweep.json"),
            ("--trace-summary", "--trace-summary"),
            ("--traffic", "--traffic reqs=8"),
        ] {
            let e = parse(&args(&format!("sweep --app oltp {extra}"))).expect_err(extra);
            assert!(e.0.starts_with(flag) && e.0.contains("only valid with `run`"), "{extra}: {e}");
        }
        // What the sweep does read still parses.
        assert!(parse(&args("sweep --app oltp --cores 4 --breakdown --faults seed=3")).is_ok());
    }

    #[test]
    fn verify_defaults_and_flags_parse() {
        match parse(&args("verify")).expect("valid") {
            Command::Verify(o) => {
                assert!(o.scheme.is_none());
                assert!(o.mutate_protocol.is_none());
                assert_eq!(o.max_states, suv_verify::DEFAULT_MAX_STATES);
                assert_eq!(o.out, "results/VERIFY_counterexamples.txt");
            }
            other => panic!("expected Verify, got {other:?}"),
        }
        match parse(&args(
            "verify --scheme suv --mutate-protocol skip-flash --max-states 1000 --out /tmp/cex.txt",
        ))
        .expect("valid")
        {
            Command::Verify(o) => {
                assert_eq!(o.scheme, Some(SchemeKind::SuvTm));
                assert_eq!(
                    o.mutate_protocol,
                    Some(suv_verify::protocol::ProtocolMutation::SkipFlash)
                );
                assert_eq!(o.max_states, 1000);
                assert_eq!(o.out, "/tmp/cex.txt");
            }
            other => panic!("expected Verify, got {other:?}"),
        }
    }

    #[test]
    fn verify_rejects_bad_values_with_candidates() {
        let e = parse(&args("verify --mutate-protocol bogus")).expect_err("must reject");
        assert!(e.0.contains("skip-flash"), "{e}");
        let e = parse(&args("verify --max-states 0")).expect_err("must reject");
        assert!(e.0.contains("--max-states"), "{e}");
        assert!(parse(&args("verify --bogus")).is_err());
    }
}
