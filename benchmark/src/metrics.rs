//! The metric tables: what `BENCHMARK.json` declares and the order every
//! report prints in. [`manifest`] renders `BENCHMARK.json` from them, and
//! a test keeps the committed file equal to it.

use crate::workloads::{workload, Size, NAMES, SCHEMES};
use suv::trace::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }

    /// By what share of `parent` is `change` worse? Negative when better.
    pub fn worsening(self, parent: f64, change: f64) -> f64 {
        match self {
            Better::Lower => (change - parent) / parent,
            Better::Higher => (parent - change) / parent,
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
}

/// How long one run measures, in seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 15;

/// The end-to-end metrics, reported per workload. README.md ("Noise
/// floor") gives the measured spreads and level shifts the bounds were
/// set from: on this shared 2-core box host time moves by several percent
/// over an hour with no change to the code.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd { name: "wall_s", unit: "s", better: Better::Lower, bound: 0.15 },
    EndToEnd { name: "sim_mcyc_per_s", unit: "Mcyc/s", better: Better::Higher, bound: 0.15 },
    EndToEnd { name: "host_ns_per_event", unit: "ns", better: Better::Lower, bound: 0.15 },
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: Better::Lower, bound: 0.08 },
    EndToEnd { name: "sim_speedup_x", unit: "x", better: Better::Higher, bound: 0.08 },
];

#[derive(Debug, Clone)]
pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
}

/// The per-layer metrics in reporting order, grouped by crate. Each is
/// either a probe (host ns per call of one public function) or a figure
/// taken per workload from the cells' own statistics and spans.
pub fn per_layer() -> Vec<PerLayer> {
    use Better::{Higher, Lower};
    let mut v: Vec<PerLayer> = Vec::new();
    let mut add = |name: &str, unit: &'static str, better: Better| {
        v.push(PerLayer { name: name.to_string(), unit, better });
    };
    for n in ["mem.read_word_ns", "mem.write_word_ns", "mem.pool_slot_ns"] {
        add(n, "ns", Lower);
    }
    for n in ["types.sharers_ns", "types.sharers_spill_ns"] {
        add(n, "ns", Lower);
    }
    for n in ["cache.tag_hit_ns", "cache.tag_insert_ns", "cache.dir_ns"] {
        add(n, "ns", Lower);
    }
    for n in ["noc.route_ns", "noc.route_wide_ns"] {
        add(n, "ns", Lower);
    }
    for n in ["sig.insert_ns", "sig.contains_ns", "sig.summary_ns"] {
        add(n, "ns", Lower);
    }
    for n in ["coh.hit_ns", "coh.fill_cold_ns", "coh.fill_pingpong_ns"] {
        add(n, "ns", Lower);
    }
    add("coh.l1_misses", "count", Lower);
    add("coh.l2_misses", "count", Lower);
    for n in ["rt.lookup_hit_ns", "rt.lookup_miss_ns", "rt.tx32_commit_ns", "rt.tx32_abort_ns"] {
        add(n, "ns", Lower);
    }
    add("rt.l1_hit_ratio", "ratio", Higher);
    add("rt.entries_added", "count", Lower);
    for (_, slug) in SCHEMES {
        add(&format!("htm.tx_ns.{slug}"), "ns", Lower);
    }
    for (_, slug) in SCHEMES {
        add(&format!("htm.abort_ns.{slug}"), "ns", Lower);
    }
    add("htm.nontx_ns", "ns", Lower);
    add("htm.sw_tx_ns", "ns", Lower);
    add("htm.commits", "count", Higher);
    add("htm.aborts", "count", Lower);
    add("htm.nacks", "count", Lower);
    add("htm.useful_tx_ratio", "ratio", Higher);
    add("htm.sw_commits", "count", Lower);
    add("htm.irrevocable_commits", "count", Lower);
    for (_, slug) in SCHEMES {
        add(&format!("vm.{slug}.wall_s"), "s", Lower);
    }
    add("sim.spin_ns_per_op", "ns", Lower);
    add("sim.machine_s", "s", Lower);
    add("sim.dispatch_s", "s", Lower);
    add("sim.handoffs_taken", "count", Lower);
    add("sim.handoffs_elided", "count", Higher);
    add("sim.dispatch_ns_per_handoff", "ns", Lower);
    add("sim.machine_build_ms", "ms", Lower);
    for n in ["trace.emit_on_ns", "trace.emit_off_ns", "trace.latency_observe_ns"] {
        add(n, "ns", Lower);
    }
    add("trace.events", "count", Lower);
    add("trace.overhead_pct", "%", Lower);
    for n in ["workload.build_ms", "workload.setup_ms", "workload.verify_ms"] {
        add(n, "ms", Lower);
    }
    add("oltp.next_request_ns", "ns", Lower);
    add("oltp.sim_p99_kcyc", "kcyc", Lower);
    add("oltp.sim_txn_per_kcyc", "1/kcyc", Higher);
    add("check.serial_ns_per_event", "ns", Lower);
    add("verify.protocol_states_per_s", "1/s", Higher);
    add("bench.trace_overhead_pct", "%", Lower);
    v
}

/// The `BENCHMARK.json` document.
pub fn manifest() -> Json {
    let workloads = NAMES
        .iter()
        .map(|n| {
            let w = workload(n, 1, Size::Full).expect("NAMES lists real workloads");
            Json::obj([("name", Json::from(w.name)), ("why", Json::from(w.why))])
        })
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            Json::obj([
                ("name", Json::from(m.name)),
                ("unit", Json::from(m.unit)),
                ("better", Json::from(m.better.name())),
                ("bound", Json::F64(m.bound)),
            ])
        })
        .collect();
    let layers = per_layer()
        .iter()
        .map(|m| {
            Json::obj([
                ("name", Json::from(m.name.as_str())),
                ("unit", Json::from(m.unit)),
                ("better", Json::from(m.better.name())),
            ])
        })
        .collect();
    Json::obj([
        ("command", Json::Arr(vec![Json::from("bash"), Json::from("benchmark/run.sh")])),
        ("paths", Json::Arr(vec![Json::from("benchmark")])),
        ("run_seconds", Json::U64(RUN_SECONDS)),
        ("workloads", Json::Arr(workloads)),
        ("end_to_end", Json::Arr(end_to_end)),
        ("per_layer", Json::Arr(layers)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn legal(name: &str, max: usize, extra: &[char]) -> bool {
        let mut chars = name.chars();
        !name.is_empty()
            && name.len() <= max
            && chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && chars.all(|c| c.is_ascii_alphanumeric() || extra.contains(&c))
    }

    #[test]
    fn tables_meet_the_contract_limits() {
        let layers = per_layer();
        assert!((1..=128).contains(&layers.len()), "{} per-layer metrics", layers.len());
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(layers.iter().map(|m| m.name.as_str()));
        names.extend(NAMES);
        for n in &names {
            assert!(legal(n, 64, &['_', '.', '-']), "illegal name {n}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "a name is used twice");
        let units = END_TO_END.iter().map(|m| m.unit).chain(layers.iter().map(|m| m.unit));
        for u in units {
            assert!(
                u.len() <= 16
                    && u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "illegal unit {u}"
            );
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let largest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, largest, "setup_s carries the largest bound");
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn committed_benchmark_json_is_the_rendered_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        assert!(text.len() <= 64 * 1024);
        let committed = json::parse(&text).expect("BENCHMARK.json parses");
        let rendered = json::parse(&manifest().render()).expect("the manifest parses");
        assert_eq!(
            committed, rendered,
            "BENCHMARK.json drifted from benchmark/src/metrics.rs; regenerate it with \
             `benchmark/run.sh --manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn worsening_is_signed_by_direction() {
        assert!((Better::Lower.worsening(2.0, 2.2) - 0.1).abs() < 1e-12);
        assert!((Better::Higher.worsening(2.0, 2.2) + 0.1).abs() < 1e-12);
        assert_eq!(Better::parse(Better::Lower.name()), Some(Better::Lower));
        assert_eq!(Better::parse("sideways"), None);
    }
}
