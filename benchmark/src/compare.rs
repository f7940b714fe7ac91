//! `--compare A.json B.json`: two result files of the full run, metric by
//! metric against the benchmark's own bounds. The tool for the
//! repeatability criterion (same commit twice) and for before/after
//! tables (A = parent, B = change).

use crate::json::{as_f64, as_obj, as_str, get, parse};
use crate::metrics::Better;
use std::process::ExitCode;
use suv::trace::Json;

/// Per-layer counts that are simulated, not timed: two runs of one commit
/// — and a host-only change against its parent — must agree on them
/// exactly.
const EXACT_COUNTS: [&str; 12] = [
    "coh.l1_misses",
    "coh.l2_misses",
    "rt.entries_added",
    "htm.commits",
    "htm.aborts",
    "htm.nacks",
    "htm.sw_commits",
    "htm.irrevocable_commits",
    "sim.handoffs_taken",
    "sim.handoffs_elided",
    "trace.events",
    "rt.l1_hit_ratio",
];

#[derive(Debug, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    /// Share by which B is worse than A (negative: better).
    pub worse_by: f64,
    pub bound: f64,
}

impl Row {
    pub fn ok(&self) -> bool {
        self.worse_by <= self.bound
    }
}

#[derive(Debug, Default, PartialEq)]
pub struct Comparison {
    pub rows: Vec<Row>,
    /// `workload: what` for every exact-match field that differs.
    pub inexact: Vec<String>,
}

fn metric_value(run: &Json, name: &str) -> Option<f64> {
    as_f64(get(get(get(run, "metrics")?, name)?, "value")?)
}

/// Compare two parsed result documents.
pub fn compare<'a>(a: &'a Json, b: &'a Json) -> Result<Comparison, String> {
    let mut out = Comparison::default();
    let workloads = |doc: &'a Json| -> Result<&'a [(String, Json)], String> {
        as_obj(get(doc, "workloads").ok_or("no \"workloads\" object")?)
            .ok_or_else(|| "\"workloads\" is not an object".to_string())
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    for (name, run_a) in wa {
        let Some((_, run_b)) = wb.iter().find(|(n, _)| n == name) else {
            out.inexact.push(format!("{name}: missing from B"));
            continue;
        };
        let e2e =
            |run: &'a Json| get(run, "end_to_end").ok_or(format!("{name}: no end_to_end run"));
        let (ea, eb) = (e2e(run_a)?, e2e(run_b)?);
        let metrics = as_obj(get(ea, "metrics").ok_or(format!("{name}: no metrics"))?)
            .ok_or(format!("{name}: metrics is not an object"))?;
        for (metric, entry) in metrics {
            let field = |k: &str| get(entry, k).ok_or(format!("{name} {metric}: no {k}"));
            let better = as_str(field("better")?)
                .and_then(Better::parse)
                .ok_or(format!("{name} {metric}: bad better"))?;
            let bound = as_f64(field("bound")?).ok_or(format!("{name} {metric}: bad bound"))?;
            let va = as_f64(field("value")?).ok_or(format!("{name} {metric}: bad value"))?;
            let vb = metric_value(eb, metric).ok_or(format!("{name} {metric}: missing from B"))?;
            out.rows.push(Row {
                workload: name.clone(),
                metric: metric.clone(),
                a: va,
                b: vb,
                worse_by: better.worsening(va, vb),
                bound,
            });
        }
        let fp = |run: &Json| get(run, "sim_fingerprint").and_then(as_str).map(str::to_string);
        if fp(ea) != fp(eb) {
            out.inexact.push(format!("{name}: sim_fingerprint {:?} vs {:?}", fp(ea), fp(eb)));
        }
        if metric_value(ea, "sim_speedup_x") != metric_value(eb, "sim_speedup_x") {
            out.inexact.push(format!("{name}: sim_speedup_x differs"));
        }
        if let (Some(la), Some(lb)) = (get(run_a, "per_layer"), get(run_b, "per_layer")) {
            for count in EXACT_COUNTS {
                let (ca, cb) = (metric_value(la, count), metric_value(lb, count));
                if ca != cb {
                    out.inexact.push(format!("{name}: {count} {ca:?} vs {cb:?}"));
                }
            }
        }
    }
    Ok(out)
}

pub fn compare_files(a: &str, b: &str) -> Result<ExitCode, String> {
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (da, db) = (load(a)?, load(b)?);
    let seed = |d: &Json| get(d, "seed").and_then(as_f64);
    if seed(&da) != seed(&db) {
        println!(
            "# note: seeds differ ({:?} vs {:?}); the OLTP workloads' simulated figures will too",
            seed(&da),
            seed(&db)
        );
    }
    let cmp = compare(&da, &db)?;
    println!(
        "{:<13} {:<18} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "B worse", "bound"
    );
    for r in &cmp.rows {
        println!(
            "{:<13} {:<18} {:>14.6} {:>14.6} {:>+8.2}% {:>6.1}%  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            100.0 * r.worse_by,
            100.0 * r.bound,
            if r.ok() { "ok" } else { "beyond-bound" }
        );
    }
    for line in &cmp.inexact {
        println!("exact-match DIFFERS  {line}");
    }
    if cmp.inexact.is_empty() {
        println!("exact-match ok: sim_fingerprint, sim_speedup_x and the simulated counts agree on every workload");
    }
    let beyond = cmp.rows.iter().filter(|r| !r.ok()).count();
    println!("{} of {} rows beyond bound", beyond, cmp.rows.len());
    Ok(if beyond == 0 && cmp.inexact.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(wall: f64, rate: f64, fingerprint: &str, commits: u64) -> Json {
        let text = format!(
            r#"{{"seed":1,"workloads":{{"w":{{
                "end_to_end":{{"sim_fingerprint":"{fingerprint}","metrics":{{
                    "wall_s":{{"value":{wall},"unit":"s","better":"lower","bound":0.05}},
                    "sim_mcyc_per_s":{{"value":{rate},"unit":"Mcyc/s","better":"higher","bound":0.05}}}}}},
                "per_layer":{{"metrics":{{"htm.commits":{{"value":{commits},"unit":"count"}}}}}}}}}}}}"#
        );
        parse(&text).unwrap()
    }

    #[test]
    fn identical_documents_are_clean() {
        let c = compare(&doc(2.0, 5.0, "ab", 9), &doc(2.0, 5.0, "ab", 9)).unwrap();
        assert_eq!(c.rows.len(), 2);
        assert!(c.rows.iter().all(Row::ok) && c.inexact.is_empty());
    }

    #[test]
    fn direction_and_bound_decide_the_verdict() {
        // wall_s 4% slower: inside 5%. Throughput 10% lower: beyond.
        let c = compare(&doc(2.0, 5.0, "ab", 9), &doc(2.08, 4.5, "ab", 9)).unwrap();
        assert!(c.rows[0].ok() && (c.rows[0].worse_by - 0.04).abs() < 1e-9);
        assert!(!c.rows[1].ok() && (c.rows[1].worse_by - 0.10).abs() < 1e-9);
        // Getting faster is never beyond bound.
        let c = compare(&doc(2.0, 5.0, "ab", 9), &doc(1.0, 9.0, "ab", 9)).unwrap();
        assert!(c.rows.iter().all(Row::ok));
    }

    #[test]
    fn simulated_fields_must_match_exactly() {
        let c = compare(&doc(2.0, 5.0, "ab", 9), &doc(2.0, 5.0, "cd", 10)).unwrap();
        assert_eq!(c.inexact.len(), 2, "{:?}", c.inexact);
        assert!(c.inexact[0].contains("sim_fingerprint") && c.inexact[1].contains("htm.commits"));
        assert!(compare(&Json::Null, &Json::Null).is_err());
    }
}
