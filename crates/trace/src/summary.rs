//! Textual top-N trace summary (`suvtm run --trace-summary`).

use crate::event::TraceEvent;
use crate::tracer::TraceOutput;
use suv_types::FxHashMap;

/// Render a terminal-friendly summary of a run's trace: event counts,
/// latency histograms, the hottest conflict lines and the most
/// abort-prone transaction sites.
pub fn summary_report(out: &TraceOutput, top_n: usize) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "trace: {} events ({} retained, {} dropped), hash {:#018x}\n",
        out.events,
        out.records.len(),
        out.dropped,
        out.hash
    ));

    s.push_str("\nevent counts:\n");
    for (name, count) in out.metrics.counters() {
        s.push_str(&format!("  {name:<20} {count:>12}\n"));
    }

    let mut histos: Vec<_> = out.metrics.histograms().collect();
    histos.sort_by_key(|(name, _)| *name);
    if !histos.is_empty() {
        s.push_str("\nmagnitudes (count / mean / p50 / p99 / max):\n");
        for (name, h) in histos {
            s.push_str(&format!(
                "  {name:<20} {:>10} / {:>10.1} / {:>8} / {:>8} / {:>10}\n",
                h.count(),
                h.mean(),
                h.percentile(50.0),
                h.percentile(99.0),
                h.max()
            ));
        }
    }

    // Hottest conflict lines: stalls carry the conflicting line.
    // line -> (stalls, cycles); both reports below sort their rows fully.
    let mut by_line: FxHashMap<u64, (u64, u64)> = FxHashMap::default();
    // Abort-prone sites: replay per-core open site from TxBegin.
    let mut open_site: FxHashMap<usize, u32> = FxHashMap::default();
    let mut site_aborts: FxHashMap<u32, u64> = FxHashMap::default();
    let mut site_commits: FxHashMap<u32, u64> = FxHashMap::default();
    for rec in &out.records {
        match rec.ev {
            TraceEvent::Stall { line, cycles } => {
                let e = by_line.entry(line).or_insert((0, 0));
                e.0 += 1;
                e.1 += cycles;
            }
            TraceEvent::TxBegin { site, .. } => {
                open_site.insert(rec.core, site);
            }
            TraceEvent::TxAbort { .. } => {
                if let Some(site) = open_site.remove(&rec.core) {
                    *site_aborts.entry(site).or_insert(0) += 1;
                }
            }
            TraceEvent::TxCommit { .. } => {
                if let Some(site) = open_site.remove(&rec.core) {
                    *site_commits.entry(site).or_insert(0) += 1;
                }
            }
            _ => {}
        }
    }

    if !by_line.is_empty() {
        let mut lines: Vec<_> = by_line.into_iter().collect();
        lines.sort_by(|a, b| b.1 .1.cmp(&a.1 .1).then(a.0.cmp(&b.0)));
        s.push_str(&format!("\ntop {top_n} conflict lines (stalls, stall cycles):\n"));
        for (line, (n, cyc)) in lines.into_iter().take(top_n) {
            s.push_str(&format!("  {line:#012x}  {n:>8}  {cyc:>12}\n"));
        }
    }

    let mut sites: Vec<u32> = site_aborts.keys().chain(site_commits.keys()).copied().collect();
    sites.sort_unstable();
    sites.dedup();
    if !sites.is_empty() {
        sites.sort_by(|a, b| {
            site_aborts
                .get(b)
                .copied()
                .unwrap_or(0)
                .cmp(&site_aborts.get(a).copied().unwrap_or(0))
                .then(a.cmp(b))
        });
        s.push_str(&format!("\ntop {top_n} sites (aborts / commits in retained window):\n"));
        for site in sites.into_iter().take(top_n) {
            s.push_str(&format!(
                "  site {site:<6} {:>8} / {:>8}\n",
                site_aborts.get(&site).copied().unwrap_or(0),
                site_commits.get(&site).copied().unwrap_or(0)
            ));
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent as E;
    use crate::tracer::Tracer;

    #[test]
    fn report_names_hot_lines_and_sites() {
        let mut t = Tracer::ring(1 << 10);
        t.emit(0, 0, E::TxBegin { site: 9, lazy: false });
        t.emit(5, 0, E::Stall { line: 0x1000, cycles: 40 });
        t.emit(50, 0, E::TxAbort { window: 10 });
        t.emit(70, 0, E::TxBegin { site: 9, lazy: false });
        t.emit(90, 0, E::TxCommit { window: 4, committing: 0 });
        let out = t.finish();
        let report = summary_report(&out, 5);
        assert!(report.contains("tx_abort"), "{report}");
        assert!(report.contains(&format!("{:#012x}", 0x1000)), "{report}");
        assert!(report.contains("site 9"), "{report}");
        assert!(report.contains(&format!("{:>8} / {:>8}", 1, 1)), "{report}");
    }
}
