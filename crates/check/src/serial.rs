//! Conflict-serializability oracle over a recorded trace.
//!
//! The machine emits `TxBegin`/`TxRead`/`TxWrite`/`TxCommit`/`TxAbort`
//! events in *execution order* (the cooperative scheduler serializes every
//! functional memory operation, so stream position is a faithful global
//! order). This module replays that stream into per-transaction episodes
//! and builds the classic conflict graph over the *committed* episodes:
//!
//! * an eager transaction's store takes effect at the `TxWrite` event
//!   (in-place update, undo on abort);
//! * a lazy transaction's stores take effect at its `TxCommit` event (the
//!   write buffer merges during commit) — the `lazy` flag of `TxBegin`
//!   selects the interpretation;
//! * reads always take effect at the `TxRead` event.
//!
//! For every line the ops are scanned in effective order and edges are
//! added `earlier -> later` for each conflicting pair (write-write,
//! write-read, read-write), using the standard last-writer /
//! readers-since-last-write construction (linear in ops, yet every
//! pairwise conflict is connected by a path). A cycle in the resulting
//! graph — found with Tarjan's SCC algorithm — means no serial order of
//! the committed transactions explains the observed history: INV-11 fails.
//!
//! Aborted episodes are excluded: their writes were undone (eager) or
//! never merged (lazy), and the runtime shadow oracle (INV-9) separately
//! proves no one observed them. Partial aborts of nested levels emit no
//! trace events, so this oracle sees a nested commit's net effect only —
//! which is exactly the committed history it must serialize.

use std::collections::HashMap;
use suv_trace::{TraceEvent, TraceOutput, TraceRecord};
use suv_types::CoreId;

/// Identity of one committed transaction episode in the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxInfo {
    /// Core that ran the episode.
    pub core: CoreId,
    /// Static transaction site.
    pub site: u32,
    /// Stream index of the episode's `TxCommit` record.
    pub commit_pos: usize,
    /// Ran in lazy mode?
    pub lazy: bool,
}

/// What the serializability oracle found.
#[derive(Debug, Clone, Default)]
pub struct SerialReport {
    /// Committed episodes considered.
    pub committed: usize,
    /// Aborted episodes (excluded from the graph).
    pub aborted: usize,
    /// Distinct conflict edges.
    pub edges: usize,
    /// Events skipped because the ring dropped the stream head and a
    /// core's stream starts mid-transaction.
    pub skipped_preamble: usize,
    /// Each cycle found: the transactions of one non-trivial SCC.
    pub cycles: Vec<Vec<TxInfo>>,
    /// Structural problems in the stream itself (commit without begin, ...).
    pub malformed: Vec<String>,
}

impl SerialReport {
    /// No violations of any kind?
    pub fn ok(&self) -> bool {
        self.cycles.is_empty() && self.malformed.is_empty()
    }

    /// Human-readable violation descriptions (empty when [`Self::ok`]).
    pub fn violations(&self) -> Vec<String> {
        let mut v: Vec<String> = self.malformed.clone();
        for cycle in &self.cycles {
            let members: Vec<String> = cycle
                .iter()
                .map(|t| format!("core{}@site{}(commit@{})", t.core, t.site, t.commit_pos))
                .collect();
            v.push(format!(
                "INV-11: conflict cycle over {} committed transactions: {}",
                cycle.len(),
                members.join(" -> ")
            ));
        }
        v
    }
}

/// An episode being assembled for one core.
struct OpenTx {
    site: u32,
    lazy: bool,
    /// `(line, stream index)` of each read.
    reads: Vec<(u64, usize)>,
    /// `(line, stream index)` of each write; for lazy episodes the index
    /// is rewritten to the commit position when the episode closes.
    writes: Vec<(u64, usize)>,
}

/// One closed, committed episode.
struct ClosedTx {
    info: TxInfo,
    reads: Vec<(u64, usize)>,
    writes: Vec<(u64, usize)>,
}

/// Check the conflict serializability of the committed transactions in a
/// recorded event stream.
pub fn check_serializability(records: &[TraceRecord]) -> SerialReport {
    let mut report = SerialReport::default();
    let mut open: HashMap<CoreId, OpenTx> = HashMap::new();
    // Cores whose first `TxBegin` has not been seen yet: their early
    // events may belong to a transaction whose begin the ring dropped.
    let mut seen_begin: HashMap<CoreId, bool> = HashMap::new();
    let mut closed: Vec<ClosedTx> = Vec::new();

    for (pos, rec) in records.iter().enumerate() {
        let core = rec.core;
        match rec.ev {
            TraceEvent::TxBegin { site, lazy } => {
                seen_begin.insert(core, true);
                if open.remove(&core).is_some() {
                    report.malformed.push(format!(
                        "stream[{pos}]: core {core} begins a transaction while one is open"
                    ));
                }
                open.insert(core, OpenTx { site, lazy, reads: Vec::new(), writes: Vec::new() });
            }
            TraceEvent::TxRead { line } => match open.get_mut(&core) {
                Some(tx) => tx.reads.push((line, pos)),
                None if !seen_begin.get(&core).copied().unwrap_or(false) => {
                    report.skipped_preamble += 1;
                }
                None => report
                    .malformed
                    .push(format!("stream[{pos}]: core {core} tx-read outside a transaction")),
            },
            TraceEvent::TxWrite { line } => match open.get_mut(&core) {
                Some(tx) => tx.writes.push((line, pos)),
                None if !seen_begin.get(&core).copied().unwrap_or(false) => {
                    report.skipped_preamble += 1;
                }
                None => report
                    .malformed
                    .push(format!("stream[{pos}]: core {core} tx-write outside a transaction")),
            },
            TraceEvent::TxCommit { .. } => match open.remove(&core) {
                Some(mut tx) => {
                    if tx.lazy {
                        // Buffered stores became globally visible at the
                        // commit merge, not at the store instruction.
                        for w in &mut tx.writes {
                            w.1 = pos;
                        }
                    }
                    report.committed += 1;
                    closed.push(ClosedTx {
                        info: TxInfo { core, site: tx.site, commit_pos: pos, lazy: tx.lazy },
                        reads: tx.reads,
                        writes: tx.writes,
                    });
                }
                None if !seen_begin.get(&core).copied().unwrap_or(false) => {
                    report.skipped_preamble += 1;
                }
                None => report
                    .malformed
                    .push(format!("stream[{pos}]: core {core} commit without a begin")),
            },
            TraceEvent::TxAbort { .. } => match open.remove(&core) {
                Some(_) => report.aborted += 1,
                None if !seen_begin.get(&core).copied().unwrap_or(false) => {
                    report.skipped_preamble += 1;
                }
                None => report
                    .malformed
                    .push(format!("stream[{pos}]: core {core} abort without a begin")),
            },
            _ => {}
        }
    }
    // Episodes still open at stream end never committed; they constrain
    // nothing.

    let edges = build_conflict_edges(&closed);
    report.edges = edges.len();
    for scc in tarjan_sccs(closed.len(), &edges) {
        if scc.len() > 1 {
            let mut members: Vec<TxInfo> = scc.iter().map(|&i| closed[i].info).collect();
            members.sort_by_key(|t| t.commit_pos);
            report.cycles.push(members);
        }
    }
    report
}

/// [`check_serializability`] over a finished trace, refusing truncated
/// streams where mid-transaction drops could hide conflicts.
pub fn check_trace(out: &TraceOutput) -> SerialReport {
    let mut report = check_serializability(&out.records);
    if out.dropped > 0 {
        report.malformed.push(format!(
            "trace ring dropped {} of {} events; verdict covers the retained window only",
            out.dropped, out.events
        ));
    }
    report
}

/// One memory operation attributed to a committed transaction.
#[derive(Debug, Clone, Copy)]
struct Op {
    pos: usize,
    tx: usize,
    is_write: bool,
}

/// Build the conflict edges `(earlier tx, later tx)` across all lines.
fn build_conflict_edges(closed: &[ClosedTx]) -> Vec<(usize, usize)> {
    let mut by_line: HashMap<u64, Vec<Op>> = HashMap::new();
    for (tx, c) in closed.iter().enumerate() {
        for &(line, pos) in &c.reads {
            by_line.entry(line).or_default().push(Op { pos, tx, is_write: false });
        }
        for &(line, pos) in &c.writes {
            by_line.entry(line).or_default().push(Op { pos, tx, is_write: true });
        }
    }
    let mut edges = std::collections::HashSet::new();
    for ops in by_line.values_mut() {
        // Lazy writes share their commit's position; break the tie by
        // putting writes after reads at the same position (the merge
        // happens at the end of the commit window).
        ops.sort_by_key(|o| (o.pos, o.is_write));
        let mut last_writer: Option<usize> = None;
        let mut readers_since: Vec<usize> = Vec::new();
        for op in ops.iter() {
            if op.is_write {
                if let Some(w) = last_writer {
                    if w != op.tx {
                        edges.insert((w, op.tx));
                    }
                }
                for &r in &readers_since {
                    if r != op.tx {
                        edges.insert((r, op.tx));
                    }
                }
                readers_since.clear();
                last_writer = Some(op.tx);
            } else {
                if let Some(w) = last_writer {
                    if w != op.tx {
                        edges.insert((w, op.tx));
                    }
                }
                if !readers_since.contains(&op.tx) {
                    readers_since.push(op.tx);
                }
            }
        }
    }
    edges.into_iter().collect()
}

/// Iterative Tarjan strongly-connected components. Returns every SCC;
/// callers filter for the non-trivial ones. Iterative because committed
/// transaction counts reach the tens of thousands and a recursive DFS
/// would exhaust the stack in debug builds.
fn tarjan_sccs(n: usize, edges: &[(usize, usize)]) -> Vec<Vec<usize>> {
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &(a, b) in edges {
        adj[a].push(b);
    }

    const UNSET: usize = usize::MAX;
    let mut index = vec![UNSET; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs: Vec<Vec<usize>> = Vec::new();
    // Explicit DFS frames: (node, next child offset).
    let mut frames: Vec<(usize, usize)> = Vec::new();

    for root in 0..n {
        if index[root] != UNSET {
            continue;
        }
        frames.push((root, 0));
        while let Some(&(v, ci)) = frames.last() {
            if ci == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(&w) = adj[v].get(ci) {
                frames.last_mut().expect("frame present").1 += 1;
                if index[w] == UNSET {
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                // v is finished.
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut scc = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w] = false;
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    sccs.push(scc);
                }
            }
        }
    }
    sccs
}

#[cfg(test)]
mod tests {
    use super::*;
    use suv_trace::{ConflictDir, FallbackAbortReason, TraceEvent as E};

    fn rec(t: u64, core: CoreId, ev: E) -> TraceRecord {
        TraceRecord { t, core, ev }
    }

    fn begin(core: CoreId) -> TraceRecord {
        rec(0, core, E::TxBegin { site: core as u32, lazy: false })
    }

    #[test]
    fn serial_history_is_clean() {
        // T0 then T1, both touching line 0x40: a serial history.
        let trace = vec![
            begin(0),
            rec(1, 0, E::TxRead { line: 0x40 }),
            rec(2, 0, E::TxWrite { line: 0x40 }),
            rec(3, 0, E::TxCommit { window: 1, committing: 0 }),
            begin(1),
            rec(5, 1, E::TxRead { line: 0x40 }),
            rec(6, 1, E::TxWrite { line: 0x40 }),
            rec(7, 1, E::TxCommit { window: 1, committing: 0 }),
        ];
        let r = check_serializability(&trace);
        assert!(r.ok(), "{:?}", r.violations());
        assert_eq!(r.committed, 2);
        assert_eq!(r.edges, 1, "one direction only: T0 -> T1");
    }

    #[test]
    fn write_skew_cycle_is_flagged() {
        // Classic write skew: T0 reads A writes B, T1 reads B writes A,
        // fully interleaved. r0(A) r1(B) w0(B) w1(A) c0 c1:
        //   T0 -> T1 on A (r0 before w1), T1 -> T0 on B (r1 before w0).
        let trace = vec![
            begin(0),
            begin(1),
            rec(1, 0, E::TxRead { line: 0xA0 }),
            rec(2, 1, E::TxRead { line: 0xB0 }),
            rec(3, 0, E::TxWrite { line: 0xB0 }),
            rec(4, 1, E::TxWrite { line: 0xA0 }),
            rec(5, 0, E::TxCommit { window: 1, committing: 0 }),
            rec(6, 1, E::TxCommit { window: 1, committing: 0 }),
        ];
        let r = check_serializability(&trace);
        assert!(!r.ok());
        assert_eq!(r.cycles.len(), 1);
        assert_eq!(r.cycles[0].len(), 2);
        assert!(r.violations()[0].contains("INV-11"));
    }

    #[test]
    fn aborted_transactions_constrain_nothing() {
        // The interleaving above, but T1 aborts: no cycle remains.
        let trace = vec![
            begin(0),
            begin(1),
            rec(1, 0, E::TxRead { line: 0xA0 }),
            rec(2, 1, E::TxRead { line: 0xB0 }),
            rec(3, 0, E::TxWrite { line: 0xB0 }),
            rec(4, 1, E::TxWrite { line: 0xA0 }),
            rec(5, 0, E::TxCommit { window: 1, committing: 0 }),
            rec(6, 1, E::TxAbort { window: 1 }),
        ];
        let r = check_serializability(&trace);
        assert!(r.ok(), "{:?}", r.violations());
        assert_eq!(r.committed, 1);
        assert_eq!(r.aborted, 1);
    }

    #[test]
    fn lazy_writes_take_effect_at_commit() {
        // Lazy T1's store to A is buffered until commit, which happens
        // *after* T0 commits — so the apparent interleaving is harmless:
        // T0 -> T1 on both lines, no cycle.
        let trace = vec![
            begin(0),
            rec(0, 1, E::TxBegin { site: 1, lazy: true }),
            rec(1, 1, E::TxWrite { line: 0xA0 }), // buffered
            rec(2, 0, E::TxRead { line: 0xA0 }),
            rec(3, 0, E::TxWrite { line: 0xB0 }),
            rec(4, 0, E::TxCommit { window: 1, committing: 0 }),
            rec(5, 1, E::TxRead { line: 0xB0 }),
            rec(6, 1, E::TxCommit { window: 2, committing: 2 }),
        ];
        let r = check_serializability(&trace);
        assert!(r.ok(), "{:?}", r.violations());
        // Same stream read eagerly *would* cycle (w1(A) precedes r0(A)).
        let eager: Vec<TraceRecord> = trace
            .iter()
            .map(|r| match r.ev {
                E::TxBegin { site, .. } => rec(r.t, r.core, E::TxBegin { site, lazy: false }),
                ev => rec(r.t, r.core, ev),
            })
            .collect();
        assert!(!check_serializability(&eager).ok());
    }

    #[test]
    fn mixed_hw_sw_history_is_clean() {
        // Core 0 runs an eager hardware transaction; core 1 runs a
        // software-fallback episode. The machine announces fallback
        // episodes as lazy (`TxBegin { lazy: true }`) because their
        // redo-log writes publish at the commit instant, and brackets
        // them with the fallback lifecycle events, which the oracle must
        // ignore. Interleaving: SW buffers a write to A while HW reads A
        // and writes B in place — harmless, since the SW write only
        // lands after HW committed.
        let trace = vec![
            rec(0, 1, E::FallbackBegin { attempt: 1 }),
            rec(0, 1, E::TxBegin { site: 9, lazy: true }),
            begin(0),
            rec(1, 1, E::TxWrite { line: 0xA0 }), // buffered in the redo log
            rec(2, 0, E::TxRead { line: 0xA0 }),
            rec(3, 0, E::TxWrite { line: 0xB0 }),
            rec(4, 0, E::TxCommit { window: 1, committing: 0 }),
            rec(5, 1, E::TxRead { line: 0xB0 }),
            rec(6, 1, E::HwSwConflict { line: 0xA0, dir: ConflictDir::SwLockBlocksHw }),
            rec(7, 1, E::FallbackCommit { writes: 1 }),
            rec(7, 1, E::TxCommit { window: 2, committing: 2 }),
        ];
        let r = check_serializability(&trace);
        assert!(r.ok(), "{:?}", r.violations());
        assert_eq!(r.committed, 2);
    }

    #[test]
    fn mixed_hw_sw_cycle_is_flagged() {
        // The history a skipped software validation would produce: the
        // software episode reads A before the hardware transaction
        // commits a write to A, then publishes its own write to B that
        // the hardware transaction already read. SW -> HW on A, HW -> SW
        // on B: a cycle over a mixed hardware/software pair.
        let trace = vec![
            rec(0, 1, E::TxBegin { site: 9, lazy: true }),
            begin(0),
            rec(1, 1, E::TxRead { line: 0xA0 }),
            rec(2, 0, E::TxRead { line: 0xB0 }),
            rec(3, 0, E::TxWrite { line: 0xA0 }),
            rec(4, 0, E::TxCommit { window: 1, committing: 0 }),
            rec(5, 1, E::TxWrite { line: 0xB0 }),
            rec(6, 1, E::FallbackCommit { writes: 1 }),
            rec(6, 1, E::TxCommit { window: 2, committing: 2 }),
        ];
        let r = check_serializability(&trace);
        assert!(!r.ok());
        assert_eq!(r.cycles.len(), 1);
        assert!(r.violations()[0].contains("INV-11"));
    }

    #[test]
    fn aborted_sw_episodes_constrain_nothing() {
        // Same shape as the cycle above, but the software episode fails
        // validation and aborts: only the hardware commit remains.
        let trace = vec![
            rec(0, 1, E::TxBegin { site: 9, lazy: true }),
            begin(0),
            rec(1, 1, E::TxRead { line: 0xA0 }),
            rec(2, 0, E::TxRead { line: 0xB0 }),
            rec(3, 0, E::TxWrite { line: 0xA0 }),
            rec(4, 0, E::TxCommit { window: 1, committing: 0 }),
            rec(5, 1, E::TxWrite { line: 0xB0 }),
            rec(6, 1, E::FallbackAbort { reason: FallbackAbortReason::ValidationFailed }),
            rec(6, 1, E::TxAbort { window: 1 }),
        ];
        let r = check_serializability(&trace);
        assert!(r.ok(), "{:?}", r.violations());
        assert_eq!(r.committed, 1);
        assert_eq!(r.aborted, 1);
    }

    #[test]
    fn three_party_cycle() {
        // T0 -> T1 -> T2 -> T0 via three lines.
        let trace = vec![
            begin(0),
            begin(1),
            begin(2),
            rec(1, 0, E::TxRead { line: 0x100 }),
            rec(2, 1, E::TxWrite { line: 0x100 }),
            rec(3, 1, E::TxRead { line: 0x200 }),
            rec(4, 2, E::TxWrite { line: 0x200 }),
            rec(5, 2, E::TxRead { line: 0x300 }),
            rec(6, 0, E::TxWrite { line: 0x300 }),
            rec(7, 0, E::TxCommit { window: 1, committing: 0 }),
            rec(8, 1, E::TxCommit { window: 1, committing: 0 }),
            rec(9, 2, E::TxCommit { window: 1, committing: 0 }),
        ];
        let r = check_serializability(&trace);
        assert_eq!(r.cycles.len(), 1);
        assert_eq!(r.cycles[0].len(), 3);
    }

    #[test]
    fn truncated_stream_head_is_tolerated() {
        // The ring dropped core 0's TxBegin: its orphan events are skipped,
        // not reported as malformed.
        let trace = vec![
            rec(1, 0, E::TxRead { line: 0x40 }),
            rec(2, 0, E::TxCommit { window: 1, committing: 0 }),
            begin(0),
            rec(4, 0, E::TxWrite { line: 0x40 }),
            rec(5, 0, E::TxCommit { window: 1, committing: 0 }),
        ];
        let r = check_serializability(&trace);
        assert!(r.ok(), "{:?}", r.violations());
        assert_eq!(r.skipped_preamble, 2);
        assert_eq!(r.committed, 1);
    }

    #[test]
    fn malformed_streams_are_reported() {
        let trace = vec![
            begin(0),
            begin(0), // begin while open
            rec(2, 0, E::TxCommit { window: 1, committing: 0 }),
            rec(3, 0, E::TxCommit { window: 1, committing: 0 }), // commit w/o begin
        ];
        let r = check_serializability(&trace);
        assert!(!r.ok());
        assert_eq!(r.malformed.len(), 2);
    }
}
