//! The benchmark's own spans. They are recorded around the calls into
//! each layer from this crate's files — nothing inside the simulator —
//! kept in memory during the traced pass and written out once at exit.

use std::time::Instant;
use suv::trace::Json;

/// Index of a span in its [`SpanLog`].
pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    /// What the span is about, where the name alone does not say (the
    /// cell key on `cell` spans).
    pub label: Option<String>,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// How many events the span stands for: 1 for an ordinary span; the
    /// number of scheduling quanta for the aggregated `run.machine` /
    /// `run.dispatch` children (a cell has up to 2.6 M quanta, so they
    /// are summed by the host probe, not recorded one by one).
    pub count: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// All spans of one traced pass, timestamps relative to `epoch`.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog { epoch: Instant::now(), spans: Vec::new() }
    }

    /// Nanoseconds from the log's epoch to `t` (0 for an earlier `t`).
    fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// An ordinary span between two clock readings.
    pub fn push_between(
        &mut self,
        name: &str,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        self.push(name, parent, self.at(start), self.at(end), 1)
    }

    pub fn push(
        &mut self,
        name: &str,
        parent: Option<SpanId>,
        start_ns: u64,
        end_ns: u64,
        count: u64,
    ) -> SpanId {
        assert!(end_ns >= start_ns, "span {name} ends before it starts");
        self.spans.push(Span {
            name: name.to_string(),
            label: None,
            parent,
            start_ns,
            end_ns,
            count,
        });
        self.spans.len() - 1
    }

    pub fn set_label(&mut self, id: SpanId, label: &str) {
        self.spans[id].label = Some(label.to_string());
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's duration minus the part its direct children cover.
    pub fn self_ns(&self, id: SpanId) -> u64 {
        let children: u64 =
            self.spans.iter().filter(|s| s.parent == Some(id)).map(Span::duration_ns).sum();
        self.spans[id].duration_ns().saturating_sub(children)
    }

    /// Total self time per span name, in first-seen order.
    pub fn self_ns_by_name(&self) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = Vec::new();
        for (id, s) in self.spans.iter().enumerate() {
            let ns = self.self_ns(id);
            match out.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, total)) => *total += ns,
                None => out.push((s.name.clone(), ns)),
            }
        }
        out
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::obj([
                        ("id", Json::U64(id as u64)),
                        ("parent", s.parent.map_or(Json::Null, |p| Json::U64(p as u64))),
                        ("name", Json::from(s.name.as_str())),
                        ("label", s.label.as_deref().map_or(Json::Null, Json::from)),
                        ("start_ns", Json::U64(s.start_ns)),
                        ("end_ns", Json::U64(s.end_ns)),
                        ("self_ns", Json::U64(self.self_ns(id))),
                        ("count", Json::U64(s.count)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let mut log = SpanLog::new();
        let cell = log.push("cell", None, 0, 1000, 1);
        let run = log.push("run", Some(cell), 100, 900, 1);
        log.push("setup", Some(cell), 0, 100, 1);
        let machine = log.push("run.machine", Some(run), 100, 600, 40);
        log.push("run.dispatch", Some(run), 600, 800, 40);
        // cell: 1000 - (800 + 100); grandchildren are not subtracted twice.
        assert_eq!(log.self_ns(cell), 100);
        // run: 800 - (500 + 200).
        assert_eq!(log.self_ns(run), 100);
        assert_eq!(log.self_ns(machine), 500);
        let by_name = log.self_ns_by_name();
        assert_eq!(by_name[0], ("cell".to_string(), 100));
        assert_eq!(by_name.iter().map(|(_, ns)| ns).sum::<u64>(), 1000, "self times partition");
    }

    #[test]
    fn children_longer_than_parent_saturate_at_zero() {
        // Aggregated children are sums of clock readings and can overshoot
        // the parent by clock granularity.
        let mut log = SpanLog::new();
        let run = log.push("run", None, 0, 100, 1);
        log.push("run.machine", Some(run), 0, 101, 3);
        assert_eq!(log.self_ns(run), 0);
    }

    #[test]
    fn json_carries_parent_links_and_counts() {
        let mut log = SpanLog::new();
        let cell = log.push("cell", None, 5, 50, 1);
        log.set_label(cell, "bayes/SUV-TM/16c");
        log.push("run", Some(cell), 10, 40, 7);
        let text = log.to_json().render();
        assert!(text.contains("\"label\":\"bayes/SUV-TM/16c\""), "{text}");
        assert!(text.contains("\"label\":null"), "{text}");
        assert!(text.contains("\"parent\":null"), "{text}");
        assert!(text.contains("\"parent\":0"), "{text}");
        assert!(text.contains("\"count\":7"), "{text}");
        assert!(text.contains("\"self_ns\":15"), "{text}");
    }
}
