//! Spans recorded by the harness around its calls into each layer. They stay
//! in memory and are written to `bench/out/trace_<workload>.jsonl` when the
//! run ends; spans inside the server are a later issue.

use std::io::{self, BufWriter, Write};
use std::path::Path;

use crate::stats::Hist;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// Spans of one request share this identifier (its stream position).
    pub request: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Default)]
pub struct Trace {
    pub spans: Vec<Span>,
}

impl Trace {
    /// Opens a span and returns its index; close it with [`Trace::end`].
    pub fn begin(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        request: u32,
        now_ns: u64,
    ) -> u32 {
        self.spans.push(Span {
            name,
            parent,
            request,
            start_ns: now_ns,
            end_ns: now_ns,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn end(&mut self, span: u32, now_ns: u64) {
        self.spans[span as usize].end_ns = now_ns;
    }

    /// Each span's self time: its duration minus the part of it that its
    /// child spans cover.
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                let outer = &self.spans[parent as usize];
                let covered = span
                    .end_ns
                    .min(outer.end_ns)
                    .saturating_sub(span.start_ns.max(outer.start_ns));
                own[parent as usize] = own[parent as usize].saturating_sub(covered);
            }
        }
        own
    }

    /// Durations of every span called `name` that `keep` accepts.
    pub fn durations(&self, name: &str, mut keep: impl FnMut(&Span) -> bool) -> Hist {
        let mut hist = Hist::new();
        for span in self.spans.iter().filter(|s| s.name == name) {
            if keep(span) {
                hist.record(span.end_ns - span.start_ns);
            }
        }
        hist
    }

    /// Self times of every span called `name` that `keep` accepts.
    pub fn self_durations(&self, name: &str, mut keep: impl FnMut(&Span) -> bool) -> Hist {
        let mut hist = Hist::new();
        for (span, own) in self.spans.iter().zip(self.self_times()) {
            if span.name == name && keep(span) {
                hist.record(own);
            }
        }
        hist
    }

    /// One JSON object per line: `id`, `name`, `parent`, `request`,
    /// `start_ns`, `end_ns`, `self_ns`.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for (id, (span, own)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"request\":{},\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}}}",
                span.name, span.request, span.start_ns, span.end_ns,
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut trace = Trace::default();
        let root = trace.begin("replay", None, 7, 100);
        let decode = trace.begin("proto.decode", Some(root), 7, 110);
        trace.end(decode, 140);
        let txn = trace.begin("store.txn", Some(root), 7, 150);
        let wait = trace.begin("stm_log.append_wait", Some(txn), 7, 160);
        trace.end(wait, 190);
        trace.end(txn, 200);
        trace.end(root, 220);
        // root: 120 long, children cover 30 + 50; txn: 50 long, child 30.
        assert_eq!(trace.self_times(), vec![40, 30, 20, 30]);
        let total: u64 = trace.self_times().iter().sum();
        assert_eq!(
            total, 120,
            "self times of one tree sum to its root's duration"
        );
    }

    #[test]
    fn a_child_is_only_charged_where_it_overlaps_its_parent() {
        let mut trace = Trace::default();
        let root = trace.begin("replay", None, 0, 100);
        let child = trace.begin("client.decode", Some(root), 0, 180);
        trace.end(root, 200);
        trace.end(child, 250);
        assert_eq!(trace.self_times(), vec![80, 70]);
    }

    #[test]
    fn durations_filter_by_name_and_predicate() {
        let mut trace = Trace::default();
        for request in 0..10u32 {
            let span = trace.begin("store.txn", None, request, 0);
            trace.end(span, u64::from(request) * 10);
        }
        let even = trace.durations("store.txn", |s| s.request % 2 == 0);
        assert_eq!(even.count(), 5);
        assert_eq!(trace.durations("nothing", |_| true).count(), 0);
    }
}
