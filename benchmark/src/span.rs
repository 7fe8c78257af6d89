//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Each load thread owns one preallocated [`SpanBuf`]; nothing is
//! shared or written out while a run measures. A span names its
//! parent by index and carries the id of the request it belongs to.
//! A span's self time is its duration minus the part of it its direct
//! children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// "No parent" marker of [`Span::parent`].
pub const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the same buffer, or [`ROOT`].
    pub parent: u32,
    /// Request id shared by every span of one request.
    pub req: u64,
}

/// A fixed-capacity span buffer; spans past the capacity are counted,
/// not stored.
#[derive(Debug)]
pub struct SpanBuf {
    origin: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl SpanBuf {
    pub fn new(origin: Instant, capacity: usize) -> SpanBuf {
        SpanBuf {
            origin,
            spans: Vec::with_capacity(capacity),
            dropped: 0,
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its index (usable as a
    /// parent), or [`ROOT`] when the buffer is full.
    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u32,
        req: u64,
    ) -> u32 {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return ROOT;
        }
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            req,
        };
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    /// Opens a span whose end is not known yet; [`SpanBuf::close`] it.
    pub fn open(&mut self, name: &'static str, start: Instant, req: u64) -> u32 {
        self.push(name, start, start, ROOT, req)
    }

    pub fn close(&mut self, index: u32, end: Instant) {
        let end_ns = self.ns(end);
        if let Some(span) = self.spans.get_mut(index as usize) {
            span.end_ns = end_ns;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Self time of every span: duration minus the union of its direct
/// children's intervals, clipped to the span.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(list) = children.get_mut(span.parent as usize) {
            list.push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (span.end_ns - span.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Durations and self times of a set of buffers, grouped by span name.
#[derive(Debug, Default)]
pub struct SpanSummary {
    by_name: BTreeMap<&'static str, (Vec<u64>, Vec<u64>)>,
}

impl SpanSummary {
    pub fn of<'a>(bufs: impl IntoIterator<Item = &'a SpanBuf>) -> SpanSummary {
        let mut summary = SpanSummary::default();
        for buf in bufs {
            let selfs = self_times(buf.spans());
            for (span, self_ns) in buf.spans().iter().zip(selfs) {
                let entry = summary.by_name.entry(span.name).or_default();
                entry.0.push(span.end_ns - span.start_ns);
                entry.1.push(self_ns);
            }
        }
        summary
    }

    /// Median duration of the spans called `name`; 0 when none were
    /// recorded.
    pub fn median_ns(&self, name: &str) -> f64 {
        self.by_name
            .get(name)
            .map_or(0.0, |(durations, _)| crate::stats::median_u64(durations))
    }

    /// Median self time of the spans called `name`; 0 when none were
    /// recorded.
    pub fn median_self_ns(&self, name: &str) -> f64 {
        self.by_name
            .get(name)
            .map_or(0.0, |(_, selfs)| crate::stats::median_u64(selfs))
    }

    pub fn count(&self, name: &str) -> usize {
        self.by_name.get(name).map_or(0, |(d, _)| d.len())
    }
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto) of one
/// buffer per thread: complete (`X`) events in microseconds, the
/// request id and parent index under `args`.
pub fn chrome_trace(bufs: &[&SpanBuf]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for (tid, buf) in bufs.iter().enumerate() {
        for (index, span) in buf.spans().iter().enumerate() {
            if !first {
                out.push(',');
            }
            first = false;
            let parent = if span.parent == ROOT {
                -1
            } else {
                i64::from(span.parent)
            };
            write!(
                out,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"req\":{},\"id\":{index},\"parent\":{parent}}}}}",
                span.name,
                span.start_ns as f64 / 1e3,
                (span.end_ns - span.start_ns) as f64 / 1e3,
                span.req,
            )
            .expect("writing to a String cannot fail");
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn span(start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_adjacent_children() {
        let spans = [span(0, 100, ROOT), span(10, 30, 0), span(30, 60, 0)];
        assert_eq!(self_times(&spans), vec![50, 20, 30]);
    }

    #[test]
    fn self_time_subtracts_only_direct_children() {
        // The grandchild is inside the child and is taken off the
        // child, not off the root a second time.
        let spans = [span(0, 100, ROOT), span(20, 80, 0), span(30, 40, 1)];
        assert_eq!(self_times(&spans), vec![40, 50, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        let spans = [
            span(100, 200, ROOT),
            span(110, 150, 0),
            span(140, 170, 0),
            span(190, 260, 0),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn a_full_buffer_counts_what_it_drops() {
        let origin = Instant::now();
        let mut buf = SpanBuf::new(origin, 2);
        let later = origin + Duration::from_nanos(500);
        let root = buf.open("root", origin, 9);
        assert_eq!(buf.push("child", origin, later, root, 9), 1);
        assert_eq!(buf.push("child", origin, later, root, 9), ROOT);
        buf.close(root, later);
        assert_eq!(buf.dropped(), 1);
        assert_eq!(buf.spans()[0].end_ns, 500);
        let summary = SpanSummary::of([&buf]);
        assert_eq!(summary.median_ns("root"), 500.0);
        assert_eq!(summary.median_self_ns("root"), 0.0);
        assert_eq!(summary.count("child"), 1);
        assert_eq!(summary.median_ns("absent"), 0.0);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_one_event_per_span() {
        let origin = Instant::now();
        let mut buf = SpanBuf::new(origin, 4);
        let root = buf.open("txn", origin, 3);
        buf.push(
            "client.send",
            origin,
            origin + Duration::from_micros(2),
            root,
            3,
        );
        buf.close(root, origin + Duration::from_micros(5));
        let doc = sitm_obs::Json::parse(&chrome_trace(&[&buf])).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("dur").unwrap().as_f64(), Some(2.0));
        let args = events[1].get("args").unwrap();
        assert_eq!(args.get("parent").unwrap().as_f64(), Some(0.0));
    }
}
