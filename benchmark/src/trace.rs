//! Harness-side spans: recorded around calls into each layer's public
//! functions, held in memory, written out as a Chrome trace at the end.

use std::fmt::Write;
use std::time::Instant;

use crate::spec::{Workload, WORKLOADS};

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    /// The span that caused this one; `None` for a statement's root.
    pub parent: Option<u32>,
    /// Statement index: the identifier all spans of one statement share.
    pub stmt: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, parent: Option<u32>, stmt: u32, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            stmt,
            name,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    pub fn end(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Runs `f` under a child span of `parent`.
    pub fn span<R>(
        &mut self,
        parent: u32,
        stmt: u32,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(Some(parent), stmt, name);
        let out = f();
        self.end(id);
        out
    }
}

/// Each span's self time: its duration minus the part of it its child
/// spans cover (children of one parent run one after another here, so
/// that part is the sum of their durations). Indexed by span id.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.dur_ns());
        }
    }
    own
}

const CHROME_HEAD: &str = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
const CHROME_TAIL: &str = "\n]}\n";

/// One workload's spans in Chrome trace-event format (complete `X`
/// events, microsecond timestamps). The workload is one process in the
/// viewer, numbered by its place among the workloads, so that the traces
/// of several join into one file ([`join_chrome_traces`]).
pub fn chrome_trace(w: Workload, spans: &[Span]) -> String {
    let pid = WORKLOADS
        .iter()
        .position(|x| *x == w)
        .expect("every workload is listed");
    let mut out = format!(
        "{CHROME_HEAD}{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"name\":\"{}\"}}}}",
        w.name()
    );
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        write!(
            out,
            ",\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":{pid},\"tid\":0,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{parent},\"stmt\":{}}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.id,
            s.stmt
        )
        .expect("writing to a String cannot fail");
    }
    out + CHROME_TAIL
}

/// Several [`chrome_trace`] files as one. `None` if one of them is not
/// such a file.
pub fn join_chrome_traces(traces: &[String]) -> Option<String> {
    let events: Option<Vec<&str>> = traces
        .iter()
        .map(|t| t.strip_prefix(CHROME_HEAD)?.strip_suffix(CHROME_TAIL))
        .collect();
    Some(format!("{CHROME_HEAD}{}{CHROME_TAIL}", events?.join(",\n")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            stmt: 0,
            name: "x",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 40, 90),
            span(3, Some(2), 50, 60),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 40, 10]);
        // The self times of a tree add up to its root's duration.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn tracer_nests_and_orders_spans() {
        let mut tr = Tracer::new();
        let root = tr.begin(None, 7, "stmt");
        let v = tr.span(root, 7, "lang.parse", || 42);
        tr.end(root);
        assert_eq!(v, 42);
        let (r, c) = (&tr.spans[0], &tr.spans[1]);
        assert_eq!((c.parent, c.stmt, c.name), (Some(0), 7, "lang.parse"));
        assert!(r.start_ns <= c.start_ns && c.end_ns <= r.end_ns);
    }

    #[test]
    fn chrome_traces_join_into_one_file() {
        let one = |w| chrome_trace(w, &[span(0, None, 1_000, 3_500)]);
        let joined =
            join_chrome_traces(&[one(Workload::ScanCold), one(Workload::DriftChurn)]).unwrap();
        let parsed = crate::json::Json::parse(&joined).unwrap();
        let Some(crate::json::Json::Arr(events)) = parsed.get("traceEvents") else {
            panic!("no traceEvents in {joined}");
        };
        let pids: Vec<_> = events.iter().map(|e| e.get("pid").cloned()).collect();
        let pid = |n| Some(crate::json::Json::Int(n));
        assert_eq!(pids, [pid(0), pid(0), pid(2), pid(2)]);
        assert_eq!(events[1].get("dur").and_then(|d| d.as_f64()), Some(2.5));
        assert_eq!(join_chrome_traces(&["[]".to_string()]), None);
    }
}
