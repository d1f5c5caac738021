//! Nested timing spans with wall-clock and simulated-cost attribution
//! plus deterministic distributed-trace identity.
//!
//! [`SpanGuard`]s form a per-recorder, **per-thread** stack: a span
//! opened while another guard is live on the same thread becomes its
//! child, so instrumented layers compose into a tree (`bench.query` →
//! `core.pipeline.process` → `query.executor.scan` →
//! `storage.node.scan`) without any explicit plumbing between them.
//! Where work crosses a simulated node boundary (executor → storage
//! node, coordinator → constituent system) — or a real thread boundary
//! (a worker reporting under its coordinator's span) — the callee
//! opens its span with an explicit [`TraceContext`] parent via
//! [`crate::TelemetrySink::span_child_of`], so the tree stays coherent
//! even when no ambient stack could attribute it: a span finished
//! off-thread attaches to its declared parent wherever that parent's
//! thread is, never to an unrelated span that happens to be open
//! elsewhere. A coordinator holding several sibling spans open at once
//! (the executor's queries of one batch) brings each back to the top
//! with [`SpanGuard::resume`] before it records under it. Every
//! completed span carries `trace_id` / `span_id`
//! / `parent_span_id` (deterministic; no wall clock or RNG) and
//! free-form tags for per-hop attribution (which storage node, which
//! branch the agent took). Completed root trees are kept up to a bound;
//! beyond it only a drop counter grows, keeping memory flat over long
//! runs. Span names and tag keys stay the caller's `&'static str`s
//! until a snapshot turns the kept trees into [`SpanNode`]s.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use serde::Serialize;

use crate::event::FieldValue;
use crate::trace::{trace_id_for_query, TraceContext};
use crate::Recorder;

/// Maximum completed root spans retained in a snapshot.
const MAX_ROOT_SPANS: usize = 128;

/// Salt mixed into synthesized trace ids for spans opened outside any
/// query (keeps them disjoint from real query trace ids).
const ORPHAN_TRACE_SALT: u64 = 0x5ea0_7e1e_0000_0000;

/// A span as the recorder keeps it, open on a thread's stack or
/// completed in its parent or the root forest; [`Span::snapshot`] makes
/// the [`SpanNode`] a reader sees.
#[derive(Debug)]
struct Span {
    name: &'static str,
    started: Instant,
    /// Set when the span closes.
    wall_us: f64,
    sim_us: f64,
    trace_id: u64,
    span_id: u64,
    parent_span_id: u64,
    tags: Vec<(&'static str, FieldValue)>,
    children: Vec<Span>,
}

impl Span {
    fn snapshot(&self) -> SpanNode {
        SpanNode {
            name: self.name.to_string(),
            trace_id: self.trace_id,
            span_id: self.span_id,
            parent_span_id: self.parent_span_id,
            wall_us: self.wall_us,
            sim_us: self.sim_us,
            tags: self
                .tags
                .iter()
                .map(|(k, v)| ((*k).to_string(), v.clone()))
                .collect(),
            children: self.children.iter().map(Span::snapshot).collect(),
        }
    }
}

/// The ambient open-span stack of one OS thread, keyed by a
/// process-unique thread id (not reused, unlike OS thread ids). A
/// drained stack stays in place and goes to the next thread that opens
/// a span without one, so there are never more stacks than threads that
/// once had spans open at the same time (short-lived pool threads do not
/// accumulate state), and opening a root span allocates no stack.
#[derive(Debug)]
struct ThreadStack {
    tid: u64,
    open: Vec<Span>,
}

#[derive(Debug, Default)]
struct SpanState {
    stacks: Vec<ThreadStack>,
    roots: Vec<Span>,
    dropped_roots: u64,
}

static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD_ID: u64 = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
}

fn current_thread_id() -> u64 {
    THREAD_ID.with(|t| *t)
}

/// Span backend owned by a [`Recorder`].
#[derive(Debug)]
pub(crate) struct SpanRecorder {
    state: Mutex<SpanState>,
    next_span_id: AtomicU64,
}

impl Default for SpanRecorder {
    fn default() -> Self {
        Self {
            state: Mutex::default(),
            next_span_id: AtomicU64::new(1),
        }
    }
}

impl SpanRecorder {
    /// Opens a span. `parent` wins when active; otherwise the span nests
    /// under the top of the calling thread's ambient stack; otherwise it
    /// becomes a root whose trace id derives from `query` (or a salted
    /// span id when no query is active).
    pub(crate) fn enter(
        &self,
        recorder: Arc<Recorder>,
        name: &'static str,
        parent: TraceContext,
        query: Option<u64>,
    ) -> SpanGuard {
        let span_id = self.next_span_id.fetch_add(1, Ordering::Relaxed);
        let tid = current_thread_id();
        let mut state = self.state.lock();
        let own = state.stacks.iter().position(|st| st.tid == tid);
        let k = match own.or_else(|| state.stacks.iter().position(|st| st.open.is_empty())) {
            Some(k) => {
                state.stacks[k].tid = tid;
                k
            }
            None => {
                state.stacks.push(ThreadStack {
                    tid,
                    open: Vec::new(),
                });
                state.stacks.len() - 1
            }
        };
        let (trace_id, parent_span_id) = if parent.is_active() {
            (parent.trace_id, parent.span_id)
        } else {
            match state.stacks[k].open.last() {
                Some(top) => (top.trace_id, top.span_id),
                None => match query {
                    Some(q) => (trace_id_for_query(q), 0),
                    None => (trace_id_for_query(ORPHAN_TRACE_SALT ^ span_id), 0),
                },
            }
        };
        state.stacks[k].open.push(Span {
            name,
            started: Instant::now(),
            wall_us: 0.0,
            sim_us: 0.0,
            trace_id,
            span_id,
            parent_span_id,
            tags: Vec::new(),
            children: Vec::new(),
        });
        SpanGuard {
            recorder: Some(recorder),
            ctx: TraceContext { trace_id, span_id },
        }
    }

    fn find_open_mut(state: &mut SpanState, span_id: u64) -> Option<&mut Span> {
        state
            .stacks
            .iter_mut()
            .flat_map(|st| st.open.iter_mut().rev())
            .find(|s| s.span_id == span_id)
    }

    fn add_sim_us(&self, span_id: u64, us: f64) {
        let mut state = self.state.lock();
        if let Some(span) = Self::find_open_mut(&mut state, span_id) {
            span.sim_us += us;
        }
    }

    fn add_tag(&self, span_id: u64, key: &'static str, value: FieldValue) {
        let mut state = self.state.lock();
        if let Some(span) = Self::find_open_mut(&mut state, span_id) {
            span.tags.push((key, value));
        }
    }

    /// The context of the calling thread's innermost open span, for
    /// stamping events. Spans open on other threads never leak into
    /// this thread's events.
    pub(crate) fn current_ctx(&self) -> TraceContext {
        let tid = current_thread_id();
        let state = self.state.lock();
        state
            .stacks
            .iter()
            .find(|st| st.tid == tid)
            .and_then(|st| st.open.last())
            .map_or(TraceContext::NONE, |top| TraceContext {
                trace_id: top.trace_id,
                span_id: top.span_id,
            })
    }

    /// Moves the open span `span_id` back to the top of the calling
    /// thread's stack (a no-op for a span opened on another thread).
    fn resume(&self, span_id: u64) {
        let tid = current_thread_id();
        let mut state = self.state.lock();
        if let Some(st) = state.stacks.iter_mut().find(|st| st.tid == tid) {
            if let Some(i) = st.open.iter().position(|s| s.span_id == span_id) {
                let span = st.open.remove(i);
                st.open.push(span);
            }
        }
    }

    /// Closes the span with id `span_id`, folding any still-open
    /// descendants above it in its own thread's stack (guards leaked or
    /// dropped out of order) into their parents first. A stale guard
    /// (id already gone) is a no-op. Completed nodes attach to their
    /// declared parent if it is still open — on any thread, so spans
    /// finished off-thread land under the right parent — else to the
    /// owning thread's nearest enclosing span, else the root forest.
    fn exit(&self, span_id: u64) {
        let mut state = self.state.lock();
        let Some(k) = state
            .stacks
            .iter()
            .position(|st| st.open.iter().any(|s| s.span_id == span_id))
        else {
            return;
        };
        loop {
            let mut node = state.stacks[k]
                .open
                .pop()
                .expect("span present by check above");
            let done = node.span_id == span_id;
            node.wall_us = node.started.elapsed().as_secs_f64() * 1e6;
            let declared = state.stacks.iter().enumerate().find_map(|(j, st)| {
                st.open
                    .iter()
                    .rposition(|s| s.span_id == node.parent_span_id)
                    .map(|i| (j, i))
            });
            match declared {
                Some((j, i)) => state.stacks[j].open[i].children.push(node),
                None => match state.stacks[k].open.last_mut() {
                    Some(top) => top.children.push(node),
                    None => {
                        if state.roots.len() < MAX_ROOT_SPANS {
                            state.roots.push(node);
                        } else {
                            state.dropped_roots += 1;
                        }
                    }
                },
            }
            if done {
                break;
            }
        }
    }

    pub(crate) fn snapshot(&self) -> SpanForestSnapshot {
        let state = self.state.lock();
        SpanForestSnapshot {
            roots: state.roots.iter().map(Span::snapshot).collect(),
            open_spans: state.stacks.iter().map(|st| st.open.len() as u64).sum(),
            dropped_roots: state.dropped_roots,
        }
    }
}

/// RAII guard for one span; records on drop. Obtained from
/// [`crate::TelemetrySink::span`] or
/// [`crate::TelemetrySink::span_child_of`].
#[derive(Debug)]
pub struct SpanGuard {
    recorder: Option<Arc<Recorder>>,
    ctx: TraceContext,
}

impl SpanGuard {
    pub(crate) fn noop() -> Self {
        Self {
            recorder: None,
            ctx: TraceContext::NONE,
        }
    }

    /// This span's identity, for handing to child work on other
    /// simulated nodes ([`crate::TelemetrySink::span_child_of`]).
    /// Inactive (all zeros) for a noop guard.
    pub fn ctx(&self) -> TraceContext {
        self.ctx
    }

    /// Makes this span the calling thread's innermost open span again:
    /// a coordinator that opened several sibling spans (each under an
    /// explicit parent) and works through them in opening order resumes
    /// each before it records under it, so ambient children and events
    /// land in the span they belong to and every guard still drops from
    /// the top of the stack.
    pub fn resume(&self) {
        if let Some(r) = &self.recorder {
            r.spans.resume(self.ctx.span_id);
        }
    }

    /// Attributes simulated cost (microseconds of modelled latency) to
    /// this span.
    pub fn record_sim_us(&self, us: f64) {
        if let Some(r) = &self.recorder {
            r.spans.add_sim_us(self.ctx.span_id, us);
        }
    }

    /// Attaches a key/value tag (node id, branch taken, …) to this
    /// span.
    pub fn tag(&self, key: &'static str, value: impl Into<FieldValue>) {
        if let Some(r) = &self.recorder {
            r.spans.add_tag(self.ctx.span_id, key, value.into());
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(r) = self.recorder.take() {
            r.spans.exit(self.ctx.span_id);
        }
    }
}

/// One completed span: a node in the per-query timing tree.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SpanNode {
    pub name: String,
    /// Trace this span belongs to (deterministic per query).
    pub trace_id: u64,
    /// Unique id within the recorder.
    pub span_id: u64,
    /// Id of the parent span (0 = root of its trace).
    pub parent_span_id: u64,
    /// Measured wall-clock duration of the span.
    pub wall_us: f64,
    /// Simulated cost attributed via [`SpanGuard::record_sim_us`]
    /// (excludes children's attributions).
    pub sim_us: f64,
    /// Free-form attribution tags (`node`, `branch`, …).
    pub tags: Vec<(String, FieldValue)>,
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// This span's simulated cost including all descendants.
    pub fn sim_us_total(&self) -> f64 {
        self.sim_us
            + self
                .children
                .iter()
                .map(SpanNode::sim_us_total)
                .sum::<f64>()
    }

    /// Tag value by key, if present.
    pub fn tag(&self, key: &str) -> Option<&FieldValue> {
        self.tags.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Depth-first search for the first descendant (or self) with this
    /// name.
    pub fn find(&self, name: &str) -> Option<&SpanNode> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }
}

/// All completed root span trees plus bookkeeping about what was
/// dropped or still open at snapshot time.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SpanForestSnapshot {
    pub roots: Vec<SpanNode>,
    /// Spans still open when the snapshot was taken (not included in
    /// `roots`).
    pub open_spans: u64,
    /// Completed root trees discarded after the retention bound filled.
    pub dropped_roots: u64,
}

#[cfg(test)]
mod tests {
    use crate::trace::trace_id_for_query;
    use crate::TelemetrySink;

    #[test]
    fn sibling_spans_attach_to_the_same_parent() {
        let sink = TelemetrySink::recording();
        {
            let _root = sink.span("root");
            {
                let _a = sink.span("a");
            }
            {
                let _b = sink.span("b");
            }
        }
        let snap = sink.snapshot().unwrap();
        let root = &snap.spans.roots[0];
        let names: Vec<&str> = root.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
    }

    #[test]
    fn sim_total_rolls_up_descendants() {
        let sink = TelemetrySink::recording();
        {
            let root = sink.span("root");
            root.record_sim_us(1.0);
            let child = sink.span("child");
            child.record_sim_us(2.0);
        }
        let snap = sink.snapshot().unwrap();
        let root = &snap.spans.roots[0];
        assert_eq!(root.sim_us, 1.0);
        assert_eq!(root.sim_us_total(), 3.0);
    }

    #[test]
    fn root_retention_is_bounded() {
        let sink = TelemetrySink::recording();
        for _ in 0..(super::MAX_ROOT_SPANS + 10) {
            let _s = sink.span("q");
        }
        let snap = sink.snapshot().unwrap();
        assert_eq!(snap.spans.roots.len(), super::MAX_ROOT_SPANS);
        assert_eq!(snap.spans.dropped_roots, 10);
    }

    #[test]
    fn out_of_order_drop_folds_children() {
        let sink = TelemetrySink::recording();
        let outer = sink.span("outer");
        let inner = sink.span("inner");
        drop(outer); // inner is folded into outer rather than leaking
        drop(inner); // stale guard: stack already unwound, must not panic
        let snap = sink.snapshot().unwrap();
        assert_eq!(snap.spans.roots.len(), 1);
        assert_eq!(snap.spans.roots[0].children[0].name, "inner");
        assert_eq!(snap.spans.open_spans, 0);
    }

    #[test]
    fn trace_ids_derive_from_the_active_query() {
        let sink = TelemetrySink::recording();
        sink.begin_query(42);
        {
            let root = sink.span("bench.query");
            let child = sink.span("child");
            assert_eq!(root.ctx().trace_id, trace_id_for_query(42));
            assert_eq!(child.ctx().trace_id, root.ctx().trace_id);
            assert_ne!(child.ctx().span_id, root.ctx().span_id);
        }
        let snap = sink.snapshot().unwrap();
        let root = &snap.spans.roots[0];
        assert_eq!(root.trace_id, trace_id_for_query(42));
        assert_eq!(root.parent_span_id, 0);
        assert_eq!(root.children[0].parent_span_id, root.span_id);
        assert_eq!(root.children[0].trace_id, root.trace_id);
    }

    #[test]
    fn explicit_child_of_overrides_the_ambient_stack() {
        let sink = TelemetrySink::recording();
        {
            let parent = sink.span("scatter");
            let parent_ctx = parent.ctx();
            {
                // An intervening span is live, but the child declares
                // scatter as its parent — like a cross-node RPC would.
                let _other = sink.span("unrelated");
                let child = sink.span_child_of(&parent_ctx, "node.work");
                assert_eq!(child.ctx().trace_id, parent_ctx.trace_id);
            }
        }
        let snap = sink.snapshot().unwrap();
        let parent = &snap.spans.roots[0];
        assert_eq!(parent.name, "scatter");
        let node = parent.find("node.work").expect("child under scatter");
        assert_eq!(node.parent_span_id, parent.span_id);
        // "unrelated" must not have adopted node.work.
        let unrelated = parent.find("unrelated").unwrap();
        assert!(unrelated.children.is_empty());
    }

    #[test]
    fn resumed_siblings_close_in_opening_order() {
        let sink = TelemetrySink::recording();
        {
            let batch = sink.span("batch");
            let siblings: Vec<_> = ["a", "b", "c"]
                .iter()
                .map(|name| sink.span_child_of(&batch.ctx(), name))
                .collect();
            for sibling in siblings {
                sibling.resume();
                let _child = sink.span("work");
                sink.event("checkpoint", &[]);
            }
        }
        let snap = sink.snapshot().unwrap();
        let batch = &snap.spans.roots[0];
        let names: Vec<&str> = batch.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["a", "b", "c"]);
        for (sibling, event) in batch.children.iter().zip(&snap.events.events) {
            assert_eq!(sibling.children.len(), 1, "each keeps its own child");
            assert_eq!(event.span_id, sibling.children[0].span_id);
        }
        assert_eq!(snap.spans.open_spans, 0);
    }

    #[test]
    fn tags_survive_into_the_snapshot() {
        let sink = TelemetrySink::recording();
        {
            let s = sink.span("storage.node.scan");
            s.tag("node", 3u64);
            s.tag("branch", "exact");
        }
        let snap = sink.snapshot().unwrap();
        let node = &snap.spans.roots[0];
        assert_eq!(node.tag("node"), Some(&crate::FieldValue::U64(3)));
        assert_eq!(
            node.tag("branch"),
            Some(&crate::FieldValue::Str("exact".into()))
        );
    }

    #[test]
    fn spans_finished_off_thread_land_under_their_declared_parent() {
        let sink = TelemetrySink::recording();
        {
            let scatter = sink.span("scatter");
            let scatter_ctx = scatter.ctx();
            std::thread::scope(|s| {
                for node in 0..3u64 {
                    let sink = &sink;
                    s.spawn(move || {
                        let w = sink.span_child_of(&scatter_ctx, "node.work");
                        w.tag("node", node);
                    });
                }
            });
            // A worker's span must not have adopted the coordinator's
            // ambient stack, nor polluted this thread's event context.
            sink.event("coordinator.checkpoint", &[]);
            let snap = sink.snapshot().unwrap();
            let ev = snap
                .events
                .events
                .iter()
                .find(|e| e.name == "coordinator.checkpoint")
                .unwrap();
            assert_eq!(ev.span_id, scatter_ctx.span_id);
        }
        let snap = sink.snapshot().unwrap();
        assert_eq!(snap.spans.roots.len(), 1);
        let scatter = &snap.spans.roots[0];
        assert_eq!(scatter.name, "scatter");
        assert_eq!(scatter.children.len(), 3);
        for child in &scatter.children {
            assert_eq!(child.name, "node.work");
            assert_eq!(child.parent_span_id, scatter.span_id);
            assert_eq!(child.trace_id, scatter.trace_id);
        }
        assert_eq!(snap.spans.open_spans, 0);
    }

    #[test]
    fn concurrent_roots_on_separate_threads_stay_disjoint_trees() {
        let sink = TelemetrySink::recording();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let sink = &sink;
                s.spawn(move || {
                    let root = sink.span("worker.root");
                    let _child = sink.span("worker.child");
                    root.record_sim_us(1.0);
                });
            }
        });
        let snap = sink.snapshot().unwrap();
        assert_eq!(snap.spans.roots.len(), 4);
        for root in &snap.spans.roots {
            assert_eq!(root.name, "worker.root");
            assert_eq!(root.children.len(), 1, "each tree keeps its own child");
            assert_eq!(root.children[0].name, "worker.child");
            assert_eq!(root.children[0].trace_id, root.trace_id);
        }
        assert_eq!(snap.spans.open_spans, 0);
    }

    #[test]
    fn orphan_spans_get_distinct_nonzero_trace_ids() {
        let sink = TelemetrySink::recording();
        let a_id;
        let b_id;
        {
            let a = sink.span("a");
            a_id = a.ctx().trace_id;
        }
        {
            let b = sink.span("b");
            b_id = b.ctx().trace_id;
        }
        assert_ne!(a_id, 0);
        assert_ne!(b_id, 0);
        assert_ne!(a_id, b_id);
    }
}
