//! Deterministic distributed-trace identity.
//!
//! A [`TraceContext`] names one position in a query's span tree:
//! the trace (one per query) and the span that any child work should
//! hang under. Layers that "cross a node boundary" in the simulation —
//! executor → storage node, pipeline → executor, polystore coordinator
//! → constituent system — pass the context explicitly instead of
//! relying on the recorder's ambient span stack, exactly the way a real
//! RPC system ships trace headers. Ids are deterministic: trace ids are
//! a [SplitMix64] finalizer of the query id and span ids come from a
//! per-recorder counter, so two runs of the same seeded workload
//! produce identical trees (no wall-clock, no RNG).
//!
//! [SplitMix64]: https://prng.di.unimi.it/splitmix64.c

/// Identity carried across layer/node boundaries: which trace this work
/// belongs to and which span is its parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Trace id, one per query (0 = no active trace).
    pub trace_id: u64,
    /// The span to parent child work under (0 = none).
    pub span_id: u64,
}

impl TraceContext {
    /// The inactive context: children fall back to the recorder's
    /// ambient span stack (or become roots).
    pub const NONE: TraceContext = TraceContext {
        trace_id: 0,
        span_id: 0,
    };

    /// Whether this context names a live trace.
    pub fn is_active(&self) -> bool {
        self.trace_id != 0
    }
}

impl Default for TraceContext {
    fn default() -> Self {
        Self::NONE
    }
}

/// The deterministic trace id of query `query`: a SplitMix64 finalizer,
/// bijective over `u64` and forced odd so it is never 0. Re-running a
/// seeded workload reproduces the same trace ids.
pub fn trace_id_for_query(query: u64) -> u64 {
    let mut z = query.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) | 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_are_deterministic_nonzero_and_distinct() {
        assert_eq!(trace_id_for_query(7), trace_id_for_query(7));
        let mut seen = std::collections::HashSet::new();
        for q in 0..1000 {
            let id = trace_id_for_query(q);
            assert_ne!(id, 0);
            assert!(seen.insert(id), "collision at query {q}");
        }
    }

    #[test]
    fn none_context_is_inactive() {
        assert!(!TraceContext::NONE.is_active());
        assert!(!TraceContext::default().is_active());
        assert!(TraceContext {
            trace_id: 3,
            span_id: 0
        }
        .is_active());
    }
}
