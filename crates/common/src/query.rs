//! The analytical query: a selection region plus an analytical operator.

use crate::{AggregateKind, Record, Region, Result};

/// An analytical query as defined in §III-A of the paper: "(a) selection
/// operators, which identify a data subspace of interest and (b) an
/// analytical operator over the data items within this data subspace".
///
/// Every engine in the workspace — the exact executor, the sampling and
/// synopsis baselines, and the data-less SEA agent — consumes this same
/// type, so their answers are directly comparable.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyticalQuery {
    /// The data subspace of interest.
    pub region: Region,
    /// The analytical operator applied within the subspace.
    pub aggregate: AggregateKind,
}

impl AnalyticalQuery {
    /// Creates a query.
    pub fn new(region: Region, aggregate: AggregateKind) -> Self {
        AnalyticalQuery { region, aggregate }
    }

    /// Computes the exact answer over an in-memory record slice (the
    /// reference implementation every engine is tested against).
    ///
    /// # Errors
    ///
    /// Propagates aggregate-computation errors (e.g. empty subspace for
    /// operators undefined on it).
    pub fn answer_exact(&self, records: &[Record]) -> Result<crate::AnswerValue> {
        let selected: Vec<&Record> = records
            .iter()
            .filter(|r| self.region.contains_record(r))
            .collect();
        self.aggregate.compute(selected)
    }

    /// The query's embedding in query space: region feature vector plus the
    /// operator discriminant is *not* included — the SEA agent maintains one
    /// model pool per operator kind, so the vector only encodes geometry.
    pub fn to_query_vector(&self) -> Vec<f64> {
        self.region.to_query_vector()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AnswerValue, Point, Rect};

    #[test]
    fn exact_answer_filters_then_aggregates() {
        let records = vec![
            Record::new(0, vec![0.5, 10.0]),
            Record::new(1, vec![1.5, 20.0]),
            Record::new(2, vec![0.7, 30.0]),
        ];
        let q = AnalyticalQuery::new(
            Region::Range(Rect::new(vec![0.0, 0.0], vec![1.0, 100.0]).unwrap()),
            AggregateKind::Count,
        );
        assert_eq!(q.answer_exact(&records).unwrap(), AnswerValue::Scalar(2.0));
        let q_mean = AnalyticalQuery::new(q.region.clone(), AggregateKind::Mean { dim: 1 });
        assert_eq!(
            q_mean.answer_exact(&records).unwrap(),
            AnswerValue::Scalar(20.0)
        );
    }

    #[test]
    fn query_vector_is_region_embedding() {
        let q = AnalyticalQuery::new(
            Region::Range(Rect::centered(&Point::new(vec![1.0, 2.0]), &[0.5, 0.5]).unwrap()),
            AggregateKind::Count,
        );
        assert_eq!(q.to_query_vector(), vec![1.0, 2.0, 0.5, 0.5]);
    }
}
