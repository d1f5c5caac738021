//! Lowering: [`LogicalPlan`] → [`AnalyticalQuery`] executions.
//!
//! The [`Frontend`] binds a statement surface to the existing execution
//! stack — [`Executor`] for exact answers (batched statements share one
//! superset scan), [`sea_optimizer::ExecutionEngines`] for
//! scan-vs-index access-path selection, and [`AgentPipeline`] for the
//! predict-vs-exact-vs-cache decision — without changing any of their
//! semantics: a lowered statement produces answers and
//! [`sea_common::CostReport`]s bit-identical to hand-constructing the
//! same [`AnalyticalQuery`] values (pinned by E22 and
//! `crates/bench/tests/lang_determinism.rs`).

use sea_common::{
    AnalyticalQuery, AnswerValue, Ball, CostReport, Point, Rect, Region, Result, SeaError,
};
use sea_core::AgentPipeline;
use sea_optimizer::{ExecutionEngines, QueryStrategy};
use sea_query::Executor;
use sea_service::{QueryService, SubmitOutcome};
use sea_storage::StorageCluster;

use crate::ast::{LogicalPlan, ModeHint, Selection};
use crate::parse;

/// What the planner needs to know about a table: its dimensionality and
/// the domain box that fills in unconstrained dimensions.
#[derive(Debug, Clone, PartialEq)]
pub struct TableSchema {
    dims: usize,
    domain: Rect,
}

impl TableSchema {
    /// A schema with an explicit domain box.
    pub fn new(domain: Rect) -> Self {
        TableSchema {
            dims: domain.dims(),
            domain,
        }
    }

    /// Infers the schema from the cluster: the domain is the table's
    /// bounding box ([`StorageCluster::table_bounds`] — the union of all
    /// block zone-map bounds, NaN-tight, so it is the actual data
    /// bounding box as of this call).
    ///
    /// # Errors
    ///
    /// Missing table, or a table whose blocks expose no bounds.
    pub fn infer(cluster: &StorageCluster, table: &str) -> Result<Self> {
        let domain = cluster.table_bounds(table)?.ok_or_else(|| {
            SeaError::Empty(format!(
                "table {table} has no blocks with bounds to infer a domain from"
            ))
        })?;
        Ok(TableSchema::new(domain.clone()))
    }

    /// Number of attributes.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// The domain box unconstrained dimensions default to.
    pub fn domain(&self) -> &Rect {
        &self.domain
    }
}

impl LogicalPlan {
    /// Lowers the selection to a core [`Region`]: unconstrained
    /// dimensions span the schema domain.
    ///
    /// # Errors
    ///
    /// Dimension indices outside the schema, ball centers with the
    /// wrong arity, or degenerate geometry.
    pub fn region(&self, schema: &TableSchema) -> Result<Region> {
        match &self.selection {
            Selection::All => Ok(Region::Range(schema.domain().clone())),
            Selection::Ranges(ranges) => {
                let mut lo = schema.domain().lo().to_vec();
                let mut hi = schema.domain().hi().to_vec();
                for r in ranges {
                    if r.dim >= schema.dims() {
                        return Err(SeaError::invalid(format!(
                            "dimension d{} out of range: table has {} dimensions",
                            r.dim,
                            schema.dims()
                        )));
                    }
                    lo[r.dim] = r.lo;
                    hi[r.dim] = r.hi;
                }
                Ok(Region::Range(Rect::new(lo, hi)?))
            }
            Selection::Ball(b) => {
                if b.center.len() != schema.dims() {
                    return Err(SeaError::invalid(format!(
                        "ball center has {} coordinates but table has {} dimensions",
                        b.center.len(),
                        schema.dims()
                    )));
                }
                Ok(Region::Radius(Ball::new(
                    Point::new(b.center.clone()),
                    b.radius,
                )?))
            }
        }
    }

    /// Lowers the whole plan to one [`AnalyticalQuery`] per aggregate,
    /// all sharing the same region.
    ///
    /// # Errors
    ///
    /// As [`LogicalPlan::region`], plus aggregate/dimension validation.
    pub fn to_queries(&self, schema: &TableSchema) -> Result<Vec<AnalyticalQuery>> {
        let region = self.region(schema)?;
        self.aggregates
            .iter()
            .map(|spec| {
                let kind = spec.to_kind();
                kind.validate(schema.dims())?;
                Ok(AnalyticalQuery::new(region.clone(), kind))
            })
            .collect()
    }
}

/// One aggregate's answer with its provenance and bill.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateResult {
    /// The aggregate as written (canonical form).
    pub spec: crate::AggSpec,
    /// The answer.
    pub answer: AnswerValue,
    /// Simulated resource bill (zero for pure predictions).
    pub cost: CostReport,
    /// Provenance label: `exact`, `predicted`, `cached`, or `degraded`.
    pub source: &'static str,
    /// Access path when the optimizer chose one (`None` on the plain
    /// executor scan path and on non-exact answers).
    pub strategy: Option<QueryStrategy>,
}

/// The outcome of running one statement.
#[derive(Debug, Clone, PartialEq)]
pub struct StatementOutcome {
    /// The parsed plan (printing it gives the canonical statement).
    pub plan: LogicalPlan,
    /// One result per aggregate, in statement order.
    pub results: Vec<AggregateResult>,
    /// Rendered EXPLAIN report when the statement asked for one.
    pub explain: Option<String>,
}

/// The statement front end: parses, plans, and executes statements
/// against one table.
///
/// Construction wires in progressively more machinery:
///
/// * [`Frontend::new`] — exact execution only ([`ModeHint::Auto`]
///   degrades to exact). Multi-aggregate statements execute as one
///   [`Executor::execute_batch`] call sharing a superset scan.
/// * [`Frontend::with_engines`] — attaches
///   [`ExecutionEngines`]; exact statements then pick
///   scan-vs-index per query by modelled cost estimates.
/// * [`Frontend::with_pipeline`] — attaches an [`AgentPipeline`];
///   `auto` statements route through its predict-vs-exact-vs-cache
///   decision, and `predict` statements serve the agent's answer.
#[derive(Debug)]
pub struct Frontend<'a> {
    pub(crate) executor: Executor<'a>,
    pub(crate) table: String,
    pub(crate) schema: TableSchema,
    pub(crate) engines: Option<ExecutionEngines<'a>>,
    pub(crate) pipeline: Option<AgentPipeline>,
}

impl<'a> Frontend<'a> {
    /// Creates a front end over `executor` answering against `table`,
    /// inferring the schema from the table's current bounding box.
    ///
    /// # Errors
    ///
    /// Missing table or un-inferable domain (see [`TableSchema::infer`]).
    pub fn new(executor: Executor<'a>, table: impl Into<String>) -> Result<Self> {
        let table = table.into();
        let schema = TableSchema::infer(executor.cluster(), &table)?;
        Ok(Frontend {
            executor,
            table,
            schema,
            engines: None,
            pipeline: None,
        })
    }

    /// Attaches access-path selection: builds a secondary grid index
    /// with `cells_per_dim` cells over the inferred domain and lets
    /// exact statements choose scan vs index by estimated cost.
    ///
    /// # Errors
    ///
    /// Grid-construction errors.
    pub fn with_engines(mut self, cells_per_dim: usize) -> Result<Self> {
        let engines = ExecutionEngines::build(
            self.executor.cluster(),
            &self.table,
            self.schema.domain().clone(),
            cells_per_dim,
        )?;
        self.engines = Some(engines);
        Ok(self)
    }

    /// Attaches an agent pipeline for `auto` and `predict` statements.
    #[must_use]
    pub fn with_pipeline(mut self, pipeline: AgentPipeline) -> Self {
        self.pipeline = Some(pipeline);
        self
    }

    /// The inferred (or provided) table schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// The attached pipeline, if any.
    pub fn pipeline(&self) -> Option<&AgentPipeline> {
        self.pipeline.as_ref()
    }

    /// Parses and executes one statement.
    ///
    /// # Errors
    ///
    /// Parse errors (as [`SeaError::InvalidArgument`] with the rendered
    /// span), planning errors, and execution errors.
    pub fn run(&mut self, statement: &str) -> Result<StatementOutcome> {
        let plan = parse(statement)?;
        let queries = plan.to_queries(&self.schema)?;
        if plan.explain {
            let (results, text) = self.execute_explained(&plan, &queries)?;
            Ok(StatementOutcome {
                plan,
                results,
                explain: Some(text),
            })
        } else {
            let results = self.execute(&plan, &queries)?;
            Ok(StatementOutcome {
                plan,
                results,
                explain: None,
            })
        }
    }

    /// The mode a plan actually executes under: `auto` without a
    /// pipeline degrades to exact.
    pub(crate) fn effective_mode(&self, plan: &LogicalPlan) -> ModeHint {
        match plan.mode {
            ModeHint::Auto if self.pipeline.is_none() => ModeHint::Exact,
            m => m,
        }
    }

    fn execute(
        &mut self,
        plan: &LogicalPlan,
        queries: &[AnalyticalQuery],
    ) -> Result<Vec<AggregateResult>> {
        match self.effective_mode(plan) {
            ModeHint::Exact => self.execute_exact(plan, queries),
            ModeHint::Predict => self.execute_predict(plan, queries),
            ModeHint::Auto => {
                let pipeline = self.pipeline.as_mut().expect("checked by effective_mode");
                let mut results = Vec::with_capacity(queries.len());
                for (spec, q) in plan.aggregates.iter().zip(queries) {
                    let out = pipeline.process(&self.executor, q)?;
                    results.push(AggregateResult {
                        spec: spec.clone(),
                        answer: out.answer,
                        cost: out.cost,
                        source: out.source.label(),
                        strategy: None,
                    });
                }
                Ok(results)
            }
        }
    }

    pub(crate) fn execute_exact(
        &self,
        plan: &LogicalPlan,
        queries: &[AnalyticalQuery],
    ) -> Result<Vec<AggregateResult>> {
        if let Some(engines) = &self.engines {
            let mut results = Vec::with_capacity(queries.len());
            for (spec, q) in plan.aggregates.iter().zip(queries) {
                let (strategy, _, _) = self.choose_strategy(engines, q)?;
                let out = engines.execute(strategy, q, self.executor.cost_model())?;
                results.push(AggregateResult {
                    spec: spec.clone(),
                    answer: out.answer,
                    cost: out.cost,
                    source: "exact",
                    strategy: Some(strategy),
                });
            }
            return Ok(results);
        }
        let outcomes: Vec<_> = if queries.len() > 1 {
            self.executor
                .execute_batch(&self.table, queries)
                .into_iter()
                .collect::<Result<_>>()?
        } else {
            queries
                .iter()
                .map(|q| self.executor.execute_direct(&self.table, q))
                .collect::<Result<_>>()?
        };
        Ok(plan
            .aggregates
            .iter()
            .zip(outcomes)
            .map(|(spec, out)| AggregateResult {
                spec: spec.clone(),
                answer: out.answer,
                cost: out.cost,
                source: "exact",
                strategy: None,
            })
            .collect())
    }

    pub(crate) fn execute_predict(
        &self,
        plan: &LogicalPlan,
        queries: &[AnalyticalQuery],
    ) -> Result<Vec<AggregateResult>> {
        let Some(pipeline) = &self.pipeline else {
            return Err(SeaError::invalid(
                "WITH MODE predict requires an agent pipeline (Frontend::with_pipeline)",
            ));
        };
        plan.aggregates
            .iter()
            .zip(queries)
            .map(|(spec, q)| {
                let p = pipeline.agent().predict(q)?;
                Ok(AggregateResult {
                    spec: spec.clone(),
                    answer: p.answer,
                    cost: CostReport::zero(),
                    source: "predicted",
                    strategy: None,
                })
            })
            .collect()
    }

    /// Chooses the cheaper access path by modelled estimates (ties go to
    /// the scan: it is the conservative, bandwidth-bound default).
    pub(crate) fn choose_strategy(
        &self,
        engines: &ExecutionEngines<'_>,
        query: &AnalyticalQuery,
    ) -> Result<(QueryStrategy, f64, f64)> {
        let model = self.executor.cost_model();
        let scan = engines.estimate_cost(QueryStrategy::ScanAggregate, query, model)?;
        let index = engines.estimate_cost(QueryStrategy::IndexFetch, query, model)?;
        let strategy = if index < scan {
            QueryStrategy::IndexFetch
        } else {
            QueryStrategy::ScanAggregate
        };
        Ok((strategy, scan, index))
    }
}

/// Parses one tenant-scoped statement and submits each lowered query
/// through the service front door (admission control, budgets, ledger).
///
/// Returns the parsed plan plus one [`SubmitOutcome`] per aggregate, in
/// statement order. `EXPLAIN` and `WITH MODE` are rejected here: the
/// service owns the execution policy for its tenants.
///
/// # Errors
///
/// Parse/plan errors, unknown tenants, and submission errors.
pub fn submit_statement(
    service: &mut QueryService<'_>,
    tenant: &str,
    statement: &str,
) -> Result<(LogicalPlan, Vec<SubmitOutcome>)> {
    let schema = TableSchema::infer(service.executor().cluster(), service.table())?;
    let plan = parse(statement)?;
    if plan.explain || plan.mode != ModeHint::Auto {
        return Err(SeaError::invalid(
            "tenant statements must not carry EXPLAIN or WITH MODE: the service decides",
        ));
    }
    let queries = plan.to_queries(&schema)?;
    let outcomes = queries
        .iter()
        .map(|q| service.submit(tenant, q))
        .collect::<Result<Vec<_>>>()?;
    Ok((plan, outcomes))
}
