//! Lowering: [`LogicalPlan`] → [`AnalyticalQuery`] executions.
//!
//! The plan's aggregates already are [`AggregateKind`]s, so lowering
//! only builds the region and validates each aggregate against the
//! table's dimensionality.
//!
//! The [`Frontend`] binds a statement surface to the existing execution
//! stack — [`Executor`] for exact answers (batched statements share one
//! superset scan), [`sea_operators::ExecutionEngines`] for
//! scan-vs-index access-path selection, and [`AgentPipeline`] for the
//! predict-vs-exact-vs-cache decision — without changing any of their
//! semantics: a lowered statement produces answers and
//! [`sea_common::CostReport`]s bit-identical to hand-constructing the
//! same [`AnalyticalQuery`] values (pinned by E22 and
//! `crates/bench/tests/lang_determinism.rs`).

use std::borrow::Cow;

use sea_common::{
    AggregateKind, AnalyticalQuery, AnswerValue, Ball, CostReport, Point, Rect, Region, Result,
    SeaError,
};
use sea_core::{AgentPipeline, ProcessOutcome};
use sea_operators::{ExecutionEngines, QueryStrategy};
use sea_query::Executor;
use sea_service::{QueryService, SubmitOutcome};
use sea_storage::StorageCluster;
use sea_telemetry::TelemetrySink;

use crate::ast::{LogicalPlan, ModeHint, Selection};
use crate::explain::render;
use crate::parse;

/// What the planner needs to know about a table: its dimensionality and
/// the domain box that fills in unconstrained dimensions. An inferred
/// schema borrows the domain from the cluster it was inferred from.
#[derive(Debug, Clone, PartialEq)]
pub struct TableSchema<'a> {
    dims: usize,
    domain: Cow<'a, Rect>,
}

impl<'a> TableSchema<'a> {
    /// A schema with an explicit domain box.
    pub fn new(domain: Rect) -> Self {
        TableSchema {
            dims: domain.dims(),
            domain: Cow::Owned(domain),
        }
    }

    /// Infers the schema from the cluster: the domain is the table's
    /// bounding box ([`StorageCluster::table_bounds`] — the union of all
    /// block zone-map bounds, NaN-tight, so it is the actual data
    /// bounding box as of this call). The schema borrows it: the
    /// cluster cannot change while the schema lives.
    ///
    /// # Errors
    ///
    /// Missing table, or a table whose blocks expose no bounds.
    pub fn infer(cluster: &'a StorageCluster, table: &str) -> Result<Self> {
        let domain = cluster.table_bounds(table)?.ok_or_else(|| {
            SeaError::Empty(format!(
                "table {table} has no blocks with bounds to infer a domain from"
            ))
        })?;
        Ok(TableSchema {
            dims: domain.dims(),
            domain: Cow::Borrowed(domain),
        })
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
    pub fn region(&self, schema: &TableSchema<'_>) -> Result<Region> {
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
    /// all sharing the same region (the last query takes it, the others
    /// a copy).
    ///
    /// # Errors
    ///
    /// As [`LogicalPlan::region`], plus aggregate/dimension validation.
    pub fn to_queries(&self, schema: &TableSchema<'_>) -> Result<Vec<AnalyticalQuery>> {
        let region = self.region(schema)?;
        let Some((&last, rest)) = self.aggregates.split_last() else {
            return Ok(Vec::new());
        };
        let mut queries = Vec::with_capacity(self.aggregates.len());
        for &kind in rest {
            kind.validate(schema.dims())?;
            queries.push(AnalyticalQuery::new(region.clone(), kind));
        }
        last.validate(schema.dims())?;
        queries.push(AnalyticalQuery::new(region, last));
        Ok(queries)
    }
}

/// One aggregate's answer with its provenance and bill.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateResult {
    /// The aggregate as written (canonical form).
    pub spec: AggregateKind,
    /// The answer.
    pub answer: AnswerValue,
    /// Simulated resource bill (zero for pure predictions).
    pub cost: CostReport,
    /// Provenance label, by the rule the ledger uses
    /// ([`ProcessOutcome::source_label`]): `exact`, `predicted`,
    /// `cached`, `degraded`, or `partial`.
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
///   scan-vs-index per query by modelled cost estimates (a chosen scan
///   runs on this front end's executor).
/// * [`Frontend::with_pipeline`] — attaches an [`AgentPipeline`];
///   `auto` statements route through its predict-vs-exact-vs-cache
///   decision, and `predict` statements serve the agent's answer.
#[derive(Debug)]
pub struct Frontend<'a> {
    executor: Executor<'a>,
    table: String,
    schema: TableSchema<'a>,
    engines: Option<ExecutionEngines<'a>>,
    pipeline: Option<AgentPipeline>,
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
    /// with `cells_per_dim` cells over the inferred domain — one billed
    /// scan of the table on this front end's executor, traced as an
    /// `optimizer.engines.build` span in its sink — and lets exact
    /// statements choose scan vs index by estimated cost.
    ///
    /// # Errors
    ///
    /// Grid-construction errors.
    pub fn with_engines(mut self, cells_per_dim: usize) -> Result<Self> {
        let engines = ExecutionEngines::build(
            &self.executor,
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
    pub fn schema(&self) -> &TableSchema<'a> {
        &self.schema
    }

    /// The attached pipeline, if any.
    pub fn pipeline(&self) -> Option<&AgentPipeline> {
        self.pipeline.as_ref()
    }

    /// Parses and executes one statement. `EXPLAIN` runs the same
    /// statement ladder as any other statement, under a recording clone
    /// of the executor whose span tree the report renders.
    ///
    /// # Errors
    ///
    /// Parse errors (as [`SeaError::InvalidArgument`] with the rendered
    /// span), planning errors, and execution errors.
    pub fn run(&mut self, statement: &str) -> Result<StatementOutcome> {
        let plan = parse(statement)?;
        let queries = plan.to_queries(&self.schema)?;
        // `auto` without a pipeline degrades to exact.
        let mode = match plan.mode {
            ModeHint::Auto if self.pipeline.is_none() => ModeHint::Exact,
            m => m,
        };
        let recording = plan.explain.then(|| {
            self.executor
                .clone()
                .with_telemetry(TelemetrySink::recording())
        });
        let planned = execute(
            recording.as_ref().unwrap_or(&self.executor),
            &self.table,
            self.engines.as_ref(),
            self.pipeline.as_mut(),
            mode,
            &queries,
        )?;
        let explain = recording.map(|exec| {
            let snapshot = exec
                .telemetry()
                .snapshot()
                .expect("recording sink has a snapshot");
            render(&plan, mode, &self.table, &planned, &snapshot.spans.roots)
        });
        Ok(StatementOutcome {
            plan,
            results: planned.into_iter().map(|(result, _)| result).collect(),
            explain,
        })
    }
}

/// The planner's two access-path estimates (modelled µs) for one
/// aggregate; present when engines are attached and the mode is exact.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Estimates {
    pub(crate) scan_us: f64,
    pub(crate) index_us: f64,
}

/// The statement ladder — the one place a lowered statement is routed
/// by mode, access path and batching. Everything that executes runs
/// under `exec`, so its telemetry sink sees every arm (`lang.*` spans
/// cover the two arms the executor never enters). Returns each
/// aggregate's result with the planner's estimates for it. `EXPLAIN`
/// changes nothing here: the statement it explains is the statement
/// that ran.
fn execute(
    exec: &Executor<'_>,
    table: &str,
    engines: Option<&ExecutionEngines<'_>>,
    pipeline: Option<&mut AgentPipeline>,
    mode: ModeHint,
    queries: &[AnalyticalQuery],
) -> Result<Vec<(AggregateResult, Option<Estimates>)>> {
    let result = |q: &AnalyticalQuery, out: ProcessOutcome, strategy| AggregateResult {
        spec: q.aggregate,
        answer: out.answer,
        cost: out.cost,
        source: out.source_label(),
        strategy,
    };
    match (mode, pipeline) {
        (ModeHint::Predict, None) => Err(SeaError::invalid(
            "WITH MODE predict requires an agent pipeline (Frontend::with_pipeline)",
        )),
        (ModeHint::Predict, Some(pipeline)) => queries
            .iter()
            .map(|q| {
                let p = pipeline.agent().predict(q)?;
                exec.telemetry().span("lang.predict").record_sim_us(0.0);
                let predicted = AggregateResult {
                    spec: q.aggregate,
                    answer: p.answer,
                    cost: CostReport::zero(),
                    source: "predicted",
                    strategy: None,
                };
                Ok((predicted, None))
            })
            .collect(),
        (ModeHint::Auto, Some(pipeline)) => queries
            .iter()
            .map(|q| Ok((result(q, pipeline.process(exec, q)?, None), None)))
            .collect(),
        // `run` has already turned a pipeline-less `auto` into exact.
        (ModeHint::Exact, _) | (ModeHint::Auto, None) => match engines {
            Some(engines) => queries
                .iter()
                .map(|q| {
                    // Ties go to the scan: it is the conservative,
                    // bandwidth-bound default.
                    let scan_us = engines.estimate_cost(QueryStrategy::ScanAggregate, q)?;
                    let index_us = engines.estimate_cost(QueryStrategy::IndexFetch, q)?;
                    let strategy = if index_us < scan_us {
                        QueryStrategy::IndexFetch
                    } else {
                        QueryStrategy::ScanAggregate
                    };
                    let out = engines.execute(strategy, q, exec)?;
                    if strategy == QueryStrategy::IndexFetch {
                        let span = exec.telemetry().span("lang.index_fetch");
                        span.tag("candidates_node_parallel", true);
                        span.record_sim_us(out.cost.wall_us);
                    }
                    Ok((
                        result(q, out.into(), Some(strategy)),
                        Some(Estimates { scan_us, index_us }),
                    ))
                })
                .collect(),
            None => {
                let outcomes = exec.execute_batch(table, queries);
                queries
                    .iter()
                    .zip(outcomes)
                    .map(|(q, out)| Ok((result(q, out?.into(), None), None)))
                    .collect()
            }
        },
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
