//! Cost accounting for the simulated distributed substrate.
//!
//! The paper's critique of the state of the art (§II-A) is phrased entirely
//! in resource terms: queries "access large numbers of data server nodes",
//! "crunch and transfer large volumes of data", and "each layer [of the
//! BDAS] adds extra overheads at all nodes engaged". This module makes those
//! quantities first-class: every engine in the workspace charges its work to
//! a [`CostMeter`], and the meter prices itself from one price list (the
//! constants below) into simulated wall-clock time and money cost —
//! deterministically, so experiments are reproducible and
//! machine-independent. The planner's estimates and the executor's bills
//! read the same rates.
//!
//! The rates model a commodity cluster: 10 ms disk seek, ~100 MB/s
//! sequential disk, ~1 Gb/s LAN with 0.2 ms per-message latency, ~50 ms WAN
//! round-trip with ~50 Mb/s effective inter-datacentre bandwidth, and a
//! per-layer software overhead charged once per BDAS layer per touched node
//! (the paper's "each layer adding extra overheads").

/// Microseconds per disk seek (also charged once per MapReduce-style
/// split, modelling per-task scheduling overhead).
const DISK_SEEK_US: f64 = 10_000.0;
/// Microseconds per random point read (index-driven record fetch):
/// SSD-class.
const DISK_POINT_US: f64 = 100.0;
/// Microseconds per byte read from disk: 100 MB/s.
const DISK_BYTE_US: f64 = 0.01;
/// Microseconds of fixed latency per LAN message: 0.2 ms.
const LAN_MSG_US: f64 = 200.0;
/// Microseconds per byte sent over the LAN: 1 Gb/s.
const LAN_BYTE_US: f64 = 0.008;
/// Microseconds of fixed latency per WAN message: 50 ms round trip.
const WAN_MSG_US: f64 = 50_000.0;
/// Microseconds per byte sent over the WAN: 50 Mb/s.
const WAN_BYTE_US: f64 = 0.16;
/// Microseconds of CPU work per record processed.
const CPU_RECORD_US: f64 = 0.05;
/// Microseconds of software overhead per BDAS layer crossing per node:
/// a 2 ms tax per layer per node.
const LAYER_US: f64 = 2_000.0;
/// Money cost (arbitrary currency units) per node-second of work.
const MONEY_PER_NODE_SECOND: f64 = 0.0001;
/// Money cost per gigabyte moved across the WAN.
const MONEY_PER_WAN_GB: f64 = 0.05;

/// Simulated microseconds of one in-memory model prediction (an edge
/// site's or the pipeline's learned model answering without data).
pub const PREDICT_US: f64 = 100.0;

/// How a query reaches its data: the paper's two processing regimes
/// (§II-A), which differ in the software layers every engaged node
/// crosses ([`CostMeter::touch_node`] charges them at the layer rate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// MapReduce-style over all nodes through the full BDAS stack: a job
    /// crosses the distributed FS, resource manager, execution engine and
    /// application layer on every node it touches.
    Bdas,
    /// Coordinator–cohort with partition/block pruning: a coordinator
    /// that "accesses directly the storage engine" (RT3-2) crosses one
    /// layer per engaged node.
    Direct,
}

/// Raw resource counters accumulated while executing a query or task.
///
/// Meters are cheap plain structs; engines create one per task (or per
/// simulated node) and combine them with [`CostMeter::merge`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CostMeter {
    /// Number of disk seeks performed.
    pub disk_seeks: u64,
    /// Number of random point reads performed.
    pub disk_point_reads: u64,
    /// Bytes read from disk.
    pub disk_bytes: u64,
    /// Messages sent over the LAN.
    pub lan_msgs: u64,
    /// Bytes sent over the LAN.
    pub lan_bytes: u64,
    /// Messages sent over the WAN.
    pub wan_msgs: u64,
    /// Bytes sent over the WAN.
    pub wan_bytes: u64,
    /// Records processed by CPU (scanned, filtered, aggregated, joined).
    pub records_processed: u64,
    /// BDAS layer crossings (layers × nodes engaged).
    pub layer_crossings: u64,
    /// Data-server nodes engaged by the task.
    pub nodes_touched: u64,
    /// Simulated microseconds spent waiting in retry backoff (charged at
    /// 1 µs per unit — the unit *is* microseconds, no rate needed).
    pub backoff_us: u64,
}

impl CostMeter {
    /// A fresh zeroed meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charges one disk read of `bytes` bytes (one seek plus the transfer).
    pub fn charge_disk_read(&mut self, bytes: u64) {
        self.disk_seeks += 1;
        self.disk_bytes += bytes;
    }

    /// Charges one random point read of `bytes` bytes (an index-driven
    /// record fetch).
    pub fn charge_point_read(&mut self, bytes: u64) {
        self.disk_point_reads += 1;
        self.disk_bytes += bytes;
    }

    /// Charges one LAN message carrying `bytes` bytes.
    pub fn charge_lan(&mut self, bytes: u64) {
        self.lan_msgs += 1;
        self.lan_bytes += bytes;
    }

    /// Charges one WAN message carrying `bytes` bytes.
    pub fn charge_wan(&mut self, bytes: u64) {
        self.wan_msgs += 1;
        self.wan_bytes += bytes;
    }

    /// Charges CPU processing of `records` records.
    pub fn charge_cpu(&mut self, records: u64) {
        self.records_processed += records;
    }

    /// Charges `us` simulated microseconds of retry-backoff waiting.
    pub fn charge_backoff(&mut self, us: u64) {
        self.backoff_us += us;
    }

    /// Records that a task engaged one more data-server node, crossing
    /// the software layers `mode` crosses on it.
    pub fn touch_node(&mut self, mode: ExecMode) {
        self.nodes_touched += 1;
        self.layer_crossings += match mode {
            ExecMode::Bdas => 4,
            ExecMode::Direct => 1,
        };
    }

    /// Adds another meter's counters into this one (sequential composition
    /// or simple totalling across nodes).
    pub fn merge(&mut self, other: &CostMeter) {
        self.disk_seeks += other.disk_seeks;
        self.disk_point_reads += other.disk_point_reads;
        self.disk_bytes += other.disk_bytes;
        self.lan_msgs += other.lan_msgs;
        self.lan_bytes += other.lan_bytes;
        self.wan_msgs += other.wan_msgs;
        self.wan_bytes += other.wan_bytes;
        self.records_processed += other.records_processed;
        self.layer_crossings += other.layer_crossings;
        self.nodes_touched += other.nodes_touched;
        self.backoff_us += other.backoff_us;
    }

    /// Adds another meter's counters into this one, each scaled by
    /// `factor` (rounded to the nearest integer). The fault layer's
    /// slow-node model: the same work, `factor`× the cost.
    pub fn merge_scaled(&mut self, other: &CostMeter, factor: f64) {
        let scale = |x: u64| (x as f64 * factor).round() as u64;
        self.disk_seeks += scale(other.disk_seeks);
        self.disk_point_reads += scale(other.disk_point_reads);
        self.disk_bytes += scale(other.disk_bytes);
        self.lan_msgs += scale(other.lan_msgs);
        self.lan_bytes += scale(other.lan_bytes);
        self.wan_msgs += scale(other.wan_msgs);
        self.wan_bytes += scale(other.wan_bytes);
        self.records_processed += scale(other.records_processed);
        self.layer_crossings += scale(other.layer_crossings);
        self.nodes_touched += scale(other.nodes_touched);
        self.backoff_us += scale(other.backoff_us);
    }

    /// Simulated elapsed microseconds if all this meter's work ran
    /// sequentially on one node.
    pub fn sequential_us(&self) -> f64 {
        self.disk_seeks as f64 * DISK_SEEK_US
            + self.disk_point_reads as f64 * DISK_POINT_US
            + self.disk_bytes as f64 * DISK_BYTE_US
            + self.lan_msgs as f64 * LAN_MSG_US
            + self.lan_bytes as f64 * LAN_BYTE_US
            + self.wan_msgs as f64 * WAN_MSG_US
            + self.wan_bytes as f64 * WAN_BYTE_US
            + self.records_processed as f64 * CPU_RECORD_US
            + self.layer_crossings as f64 * LAYER_US
            + self.backoff_us as f64
    }

    /// Builds the final [`CostReport`] for a task whose per-node work is
    /// described by `per_node` meters running **in parallel**, plus this
    /// meter's own coordinator-side (sequential) work. Wall-clock is the
    /// slowest node plus the coordinator; totals and money sum everything.
    pub fn report_parallel<'a, I>(&self, per_node: I) -> CostReport
    where
        I: IntoIterator<Item = &'a CostMeter>,
    {
        let mut totals = *self;
        let mut slowest = 0.0f64;
        for m in per_node {
            slowest = slowest.max(m.sequential_us());
            totals.merge(m);
        }
        let wall_us = self.sequential_us() + slowest;
        CostReport::from_totals(totals, wall_us)
    }

    /// Builds the final [`CostReport`] for purely sequential execution.
    pub fn report_sequential(&self) -> CostReport {
        CostReport::from_totals(*self, self.sequential_us())
    }
}

/// The outcome of cost accounting for one task: total resource counters,
/// simulated wall-clock time, and money cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostReport {
    /// Summed resource counters across all nodes.
    pub totals: CostMeter,
    /// Simulated wall-clock microseconds (accounts for node parallelism).
    pub wall_us: f64,
    /// Money cost in arbitrary currency units.
    pub money: f64,
    /// Fraction of the engaged partitions that contributed to the answer:
    /// 1.0 for a complete answer, less when a partial-answer executor
    /// skipped unavailable partitions (the availability-for-accuracy
    /// trade made explicit).
    pub answered_fraction: f64,
    /// Partitions that could not be served at all (down, no live
    /// replica, retries exhausted).
    pub nodes_unavailable: u64,
}

impl CostReport {
    fn from_totals(totals: CostMeter, wall_us: f64) -> Self {
        // Money charges every node for the wall duration of the task plus
        // the WAN transfer volume.
        let node_seconds = (totals.nodes_touched.max(1)) as f64 * wall_us / 1e6;
        let money =
            node_seconds * MONEY_PER_NODE_SECOND + totals.wan_bytes as f64 / 1e9 * MONEY_PER_WAN_GB;
        CostReport {
            totals,
            wall_us,
            money,
            answered_fraction: 1.0,
            nodes_unavailable: 0,
        }
    }

    /// A zero-cost report (e.g. a pure in-memory model prediction).
    pub fn zero() -> Self {
        CostReport {
            totals: CostMeter::default(),
            wall_us: 0.0,
            money: 0.0,
            answered_fraction: 1.0,
            nodes_unavailable: 0,
        }
    }

    /// Labels the report of a task that could not read `unavailable` of
    /// the `engaged` partitions it meant to (unchanged when none).
    #[must_use]
    pub fn partial(mut self, engaged: usize, unavailable: usize) -> Self {
        if unavailable > 0 {
            self.answered_fraction = (engaged - unavailable) as f64 / engaged as f64;
            self.nodes_unavailable = unavailable as u64;
        }
        self
    }

    /// Combines two reports executed one after the other. Availability
    /// composes pessimistically: the combined answer is only as complete
    /// as its least-complete part (clamped into `[0, 1]`, and a NaN
    /// fraction — completeness unknown — composes as 0, not as complete:
    /// `f64::min` would silently discard the NaN operand), and
    /// unavailable partitions sum (saturating). Money and wall-clock add;
    /// a NaN cost input deliberately propagates so a poisoned bill stays
    /// loud instead of laundering into a finite total.
    pub fn then(&self, later: &CostReport) -> CostReport {
        let mut totals = self.totals;
        totals.merge(&later.totals);
        let answered_fraction =
            if self.answered_fraction.is_nan() || later.answered_fraction.is_nan() {
                0.0
            } else {
                self.answered_fraction
                    .min(later.answered_fraction)
                    .clamp(0.0, 1.0)
            };
        CostReport {
            totals,
            wall_us: self.wall_us + later.wall_us,
            money: self.money + later.money,
            answered_fraction,
            nodes_unavailable: self
                .nodes_unavailable
                .saturating_add(later.nodes_unavailable),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_model_is_sane() {
        // Reading 1 MB: one 10 ms seek + ~10 ms transfer.
        let mut meter = CostMeter::new();
        meter.charge_disk_read(1_000_000);
        let us = meter.sequential_us();
        assert!((us - 20_000.0).abs() < 1.0, "got {us}");
    }

    #[test]
    fn merge_sums_counters() {
        let mut a = CostMeter::new();
        a.charge_lan(100);
        a.touch_node(ExecMode::Bdas);
        let mut b = CostMeter::new();
        b.charge_lan(50);
        b.charge_cpu(10);
        a.merge(&b);
        assert_eq!(a.lan_msgs, 2);
        assert_eq!(a.lan_bytes, 150);
        assert_eq!(a.records_processed, 10);
        assert_eq!(a.nodes_touched, 1);
        assert_eq!(a.layer_crossings, 4);
    }

    #[test]
    fn a_touched_node_pays_its_regimes_crossings() {
        for (mode, layers) in [(ExecMode::Bdas, 4), (ExecMode::Direct, 1)] {
            let mut m = CostMeter::new();
            m.touch_node(mode);
            m.touch_node(mode);
            assert_eq!((m.nodes_touched, m.layer_crossings), (2, 2 * layers));
            assert_eq!(m.sequential_us(), 2.0 * layers as f64 * LAYER_US);
        }
    }

    #[test]
    fn parallel_report_takes_slowest_node() {
        let mut coord = CostMeter::new();
        coord.charge_lan(0); // one message: 200us

        let mut fast = CostMeter::new();
        fast.charge_cpu(100); // 5 us
        let mut slow = CostMeter::new();
        slow.charge_cpu(1_000_000); // 50_000 us

        let report = coord.report_parallel([&fast, &slow]);
        assert!((report.wall_us - (200.0 + 50_000.0)).abs() < 1e-9);
        assert_eq!(report.totals.records_processed, 1_000_100);
    }

    #[test]
    fn sequential_report_sums_everything() {
        let mut m = CostMeter::new();
        m.charge_cpu(1_000_000);
        m.charge_disk_read(0);
        let report = m.report_sequential();
        assert!((report.wall_us - (50_000.0 + 10_000.0)).abs() < 1e-9);
    }

    #[test]
    fn wan_traffic_costs_money() {
        let mut m = CostMeter::new();
        m.charge_wan(2_000_000_000); // 2 GB
        let report = m.report_sequential();
        assert!(report.money > 2.0 * MONEY_PER_WAN_GB * 0.99);
    }

    #[test]
    fn then_composes_sequentially() {
        let mut a = CostMeter::new();
        a.charge_cpu(100);
        let mut b = CostMeter::new();
        b.charge_cpu(200);
        let ra = a.report_sequential();
        let rb = b.report_sequential();
        let c = ra.then(&rb);
        assert_eq!(c.totals.records_processed, 300);
        assert!((c.wall_us - (ra.wall_us + rb.wall_us)).abs() < 1e-12);
    }

    #[test]
    fn zero_report() {
        let z = CostReport::zero();
        assert_eq!(z.wall_us, 0.0);
        assert_eq!(z.money, 0.0);
        assert_eq!(z.totals, CostMeter::default());
        assert_eq!(z.answered_fraction, 1.0);
        assert_eq!(z.nodes_unavailable, 0);
    }

    #[test]
    fn backoff_is_charged_as_microseconds() {
        let mut m = CostMeter::new();
        m.charge_backoff(1_500);
        assert!((m.sequential_us() - 1_500.0).abs() < 1e-9);
    }

    #[test]
    fn merge_scaled_multiplies_counters() {
        let mut slow = CostMeter::new();
        let mut scan = CostMeter::new();
        scan.charge_disk_read(1_000);
        scan.charge_cpu(10);
        slow.merge_scaled(&scan, 3.0);
        assert_eq!(slow.disk_seeks, 3);
        assert_eq!(slow.disk_bytes, 3_000);
        assert_eq!(slow.records_processed, 30);
    }

    #[test]
    fn then_composes_availability_pessimistically() {
        let mut a = CostReport::zero();
        a.answered_fraction = 0.75;
        a.nodes_unavailable = 1;
        let mut b = CostReport::zero();
        b.answered_fraction = 0.5;
        b.nodes_unavailable = 2;
        let c = a.then(&b);
        assert_eq!(c.answered_fraction, 0.5);
        assert_eq!(c.nodes_unavailable, 3);
    }

    #[test]
    fn then_chains_a_full_failure_with_a_partial_answer() {
        // A fully-failed leg (nothing answered, every partition down)
        // followed by a partial retry: the chain is only as complete as
        // its worst leg and the unavailable partitions accumulate.
        let mut failed = CostReport::zero();
        failed.answered_fraction = 0.0;
        failed.nodes_unavailable = 4;
        let mut partial = CostReport::zero();
        partial.answered_fraction = 0.6;
        partial.nodes_unavailable = 1;
        for chained in [failed.then(&partial), partial.then(&failed)] {
            assert_eq!(chained.answered_fraction, 0.0);
            assert_eq!(chained.nodes_unavailable, 5);
        }
    }

    #[test]
    fn then_treats_nan_answered_fraction_as_zero() {
        // f64::min(NaN, x) returns x, which would silently count an
        // unknown-completeness report as fully answered. Pessimistic
        // composition maps NaN to 0 on either side.
        let mut unknown = CostReport::zero();
        unknown.answered_fraction = f64::NAN;
        let complete = CostReport::zero();
        assert_eq!(unknown.then(&complete).answered_fraction, 0.0);
        assert_eq!(complete.then(&unknown).answered_fraction, 0.0);
        assert_eq!(unknown.then(&unknown).answered_fraction, 0.0);
    }

    #[test]
    fn then_clamps_out_of_range_fractions() {
        let mut over = CostReport::zero();
        over.answered_fraction = 1.5;
        let mut under = CostReport::zero();
        under.answered_fraction = -0.25;
        assert_eq!(over.then(&over).answered_fraction, 1.0);
        assert_eq!(over.then(&under).answered_fraction, 0.0);
    }

    #[test]
    fn then_saturates_unavailable_partition_counts() {
        let mut a = CostReport::zero();
        a.nodes_unavailable = u64::MAX - 1;
        let mut b = CostReport::zero();
        b.nodes_unavailable = 7;
        assert_eq!(a.then(&b).nodes_unavailable, u64::MAX);
    }

    #[test]
    fn then_keeps_nan_money_and_wall_loud() {
        // A poisoned bill must not launder into a finite total: NaN
        // money/wall propagates through composition (and only NaN does —
        // finite legs still add).
        let mut poisoned = CostReport::zero();
        poisoned.money = f64::NAN;
        poisoned.wall_us = f64::NAN;
        let mut fine = CostReport::zero();
        fine.money = 2.5;
        fine.wall_us = 100.0;
        let chained = poisoned.then(&fine);
        assert!(chained.money.is_nan());
        assert!(chained.wall_us.is_nan());
        let clean = fine.then(&fine);
        assert_eq!(clean.money, 5.0);
        assert_eq!(clean.wall_us, 200.0);
    }

    #[test]
    fn availability_fields_default_to_complete() {
        let mut m = CostMeter::new();
        m.charge_cpu(10);
        let r = m.report_sequential();
        assert_eq!(r.answered_fraction, 1.0);
        assert_eq!(r.nodes_unavailable, 0);
        assert_eq!(r.totals.backoff_us, 0);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    /// Arbitrary meter with realistically-bounded counters (the tuple
    /// strategies top out at six fields, so the eleven counters are
    /// grouped as a quintuple and a sextuple).
    fn meter() -> impl Strategy<Value = CostMeter> {
        (
            (
                0..1_000u64,
                0..1_000u64,
                0..10_000_000u64,
                0..1_000u64,
                0..10_000_000u64,
            ),
            (
                0..100u64,
                0..10_000_000u64,
                0..10_000_000u64,
                0..1_000u64,
                0..64u64,
                0..1_000_000u64,
            ),
        )
            .prop_map(
                |(
                    (seeks, points, dbytes, lmsgs, lbytes),
                    (wmsgs, wbytes, recs, layers, nodes, backoff),
                )| {
                    CostMeter {
                        disk_seeks: seeks,
                        disk_point_reads: points,
                        disk_bytes: dbytes,
                        lan_msgs: lmsgs,
                        lan_bytes: lbytes,
                        wan_msgs: wmsgs,
                        wan_bytes: wbytes,
                        records_processed: recs,
                        layer_crossings: layers,
                        nodes_touched: nodes,
                        backoff_us: backoff,
                    }
                },
            )
    }

    fn merged(a: &CostMeter, b: &CostMeter) -> CostMeter {
        let mut m = *a;
        m.merge(b);
        m
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn merge_is_commutative(a in meter(), b in meter()) {
            prop_assert_eq!(merged(&a, &b), merged(&b, &a));
        }

        #[test]
        fn merge_is_associative(a in meter(), b in meter(), c in meter()) {
            prop_assert_eq!(merged(&merged(&a, &b), &c), merged(&a, &merged(&b, &c)));
        }

        #[test]
        fn merge_totals_are_sums_of_parts(a in meter(), b in meter()) {
            let m = merged(&a, &b);
            prop_assert_eq!(m.disk_seeks, a.disk_seeks + b.disk_seeks);
            prop_assert_eq!(m.disk_point_reads, a.disk_point_reads + b.disk_point_reads);
            prop_assert_eq!(m.disk_bytes, a.disk_bytes + b.disk_bytes);
            prop_assert_eq!(m.lan_msgs, a.lan_msgs + b.lan_msgs);
            prop_assert_eq!(m.lan_bytes, a.lan_bytes + b.lan_bytes);
            prop_assert_eq!(m.wan_msgs, a.wan_msgs + b.wan_msgs);
            prop_assert_eq!(m.wan_bytes, a.wan_bytes + b.wan_bytes);
            prop_assert_eq!(m.records_processed, a.records_processed + b.records_processed);
            prop_assert_eq!(m.layer_crossings, a.layer_crossings + b.layer_crossings);
            prop_assert_eq!(m.nodes_touched, a.nodes_touched + b.nodes_touched);
            prop_assert_eq!(m.backoff_us, a.backoff_us + b.backoff_us);
        }

        #[test]
        fn merge_scaled_by_one_is_merge(a in meter(), b in meter()) {
            let mut scaled = a;
            scaled.merge_scaled(&b, 1.0);
            prop_assert_eq!(scaled, merged(&a, &b));
        }

        #[test]
        fn merge_with_zero_is_identity(a in meter()) {
            prop_assert_eq!(merged(&a, &CostMeter::new()), a);
            prop_assert_eq!(merged(&CostMeter::new(), &a), a);
        }

        #[test]
        fn sequential_time_is_additive_under_merge(a in meter(), b in meter()) {
            let lhs = merged(&a, &b).sequential_us();
            let rhs = a.sequential_us() + b.sequential_us();
            prop_assert!(close(lhs, rhs), "{lhs} vs {rhs}");
        }

        #[test]
        fn money_round_trips_from_totals_and_wall_clock(m in meter()) {
            // A report's money must be reconstructible from its published
            // totals and wall-clock — the time→money conversion
            // loses no information.
            let report = m.report_sequential();
            let rebuilt = report.totals.nodes_touched.max(1) as f64 * report.wall_us / 1e6
                * MONEY_PER_NODE_SECOND
                + report.totals.wan_bytes as f64 / 1e9 * MONEY_PER_WAN_GB;
            prop_assert!(close(report.money, rebuilt), "{} vs {rebuilt}", report.money);
            prop_assert!(report.wall_us >= 0.0 && report.money >= 0.0);
        }

        #[test]
        fn then_composes_totals_costs_and_availability(
            a in meter(), b in meter(),
            fa in 0.0f64..1.0, fb in 0.0f64..1.0,
            ua in 0..1_000u64, ub in 0..1_000u64,
        ) {
            let mut ra = a.report_sequential();
            ra.answered_fraction = fa;
            ra.nodes_unavailable = ua;
            let mut rb = b.report_sequential();
            rb.answered_fraction = fb;
            rb.nodes_unavailable = ub;
            let c = ra.then(&rb);
            prop_assert_eq!(c.totals, merged(&a, &b));
            prop_assert!(close(c.wall_us, ra.wall_us + rb.wall_us));
            prop_assert!(close(c.money, ra.money + rb.money));
            prop_assert_eq!(c.answered_fraction, fa.min(fb));
            prop_assert!((0.0..=1.0).contains(&c.answered_fraction));
            prop_assert_eq!(c.nodes_unavailable, ua + ub);
            // `then` is order-insensitive in everything but nothing:
            // both orders agree on every field.
            let d = rb.then(&ra);
            prop_assert_eq!(c.answered_fraction, d.answered_fraction);
            prop_assert_eq!(c.nodes_unavailable, d.nodes_unavailable);
            prop_assert_eq!(c.totals, d.totals);
        }

        #[test]
        fn parallel_wall_clock_bounded_by_sequential(coord in meter(), a in meter(), b in meter()) {
            // Parallelism can only help: slowest-node wall-clock is at most
            // the fully-sequential time, and totals still sum everything.
            let report = coord.report_parallel([&a, &b]);
            let sequential = merged(&merged(&coord, &a), &b).sequential_us();
            prop_assert!(report.wall_us <= sequential + 1e-9 * (1.0 + sequential));
            prop_assert_eq!(report.totals, merged(&merged(&coord, &a), &b));
        }
    }
}
