//! Seeded statement generators. The program under test receives only
//! `Stmt::text`; `Stmt::queries` is the harness's own reading of the
//! same statement, kept for the oracle.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sea_common::{AggregateKind, AnalyticalQuery, Ball, Point, Rect, Region};

use AggregateKind::{
    Correlation, Count, Max, Mean, Median, Min, Quantile, Regression, Sum, Variance,
};

#[derive(Debug, Clone)]
pub struct Stmt {
    pub text: String,
    pub queries: Vec<AnalyticalQuery>,
    /// Index into the service's tenant list (`explore_warm` only).
    pub tenant: usize,
}

/// Coordinates are rounded to three decimals so the text is short; `{:?}`
/// prints the shortest form that parses back to the same `f64`.
fn r3(v: f64) -> f64 {
    (v * 1000.0).round() / 1000.0
}

fn render_agg(a: &AggregateKind) -> String {
    match *a {
        Count => "count()".into(),
        Sum { dim } => format!("sum(d{dim})"),
        Mean { dim } => format!("mean(d{dim})"),
        Variance { dim } => format!("var(d{dim})"),
        Min { dim } => format!("min(d{dim})"),
        Max { dim } => format!("max(d{dim})"),
        Median { dim } => format!("median(d{dim})"),
        Quantile { dim, q } => format!("p{}(d{dim})", (q * 100.0).round()),
        Correlation { x, y } => format!("corr(d{x}, d{y})"),
        Regression { x, y } => format!("regress(d{x}, d{y})"),
        _ => unreachable!("AggregateKind grew a variant the generators do not emit"),
    }
}

fn render_region(region: &Region) -> String {
    match region {
        Region::Range(r) => (0..r.dims())
            .map(|d| format!("d{d} IN [{:?}, {:?}]", r.lo()[d], r.hi()[d]))
            .collect::<Vec<_>>()
            .join(" AND "),
        Region::Radius(b) => {
            let c: Vec<String> = b
                .center()
                .coords()
                .iter()
                .map(|v| format!("{v:?}"))
                .collect();
            format!("WITHIN BALL(({}), {:?})", c.join(", "), b.radius())
        }
        _ => unreachable!("Region grew a variant the generators do not emit"),
    }
}

fn stmt(aggs: &[AggregateKind], region: Region, tenant: usize) -> Stmt {
    let list: Vec<String> = aggs.iter().map(render_agg).collect();
    Stmt {
        text: format!(
            "SELECT {} WHERE {}",
            list.join(", "),
            render_region(&region)
        ),
        queries: aggs
            .iter()
            .map(|a| AnalyticalQuery::new(region.clone(), *a))
            .collect(),
        tenant,
    }
}

fn rect(lo: Vec<f64>, hi: Vec<f64>) -> Region {
    Region::Range(Rect::new(lo, hi).expect("generators order their bounds"))
}

/// A rectangle from a centre and half-extents, rounded.
fn centred(c: &[f64], half: &[f64]) -> Region {
    rect(
        c.iter().zip(half).map(|(c, h)| r3(c - h)).collect(),
        c.iter().zip(half).map(|(c, h)| r3(c + h)).collect(),
    )
}

/// The eleven aggregate shapes of the E22 replay file.
fn scan_shape(i: usize) -> Vec<AggregateKind> {
    match i % 11 {
        0 => vec![Count],
        1 => vec![Sum { dim: 1 }],
        2 => vec![Mean { dim: 0 }],
        3 => vec![Variance { dim: 1 }],
        4 => vec![Min { dim: 0 }, Max { dim: 0 }],
        5 => vec![Correlation { x: 0, y: 1 }],
        6 => vec![Regression { x: 0, y: 1 }],
        7 => vec![Median { dim: 0 }],
        8 => vec![Mean { dim: 1 }, Quantile { dim: 1, q: 0.95 }],
        9 => vec![Sum { dim: 1 }, Min { dim: 0 }, Max { dim: 0 }],
        _ => vec![Count, Mean { dim: 0 }],
    }
}

/// Eleven shapes × every fifth a ball: the pattern repeats every 55.
const SCAN_CYCLE: usize = 55;
/// Statements are generated in blocks of eight cycles; each block is
/// stratified on its own, so any whole number of blocks — `faulted_scan`
/// replays a prefix of `scan_cold`'s list — sees the same extents.
pub const SCAN_BLOCK: usize = 8 * SCAN_CYCLE;

/// Van der Corput radical inverse of `k` in `base`. With `(k + 0.5) / n`
/// the base-2 inverse makes a Hammersley point set and several coprime
/// bases make a Halton sequence; both cover the unit cube evenly.
fn radical_inverse(mut k: usize, base: usize) -> f64 {
    let (mut out, mut f) = (0.0, 1.0 / base as f64);
    while k > 0 {
        out += f * (k % base) as f64;
        k /= base;
        f /= base as f64;
    }
    out
}

/// `scan_cold` / `faulted_scan`: the eleven shapes in rotation over
/// rectangles of 5–40 % extent per dimension of `[0,100]²`, every fifth
/// a ball. Extents are stratified: within a block, statement `j` takes
/// point `perm[j]` of one fixed Hammersley set, and `perm` shuffles only
/// among statements of the same shape and the same rectangle-or-ball
/// kind (index equal modulo 55). Every seed therefore sees the same set
/// of (shape, selectivity) pairs and differs in placement, order and
/// data, which keeps the statement-cost distribution — and so p50 and
/// p99 — comparable between seeds.
pub fn scan_statements(seed: u64, n: usize) -> Vec<Stmt> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5ca1_ab1e);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let mut perm: Vec<usize> = (0..SCAN_BLOCK).collect();
        for j in (0..SCAN_BLOCK).rev() {
            let other = j % SCAN_CYCLE + SCAN_CYCLE * rng.gen_range(0..=j / SCAN_CYCLE);
            perm.swap(j, other);
        }
        for &k in perm.iter().take(n - out.len()) {
            let i = out.len();
            let w = 5.0 + 35.0 * (k as f64 + 0.5) / SCAN_BLOCK as f64;
            let h = 5.0 + 35.0 * radical_inverse(k, 2);
            let lo_x = rng.gen_range(0.0..100.0 - w);
            let lo_y = rng.gen_range(0.0..100.0 - h);
            let region = if i % 5 == 4 {
                let radius = r3(w.min(h) / 2.0);
                let c = vec![r3(lo_x + w / 2.0), r3(lo_y + h / 2.0)];
                Region::Radius(Ball::new(Point::new(c), radius).expect("radius is positive"))
            } else {
                rect(vec![r3(lo_x), r3(lo_y)], vec![r3(lo_x + w), r3(lo_y + h)])
            };
            out.push(stmt(&scan_shape(i), region, 0));
        }
    }
    out
}

pub const EXPLORE_TENANTS: [&str; 3] = ["ana", "ben", "cy"];
const EXPLORE_HOTSPOTS: [[f64; 2]; 5] = [
    [20.0, 25.0],
    [50.0, 50.0],
    [78.0, 30.0],
    [30.0, 75.0],
    [70.0, 80.0],
];

/// `explore_warm`: single-aggregate count/mean/sum over rectangles
/// jittered around five fixed hotspots, tenants in rotation.
pub fn explore_statements(seed: u64, n: usize) -> Vec<Stmt> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xe8_9107e);
    (0..n)
        .map(|i| {
            let spot = EXPLORE_HOTSPOTS[rng.gen_range(0..EXPLORE_HOTSPOTS.len())];
            let c = [
                spot[0] + rng.gen_range(-2.0..2.0),
                spot[1] + rng.gen_range(-2.0..2.0),
            ];
            let half = [rng.gen_range(3.0..6.0), rng.gen_range(3.0..6.0)];
            let agg = [Count, Mean { dim: 0 }, Sum { dim: 1 }][rng.gen_range(0..3usize)];
            stmt(&[agg], centred(&c, &half), i % EXPLORE_TENANTS.len())
        })
        .collect()
}

/// Statements between two hotspot moves of `drift_churn`; the harness
/// calls `SemanticCache::advance_epoch` at each move.
pub const DRIFT_EPOCH: usize = 500;
const DRIFT_HOTSPOTS: usize = 8;

/// Rectangle `k` of `drift_churn`'s fixed Halton set over `g`'s dense
/// middle: a centre in `[30,70]³` and half-extents of 5–10 (d0, d1) and
/// 12–24 (d2), so a rectangle spans one to three of the eight d0 ranges.
fn drift_rect(k: usize, rng: &mut StdRng) -> Region {
    let u = |base| radical_inverse(k + 1, base);
    // The seed moves each rectangle by up to half a unit.
    let c: Vec<f64> = [2, 3, 5]
        .iter()
        .map(|&b| 30.0 + 40.0 * u(b) + rng.gen_range(-0.5..0.5))
        .collect();
    centred(
        &c,
        &[5.0 + 5.0 * u(7), 5.0 + 5.0 * u(11), 12.0 + 12.0 * u(13)],
    )
}

/// `drift_churn` over the 3-D table `g`: even statements revisit one of
/// eight hotspot rectangles in rotation (alternately the rectangle itself
/// and a sub-rectangle inside it), odd ones are fresh; the hotspots are
/// redrawn every [`DRIFT_EPOCH`] statements. Like `scan_cold`'s, the
/// rectangles are stratified: every epoch's fresh statements take one
/// fixed Halton set in a seeded order, and the hotspots the points after
/// it, so every seed sees the same selectivities and revisit pattern and
/// differs in placement, order and data.
pub fn drift_statements(seed: u64, n: usize) -> Vec<Stmt> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xd21f7);
    let kinds = [Count, Sum { dim: 2 }, Mean { dim: 1 }, Variance { dim: 2 }];
    let fresh_per_epoch = DRIFT_EPOCH / 2;
    let mut hotspots: Vec<Region> = Vec::new();
    let mut order: Vec<usize> = Vec::new();
    (0..n)
        .map(|i| {
            let (epoch, j) = (i / DRIFT_EPOCH, i % DRIFT_EPOCH / 2);
            if i % DRIFT_EPOCH == 0 {
                let first = fresh_per_epoch + epoch * DRIFT_HOTSPOTS;
                hotspots = (first..first + DRIFT_HOTSPOTS)
                    .map(|k| drift_rect(k, &mut rng))
                    .collect();
                order = (0..fresh_per_epoch).collect();
                for a in (1..order.len()).rev() {
                    order.swap(a, rng.gen_range(0..=a));
                }
            }
            if i % 2 == 1 {
                let k = order[j];
                return stmt(&[kinds[k % kinds.len()]], drift_rect(k, &mut rng), 0);
            }
            let (h, visit) = (j % DRIFT_HOTSPOTS, j / DRIFT_HOTSPOTS);
            let region = match (&hotspots[h], visit % 2) {
                (whole, 0) => whole.clone(),
                (whole, _) => {
                    let b = whole.bounding_rect();
                    let shrink = 0.5 + 0.4 * radical_inverse(visit, 2);
                    let c: Vec<f64> = (0..3).map(|d| (b.lo()[d] + b.hi()[d]) / 2.0).collect();
                    let half: Vec<f64> = (0..3)
                        .map(|d| (b.hi()[d] - b.lo()[d]) / 2.0 * shrink)
                        .collect();
                    centred(&c, &half)
                }
            };
            stmt(&[kinds[h % kinds.len()]], region, 0)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_statements_and_every_statement_parses_to_its_queries() {
        let all = |seed| {
            let mut v = scan_statements(seed, 220);
            v.extend(explore_statements(seed, 100));
            v.extend(drift_statements(seed, 1100));
            v
        };
        let (a, b, c) = (all(7), all(7), all(8));
        assert!(a.iter().zip(&b).all(|(x, y)| x.text == y.text));
        assert!(a.iter().zip(&c).any(|(x, y)| x.text != y.text));
        let schema2 = sea_lang::TableSchema::new(Rect::new(vec![0.0; 2], vec![100.0; 2]).unwrap());
        let schema3 = sea_lang::TableSchema::new(Rect::new(vec![0.0; 3], vec![100.0; 3]).unwrap());
        for s in &a {
            let plan = sea_lang::parse(&s.text).unwrap_or_else(|e| panic!("{}: {e}", s.text));
            let schema = if s.queries[0].region.dims() == 2 {
                &schema2
            } else {
                &schema3
            };
            assert_eq!(plan.to_queries(schema).unwrap(), s.queries, "{}", s.text);
        }
    }

    #[test]
    fn scan_extents_are_the_same_set_for_every_seed() {
        let areas = |seed| {
            let mut v: Vec<(usize, u64)> = scan_statements(seed, 2 * SCAN_BLOCK)
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    let b = s.queries[0].region.bounding_rect();
                    let w = b.hi()[0] - b.lo()[0];
                    (i % SCAN_CYCLE, (w * 10.0).round() as u64)
                })
                .collect();
            v.sort_unstable();
            v
        };
        assert_eq!(areas(1), areas(99));
    }

    #[test]
    fn drift_sub_rectangles_sit_inside_their_hotspot() {
        let s = drift_statements(3, DRIFT_EPOCH);
        let rects: Vec<Rect> = s
            .iter()
            .step_by(2)
            .map(|s| s.queries[0].region.bounding_rect())
            .collect();
        let contained = rects
            .iter()
            .filter(|r| rects.iter().any(|o| *o != **r && o.contains_rect(r)))
            .count();
        assert!(
            contained > rects.len() / 3,
            "{contained} of {}",
            rects.len()
        );
    }
}
