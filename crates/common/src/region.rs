//! Query selection regions: the "subspace of interest" half of an
//! analytical query.
//!
//! The paper (§III-A) identifies three selection operators that matter for
//! exploratory analytics: **range** queries (hyper-rectangles), **radius**
//! queries (hyper-spheres), and **k-nearest-neighbour** selections. All
//! three are represented by [`Region`].

use crate::{kernels, Point, Result, SeaError, SelectionMask};

/// An axis-aligned hyper-rectangle, defined by inclusive lower and upper
/// bounds per dimension.
///
/// # Examples
///
/// ```
/// use sea_common::{Point, Rect};
///
/// let r = Rect::new(vec![0.0, 0.0], vec![2.0, 2.0]).unwrap();
/// assert!(r.contains(&Point::new(vec![1.0, 1.0])));
/// assert!(!r.contains(&Point::new(vec![3.0, 1.0])));
/// assert_eq!(r.volume(), 4.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Rect {
    lo: Vec<f64>,
    hi: Vec<f64>,
}

impl Rect {
    /// Creates a rectangle from per-dimension bounds.
    ///
    /// # Errors
    ///
    /// Returns [`SeaError::DimensionMismatch`] if `lo` and `hi` have
    /// different lengths, and [`SeaError::InvalidArgument`] if any
    /// `lo[d] > hi[d]` or any bound is not finite.
    pub fn new(lo: Vec<f64>, hi: Vec<f64>) -> Result<Self> {
        SeaError::check_dims(lo.len(), hi.len())?;
        for d in 0..lo.len() {
            if !lo[d].is_finite() || !hi[d].is_finite() {
                return Err(SeaError::invalid("rectangle bounds must be finite"));
            }
            if lo[d] > hi[d] {
                return Err(SeaError::invalid(format!(
                    "rectangle lower bound {} exceeds upper bound {} in dimension {d}",
                    lo[d], hi[d]
                )));
            }
        }
        Ok(Rect { lo, hi })
    }

    /// The rectangle centred at `center` with half-width `extents[d]` in
    /// each dimension.
    ///
    /// # Errors
    ///
    /// Returns an error when dimensionalities differ or any extent is
    /// negative or non-finite.
    pub fn centered(center: &Point, extents: &[f64]) -> Result<Self> {
        SeaError::check_dims(center.dims(), extents.len())?;
        if extents.iter().any(|e| !e.is_finite() || *e < 0.0) {
            return Err(SeaError::invalid("extents must be finite and non-negative"));
        }
        let lo = center
            .coords()
            .iter()
            .zip(extents)
            .map(|(c, e)| c - e)
            .collect();
        let hi = center
            .coords()
            .iter()
            .zip(extents)
            .map(|(c, e)| c + e)
            .collect();
        Rect::new(lo, hi)
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.lo.len()
    }

    /// Per-dimension lower bounds.
    pub fn lo(&self) -> &[f64] {
        &self.lo
    }

    /// Per-dimension upper bounds.
    pub fn hi(&self) -> &[f64] {
        &self.hi
    }

    /// The rectangle's centre.
    pub fn center(&self) -> Point {
        Point::new(
            self.lo
                .iter()
                .zip(&self.hi)
                .map(|(l, h)| (l + h) / 2.0)
                .collect(),
        )
    }

    /// Per-dimension half-widths.
    pub fn extents(&self) -> Vec<f64> {
        self.lo
            .iter()
            .zip(&self.hi)
            .map(|(l, h)| (h - l) / 2.0)
            .collect()
    }

    /// Whether `p` lies inside (inclusive) this rectangle. Points of a
    /// different dimensionality are never contained.
    pub fn contains(&self, p: &Point) -> bool {
        p.dims() == self.dims()
            && p.coords()
                .iter()
                .enumerate()
                .all(|(d, &c)| self.lo[d] <= c && c <= self.hi[d])
    }

    /// Whether this rectangle and `other` overlap (share any point).
    pub fn intersects(&self, other: &Rect) -> bool {
        self.dims() == other.dims()
            && (0..self.dims()).all(|d| self.lo[d] <= other.hi[d] && other.lo[d] <= self.hi[d])
    }

    /// The intersection of this rectangle with `other`, or `None` when they
    /// do not overlap.
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        if !self.intersects(other) {
            return None;
        }
        let lo = (0..self.dims())
            .map(|d| self.lo[d].max(other.lo[d]))
            .collect();
        let hi = (0..self.dims())
            .map(|d| self.hi[d].min(other.hi[d]))
            .collect();
        Some(Rect { lo, hi })
    }

    /// The smallest rectangle enclosing both this rectangle and `other`.
    ///
    /// # Errors
    ///
    /// Returns [`SeaError::DimensionMismatch`] on differing dimensionality.
    pub fn union(&self, other: &Rect) -> Result<Rect> {
        SeaError::check_dims(self.dims(), other.dims())?;
        let lo = (0..self.dims())
            .map(|d| self.lo[d].min(other.lo[d]))
            .collect();
        let hi = (0..self.dims())
            .map(|d| self.hi[d].max(other.hi[d]))
            .collect();
        Ok(Rect { lo, hi })
    }

    /// Whether `other` is fully inside this rectangle.
    pub fn contains_rect(&self, other: &Rect) -> bool {
        self.dims() == other.dims()
            && (0..self.dims()).all(|d| self.lo[d] <= other.lo[d] && other.hi[d] <= self.hi[d])
    }

    /// Hyper-volume (product of side lengths). Zero-width dimensions yield
    /// zero volume; the volume of a 0-dimensional rectangle is 1.
    pub fn volume(&self) -> f64 {
        self.lo.iter().zip(&self.hi).map(|(l, h)| h - l).product()
    }

    /// Minimum Euclidean distance from `p` to this rectangle (0 when `p` is
    /// inside). Used by index structures to prune kNN search.
    pub fn min_distance(&self, p: &Point) -> Result<f64> {
        SeaError::check_dims(self.dims(), p.dims())?;
        let mut sum = 0.0;
        for (d, &c) in p.coords().iter().enumerate() {
            let gap = if c < self.lo[d] {
                self.lo[d] - c
            } else if c > self.hi[d] {
                c - self.hi[d]
            } else {
                0.0
            };
            sum += gap * gap;
        }
        Ok(sum.sqrt())
    }
}

/// A hyper-sphere: centre plus radius. The selection region of *radius
/// queries* (§III-A).
#[derive(Debug, Clone, PartialEq)]
pub struct Ball {
    center: Point,
    radius: f64,
}

impl Ball {
    /// Creates a ball.
    ///
    /// # Errors
    ///
    /// Returns [`SeaError::InvalidArgument`] if `radius` is negative or not
    /// finite.
    pub fn new(center: Point, radius: f64) -> Result<Self> {
        if !radius.is_finite() || radius < 0.0 {
            return Err(SeaError::invalid("radius must be finite and non-negative"));
        }
        Ok(Ball { center, radius })
    }

    /// The ball's centre.
    pub fn center(&self) -> &Point {
        &self.center
    }

    /// The ball's radius.
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.center.dims()
    }

    /// Whether `p` lies inside (inclusive) the ball. Points of a different
    /// dimensionality are never contained.
    pub fn contains(&self, p: &Point) -> bool {
        p.dims() == self.dims()
            && self.center.distance_sq(p).expect("dims checked") <= self.radius * self.radius
    }

    /// The ball's axis-aligned bounding rectangle.
    pub fn bounding_rect(&self) -> Rect {
        let extents = vec![self.radius; self.dims()];
        Rect::centered(&self.center, &extents).expect("radius validated at construction")
    }
}

/// A query selection region: the data subspace an analytical operator is
/// applied to.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Region {
    /// Range query: an axis-aligned hyper-rectangle.
    Range(Rect),
    /// Radius query: a hyper-sphere.
    Radius(Ball),
}

impl Region {
    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        match self {
            Region::Range(r) => r.dims(),
            Region::Radius(b) => b.dims(),
        }
    }

    /// Whether `p` falls inside the selection.
    pub fn contains(&self, p: &Point) -> bool {
        match self {
            Region::Range(r) => r.contains(p),
            Region::Radius(b) => b.contains(p),
        }
    }

    /// Whether the record's coordinates fall inside the selection.
    pub fn contains_record(&self, rec: &crate::Record) -> bool {
        match self {
            Region::Range(r) => {
                rec.dims() == r.dims()
                    && rec
                        .values
                        .iter()
                        .enumerate()
                        .all(|(d, &c)| r.lo()[d] <= c && c <= r.hi()[d])
            }
            Region::Radius(b) => {
                rec.dims() == b.dims() && {
                    let d2: f64 = rec
                        .values
                        .iter()
                        .zip(b.center().coords())
                        .map(|(a, c)| (a - c) * (a - c))
                        .sum();
                    d2 <= b.radius() * b.radius()
                }
            }
        }
    }

    /// The columnar form of [`Region::contains_record`]: the selection
    /// bitmap over `len` rows stored column-major in `cols`, bit-identical
    /// to filtering the materialized rows. A dimensionality mismatch
    /// selects nothing.
    pub fn column_mask<C: AsRef<[f64]>>(&self, cols: &[C], len: usize) -> SelectionMask {
        if cols.len() != self.dims() {
            return SelectionMask::none(len);
        }
        match self {
            Region::Range(r) => kernels::range_mask(cols, len, r.lo(), r.hi()),
            Region::Radius(b) => kernels::ball_mask(cols, len, b.center().coords(), b.radius()),
        }
    }

    /// Keeps only the rows `mask` selects that lie in the region: the
    /// same set as intersecting `mask` with [`Region::column_mask`],
    /// evaluated only where `mask` still selects rows (see
    /// [`kernels::ball_retain`]). A dimensionality mismatch selects
    /// nothing.
    pub fn retain<C: AsRef<[f64]>>(&self, cols: &[C], mask: &mut SelectionMask) {
        if cols.len() != self.dims() {
            *mask = SelectionMask::none(mask.len());
            return;
        }
        match self {
            Region::Range(r) => kernels::range_retain(cols, r.lo(), r.hi(), mask),
            Region::Radius(b) => kernels::ball_retain(cols, b.center().coords(), b.radius(), mask),
        }
    }

    /// Axis-aligned bounding rectangle of the selection, used for routing
    /// queries to storage partitions and index nodes.
    pub fn bounding_rect(&self) -> Rect {
        match self {
            Region::Range(r) => r.clone(),
            Region::Radius(b) => b.bounding_rect(),
        }
    }

    /// The region's centre point.
    pub fn center(&self) -> Point {
        match self {
            Region::Range(r) => r.center(),
            Region::Radius(b) => b.center().clone(),
        }
    }

    /// Hyper-volume of the selection. For balls this is the exact
    /// n-ball volume.
    pub fn volume(&self) -> f64 {
        match self {
            Region::Range(r) => r.volume(),
            Region::Radius(b) => n_ball_volume(b.dims(), b.radius()),
        }
    }

    /// Embeds the region as a fixed-length feature vector
    /// `[centre_0..centre_d, extent_0..extent_d]` — the representation the
    /// SEA agent quantizes (query-space quantization, RT1). Radius queries
    /// embed with `extent_d = radius` in every dimension.
    pub fn to_query_vector(&self) -> Vec<f64> {
        let mut v = Vec::with_capacity(2 * self.dims());
        self.push_query_vector(&mut v);
        v
    }

    /// The query vector followed by the volume, `[centre, extents,
    /// volume]`: the feature embedding the agent's quantum models (and
    /// the DBL baseline) regress on, built in one allocation. Its prefix
    /// without the volume is [`Region::to_query_vector`].
    pub fn to_feature_vector(&self) -> Vec<f64> {
        let mut v = Vec::with_capacity(2 * self.dims() + 1);
        self.push_query_vector(&mut v);
        v.push(self.volume());
        v
    }

    fn push_query_vector(&self, v: &mut Vec<f64>) {
        match self {
            Region::Range(r) => {
                let bounds = || r.lo.iter().zip(&r.hi);
                v.extend(bounds().map(|(l, h)| (l + h) / 2.0));
                v.extend(bounds().map(|(l, h)| (h - l) / 2.0));
            }
            Region::Radius(b) => {
                v.extend_from_slice(b.center().coords());
                v.extend(std::iter::repeat_n(b.radius(), b.dims()));
            }
        }
    }
}

/// Volume of an n-dimensional ball of radius `r`, via the standard
/// recurrence `V_n = V_{n-2} · 2πr²/n` with `V_0 = 1`, `V_1 = 2r`.
fn n_ball_volume(dims: usize, r: f64) -> f64 {
    match dims {
        0 => 1.0,
        1 => 2.0 * r,
        n => n_ball_volume(n - 2, r) * 2.0 * std::f64::consts::PI * r * r / n as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_square() -> Rect {
        Rect::new(vec![0.0, 0.0], vec![1.0, 1.0]).unwrap()
    }

    #[test]
    fn rect_construction_validates() {
        assert!(Rect::new(vec![0.0], vec![1.0, 2.0]).is_err());
        assert!(Rect::new(vec![2.0], vec![1.0]).is_err());
        assert!(Rect::new(vec![f64::NAN], vec![1.0]).is_err());
        assert!(Rect::new(vec![0.0], vec![f64::INFINITY]).is_err());
        assert!(Rect::new(vec![1.0], vec![1.0]).is_ok());
    }

    #[test]
    fn rect_contains_is_inclusive() {
        let r = unit_square();
        assert!(r.contains(&Point::new(vec![0.0, 0.0])));
        assert!(r.contains(&Point::new(vec![1.0, 1.0])));
        assert!(!r.contains(&Point::new(vec![1.0 + 1e-12, 0.5])));
        assert!(!r.contains(&Point::new(vec![0.5])), "wrong dims");
    }

    #[test]
    fn rect_centered_roundtrips() {
        let c = Point::new(vec![5.0, -3.0]);
        let r = Rect::centered(&c, &[2.0, 0.5]).unwrap();
        assert_eq!(r.center(), c);
        assert_eq!(r.extents(), vec![2.0, 0.5]);
        assert!(Rect::centered(&c, &[-1.0, 0.0]).is_err());
    }

    #[test]
    fn rect_intersection_and_union() {
        let a = unit_square();
        let b = Rect::new(vec![0.5, 0.5], vec![2.0, 2.0]).unwrap();
        let i = a.intersection(&b).unwrap();
        assert_eq!(i.lo(), &[0.5, 0.5]);
        assert_eq!(i.hi(), &[1.0, 1.0]);
        let u = a.union(&b).unwrap();
        assert_eq!(u.lo(), &[0.0, 0.0]);
        assert_eq!(u.hi(), &[2.0, 2.0]);

        let far = Rect::new(vec![5.0, 5.0], vec![6.0, 6.0]).unwrap();
        assert!(a.intersection(&far).is_none());
        assert!(!a.intersects(&far));
    }

    #[test]
    fn rect_touching_edges_intersect() {
        let a = unit_square();
        let edge = Rect::new(vec![1.0, 0.0], vec![2.0, 1.0]).unwrap();
        assert!(a.intersects(&edge));
        assert_eq!(a.intersection(&edge).unwrap().volume(), 0.0);
    }

    #[test]
    fn rect_volume() {
        assert_eq!(unit_square().volume(), 1.0);
    }

    #[test]
    fn rect_contains_rect() {
        let outer = Rect::new(vec![0.0, 0.0], vec![10.0, 10.0]).unwrap();
        let inner = unit_square();
        assert!(outer.contains_rect(&inner));
        assert!(!inner.contains_rect(&outer));
        assert!(outer.contains_rect(&outer));
    }

    #[test]
    fn rect_min_distance() {
        let r = unit_square();
        assert_eq!(r.min_distance(&Point::new(vec![0.5, 0.5])).unwrap(), 0.0);
        assert_eq!(r.min_distance(&Point::new(vec![2.0, 1.0])).unwrap(), 1.0);
        let d = r.min_distance(&Point::new(vec![2.0, 2.0])).unwrap();
        assert!((d - std::f64::consts::SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn ball_contains_and_bounding_rect() {
        let b = Ball::new(Point::new(vec![0.0, 0.0]), 1.0).unwrap();
        assert!(b.contains(&Point::new(vec![0.6, 0.6])));
        assert!(!b.contains(&Point::new(vec![0.8, 0.8])));
        assert!(
            b.contains(&Point::new(vec![1.0, 0.0])),
            "boundary inclusive"
        );
        let br = b.bounding_rect();
        assert_eq!(br.lo(), &[-1.0, -1.0]);
        assert_eq!(br.hi(), &[1.0, 1.0]);
        assert!(Ball::new(Point::zeros(2), -0.1).is_err());
    }

    #[test]
    fn region_dispatch() {
        let range = Region::Range(unit_square());
        let radius = Region::Radius(Ball::new(Point::new(vec![0.0, 0.0]), 2.0).unwrap());
        let p = Point::new(vec![0.5, 0.5]);
        assert!(range.contains(&p));
        assert!(radius.contains(&p));
        assert_eq!(range.dims(), 2);
        assert_eq!(radius.bounding_rect().volume(), 16.0);
        let rec = crate::Record::new(1, vec![0.5, 0.5]);
        assert!(range.contains_record(&rec));
        assert!(radius.contains_record(&rec));
    }

    #[test]
    fn region_volume_ball_matches_formula() {
        let b = Region::Radius(Ball::new(Point::zeros(2), 2.0).unwrap());
        assert!((b.volume() - std::f64::consts::PI * 4.0).abs() < 1e-9);
        let b3 = Region::Radius(Ball::new(Point::zeros(3), 1.0).unwrap());
        assert!((b3.volume() - 4.0 / 3.0 * std::f64::consts::PI).abs() < 1e-9);
        assert_eq!(n_ball_volume(0, 5.0), 1.0);
        assert_eq!(n_ball_volume(1, 5.0), 10.0);
    }

    #[test]
    fn query_vector_embedding() {
        let r = Rect::new(vec![0.0, 2.0], vec![2.0, 6.0]).unwrap();
        assert_eq!(Region::Range(r).to_query_vector(), vec![1.0, 4.0, 1.0, 2.0]);
        let b = Ball::new(Point::new(vec![1.0, 1.0]), 0.5).unwrap();
        assert_eq!(
            Region::Radius(b).to_query_vector(),
            vec![1.0, 1.0, 0.5, 0.5]
        );
    }
}
