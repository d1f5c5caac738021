//! Multi-dimensional points and distance functions.

use crate::{Result, SeaError};

/// A point in a multi-dimensional real-valued data space.
///
/// `Point` is the coordinate half of a [`crate::Record`] and the geometric
/// currency of the whole workspace: query regions are defined around points,
/// index structures partition point sets, and the SEA agent's query-space
/// quantization clusters queries embedded as points.
///
/// # Examples
///
/// ```
/// use sea_common::Point;
///
/// let a = Point::new(vec![0.0, 0.0]);
/// let b = Point::new(vec![3.0, 4.0]);
/// assert_eq!(a.distance(&b).unwrap(), 5.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    coords: Vec<f64>,
}

impl Point {
    /// Creates a point from its coordinates.
    pub fn new(coords: Vec<f64>) -> Self {
        Point { coords }
    }

    /// Creates the origin of a `dims`-dimensional space.
    pub fn zeros(dims: usize) -> Self {
        Point {
            coords: vec![0.0; dims],
        }
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.coords.len()
    }

    /// Coordinates as a slice.
    pub fn coords(&self) -> &[f64] {
        &self.coords
    }

    /// Coordinate in dimension `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d >= self.dims()`.
    pub fn coord(&self, d: usize) -> f64 {
        self.coords[d]
    }

    /// Euclidean (L2) distance to `other`.
    ///
    /// # Errors
    ///
    /// Returns [`SeaError::DimensionMismatch`] if dimensionalities differ.
    pub fn distance(&self, other: &Point) -> Result<f64> {
        Ok(self.distance_sq(other)?.sqrt())
    }

    /// Squared Euclidean distance to `other` (avoids the square root when
    /// only comparisons are needed, e.g. in kNN search).
    ///
    /// # Errors
    ///
    /// Returns [`SeaError::DimensionMismatch`] if dimensionalities differ.
    pub fn distance_sq(&self, other: &Point) -> Result<f64> {
        SeaError::check_dims(self.dims(), other.dims())?;
        Ok(self
            .coords
            .iter()
            .zip(&other.coords)
            .map(|(a, b)| (a - b) * (a - b))
            .sum())
    }
}

impl From<Vec<f64>> for Point {
    fn from(coords: Vec<f64>) -> Self {
        Point::new(coords)
    }
}

impl From<&[f64]> for Point {
    fn from(coords: &[f64]) -> Self {
        Point::new(coords.to_vec())
    }
}

impl AsRef<[f64]> for Point {
    fn as_ref(&self) -> &[f64] {
        &self.coords
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn euclidean_distance_345() {
        let a = Point::new(vec![0.0, 0.0]);
        let b = Point::new(vec![3.0, 4.0]);
        assert_eq!(a.distance(&b).unwrap(), 5.0);
        assert_eq!(a.distance_sq(&b).unwrap(), 25.0);
    }

    #[test]
    fn distance_is_symmetric_and_zero_on_self() {
        let a = Point::new(vec![1.5, -2.0, 7.0]);
        let b = Point::new(vec![-1.0, 0.5, 3.0]);
        assert_eq!(a.distance(&b).unwrap(), b.distance(&a).unwrap());
        assert_eq!(a.distance(&a).unwrap(), 0.0);
    }

    #[test]
    fn dimension_mismatch_is_an_error() {
        let a = Point::new(vec![0.0, 0.0]);
        let b = Point::new(vec![1.0]);
        assert!(matches!(
            a.distance(&b),
            Err(SeaError::DimensionMismatch {
                expected: 2,
                actual: 1
            })
        ));
    }

    #[test]
    fn conversions() {
        let p: Point = vec![1.0, 2.0].into();
        assert_eq!(p.coords(), &[1.0, 2.0]);
        let q: Point = (&[3.0, 4.0][..]).into();
        assert_eq!(q.coord(1), 4.0);
        let r: &[f64] = p.as_ref();
        assert_eq!(r, &[1.0, 2.0]);
        assert_eq!(q.coords(), &[3.0, 4.0]);
    }

    #[test]
    fn zeros_builds_origin() {
        let o = Point::zeros(5);
        assert_eq!(o.dims(), 5);
        assert!(o.coords().iter().all(|&c| c == 0.0));
    }
}
