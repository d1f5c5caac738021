//! Uniform multi-dimensional grid index, for pruning: a selection region
//! maps to the small set of cells it overlaps, so an engine only inspects
//! the rows registered there.

use sea_common::{RecordId, Rect, Result, SeaError};

/// A uniform grid over a fixed domain rectangle.
///
/// # Examples
///
/// ```
/// use sea_common::Rect;
/// use sea_operators::GridIndex;
///
/// let domain = Rect::new(vec![0.0, 0.0], vec![10.0, 10.0]).unwrap();
/// let mut grid = GridIndex::new(domain, 5).unwrap();
/// grid.insert(1, &[2.5, 7.5]).unwrap();
/// let q = Rect::new(vec![2.0, 7.0], vec![3.0, 8.0]).unwrap();
/// assert_eq!(grid.candidates(&q).unwrap(), vec![1]);
/// ```
#[derive(Debug, Clone)]
pub struct GridIndex {
    domain: Rect,
    cells_per_dim: usize,
    /// Flat row-major cell array, each holding the keys of its rows in
    /// insertion order.
    ids: Vec<Vec<RecordId>>,
}

impl GridIndex {
    /// Creates an empty grid over `domain` with `cells_per_dim` cells per
    /// dimension (`cells_per_dim^dims` cells total).
    ///
    /// # Errors
    ///
    /// Returns an error when `cells_per_dim` is 0, the domain is
    /// zero-dimensional, or the total cell count would exceed 2^24 (a
    /// safety valve against accidental exponential blow-up).
    pub fn new(domain: Rect, cells_per_dim: usize) -> Result<Self> {
        if cells_per_dim == 0 {
            return Err(SeaError::invalid("cells_per_dim must be positive"));
        }
        if domain.dims() == 0 {
            return Err(SeaError::invalid("grid domain must have dimensions"));
        }
        let total = (cells_per_dim as u64).checked_pow(domain.dims() as u32);
        let total = total
            .filter(|t| *t <= 1 << 24)
            .ok_or_else(|| SeaError::invalid("grid too large: cells_per_dim^dims exceeds 2^24"))?
            as usize;
        Ok(GridIndex {
            ids: vec![Vec::new(); total],
            domain,
            cells_per_dim,
        })
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.domain.dims()
    }

    fn cell_coord(&self, d: usize, v: f64) -> usize {
        let lo = self.domain.lo()[d];
        let hi = self.domain.hi()[d];
        if hi <= lo {
            return 0;
        }
        let frac = (v - lo) / (hi - lo);
        ((frac * self.cells_per_dim as f64) as isize).clamp(0, self.cells_per_dim as isize - 1)
            as usize
    }

    fn cell_index(&self, coords: &[usize]) -> usize {
        coords
            .iter()
            .fold(0usize, |acc, &c| acc * self.cells_per_dim + c)
    }

    /// The flat cell index a point falls into (points outside the domain
    /// clamp to the boundary cells).
    ///
    /// # Errors
    ///
    /// Dimension mismatch.
    pub fn cell_of(&self, values: &[f64]) -> Result<usize> {
        SeaError::check_dims(self.dims(), values.len())?;
        let coords: Vec<usize> = values
            .iter()
            .enumerate()
            .map(|(d, &v)| self.cell_coord(d, v))
            .collect();
        Ok(self.cell_index(&coords))
    }

    /// Inserts one row under `key` — a record id, or any key the caller
    /// resolves itself (a scan-order ordinal, say) — from its `values`,
    /// so a build from columns allocates no [`sea_common::Record`].
    ///
    /// # Errors
    ///
    /// Dimension mismatch.
    pub fn insert(&mut self, key: u64, values: &[f64]) -> Result<()> {
        let cell = self.cell_of(values)?;
        self.ids[cell].push(key);
        Ok(())
    }

    /// Flat indices of all cells overlapping `region`'s bounding rectangle.
    ///
    /// # Errors
    ///
    /// Dimension mismatch.
    fn cells_overlapping(&self, region: &Rect) -> Result<Vec<usize>> {
        SeaError::check_dims(self.dims(), region.dims())?;
        let dims = self.dims();
        let lo_cell: Vec<usize> = (0..dims)
            .map(|d| self.cell_coord(d, region.lo()[d]))
            .collect();
        let hi_cell: Vec<usize> = (0..dims)
            .map(|d| self.cell_coord(d, region.hi()[d]))
            .collect();
        let mut out = Vec::new();
        let mut cursor = lo_cell.clone();
        loop {
            out.push(self.cell_index(&cursor));
            // Odometer increment across the hyper-box of cells.
            let mut d = dims;
            loop {
                if d == 0 {
                    return Ok(out);
                }
                d -= 1;
                if cursor[d] < hi_cell[d] {
                    cursor[d] += 1;
                    for (i, c) in cursor.iter_mut().enumerate().skip(d + 1) {
                        *c = lo_cell[i];
                    }
                    break;
                }
            }
        }
    }

    /// Candidate keys for a selection region: every key registered in an
    /// overlapping cell, cell by cell in insertion order. Callers must
    /// still verify each candidate against the exact region.
    ///
    /// # Errors
    ///
    /// Dimension mismatch.
    pub fn candidates(&self, region: &Rect) -> Result<Vec<RecordId>> {
        let mut out = Vec::new();
        for cell in self.cells_overlapping(region)? {
            out.extend_from_slice(&self.ids[cell]);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_10x10() -> GridIndex {
        let domain = Rect::new(vec![0.0, 0.0], vec![10.0, 10.0]).unwrap();
        GridIndex::new(domain, 10).unwrap()
    }

    fn fill_unit_lattice(grid: &mut GridIndex) {
        // One record at the centre of every cell.
        let mut id = 0;
        for i in 0..10 {
            for j in 0..10 {
                grid.insert(id, &[i as f64 + 0.5, j as f64 + 0.5]).unwrap();
                id += 1;
            }
        }
    }

    #[test]
    fn construction_limits() {
        let domain = Rect::new(vec![0.0; 2], vec![1.0; 2]).unwrap();
        assert!(GridIndex::new(domain.clone(), 0).is_err());
        assert!(GridIndex::new(domain, 4097).is_err(), "4097^2 > 2^24");
        let big_dims = Rect::new(vec![0.0; 9], vec![1.0; 9]).unwrap();
        assert!(GridIndex::new(big_dims, 8).is_err(), "8^9 = 2^27 > 2^24");
        let ok_dims = Rect::new(vec![0.0; 3], vec![1.0; 3]).unwrap();
        assert!(GridIndex::new(ok_dims, 64).is_ok(), "64^3 = 2^18");
    }

    #[test]
    fn insert_and_candidates() {
        let mut g = grid_10x10();
        fill_unit_lattice(&mut g);
        let domain = Rect::new(vec![0.0, 0.0], vec![10.0, 10.0]).unwrap();
        assert_eq!(g.candidates(&domain).unwrap().len(), 100);
        let q = Rect::new(vec![2.0, 2.0], vec![4.0, 4.0]).unwrap();
        let mut cand = g.candidates(&q).unwrap();
        cand.sort_unstable();
        // Cells [2..=4] x [2..=4] → 9 cells → 9 candidates.
        assert_eq!(cand.len(), 9);
    }

    #[test]
    fn out_of_domain_points_clamp() {
        let mut g = grid_10x10();
        g.insert(1, &[-5.0, 20.0]).unwrap();
        let corner = g.cell_of(&[-5.0, 20.0]).unwrap();
        assert_eq!(corner, g.cell_of(&[0.0, 9.99]).unwrap());
    }

    #[test]
    fn three_dimensional_grid() {
        let domain = Rect::new(vec![0.0; 3], vec![1.0; 3]).unwrap();
        let mut g = GridIndex::new(domain, 4).unwrap();
        assert_eq!(g.ids.len(), 64);
        g.insert(0, &[0.9, 0.1, 0.5]).unwrap();
        let q = Rect::new(vec![0.8, 0.0, 0.4], vec![1.0, 0.2, 0.6]).unwrap();
        assert_eq!(g.candidates(&q).unwrap(), vec![0]);
    }
}
