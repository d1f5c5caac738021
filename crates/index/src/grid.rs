//! Uniform multi-dimensional grid index with per-cell sufficient
//! statistics.
//!
//! The grid serves two roles in SEA:
//!
//! 1. **Pruning**: a selection region maps to the small set of cells it
//!    overlaps, so an engine only inspects the records registered there.
//! 2. **Statistics**: each cell keeps count and per-dimension sums, so
//!    approximate counts/means over a region are computable from cell
//!    statistics alone — a tiny "statistical structure" of the kind RT2
//!    calls for.

use serde::{Deserialize, Serialize};

use sea_common::{Record, RecordId, Rect, Region, Result, SeaError};

/// Per-cell sufficient statistics.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CellStats {
    /// Number of records in the cell.
    pub count: u64,
    /// Per-dimension sum of record values.
    pub sums: Vec<f64>,
    /// Per-dimension sum of squared record values.
    pub sum_squares: Vec<f64>,
}

/// A uniform grid over a fixed domain rectangle.
///
/// # Examples
///
/// ```
/// use sea_common::Rect;
/// use sea_index::GridIndex;
///
/// let domain = Rect::new(vec![0.0, 0.0], vec![10.0, 10.0]).unwrap();
/// let mut grid = GridIndex::new(domain, 5).unwrap();
/// grid.insert(1, &[2.5, 7.5]).unwrap();
/// let q = Rect::new(vec![2.0, 7.0], vec![3.0, 8.0]).unwrap();
/// assert_eq!(grid.candidates(&q).unwrap(), vec![1]);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GridIndex {
    domain: Rect,
    cells_per_dim: usize,
    /// Flat row-major cell array, each holding the keys of its rows in
    /// insertion order.
    ids: Vec<Vec<RecordId>>,
    stats: Vec<CellStats>,
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
            stats: vec![
                CellStats {
                    count: 0,
                    sums: vec![0.0; domain.dims()],
                    sum_squares: vec![0.0; domain.dims()],
                };
                total
            ],
            domain,
            cells_per_dim,
        })
    }

    /// Builds a grid from records.
    ///
    /// # Errors
    ///
    /// As [`GridIndex::new`] and [`GridIndex::insert`].
    pub fn build(domain: Rect, cells_per_dim: usize, records: &[Record]) -> Result<Self> {
        let mut g = GridIndex::new(domain, cells_per_dim)?;
        for r in records {
            g.insert(r.id, &r.values)?;
        }
        Ok(g)
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.domain.dims()
    }

    /// Total number of cells.
    fn num_cells(&self) -> usize {
        self.ids.len()
    }

    /// Number of indexed records.
    pub fn len(&self) -> usize {
        self.stats.iter().map(|s| s.count as usize).sum()
    }

    /// Whether the index holds no records.
    pub fn is_empty(&self) -> bool {
        self.stats.iter().all(|s| s.count == 0)
    }

    /// Approximate in-memory size in bytes: the storage-footprint metric of
    /// experiment E8.
    pub fn memory_bytes(&self) -> u64 {
        let ids: u64 = self.ids.iter().map(|v| 8 * v.len() as u64 + 24).sum();
        let stats: u64 = self
            .stats
            .iter()
            .map(|s| 8 + 16 * s.sums.len() as u64 + 48)
            .sum();
        ids + stats
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
    /// so a build from columns allocates no [`Record`].
    ///
    /// # Errors
    ///
    /// Dimension mismatch.
    pub fn insert(&mut self, key: u64, values: &[f64]) -> Result<()> {
        let cell = self.cell_of(values)?;
        self.ids[cell].push(key);
        let s = &mut self.stats[cell];
        s.count += 1;
        for (d, &v) in values.iter().enumerate() {
            s.sums[d] += v;
            s.sum_squares[d] += v * v;
        }
        Ok(())
    }

    /// Removes a record (by id and values). Returns whether it was present.
    ///
    /// # Errors
    ///
    /// Dimension mismatch.
    pub fn remove(&mut self, record: &Record) -> Result<bool> {
        let cell = self.cell_of(&record.values)?;
        let Some(pos) = self.ids[cell].iter().position(|&id| id == record.id) else {
            return Ok(false);
        };
        self.ids[cell].swap_remove(pos);
        let s = &mut self.stats[cell];
        s.count -= 1;
        for d in 0..record.dims() {
            s.sums[d] -= record.value(d);
            s.sum_squares[d] -= record.value(d) * record.value(d);
        }
        Ok(true)
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

    /// Estimates the record count inside `region` from cell statistics
    /// alone: cells fully inside contribute their full count, partially
    /// overlapped cells contribute proportionally to the overlapped volume
    /// fraction (uniformity assumption within a cell).
    ///
    /// # Errors
    ///
    /// Dimension mismatch.
    pub fn estimate_count(&self, region: &Region) -> Result<f64> {
        let bbox = region.bounding_rect();
        SeaError::check_dims(self.dims(), bbox.dims())?;
        let mut total = 0.0;
        for cell in self.cells_overlapping(&bbox)? {
            let cell_rect = self.cell_rect(cell);
            let frac = cell_rect.overlap_fraction(&bbox);
            total += self.stats[cell].count as f64 * frac;
        }
        Ok(total)
    }

    /// The rectangle covered by flat cell index `cell`.
    ///
    /// # Panics
    ///
    /// Panics if `cell >= self.num_cells()`.
    fn cell_rect(&self, cell: usize) -> Rect {
        assert!(cell < self.num_cells(), "cell index out of range");
        let dims = self.dims();
        let mut coords = vec![0usize; dims];
        let mut rest = cell;
        for d in (0..dims).rev() {
            coords[d] = rest % self.cells_per_dim;
            rest /= self.cells_per_dim;
        }
        let lo: Vec<f64> = (0..dims)
            .map(|d| {
                let w = (self.domain.hi()[d] - self.domain.lo()[d]) / self.cells_per_dim as f64;
                self.domain.lo()[d] + w * coords[d] as f64
            })
            .collect();
        let hi: Vec<f64> = (0..dims)
            .map(|d| {
                let w = (self.domain.hi()[d] - self.domain.lo()[d]) / self.cells_per_dim as f64;
                self.domain.lo()[d] + w * (coords[d] + 1) as f64
            })
            .collect();
        Rect::new(lo, hi).expect("cell bounds are ordered")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sea_common::{Ball, Point};

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
        assert_eq!(g.len(), 100);
        let q = Rect::new(vec![2.0, 2.0], vec![4.0, 4.0]).unwrap();
        let mut cand = g.candidates(&q).unwrap();
        cand.sort_unstable();
        // Cells [2..=4] x [2..=4] → 9 cells → 9 candidates.
        assert_eq!(cand.len(), 9);
    }

    #[test]
    fn remove_updates_stats() {
        let mut g = grid_10x10();
        let r = Record::new(1, vec![5.5, 5.5]);
        g.insert(r.id, &r.values).unwrap();
        assert_eq!(g.len(), 1);
        assert!(g.remove(&r).unwrap());
        assert!(!g.remove(&r).unwrap(), "second remove is a no-op");
        assert!(g.is_empty());
        let cell = g.cell_of(&[5.5, 5.5]).unwrap();
        assert_eq!(g.stats[cell].count, 0);
        assert_eq!(g.stats[cell].sums, vec![0.0, 0.0]);
    }

    #[test]
    fn out_of_domain_points_clamp() {
        let mut g = grid_10x10();
        g.insert(1, &[-5.0, 20.0]).unwrap();
        let corner = g.cell_of(&[-5.0, 20.0]).unwrap();
        assert_eq!(corner, g.cell_of(&[0.0, 9.99]).unwrap());
    }

    #[test]
    fn estimate_count_exact_on_aligned_regions() {
        let mut g = grid_10x10();
        fill_unit_lattice(&mut g);
        // Perfectly aligned with cell boundaries: 3x3 cells → 9 records.
        let q = Region::Range(Rect::new(vec![2.0, 2.0], vec![5.0, 5.0]).unwrap());
        let est = g.estimate_count(&q).unwrap();
        assert!((est - 9.0).abs() < 1e-9, "got {est}");
    }

    #[test]
    fn estimate_count_interpolates_partial_cells() {
        let mut g = grid_10x10();
        fill_unit_lattice(&mut g);
        // Half of one cell.
        let q = Region::Range(Rect::new(vec![2.0, 2.0], vec![3.0, 2.5]).unwrap());
        let est = g.estimate_count(&q).unwrap();
        assert!((est - 0.5).abs() < 1e-9, "got {est}");
    }

    #[test]
    fn estimate_count_radius_uses_bbox() {
        let mut g = grid_10x10();
        fill_unit_lattice(&mut g);
        let q = Region::Radius(Ball::new(Point::new(vec![5.0, 5.0]), 1.0).unwrap());
        let est = g.estimate_count(&q).unwrap();
        assert!(est > 0.0 && est <= 16.0);
    }

    #[test]
    fn cell_rect_roundtrip() {
        let g = grid_10x10();
        for cell in [0, 5, 55, 99] {
            let rect = g.cell_rect(cell);
            let center = rect.center();
            assert_eq!(g.cell_of(center.coords()).unwrap(), cell);
        }
    }

    #[test]
    fn memory_grows_with_records() {
        let mut g = grid_10x10();
        let before = g.memory_bytes();
        fill_unit_lattice(&mut g);
        assert!(g.memory_bytes() > before);
    }

    #[test]
    fn three_dimensional_grid() {
        let domain = Rect::new(vec![0.0; 3], vec![1.0; 3]).unwrap();
        let mut g = GridIndex::new(domain, 4).unwrap();
        assert_eq!(g.num_cells(), 64);
        g.insert(0, &[0.9, 0.1, 0.5]).unwrap();
        let q = Rect::new(vec![0.8, 0.0, 0.4], vec![1.0, 0.2, 0.6]).unwrap();
        assert_eq!(g.candidates(&q).unwrap(), vec![0]);
    }
}
