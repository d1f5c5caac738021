//! Shared column ranges: rows of a column that several holders read
//! without copying it.

use std::ops::{Deref, Range};
use std::sync::Arc;

/// Rows `start..end` of a shared column, read as a plain slice. A
/// storage block holds one per column of its segment; a cache fragment
/// holds one per dimension over the rows its mask selects from. A clone
/// shares the column, and the column lives as long as any range over it.
#[derive(Clone)]
pub struct ColumnRange<T> {
    column: Arc<Vec<T>>,
    start: usize,
    end: usize,
}

impl<T> ColumnRange<T> {
    /// Rows `rows` of `column`, which must lie inside it.
    pub fn new(column: &Arc<Vec<T>>, rows: Range<usize>) -> Self {
        ColumnRange {
            column: Arc::clone(column),
            start: rows.start,
            end: rows.end,
        }
    }

    /// The whole column.
    pub fn column(&self) -> &Arc<Vec<T>> {
        &self.column
    }

    /// The rows of the column this range reads.
    pub fn rows(&self) -> Range<usize> {
        self.start..self.end
    }

    /// Rows `rows` of the same column, counted from this range's first
    /// row: the range may reach past this one's end (into the rows of the
    /// blocks that follow it in a segment), but not past the column's.
    pub fn window(&self, rows: Range<usize>) -> Self {
        let end = (self.start + rows.end).min(self.column.len());
        ColumnRange {
            column: Arc::clone(&self.column),
            start: (self.start + rows.start).min(end),
            end,
        }
    }
}

/// A column of its own, read whole.
impl<T> From<Vec<T>> for ColumnRange<T> {
    fn from(column: Vec<T>) -> Self {
        let end = column.len();
        ColumnRange {
            column: Arc::new(column),
            start: 0,
            end,
        }
    }
}

impl<T> Deref for ColumnRange<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.column[self.start..self.end]
    }
}

impl<T> AsRef<[T]> for ColumnRange<T> {
    fn as_ref(&self) -> &[T] {
        self
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for ColumnRange<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

/// Equal values, wherever they are stored.
impl<T: PartialEq> PartialEq for ColumnRange<T> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_window_reaches_past_its_range_but_not_past_its_column() {
        let column = Arc::new((0..10).collect::<Vec<u32>>());
        let block = ColumnRange::new(&column, 2..4);
        assert_eq!(*block, [2, 3]);
        assert_eq!(*block.window(1..5), [3, 4, 5, 6]);
        assert_eq!(*block.window(6..20), [8, 9]);
        assert_eq!(block.window(0..3).rows(), 2..5);
        assert!(Arc::ptr_eq(block.window(0..1).column(), &column));
        assert_eq!(*ColumnRange::from(vec![1.0, 2.0]), [1.0, 2.0]);
    }
}
