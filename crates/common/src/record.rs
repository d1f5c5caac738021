//! Data records: identified rows of a multi-dimensional dataset.

use crate::Point;

/// Unique identifier of a record within a dataset.
pub type RecordId = u64;

/// A row of a multi-dimensional dataset: an id plus a dense coordinate
/// vector. Records are what the simulated storage layer stores in blocks,
/// what selection regions filter, and what analytical operators aggregate.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Unique id of this record.
    pub id: RecordId,
    /// The record's values, one per dimension/attribute.
    pub values: Vec<f64>,
}

impl Record {
    /// Creates a record.
    pub fn new(id: RecordId, values: Vec<f64>) -> Self {
        Record { id, values }
    }

    /// Number of attributes.
    pub fn dims(&self) -> usize {
        self.values.len()
    }

    /// Value of attribute `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d >= self.dims()`.
    pub fn value(&self, d: usize) -> f64 {
        self.values[d]
    }

    /// Views the record's values as a [`Point`] (clones the values).
    pub fn to_point(&self) -> Point {
        Point::new(self.values.clone())
    }

    /// Approximate serialized size of this record in bytes, used by the
    /// simulated storage layer's cost accounting: [`Record::bytes_of`]
    /// its arity.
    pub fn storage_bytes(&self) -> u64 {
        Record::bytes_of(self.dims())
    }

    /// Serialized size of a record of `dims` values: 8 bytes per value
    /// plus an 8-byte id. The one row-size formula every bill uses.
    pub fn bytes_of(dims: usize) -> u64 {
        8 + 8 * dims as u64
    }
}

impl AsRef<[f64]> for Record {
    fn as_ref(&self) -> &[f64] {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_accessors() {
        let r = Record::new(7, vec![1.0, 2.0, 3.0]);
        assert_eq!(r.id, 7);
        assert_eq!(r.dims(), 3);
        assert_eq!(r.value(1), 2.0);
        assert_eq!(r.to_point().coords(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn storage_bytes_counts_id_and_values() {
        let r = Record::new(0, vec![0.0; 4]);
        assert_eq!(r.storage_bytes(), 8 + 32);
        let empty = Record::new(0, vec![]);
        assert_eq!(empty.storage_bytes(), 8);
        assert_eq!(Record::bytes_of(4), r.storage_bytes());
    }
}
