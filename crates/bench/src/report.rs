//! A tiny named-column table for experiment results.

use std::fmt;

use sea_common::{Result, SeaError};
use serde::Serialize;

/// One experiment's result table.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Report {
    /// Experiment id, e.g. "E4".
    pub id: String,
    /// Human title.
    pub title: String,
    /// Column names.
    pub columns: Vec<String>,
    /// Rows of values, one per parameter setting.
    pub rows: Vec<Vec<f64>>,
    /// Number of rows rejected for arity mismatch. Serialized so a JSON
    /// consumer can tell a short table from a silently truncated one.
    pub rows_dropped: u64,
}

impl Report {
    /// Creates an empty report.
    pub fn new(id: &str, title: &str, columns: &[&str]) -> Self {
        Report {
            id: id.to_string(),
            title: title.to_string(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
            rows_dropped: 0,
        }
    }

    /// Appends a row, rejecting one whose arity differs from the column
    /// count.
    ///
    /// # Errors
    ///
    /// [`SeaError::InvalidArgument`] on an arity mismatch; the table is
    /// left unchanged and [`Report::rows_dropped`] is incremented, so a
    /// caller that swallows the error still leaves an audit trail in the
    /// serialized report.
    fn try_push_row(&mut self, row: Vec<f64>) -> Result<()> {
        if row.len() != self.columns.len() {
            self.rows_dropped += 1;
            return Err(SeaError::invalid(format!(
                "row arity mismatch in report {}: got {} values for {} columns",
                self.id,
                row.len(),
                self.columns.len()
            )));
        }
        self.rows.push(row);
        Ok(())
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row's arity differs from the column count (programmer
    /// error in an experiment runner).
    pub fn push_row(&mut self, row: Vec<f64>) {
        if let Err(e) = self.try_push_row(row) {
            panic!("{e}");
        }
    }

    /// Serializes the report (id, title, columns, rows, and the
    /// dropped-row count) as pretty JSON — the machine-readable sibling
    /// of the `Display` markdown table.
    ///
    /// # Errors
    ///
    /// Serialization failures surface as [`SeaError::Serde`].
    pub fn to_json(&self) -> Result<String> {
        serde_json::to_string_pretty(self).map_err(|e| SeaError::Serde(e.to_string()))
    }

    /// Value at `(row, column-name)`, if present.
    pub fn value(&self, row: usize, column: &str) -> Option<f64> {
        let c = self.columns.iter().position(|n| n == column)?;
        self.rows.get(row).and_then(|r| r.get(c)).copied()
    }

    /// All values of one column.
    pub fn column(&self, column: &str) -> Vec<f64> {
        let Some(c) = self.columns.iter().position(|n| n == column) else {
            return Vec::new();
        };
        self.rows.iter().filter_map(|r| r.get(c).copied()).collect()
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "## {} — {}", self.id, self.title)?;
        // Column widths.
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len().max(10)).collect();
        let cells: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(|v| format_value(*v)).collect())
            .collect();
        for row in &cells {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        write!(f, "|")?;
        for (c, w) in self.columns.iter().zip(&widths) {
            write!(f, " {c:>w$} |")?;
        }
        writeln!(f)?;
        write!(f, "|")?;
        for w in &widths {
            write!(f, "{}|", "-".repeat(w + 2))?;
        }
        writeln!(f)?;
        for row in &cells {
            write!(f, "|")?;
            for (cell, w) in row.iter().zip(&widths) {
                write!(f, " {cell:>w$} |")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

fn format_value(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1e6 || v.abs() < 1e-3 {
        format!("{v:.3e}")
    } else if (v - v.round()).abs() < 1e-9 && v.abs() < 1e6 {
        format!("{}", v.round() as i64)
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_lookup() {
        let mut r = Report::new("E0", "demo", &["n", "time_us"]);
        r.push_row(vec![1000.0, 42.5]);
        r.push_row(vec![2000.0, 99.0]);
        assert_eq!(r.value(0, "time_us"), Some(42.5));
        assert_eq!(r.value(1, "n"), Some(2000.0));
        assert_eq!(r.value(0, "nope"), None);
        assert_eq!(r.column("n"), vec![1000.0, 2000.0]);
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_mismatch_panics() {
        let mut r = Report::new("E0", "demo", &["a", "b"]);
        r.push_row(vec![1.0]);
    }

    #[test]
    fn try_push_row_rejects_bad_arity_without_mutating() {
        let mut r = Report::new("E0", "demo", &["a", "b"]);
        assert!(r.try_push_row(vec![1.0, 2.0]).is_ok());
        let err = r.try_push_row(vec![1.0]).unwrap_err();
        assert!(
            err.to_string().contains("row arity mismatch in report E0"),
            "{err}"
        );
        assert!(r.try_push_row(vec![1.0, 2.0, 3.0]).is_err());
        assert_eq!(r.rows.len(), 1, "failed pushes leave the table alone");
        assert_eq!(r.rows_dropped, 2, "dropped rows are counted");
    }

    #[test]
    fn json_round_trip() {
        let mut r = Report::new("E0", "demo", &["n", "time_us"]);
        r.push_row(vec![1000.0, 42.5]);
        let _ = r.try_push_row(vec![1.0]);
        let json = r.to_json().unwrap();
        assert!(json.contains("\"columns\""));
        assert!(
            json.contains("\"rows_dropped\": 1"),
            "dropped rows are visible to JSON consumers: {json}"
        );
    }

    #[test]
    fn display_renders_markdown_table() {
        let mut r = Report::new("E0", "demo", &["n", "factor"]);
        r.push_row(vec![1e7, 123.456789]);
        let s = r.to_string();
        assert!(s.contains("## E0 — demo"));
        assert!(s.contains("| 1.000e7 |") || s.contains("1.000e7"));
        assert!(s.contains("123.4568"));
    }
}
