//! Minimal ASCII table rendering for the benchmark harnesses (the paper's
//! tables and figure series are reprinted as monospace tables).

use std::fmt::Write as _;

/// A simple right-padded ASCII table.
#[derive(Clone, Debug)]
pub struct AsciiTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl AsciiTable {
    /// A table with the given column headers.
    pub fn new<S: Into<String>>(headers: impl IntoIterator<Item = S>) -> Self {
        Self {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row; its length must match the header count.
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) -> &mut Self {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.headers.len(), "row width mismatch");
        self.rows.push(row);
        self
    }

    /// Render with column-wide padding and a separator under the header.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let render_row = |out: &mut String, cells: &[String]| {
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let pad = widths[i] - cell.chars().count();
                out.push_str(cell);
                out.extend(std::iter::repeat_n(' ', pad));
            }
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        render_row(&mut out, &self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            render_row(&mut out, row);
        }
        out
    }
}

/// Format a float with fixed decimals, trimming `-0.00` to `0.00`.
pub fn fmt_f(v: f64, decimals: usize) -> String {
    let s = format!("{v:.decimals$}");
    if s.starts_with("-0.") && s[1..].parse::<f64>() == Ok(0.0) {
        s[1..].to_string()
    } else {
        s
    }
}

/// Percentage-change string, e.g. `+38%` / `-5.3%` (one decimal under 10%).
pub fn fmt_pct_change(base: f64, v: f64) -> String {
    if base == 0.0 {
        return "n/a".into();
    }
    let pct = (v - base) / base * 100.0;
    if pct.abs() < 10.0 {
        format!("{pct:+.1}%")
    } else {
        format!("{pct:+.0}%")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = AsciiTable::new(["name", "cost"]);
        t.row(["static", "35.70"]);
        t.row(["oreo", "24.1"]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines[0], "name    cost");
        assert!(lines[1].starts_with("----"));
        assert_eq!(lines[2], "static  35.70");
        assert_eq!(lines[3], "oreo    24.1");
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn rejects_ragged_rows() {
        AsciiTable::new(["a", "b"]).row(["only one"]);
    }

    #[test]
    fn pct_change_formats() {
        assert_eq!(fmt_pct_change(100.0, 138.0), "+38%");
        assert_eq!(fmt_pct_change(100.0, 94.7), "-5.3%");
        assert_eq!(fmt_pct_change(0.0, 1.0), "n/a");
    }

    #[test]
    fn fmt_f_avoids_negative_zero() {
        assert_eq!(fmt_f(-0.0001, 2), "0.00");
        assert_eq!(fmt_f(1.259, 2), "1.26");
    }
}
