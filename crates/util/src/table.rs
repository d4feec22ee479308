//! Fixed-width ASCII table rendering.
//!
//! Every table and figure regenerated by `sampsim figure` is printed as an
//! aligned text table so runs can be diffed against `EXPERIMENTS.md`.
//!
//! # Example
//!
//! ```
//! use sampsim_util::table::Table;
//!
//! let mut t = Table::new(["Benchmark", "SimPoints"]);
//! t.row(vec!["505.mcf_r".into(), "18".into()]);
//! let text = t.render();
//! assert!(text.contains("505.mcf_r"));
//! ```

/// A simple text table with a header row. Headers and the first column
/// are left-justified (names), and every other cell right-justified
/// (numbers).
#[derive(Debug, Clone, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    title: Option<String>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: impl IntoIterator<Item = S>) -> Self {
        Self {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
            title: None,
        }
    }

    /// Sets a title printed above the table.
    pub fn title(&mut self, title: impl Into<String>) -> &mut Self {
        self.title = Some(title.into());
        self
    }

    /// Appends a data row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "cell count mismatch");
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table to a string (trailing newline included).
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        if let Some(title) = &self.title {
            out.push_str(title);
            out.push('\n');
        }
        let sep: String = widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("+");
        let fmt_row = |cells: &[String], header: bool| -> String {
            let mut line = String::new();
            for i in 0..cols {
                if i > 0 {
                    line.push('|');
                }
                let cell = &cells[i];
                let pad = widths[i] - cell.len();
                if header || i == 0 {
                    line.push(' ');
                    line.push_str(cell);
                    line.push_str(&" ".repeat(pad + 1));
                } else {
                    line.push_str(&" ".repeat(pad + 1));
                    line.push_str(cell);
                    line.push(' ');
                }
            }
            line
        };
        out.push_str(&fmt_row(&self.headers, true));
        out.push('\n');
        out.push_str(&sep);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, false));
            out.push('\n');
        }
        out
    }

    /// Renders and prints to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats an `f64` with `prec` decimal places.
pub fn fmt_f(v: f64, prec: usize) -> String {
    format!("{v:.prec$}")
}

/// Formats a percentage with two decimal places and a `%` suffix.
pub fn fmt_pct(v: f64) -> String {
    format!("{v:.2}%")
}

/// Formats a multiplicative factor, e.g. `749.6x`.
pub fn fmt_x(v: f64) -> String {
    format!("{v:.1}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(["name", "value"]);
        t.row(vec!["short".into(), "1".into()]);
        t.row(vec!["a-much-longer-name".into(), "12345".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines same width.
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
        assert!(lines[3].contains("12345"));
    }

    #[test]
    fn title_appears_first() {
        let mut t = Table::new(["a"]);
        t.title("Table II");
        t.row(vec!["x".into()]);
        assert!(t.render().starts_with("Table II\n"));
    }

    #[test]
    #[should_panic(expected = "cell count mismatch")]
    fn row_arity_checked() {
        Table::new(["a", "b"]).row(vec!["only-one".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_f(1.23456, 2), "1.23");
        assert_eq!(fmt_pct(25.163), "25.16%");
        assert_eq!(fmt_x(749.61), "749.6x");
    }
}
