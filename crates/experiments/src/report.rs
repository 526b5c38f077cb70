//! Plain-text (markdown) table formatting for experiment reports.

use dsmt_sweep::SweepReport;

/// A simple column-oriented table that renders to markdown.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with a title and column headers.
    #[must_use]
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| (*s).to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// The table title.
    #[must_use]
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Number of data rows.
    #[must_use]
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Appends a row (must have as many cells as there are headers).
    ///
    /// # Panics
    ///
    /// Panics if the row length does not match the header count.
    pub fn add_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row length must match header count"
        );
        self.rows.push(cells);
    }

    /// Renders the table as GitHub-flavoured markdown.
    #[must_use]
    pub fn to_markdown(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("### {}\n\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let padded: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:width$}", c, width = widths[i]))
                .collect();
            format!("| {} |\n", padded.join(" | "))
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        out.push_str(&format!("| {} |\n", sep.join(" | ")));
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }

    /// Builds a generic per-cell table straight from a sweep report:
    /// `workload | <axes...> | IPC | perceived | bus util | load miss`.
    ///
    /// Figure modules distil bespoke tables; this is the uniform view for
    /// ad-hoc grids (see `examples/sweep_custom.rs`).
    #[must_use]
    pub fn from_report(report: &SweepReport) -> Table {
        let axes = report.axis_names();
        let mut headers = vec!["workload".to_string()];
        headers.extend(axes.iter().cloned());
        headers.extend(
            ["IPC", "perceived", "bus util", "load miss"]
                .iter()
                .map(|s| (*s).to_string()),
        );
        let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
        let mut table = Table::new(format!("Sweep: {}", report.grid), &headers_ref);
        for record in &report.records {
            let mut row = vec![record.workload.clone()];
            for axis in &axes {
                row.push(record.label(axis).unwrap_or("-").to_string());
            }
            let r = &record.results;
            row.push(fmt_f(r.ipc(), 2));
            row.push(fmt_f(r.perceived.combined(), 1));
            row.push(fmt_pct(r.bus_utilization));
            row.push(fmt_pct(r.load_miss_ratio()));
            table.add_row(row);
        }
        table
    }
}

/// Formats a float with the given number of decimals (helper for tables).
#[must_use]
pub fn fmt_f(value: f64, decimals: usize) -> String {
    format!("{value:.decimals$}")
}

/// Formats a fraction as a percentage with one decimal.
#[must_use]
pub fn fmt_pct(value: f64) -> String {
    format!("{:.1}%", value * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_rendering() {
        let mut t = Table::new("Demo", &["bench", "ipc"]);
        t.add_row(vec!["tomcatv".to_string(), "2.52".to_string()]);
        t.add_row(vec!["swim".to_string(), "2.60".to_string()]);
        let md = t.to_markdown();
        assert!(md.contains("### Demo"));
        assert!(md.contains("| bench   | ipc  |"));
        assert!(md.contains("| tomcatv | 2.52 |"));
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.title(), "Demo");
    }

    #[test]
    #[should_panic(expected = "row length")]
    fn mismatched_row_panics() {
        let mut t = Table::new("Demo", &["a", "b"]);
        t.add_row(vec!["1".to_string()]);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f(1.23456, 2), "1.23");
        assert_eq!(fmt_pct(0.123), "12.3%");
    }
}
