//! Plain-text table rendering for experiment reports.

/// A simple left-aligned table printed in GitHub-markdown style so the
/// output can be pasted into EXPERIMENTS.md verbatim.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new(header: &[&str]) -> Table {
        Table { header: header.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Append a row (must match the header arity).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row arity");
        self.rows.push(cells.to_vec());
        self
    }

    /// Convenience for &str cells.
    pub(crate) fn row_str(&mut self, cells: &[&str]) -> &mut Self {
        let owned: Vec<String> = cells.iter().map(|s| s.to_string()).collect();
        self.row(&owned)
    }

    /// Render to stdout.
    pub fn print(&self) {
        let ncols = self.header.len();
        let mut widths = vec![0usize; ncols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = h.len();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let mut s = String::from("|");
            for (i, c) in cells.iter().enumerate() {
                s.push_str(&format!(" {:<width$} |", c, width = widths[i]));
            }
            s
        };
        println!("{}", line(&self.header));
        let mut sep = String::from("|");
        for w in &widths {
            sep.push_str(&format!("{:-<width$}|", "", width = w + 2));
        }
        println!("{sep}");
        for row in &self.rows {
            println!("{}", line(row));
        }
    }
}

/// Format bits/second human-readably.
pub(crate) fn fmt_bps(bps: f64) -> String {
    if bps >= 1e9 {
        format!("{:.2} Gb/s", bps / 1e9)
    } else if bps >= 1e6 {
        format!("{:.2} Mb/s", bps / 1e6)
    } else if bps >= 1e3 {
        format!("{:.1} kb/s", bps / 1e3)
    } else {
        format!("{bps:.0} b/s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders() {
        let mut t = Table::new(&["a", "bb"]);
        t.row_str(&["1", "2"]);
        t.print(); // smoke: no panic
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_checked() {
        let mut t = Table::new(&["a"]);
        t.row_str(&["1", "2"]);
    }

    #[test]
    fn bps_formatting() {
        assert_eq!(fmt_bps(100.0), "100 b/s");
        assert_eq!(fmt_bps(64_000.0), "64.0 kb/s");
        assert_eq!(fmt_bps(100e6), "100.00 Mb/s");
        assert_eq!(fmt_bps(2.5e9), "2.50 Gb/s");
    }
}
