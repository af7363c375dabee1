//! Report plumbing: CSV emission and figure summaries.
//!
//! Every figure function writes one or more CSV files under the output
//! directory and returns human-readable summary lines; `opass figures`
//! prints those lines and EXPERIMENTS.md quotes them.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// A minimal CSV writer (no quoting needed — all fields are numeric or
/// simple identifiers).
pub(crate) struct CsvWriter {
    out: fs::File,
}

impl CsvWriter {
    /// Writes one row.
    pub(crate) fn row(&mut self, fields: &[String]) -> io::Result<()> {
        writeln!(self.out, "{}", fields.join(","))
    }
}

/// Outcome of regenerating one figure.
#[derive(Debug, Clone)]
pub struct FigureReport {
    /// Figure identifier ("fig7ab").
    id: String,
    /// CSV files written.
    pub files: Vec<PathBuf>,
    /// Human-readable summary lines (quoted in EXPERIMENTS.md).
    pub summary: Vec<String>,
}

impl FigureReport {
    /// Creates an empty report for `id`.
    pub(crate) fn new(id: impl Into<String>) -> Self {
        FigureReport {
            id: id.into(),
            files: Vec::new(),
            summary: Vec::new(),
        }
    }

    /// Creates `<dir>/<name>.csv` with the given header columns and
    /// records it as one of this figure's files.
    pub(crate) fn csv(&mut self, dir: &Path, name: &str, header: &[&str]) -> io::Result<CsvWriter> {
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("{name}.csv"));
        let mut out = fs::File::create(&path)?;
        writeln!(out, "{}", header.join(","))?;
        self.files.push(path);
        Ok(CsvWriter { out })
    }

    /// Adds a summary line.
    pub(crate) fn line(&mut self, line: impl Into<String>) {
        self.summary.push(line.into());
    }

    /// Renders the report for stdout. CSVs are named without their
    /// directory, so the rendering is the same wherever they were written.
    pub fn render(&self) -> String {
        let mut out = format!("== {} ==\n", self.id);
        for line in &self.summary {
            out.push_str("  ");
            out.push_str(line);
            out.push('\n');
        }
        for f in &self.files {
            let name = f.file_name().unwrap_or(f.as_os_str());
            out.push_str(&format!("  -> {}\n", Path::new(name).display()));
        }
        out
    }
}

/// Formats seconds with 3 decimals.
pub(crate) fn secs(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a byte count as MB with 1 decimal.
pub(crate) fn mb(bytes: u64) -> String {
    format!("{:.1}", bytes as f64 / (1024.0 * 1024.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_writer_produces_header_and_rows() {
        let dir = std::env::temp_dir().join("opass-csv-test");
        let mut r = FigureReport::new("t");
        let mut w = r.csv(&dir, "t", &["a", "b"]).unwrap();
        w.row(&["1".into(), "2".into()]).unwrap();
        w.row(&["3.5".into(), "x".into()]).unwrap();
        let content = std::fs::read_to_string(&r.files[0]).unwrap();
        assert_eq!(content, "a,b\n1,2\n3.5,x\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn report_renders_lines_and_files() {
        let dir = std::env::temp_dir().join("opass-render-test");
        let mut r = FigureReport::new("figX");
        r.line("hello");
        r.csv(&dir, "x", &["a"]).unwrap();
        let s = r.render();
        assert!(s.contains("== figX =="));
        assert!(s.contains("hello"));
        assert!(s.contains("  -> x.csv\n"), "{s}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn formatters() {
        assert_eq!(secs(1.23456), "1.235");
        assert_eq!(mb(64 * 1024 * 1024), "64.0");
    }
}
