//! Shared line-splitting machinery: the one place in the workspace that
//! knows how to walk a line-oriented record file (blank lines and `#`
//! comments skipped, 1-based line numbers tracked).
//!
//! Both the trace parser here and `opass_workloads::replay` iterate with
//! [`RecordLines`], so the two formats share a single line-splitting and
//! line-numbering path.

/// Iterator over the *meaningful* lines of a record file: blank lines
/// and `#` comments are skipped, every yielded line comes trimmed and
/// paired with its 1-based line number (counted from `first_line`).
///
/// A trailing line without a final newline is still yielded — partial
/// last lines are data, not garbage, and the parser decides whether they
/// parse.
#[derive(Debug, Clone)]
pub struct RecordLines<'a> {
    rest: &'a str,
    next_line: usize,
}

impl<'a> RecordLines<'a> {
    /// Walks `input` with line numbers starting at 1.
    pub fn new(input: &'a str) -> Self {
        RecordLines::with_base(input, 1)
    }

    /// Walks `input` with line numbers starting at `first_line` — how the
    /// trace parser numbers the body that follows its header line.
    pub fn with_base(input: &'a str, first_line: usize) -> Self {
        RecordLines {
            rest: input,
            next_line: first_line,
        }
    }
}

impl<'a> Iterator for RecordLines<'a> {
    type Item = (usize, &'a str);

    fn next(&mut self) -> Option<(usize, &'a str)> {
        while !self.rest.is_empty() {
            let (raw, rest) = match self.rest.split_once('\n') {
                Some((raw, rest)) => (raw, rest),
                None => (self.rest, ""),
            };
            let line_no = self.next_line;
            self.rest = rest;
            self.next_line += 1;
            let line = raw.trim();
            if !line.is_empty() && !line.starts_with('#') {
                return Some((line_no, line));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skips_comments_blanks_and_numbers_lines() {
        let input = "# header\n\na,b\n  \n# mid\nc,d";
        let got: Vec<(usize, &str)> = RecordLines::new(input).collect();
        assert_eq!(got, vec![(3, "a,b"), (6, "c,d")]);
    }

    #[test]
    fn trailing_partial_line_is_yielded() {
        let got: Vec<(usize, &str)> = RecordLines::new("x\npartial").collect();
        assert_eq!(got, vec![(1, "x"), (2, "partial")]);
    }

    #[test]
    fn base_offsets_line_numbers() {
        let got: Vec<(usize, &str)> = RecordLines::with_base("a\nb\n", 40).collect();
        assert_eq!(got, vec![(40, "a"), (41, "b")]);
    }
}
