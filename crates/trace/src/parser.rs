//! Parsing and writing of the text trace format.

use crate::lines::RecordLines;
use crate::record::{TraceError, TraceRecord, TEXT_HEADER};

/// Parses a text trace.
///
/// # Errors
///
/// [`TraceError::BadHeader`] when the first line is not
/// [`TEXT_HEADER`], [`TraceError::BadShape`] / [`TraceError::BadValue`]
/// for the first malformed record, [`TraceError::Empty`] when no
/// records remain after comments and blanks.
pub fn parse_text(input: &str) -> Result<Vec<TraceRecord>, TraceError> {
    let body = strip_header(input)?;
    let mut records = Vec::new();
    // The header is line 1, so the body starts at line 2.
    for (line_no, line) in RecordLines::with_base(body, 2) {
        records.push(TraceRecord::parse_line(line, line_no)?);
    }
    if records.is_empty() {
        return Err(TraceError::Empty);
    }
    Ok(records)
}

/// Records below which [`write_text`] formats on the calling thread
/// alone: under this, a scoped worker costs more to start than the half
/// it would format saves.
const SPLIT_MIN: usize = 8_192;

/// Serializes records to the text format, header included. The inverse
/// of [`parse_text`]: `parse_text(&write_text(r)) == Ok(r)` for any
/// non-empty `r`.
///
/// From 8 192 records on, the second half is formatted on one
/// scoped worker, into its own part of the same exactly-sized buffer.
pub fn write_text(records: &[TraceRecord]) -> String {
    render_text(&text_preamble(), records)
}

/// The header line and the column comment that open every text trace
/// this crate writes.
pub(crate) fn text_preamble() -> String {
    format!("{TEXT_HEADER}\n# columns: time_s,client,dataset,chunk,bytes\n")
}

/// `preamble` followed by the records' lines, in one buffer sized to the
/// byte: the lines' lengths are summed first, so the buffer is never
/// grown and each half lands where it belongs.
pub(crate) fn render_text(preamble: &str, records: &[TraceRecord]) -> String {
    let mid = if records.len() < SPLIT_MIN {
        records.len()
    } else {
        records.len() / 2
    };
    let (head, tail) = records.split_at(mid);
    let head_end = preamble.len() + lines_len(head);
    let mut out = vec![0u8; head_end + lines_len(tail)];
    let (front, back) = out.split_at_mut(head_end);
    let (front_preamble, front_lines) = front.split_at_mut(preamble.len());
    front_preamble.copy_from_slice(preamble.as_bytes());
    if tail.is_empty() {
        put_lines(head, front_lines);
    } else {
        std::thread::scope(|scope| {
            let worker = scope.spawn(|| put_lines(tail, back));
            put_lines(head, front_lines);
            worker.join().expect("text writer worker panicked");
        });
    }
    String::from_utf8(out).expect("trace text is ASCII")
}

/// The bytes the records' lines take.
pub(crate) fn lines_len(records: &[TraceRecord]) -> usize {
    records.iter().map(TraceRecord::line_len).sum()
}

/// Writes the records' lines back to back into `out`, which is exactly
/// [`lines_len`] bytes. The lines are placed last first, each ending where
/// the next begins, so no line is measured twice or copied.
pub(crate) fn put_lines(records: &[TraceRecord], out: &mut [u8]) {
    let mut end = out.len();
    for record in records.iter().rev() {
        end = record.encode_line(&mut out[..end]);
    }
    debug_assert_eq!(end, 0, "lines_len sized the buffer");
}

/// Validates the version header and returns the body after it.
fn strip_header(input: &str) -> Result<&str, TraceError> {
    let (first, rest) = match input.split_once('\n') {
        Some((first, rest)) => (first, rest),
        None => (input, ""),
    };
    if first.trim_end() != TEXT_HEADER {
        let mut found = first.trim_end().to_string();
        found.truncate(64);
        return Err(TraceError::BadHeader { found });
    }
    Ok(rest)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "#opass-trace v1\n# columns: time_s,client,dataset,chunk,bytes\n\
         0.000100,1,0,5,1024\n\n# gap\n1.5,2,1,7,2048\n2,0,0,0,4096";

    #[test]
    fn parses_comments_blanks_and_partial_trailing_line() {
        let records = parse_text(SAMPLE).unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].time_us, 100);
        assert_eq!(records[1].time_us, 1_500_000);
        assert_eq!(records[2].time_us, 2_000_000);
        assert_eq!(records[2].bytes, 4096);
    }

    #[test]
    fn rejects_missing_header() {
        let err = parse_text("0.1,1,0,5,1024\n").unwrap_err();
        assert!(matches!(err, TraceError::BadHeader { .. }), "{err:?}");
    }

    #[test]
    fn error_line_numbers_count_the_header_and_comments() {
        // Line 4 (after header + comment) is malformed.
        let input = "#opass-trace v1\n# c\n0.1,1,0,5,1024\nbogus,1,0,5,1024\n0.2,1,0,5,1024\n";
        assert_eq!(
            parse_text(input).unwrap_err(),
            TraceError::BadValue {
                line: 4,
                field: "bogus".into()
            }
        );
    }

    #[test]
    fn write_parse_round_trips() {
        let records = parse_text(SAMPLE).unwrap();
        let text = write_text(&records);
        assert_eq!(parse_text(&text).unwrap(), records);
        // And the re-serialization is a fixed point.
        assert_eq!(write_text(&parse_text(&text).unwrap()), text);
    }

    #[test]
    fn split_writer_matches_the_line_writer() {
        let widest = TraceRecord {
            time_us: u64::MAX,
            client: u32::MAX,
            dataset: u32::MAX,
            chunk: u32::MAX,
            bytes: u32::MAX,
        };
        for len in [
            0,
            1,
            2,
            3,
            101,
            SPLIT_MIN - 1,
            SPLIT_MIN,
            SPLIT_MIN + 1,
            2 * SPLIT_MIN + 1,
        ] {
            // The widest fields land in both halves and at both ends.
            let records: Vec<TraceRecord> = (0..len)
                .map(|i| match i % 97 {
                    _ if i + 1 == len => widest,
                    5 => widest,
                    r => TraceRecord {
                        time_us: i as u64 * 7_919,
                        client: r as u32,
                        dataset: (i % 5) as u32,
                        chunk: (i * 31 % 100_000) as u32,
                        bytes: 1 << (i % 32),
                    },
                })
                .collect();
            let mut lines = text_preamble();
            for record in &records {
                record.write_line(&mut lines);
            }
            assert_eq!(write_text(&records), lines, "{len} records");
        }
    }

    #[test]
    fn empty_trace_is_an_error() {
        assert_eq!(
            parse_text("#opass-trace v1\n# nothing\n"),
            Err(TraceError::Empty)
        );
        assert_eq!(parse_text("#opass-trace v1"), Err(TraceError::Empty));
    }
}
