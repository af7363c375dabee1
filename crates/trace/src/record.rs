//! The access record, its errors, and the line-level text encoding.

use std::fmt;

/// The mandatory first line of every text trace. The version is part of
/// the line so old parsers reject new majors instead of misreading them,
/// and the leading `#` keeps the header a comment for tools that only
/// know "skip `#` lines".
pub const TEXT_HEADER: &str = "#opass-trace v1";

/// One access record: client `client` read `bytes` bytes of chunk
/// `chunk` of dataset `dataset` at `time_us` microseconds into the
/// trace.
///
/// Time is stored as integer microseconds — the text field `time_s`
/// (seconds, up to six decimals) converts to and from it exactly, so no
/// float formatting or parsing sits on the round-trip path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceRecord {
    /// Microseconds since the start of the trace.
    pub time_us: u64,
    /// Issuing client id.
    pub client: u32,
    /// Dataset id.
    pub dataset: u32,
    /// Chunk index within the dataset, below 2³².
    pub chunk: u32,
    /// Bytes read, below 4 GiB.
    pub bytes: u32,
}

impl TraceRecord {
    /// Access time in seconds.
    pub fn time_seconds(&self) -> f64 {
        self.time_us as f64 / 1e6
    }

    /// Appends the record's text line (including the trailing newline).
    pub fn write_line(&self, out: &mut String) {
        let mut buf = [0u8; LINE_MAX];
        let at = self.encode_line(&mut buf);
        out.push_str(std::str::from_utf8(&buf[at..]).expect("decimal digits are ASCII"));
    }

    /// The length of the record's text line, newline included, without
    /// writing it.
    pub(crate) fn line_len(&self) -> usize {
        // Whole seconds, the point and six digits of `time_s`, the other
        // four fields, four commas and the newline.
        decimal_len(self.time_us / 1_000_000)
            + 7
            + decimal_len(self.client.into())
            + decimal_len(self.dataset.into())
            + decimal_len(self.chunk.into())
            + decimal_len(self.bytes.into())
            + 5
    }

    /// The one line writer: formats the record's line so that it ends at
    /// the end of `buf`, and returns where it starts. `buf` must hold the
    /// line: [`TraceRecord::line_len`] bytes, which `LINE_MAX` always
    /// covers.
    ///
    /// The digits go straight into place, last field first — no `fmt`
    /// machinery on the path that writes a line per record.
    pub(crate) fn encode_line(&self, buf: &mut [u8]) -> usize {
        let mut at = buf.len() - 1;
        buf[at] = b'\n';
        for field in [self.bytes, self.chunk, self.dataset, self.client] {
            at = put_decimal(buf, at, field.into());
            at -= 1;
            buf[at] = b',';
        }
        // `time_s`: whole seconds, a point, exactly six fractional digits.
        let mut micros = self.time_us % 1_000_000;
        for _ in 0..3 {
            at = put_pair(buf, at, micros % 100);
            micros /= 100;
        }
        at -= 1;
        buf[at] = b'.';
        put_decimal(buf, at, self.time_us / 1_000_000)
    }

    /// Parses one record line (already stripped of comments/blanks).
    /// `line_no` is the 1-based line number used in errors.
    pub fn parse_line(line: &str, line_no: usize) -> Result<TraceRecord, TraceError> {
        let mut fields = line.split(',');
        let (Some(time), Some(client), Some(dataset), Some(chunk), Some(bytes), None) = (
            fields.next(),
            fields.next(),
            fields.next(),
            fields.next(),
            fields.next(),
            fields.next(),
        ) else {
            return Err(TraceError::BadShape { line: line_no });
        };
        let bad = |field: &str| TraceError::BadValue {
            line: line_no,
            field: field.trim().to_string(),
        };
        Ok(TraceRecord {
            time_us: parse_time_us(time.trim()).ok_or_else(|| bad(time))?,
            client: client.trim().parse().map_err(|_| bad(client))?,
            dataset: dataset.trim().parse().map_err(|_| bad(dataset))?,
            chunk: chunk.trim().parse().map_err(|_| bad(chunk))?,
            bytes: bytes.trim().parse().map_err(|_| bad(bytes))?,
        })
    }
}

/// The longest line a record can write: 14 digits of seconds, the point
/// and six of fraction, four `u32` fields, four commas and the newline.
const LINE_MAX: usize = 14 + 1 + 6 + 4 * 10 + 4 + 1;

/// `"00" "01" … "99"`: two digits per division step.
const DIGIT_PAIRS: &[u8; 200] = b"0001020304050607080910111213141516171819\
2021222324252627282930313233343536373839\
4041424344454647484950515253545556575859\
6061626364656667686970717273747576777879\
8081828384858687888990919293949596979899";

/// Writes the two digits of `value < 100` just before `buf[end]`;
/// returns where they start.
fn put_pair(buf: &mut [u8], end: usize, value: u64) -> usize {
    buf[end - 2..end].copy_from_slice(&DIGIT_PAIRS[2 * value as usize..][..2]);
    end - 2
}

/// Writes `value` in decimal so that it ends just before `buf[end]`;
/// returns where it starts.
fn put_decimal(buf: &mut [u8], end: usize, mut value: u64) -> usize {
    let mut at = end;
    while value >= 100 {
        at = put_pair(buf, at, value % 100);
        value /= 100;
    }
    if value >= 10 {
        put_pair(buf, at, value)
    } else {
        buf[at - 1] = b'0' + value as u8;
        at - 1
    }
}

/// D. Lemire's branch-free digit count. A `u32` whose highest set bit is
/// bit `i` has `d` or `d + 1` digits, `d` being the digit count of `2^i`.
/// Adding `DIGIT_STEPS[i] = ((d + 1) << 32) - 10^d` and shifting right by
/// 32 gives `d` below `10^d` and `d + 1` from it. Where `10^d` is 2³² or
/// more, every such value has `d` digits and the entry is `d << 32`.
const DIGIT_STEPS: [u64; 32] = {
    let mut steps = [0u64; 32];
    let mut bit = 0;
    while bit < 32 {
        // `next` is the least power of ten above `2^bit`, `10^digits`.
        let (mut digits, mut next) = (1u64, 10u64);
        while next <= 1 << bit {
            digits += 1;
            next *= 10;
        }
        steps[bit] = if next < 1 << 32 {
            ((digits + 1) << 32) - next
        } else {
            digits << 32
        };
        bit += 1;
    }
    steps
};

/// The number of decimal digits of `value`.
fn decimal_len(value: u64) -> usize {
    match u32::try_from(value) {
        Ok(small) => {
            ((u64::from(small) + DIGIT_STEPS[(small | 1).ilog2() as usize]) >> 32) as usize
        }
        Err(_) => value.ilog10() as usize + 1,
    }
}

/// Parses a `time_s` field (`12`, `12.5`, `12.345678`) to integer
/// microseconds. At most six fractional digits; no signs, no exponents.
fn parse_time_us(field: &str) -> Option<u64> {
    let (secs, frac) = match field.split_once('.') {
        Some((_, "")) => return None, // `1.` — empty fraction is malformed
        Some((s, f)) => (s, f),
        None => (field, ""),
    };
    if secs.is_empty() || frac.len() > 6 || !frac.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    let secs: u64 = if secs.bytes().all(|b| b.is_ascii_digit()) {
        secs.parse().ok()?
    } else {
        return None;
    };
    let mut micros: u64 = 0;
    for b in frac.bytes() {
        micros = micros * 10 + u64::from(b - b'0');
    }
    micros *= 10u64.pow(6 - frac.len() as u32);
    secs.checked_mul(1_000_000)?.checked_add(micros)
}

/// Errors from parsing a trace (text or binary).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The first line was not a known `#opass-trace` header.
    BadHeader {
        /// What the first line actually was (truncated).
        found: String,
    },
    /// A record line did not have exactly five comma-separated fields.
    BadShape {
        /// 1-based line number.
        line: usize,
    },
    /// A field failed to parse as a number, or was out of range.
    BadValue {
        /// 1-based line number.
        line: usize,
        /// The offending field text.
        field: String,
    },
    /// The binary framing was malformed.
    BadBinary {
        /// Byte offset where the problem was detected.
        offset: usize,
        /// What was wrong.
        reason: &'static str,
    },
    /// The trace contained no records.
    Empty,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::BadHeader { found } => {
                write!(f, "missing `{TEXT_HEADER}` header (first line: {found:?})")
            }
            TraceError::BadShape { line } => {
                write!(
                    f,
                    "line {line}: expected `time_s,client,dataset,chunk,bytes`"
                )
            }
            TraceError::BadValue { line, field } => {
                write!(f, "line {line}: cannot parse {field:?}")
            }
            TraceError::BadBinary { offset, reason } => {
                write!(f, "binary trace, byte {offset}: {reason}")
            }
            TraceError::Empty => write!(f, "trace contains no records"),
        }
    }
}

impl std::error::Error for TraceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_round_trips_exactly() {
        let rec = TraceRecord {
            time_us: 12_345_678,
            client: 7,
            dataset: 3,
            chunk: 4095,
            bytes: 64 << 20,
        };
        let mut line = String::new();
        rec.write_line(&mut line);
        assert_eq!(line, "12.345678,7,3,4095,67108864\n");
        let parsed = TraceRecord::parse_line(line.trim_end(), 1).unwrap();
        assert_eq!(parsed, rec);
    }

    #[test]
    fn written_line_is_byte_equal_to_the_formatted_one() {
        let wide = [0, 9, 10, u32::MAX];
        for time_us in [0, 999_999, 1_000_000, u64::MAX] {
            for client in [0, u32::MAX] {
                for dataset in [0, u32::MAX] {
                    for chunk in wide {
                        for bytes in wide {
                            let rec = TraceRecord {
                                time_us,
                                client,
                                dataset,
                                chunk,
                                bytes,
                            };
                            // Appended after what `out` already holds.
                            let mut line = String::from("#");
                            rec.write_line(&mut line);
                            let formatted = format!(
                                "#{}.{:06},{client},{dataset},{chunk},{bytes}\n",
                                time_us / 1_000_000,
                                time_us % 1_000_000,
                            );
                            assert_eq!(line, formatted);
                            assert!(line.len() <= 1 + LINE_MAX);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn decimal_len_counts_the_written_digits() {
        let mut values = vec![0, u64::from(u32::MAX), u64::from(u32::MAX) + 1, u64::MAX];
        let mut power = 1u64;
        while let Some(next) = power.checked_mul(10) {
            values.extend([power - 1, power, power + 1]);
            power = next;
        }
        for bit in 0..64 {
            values.extend([(1 << bit) - 1, 1 << bit]);
        }
        for value in values {
            assert_eq!(decimal_len(value), value.to_string().len(), "{value}");
        }
        for record in [
            TraceRecord {
                time_us: 0,
                client: 0,
                dataset: 0,
                chunk: 0,
                bytes: 0,
            },
            TraceRecord {
                time_us: u64::MAX,
                client: u32::MAX,
                dataset: 9,
                chunk: 10,
                bytes: 99_999,
            },
        ] {
            let mut line = String::new();
            record.write_line(&mut line);
            assert_eq!(record.line_len(), line.len());
        }
    }

    #[test]
    fn time_field_accepts_short_fractions() {
        assert_eq!(parse_time_us("12"), Some(12_000_000));
        assert_eq!(parse_time_us("12.5"), Some(12_500_000));
        assert_eq!(parse_time_us("0.000001"), Some(1));
        assert_eq!(parse_time_us("0"), Some(0));
    }

    #[test]
    fn time_field_rejects_junk() {
        for bad in ["", ".", "1.", "-1", "1.2345678", "1e3", "1.2.3", "x"] {
            assert_eq!(parse_time_us(bad), None, "{bad:?} should not parse");
        }
    }

    #[test]
    fn shape_and_value_errors_carry_line_numbers() {
        assert_eq!(
            TraceRecord::parse_line("1,2,3,4", 9),
            Err(TraceError::BadShape { line: 9 })
        );
        assert_eq!(
            TraceRecord::parse_line("1,2,3,4,x", 9),
            Err(TraceError::BadValue {
                line: 9,
                field: "x".into()
            })
        );
    }
}
