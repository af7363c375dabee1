//! Compact binary framing for multi-GB traces.
//!
//! Layout: the 8-byte magic [`BINARY_MAGIC`], a little-endian `u64`
//! record count, then `count` fixed-width 32-byte records
//! (`time_us: u64, client: u32, dataset: u32, chunk: u64, bytes: u64`,
//! all little-endian). Decoding is one sequential pass; a record-range
//! split over two threads measured slower than one thread.

use crate::record::{TraceError, TraceRecord};

/// Magic bytes opening every binary trace; the trailing `1` is the
/// format version.
pub const BINARY_MAGIC: [u8; 8] = *b"OPTRACE1";

/// Bytes per encoded record.
const RECORD_BYTES: usize = 32;
/// Bytes before the first record: magic + count.
const HEADER_BYTES: usize = 16;

/// Serializes records to the binary framing. The inverse of
/// [`parse_binary`].
pub fn write_binary(records: &[TraceRecord]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_BYTES + RECORD_BYTES * records.len());
    out.extend_from_slice(&BINARY_MAGIC);
    out.extend_from_slice(&(records.len() as u64).to_le_bytes());
    for r in records {
        out.extend_from_slice(&r.time_us.to_le_bytes());
        out.extend_from_slice(&r.client.to_le_bytes());
        out.extend_from_slice(&r.dataset.to_le_bytes());
        out.extend_from_slice(&r.chunk.to_le_bytes());
        out.extend_from_slice(&r.bytes.to_le_bytes());
    }
    out
}

/// Decodes a binary trace: validates the header, then decodes every
/// record in order into one `Vec`.
///
/// # Errors
///
/// [`TraceError::BadBinary`] on bad magic, a truncated body, or trailing
/// garbage; [`TraceError::Empty`] when the count is zero.
pub fn parse_binary(input: &[u8]) -> Result<Vec<TraceRecord>, TraceError> {
    if input.len() < HEADER_BYTES {
        return Err(TraceError::BadBinary {
            offset: input.len(),
            reason: "shorter than the 16-byte header",
        });
    }
    if input[..8] != BINARY_MAGIC {
        return Err(TraceError::BadBinary {
            offset: 0,
            reason: "bad magic (expected OPTRACE1)",
        });
    }
    let count = u64::from_le_bytes(input[8..16].try_into().expect("8-byte slice")) as usize;
    if count == 0 {
        return Err(TraceError::Empty);
    }
    let body = &input[HEADER_BYTES..];
    let expected = count
        .checked_mul(RECORD_BYTES)
        .ok_or(TraceError::BadBinary {
            offset: 8,
            reason: "record count overflows",
        })?;
    if body.len() < expected {
        return Err(TraceError::BadBinary {
            offset: input.len(),
            reason: "truncated record body",
        });
    }
    if body.len() > expected {
        return Err(TraceError::BadBinary {
            offset: HEADER_BYTES + expected,
            reason: "trailing bytes after the last record",
        });
    }

    let u64_at = |rec: &[u8], at: usize| {
        u64::from_le_bytes(rec[at..at + 8].try_into().expect("8-byte slice"))
    };
    let u32_at = |rec: &[u8], at: usize| {
        u32::from_le_bytes(rec[at..at + 4].try_into().expect("4-byte slice"))
    };
    Ok(body
        .chunks_exact(RECORD_BYTES)
        .map(|rec| TraceRecord {
            time_us: u64_at(rec, 0),
            client: u32_at(rec, 8),
            dataset: u32_at(rec, 12),
            chunk: u64_at(rec, 16),
            bytes: u64_at(rec, 24),
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: u64) -> Vec<TraceRecord> {
        (0..n)
            .map(|i| TraceRecord {
                time_us: i * 137,
                client: (i % 11) as u32,
                dataset: (i % 5) as u32,
                chunk: i * 3 % 640,
                bytes: 64 << 20,
            })
            .collect()
    }

    #[test]
    fn binary_round_trips() {
        let records = sample(100);
        let bytes = write_binary(&records);
        assert_eq!(bytes.len(), 16 + 32 * 100);
        assert_eq!(parse_binary(&bytes).unwrap(), records);
    }

    #[test]
    fn rejects_malformed_framing() {
        let good = write_binary(&sample(3));
        let cases: Vec<(Vec<u8>, &str)> = vec![
            (b"short".to_vec(), "shorter than the 16-byte header"),
            (
                {
                    let mut b = good.clone();
                    b[0] = b'X';
                    b
                },
                "bad magic (expected OPTRACE1)",
            ),
            (good[..good.len() - 1].to_vec(), "truncated record body"),
            (
                {
                    let mut b = good.clone();
                    b.push(0);
                    b
                },
                "trailing bytes after the last record",
            ),
        ];
        for (bytes, want) in cases {
            match parse_binary(&bytes) {
                Err(TraceError::BadBinary { reason, .. }) => assert_eq!(reason, want),
                other => panic!("expected BadBinary({want}), got {other:?}"),
            }
        }
        let empty = write_binary(&[]);
        assert_eq!(parse_binary(&empty), Err(TraceError::Empty));
    }
}
