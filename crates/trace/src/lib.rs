//! # opass-trace — trace-driven workloads at 1BRC scale
//!
//! Every other workload in the workspace is a synthetic generator; this
//! crate makes access patterns *data*. It defines a line-oriented trace
//! format (one access record per line), a compact binary framing for
//! multi-GB traces, a one-pass text parser, and a seeded generator
//! producing Zipfian dataset popularity, diurnal load swings, and
//! flash-crowd bursts from a JSON [`TraceSpec`].
//!
//! ## Text format
//!
//! ```text
//! #opass-trace v1
//! # columns: time_s,client,dataset,chunk,bytes
//! 0.000124,17,0,831,67108864
//! 0.000391,4,2,17,67108864
//! ```
//!
//! The first line is the mandatory versioned header. Every other
//! non-blank line is either a `#` comment or a record of five
//! comma-separated fields: access time in seconds (micro-second
//! resolution), client id, dataset id, chunk index within the dataset,
//! and bytes read. Timestamps are parsed to integer microseconds, so
//! text → records → text round-trips byte-identically with no float
//! formatting in the loop.
//!
//! A [`TraceRecord`] is 24 bytes: `chunk` (an index below 2³²) and
//! `bytes` (a read below 4 GiB) are `u32`. A larger value in either
//! column is refused as [`TraceError::BadValue`] in text and as
//! [`TraceError::BadBinary`] in the binary framing, whose 32-byte
//! records keep both columns `u64` on disk.
//!
//! ## Determinism discipline
//!
//! [`generate`] is a pure function of its [`TraceSpec`]: equal specs
//! yield byte-identical traces. It runs on two threads without changing
//! a bit: only the arrival times form a serial chain, so the calling
//! thread runs that chain (and the dataset pick that reads it) one block
//! at a time while one scoped worker makes the next block's RNG draws
//! and appends the previous block's records. The generator moves through
//! the workers in spawn order, so it draws the stream a single loop
//! would; a test oracle keeps that loop and the pipeline is compared to
//! it bit for bit. [`generate_text_to`] and [`generate_binary_to`] stream
//! the same pipeline's blocks to a writer, holding one block rather than
//! the trace. [`write_text`] sums its lines' lengths first, then formats
//! the two halves of a large input on two threads, each into its own
//! part of one exactly-sized buffer.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod binary;
pub mod gen;
pub mod lines;
pub mod parser;
pub mod record;
pub mod spec;

pub use binary::{parse_binary, write_binary, BINARY_MAGIC};
pub use gen::{generate, generate_binary_to, generate_text, generate_text_to};
pub use lines::RecordLines;
pub use parser::{parse_text, write_text};
pub use record::{TraceError, TraceRecord, TEXT_HEADER};
pub use spec::{BurstSpec, TraceSpec};
