//! # opass-trace — trace-driven workloads at 1BRC scale
//!
//! Every other workload in the workspace is a synthetic generator; this
//! crate makes access patterns *data*. It defines a line-oriented trace
//! format (one access record per line), a compact binary framing for
//! multi-GB traces, a chunked parallel parser in the 1BRC style, and a
//! seeded generator producing Zipfian dataset popularity, diurnal load
//! swings, and flash-crowd bursts from a JSON [`TraceSpec`].
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
//! ## Determinism discipline
//!
//! [`parse_text_with_threads`] splits the input into seek-aligned byte
//! ranges snapped to newline boundaries, parses each range on a scoped
//! thread, and merges by joining workers **in spawn order**, kept honest
//! by opass-lint's `unordered-parallel-merge` and
//! `transitive-determinism` rules. The parsed output (and the first
//! reported error, if any) is bit-identical across 1, 2, and 8 threads. [`generate`] is a pure function of its
//! [`TraceSpec`]: equal specs yield byte-identical traces.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod binary;
pub mod gen;
pub mod lines;
pub mod parser;
pub mod record;
pub mod spec;

pub use binary::{parse_binary, write_binary, BINARY_MAGIC};
pub use gen::{generate, generate_text};
pub use lines::{split_at_newlines, RecordLines};
pub use parser::{parse_text, parse_text_with_threads, write_text};
pub use record::{TraceError, TraceRecord, TEXT_HEADER};
pub use spec::{BurstSpec, TraceSpec};
