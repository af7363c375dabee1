//! Trace replay: build a workload from a user-supplied task trace.
//!
//! Downstream users rarely have the paper's exact workloads; they have
//! their own task logs. The replay format is a minimal CSV — one task per
//! line, `size_bytes,compute_seconds` — optionally with a header and `#`
//! comments. The loader creates a dataset with one chunk per task (placed
//! under the caller's policy) and the matching workload, after which every
//! planner and executor in the stack applies unchanged.
//!
//! Line walking (comment/blank skipping, 1-based line numbers) is shared
//! with the access-trace parser via [`opass_trace::lines::RecordLines`],
//! so both record formats split lines one way.

use crate::task::{Task, Workload};
use opass_dfs::{DatasetId, DatasetSpec, Namenode, Placement};
use opass_trace::RecordLines;
use rand::rngs::StdRng;
use std::fmt;

/// Errors from parsing a replay trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// A line did not have exactly two comma-separated fields.
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
    /// The trace contained no tasks.
    Empty,
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::BadShape { line } => {
                write!(f, "line {line}: expected `size_bytes,compute_seconds`")
            }
            ReplayError::BadValue { line, field } => {
                write!(f, "line {line}: cannot parse {field:?}")
            }
            ReplayError::Empty => write!(f, "trace contains no tasks"),
        }
    }
}

impl std::error::Error for ReplayError {}

/// One parsed trace row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceTask {
    /// Input size in bytes (must be positive).
    pub size_bytes: u64,
    /// Compute seconds after the read (non-negative, finite).
    pub compute_seconds: f64,
}

/// Parses the replay CSV. Blank lines and `#` comments are skipped; a
/// first line starting with a non-digit is treated as a header.
pub fn parse(csv: &str) -> Result<Vec<TraceTask>, ReplayError> {
    let mut tasks = Vec::new();
    for (line_no, line) in RecordLines::new(csv) {
        if tasks.is_empty() && line.chars().next().is_some_and(|c| !c.is_ascii_digit()) {
            continue; // header
        }
        let mut fields = line.split(',');
        let (Some(size), Some(compute), None) = (fields.next(), fields.next(), fields.next())
        else {
            return Err(ReplayError::BadShape { line: line_no });
        };
        let size_bytes: u64 = size.trim().parse().map_err(|_| ReplayError::BadValue {
            line: line_no,
            field: size.trim().to_string(),
        })?;
        let compute_seconds: f64 = compute.trim().parse().map_err(|_| ReplayError::BadValue {
            line: line_no,
            field: compute.trim().to_string(),
        })?;
        if size_bytes == 0 || !compute_seconds.is_finite() || compute_seconds < 0.0 {
            return Err(ReplayError::BadValue {
                line: line_no,
                field: line.to_string(),
            });
        }
        tasks.push(TraceTask {
            size_bytes,
            compute_seconds,
        });
    }
    if tasks.is_empty() {
        return Err(ReplayError::Empty);
    }
    Ok(tasks)
}

/// Builds the dataset + workload for a parsed trace.
fn materialize(
    namenode: &mut Namenode,
    name: &str,
    trace: &[TraceTask],
    placement: &Placement,
    rng: &mut StdRng,
) -> (DatasetId, Workload) {
    assert!(!trace.is_empty(), "trace must contain tasks");
    let spec = DatasetSpec {
        name: name.to_string(),
        chunk_sizes: trace.iter().map(|t| t.size_bytes).collect(),
    };
    let ds = namenode.create_dataset(&spec, placement, rng);
    let chunks = namenode.dataset(ds).expect("just created").chunks.clone();
    let tasks = chunks
        .into_iter()
        .zip(trace)
        .map(|(c, t)| Task::single(c).with_compute(t.compute_seconds))
        .collect();
    (ds, Workload::new(name, tasks))
}

/// Parses and materializes in one step.
pub fn from_csv(
    namenode: &mut Namenode,
    name: &str,
    csv: &str,
    placement: &Placement,
    rng: &mut StdRng,
) -> Result<(DatasetId, Workload), ReplayError> {
    let trace = parse(csv)?;
    Ok(materialize(namenode, name, &trace, placement, rng))
}

/// Serializes a workload back into the replay format (round-trip support;
/// chunk sizes come from the namenode).
pub fn to_csv(namenode: &Namenode, workload: &Workload) -> String {
    let mut out = String::from("size_bytes,compute_seconds\n");
    for task in &workload.tasks {
        let size = namenode.chunk(task.inputs[0]).map(|c| c.size).unwrap_or(0);
        out.push_str(&format!("{size},{}\n", task.compute_seconds));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use opass_dfs::DfsConfig;
    use rand::SeedableRng;

    const SAMPLE: &str = "\
size_bytes,compute_seconds
# gene comparison trace
67108864,0.5
33554432,1.25

16777216,0
";

    #[test]
    fn parses_header_comments_and_blanks() {
        let tasks = parse(SAMPLE).unwrap();
        assert_eq!(tasks.len(), 3);
        assert_eq!(tasks[0].size_bytes, 64 << 20);
        assert_eq!(tasks[1].compute_seconds, 1.25);
        assert_eq!(tasks[2].compute_seconds, 0.0);
    }

    #[test]
    fn rejects_malformed_rows() {
        assert!(matches!(
            parse("1,2,3\n"),
            Err(ReplayError::BadShape { line: 1 })
        ));
        assert!(matches!(
            parse("abc,1\n12,x\n"),
            Err(ReplayError::BadValue { line: 2, .. }) | Err(ReplayError::BadShape { .. })
        ));
        assert!(matches!(
            parse("0,1\n"),
            Err(ReplayError::BadValue { line: 1, .. })
        ));
        assert!(matches!(
            parse("# only comments\n"),
            Err(ReplayError::Empty)
        ));
    }

    #[test]
    fn materialize_builds_matching_dataset() {
        let mut nn = Namenode::new(6, DfsConfig::default());
        let mut rng = StdRng::seed_from_u64(4);
        let (ds, w) = from_csv(&mut nn, "replay", SAMPLE, &Placement::Random, &mut rng).unwrap();
        assert_eq!(w.len(), 3);
        let chunks = &nn.dataset(ds).unwrap().chunks;
        assert_eq!(nn.chunk(chunks[1]).unwrap().size, 32 << 20);
        assert_eq!(w.tasks[1].compute_seconds, 1.25);
    }

    #[test]
    fn csv_round_trips() {
        let mut nn = Namenode::new(6, DfsConfig::default());
        let mut rng = StdRng::seed_from_u64(9);
        let (_, w) = from_csv(&mut nn, "rt", SAMPLE, &Placement::Random, &mut rng).unwrap();
        let exported = to_csv(&nn, &w);
        let reparsed = parse(&exported).unwrap();
        assert_eq!(reparsed.len(), 3);
        assert_eq!(reparsed[0].size_bytes, 64 << 20);
        assert_eq!(reparsed[1].compute_seconds, 1.25);
    }
}
