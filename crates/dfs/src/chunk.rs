//! Chunk and dataset metadata.

use crate::ids::{ChunkId, DatasetId, NodeId};
use crate::replicas::Replicas;

/// The HDFS default chunk size used throughout the paper: 64 MB.
pub const DEFAULT_CHUNK_SIZE: u64 = 64 * 1024 * 1024;

/// Metadata of one chunk file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkMeta {
    /// Global chunk id.
    pub id: ChunkId,
    /// Owning dataset.
    pub dataset: DatasetId,
    /// Position within the dataset (0-based).
    pub index_in_dataset: usize,
    /// Size in bytes (≤ the configured chunk size).
    pub size: u64,
    /// Nodes holding a replica, sorted, no duplicates.
    pub locations: Replicas,
}

impl ChunkMeta {
    /// True when `node` holds a replica of this chunk.
    pub fn is_on(&self, node: NodeId) -> bool {
        self.locations.binary_search(&node).is_ok()
    }
}

/// Specification of a dataset to create.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatasetSpec {
    /// Human-readable name ("macromolecular-0042").
    pub name: String,
    /// Size of every chunk, in order.
    pub chunk_sizes: Vec<u64>,
}

impl DatasetSpec {
    /// A dataset of `n_chunks` equal chunks.
    pub fn uniform(name: impl Into<String>, n_chunks: usize, chunk_size: u64) -> Self {
        assert!(chunk_size > 0, "chunk size must be positive");
        DatasetSpec {
            name: name.into(),
            chunk_sizes: vec![chunk_size; n_chunks],
        }
    }

    /// Total bytes across all chunks.
    pub fn total_bytes(&self) -> u64 {
        self.chunk_sizes.iter().sum()
    }

    /// Number of chunks.
    pub fn n_chunks(&self) -> usize {
        self.chunk_sizes.len()
    }
}

/// Metadata of a created dataset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatasetMeta {
    /// Dataset id.
    pub id: DatasetId,
    /// Name from the spec.
    pub name: String,
    /// The dataset's chunks, in order.
    pub chunks: Vec<ChunkId>,
    /// Total bytes.
    pub total_bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_spec() {
        let s = DatasetSpec::uniform("d", 10, 64);
        assert_eq!(s.n_chunks(), 10);
        assert_eq!(s.total_bytes(), 640);
    }

    #[test]
    fn chunk_is_on() {
        let c = ChunkMeta {
            id: ChunkId(0),
            dataset: DatasetId(0),
            index_in_dataset: 0,
            size: 64,
            locations: vec![NodeId(1), NodeId(5), NodeId(9)].into(),
        };
        assert!(c.is_on(NodeId(5)));
        assert!(!c.is_on(NodeId(2)));
    }
}
