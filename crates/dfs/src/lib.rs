//! # opass-dfs — an HDFS-model distributed file system substrate
//!
//! The Opass paper runs against HDFS; this crate models exactly the slice of
//! HDFS that the paper's analysis and optimizer depend on:
//!
//! * a [`Namenode`] holding the chunk→replica-locations block map, with
//!   `r`-way replication (default 3) and 64 MB chunks;
//! * write-time [`Placement`] policies (random — the default the paper
//!   analyzes — plus writer-local and round-robin for ablations);
//! * read-time [`ReplicaChoice`] policies (prefer-local-else-random — the
//!   HDFS default — plus fully random and planner-directed);
//! * [`LayoutSnapshot`] — the layout retrieval Opass performs before
//!   matching;
//! * node addition and decommission with re-replication, the churn the
//!   paper blames for skewed distributions;
//! * deterministic synthetic chunk payloads (see [`datanode`]) so examples
//!   can verify end-to-end data integrity.
//!
//! ```
//! use opass_dfs::{DatasetSpec, DfsConfig, Namenode, Placement};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut nn = Namenode::new(8, DfsConfig::default());
//! let mut rng = StdRng::seed_from_u64(1);
//! let ds = nn.create_dataset(
//!     &DatasetSpec::uniform("demo", 16, 64 << 20),
//!     &Placement::Random,
//!     &mut rng,
//! );
//! let chunks = &nn.dataset(ds).unwrap().chunks;
//! assert_eq!(nn.locate(chunks[0]).unwrap().len(), 3); // 3 replicas
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod chunk;
pub mod datanode;
pub mod delta;
pub mod error;
pub mod ids;
mod json;
pub mod layout;
pub mod namenode;
pub mod placement;
pub mod reader;
pub mod replicas;
pub mod topology;

pub use chunk::{ChunkMeta, DatasetMeta, DatasetSpec, DEFAULT_CHUNK_SIZE};
pub use delta::{LayoutDelta, LayoutEvent};
pub use error::DfsError;
pub use ids::{ChunkId, DatasetId, NodeId};
pub use layout::{seeded_layouts, ChunkIndex, ChunkLayout, LayoutSnapshot};
pub use namenode::{DfsConfig, Namenode};
pub use placement::Placement;
pub use reader::ReplicaChoice;
pub use replicas::Replicas;
pub use topology::RackMap;
