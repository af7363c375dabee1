//! How the layout types read and write as JSON: ids as numbers, a
//! replica set as an array of node ids, and one `field: "key"` table
//! each for [`ChunkLayout`] and [`LayoutDelta`].

use crate::{ChunkId, ChunkLayout, LayoutDelta, NodeId, Replicas};
use opass_json::{json_object, Field, FieldError, Json};

impl Field for ChunkId {
    fn put(&self) -> Json {
        self.0.put()
    }
    fn take(v: &Json, key: &str) -> Result<ChunkId, FieldError> {
        u64::take(v, key).map(ChunkId)
    }
}

/// A node id must fit `u32`: a delta naming node 2³² + 5 must not be
/// applied to node 5.
impl Field for NodeId {
    fn put(&self) -> Json {
        self.0.put()
    }
    fn take(v: &Json, key: &str) -> Result<NodeId, FieldError> {
        u32::try_from(u64::take(v, key)?)
            .map(NodeId)
            .map_err(|_| FieldError::must_be(key, "a node id below 2^32"))
    }
}

impl Field for Replicas {
    fn put(&self) -> Json {
        Json::Array(self.iter().map(Field::put).collect())
    }
    fn take(v: &Json, key: &str) -> Result<Replicas, FieldError> {
        Vec::<NodeId>::take(v, key).map(Replicas::from)
    }
}

json_object! {
    // Added files reuse the layout-entry shape; replica changes are
    // `[chunk, node]` pairs.
    ChunkLayout { chunk: "chunk", size: "size", locations: "locations" }
    LayoutDelta {
        files_added: "files_added",
        files_removed: "files_removed",
        replicas_added: "replicas_added",
        replicas_dropped: "replicas_dropped",
        nodes_failed: "nodes_failed",
        nodes_joined: "nodes_joined",
    }
}
