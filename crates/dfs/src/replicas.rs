//! Inline replica lists.
//!
//! A chunk's replica holders are a short sorted set — three nodes under
//! the HDFS default — but the block map stores one such set per chunk, and
//! every layout snapshot copies them all. A `Vec<NodeId>` pays a heap
//! block (and an allocator round trip on every copy) for those twelve
//! bytes. [`Replicas`] keeps up to three holders inside its 16-byte value
//! and spills to the heap only above that, so chunk tables and layout
//! snapshots are flat arrays that copy with one `memcpy`.

use crate::ids::NodeId;
use std::fmt;
use std::ops::Deref;

/// Holders stored inline: the HDFS default replication. A tag, a length
/// and three node ids take 16 bytes, and so does the spilled variant's
/// tag and thin pointer, so three slots is what 16 bytes hold.
pub(crate) const INLINE: usize = 3;

/// The nodes holding a replica of one chunk: sorted ascending, no
/// duplicates — every constructor and mutator keeps that true, which is
/// why there is no `DerefMut`. Reads go through the slice it derefs to.
#[derive(Clone)]
pub struct Replicas(Repr);

#[derive(Clone)]
enum Repr {
    /// `nodes[..len]` are the holders.
    Inline { len: u8, nodes: [NodeId; INLINE] },
    /// More than [`INLINE`] holders. The `Vec` is boxed so the variant
    /// is one thin pointer: a `Box<[NodeId]>` is a 16-byte fat pointer
    /// and would make the value 24 bytes.
    #[allow(clippy::box_collection)] // the extra heap hop is the point
    Spilled(Box<Vec<NodeId>>),
}

/// Sorts `nodes` and moves the distinct values to the front, returning
/// how many there are.
fn sort_dedup(nodes: &mut [NodeId]) -> usize {
    nodes.sort_unstable();
    let mut kept = 0;
    for i in 0..nodes.len() {
        if kept == 0 || nodes[kept - 1] != nodes[i] {
            nodes[kept] = nodes[i];
            kept += 1;
        }
    }
    kept
}

impl Replicas {
    /// The empty set.
    pub const fn new() -> Self {
        Replicas(Repr::Inline {
            len: 0,
            nodes: [NodeId(0); INLINE],
        })
    }

    /// The set of `nodes[..len]`, which must be ascending and
    /// duplicate-free; the slots past `len` are ignored.
    pub(crate) fn inline(nodes: [NodeId; INLINE], len: usize) -> Self {
        debug_assert!(len <= INLINE && nodes[..len].windows(2).all(|w| w[0] < w[1]));
        Replicas(Repr::Inline {
            len: len as u8,
            nodes,
        })
    }

    /// `sorted` must already be ascending and duplicate-free.
    pub(crate) fn from_sorted(sorted: &[NodeId]) -> Self {
        if sorted.len() > INLINE {
            return Replicas(Repr::Spilled(Box::new(sorted.to_vec())));
        }
        let mut nodes = [NodeId(0); INLINE];
        nodes[..sorted.len()].copy_from_slice(sorted);
        Self::inline(nodes, sorted.len())
    }

    /// Adds `node` at its sorted position. Returns `false` (and changes
    /// nothing) when it was already a holder.
    pub fn insert(&mut self, node: NodeId) -> bool {
        let Err(pos) = self.binary_search(&node) else {
            return false;
        };
        match &mut self.0 {
            Repr::Inline { len, nodes } if (*len as usize) < INLINE => {
                nodes.copy_within(pos..*len as usize, pos + 1);
                nodes[pos] = node;
                *len += 1;
            }
            Repr::Inline { nodes, .. } => {
                let mut grown = Vec::with_capacity(INLINE + 1);
                grown.extend_from_slice(&nodes[..pos]);
                grown.push(node);
                grown.extend_from_slice(&nodes[pos..]);
                self.0 = Repr::Spilled(Box::new(grown));
            }
            Repr::Spilled(nodes) => nodes.insert(pos, node),
        }
        true
    }

    /// Keeps only the holders `keep` accepts, in order. A spilled set
    /// that shrinks to the inline capacity moves back inline.
    pub fn retain(&mut self, mut keep: impl FnMut(&NodeId) -> bool) {
        match &mut self.0 {
            Repr::Inline { len, nodes } => {
                let mut kept = 0;
                for i in 0..*len as usize {
                    if keep(&nodes[i]) {
                        nodes[kept] = nodes[i];
                        kept += 1;
                    }
                }
                *len = kept as u8;
            }
            Repr::Spilled(nodes) => {
                nodes.retain(|n| keep(n));
                if nodes.len() <= INLINE {
                    *self = Self::from_sorted(nodes);
                }
            }
        }
    }

    /// True when the holders live in a heap block.
    #[cfg(test)]
    pub(crate) fn is_spilled(&self) -> bool {
        matches!(self.0, Repr::Spilled(_))
    }
}

impl Default for Replicas {
    fn default() -> Self {
        Self::new()
    }
}

impl Deref for Replicas {
    type Target = [NodeId];

    fn deref(&self) -> &[NodeId] {
        match &self.0 {
            Repr::Inline { len, nodes } => &nodes[..*len as usize],
            Repr::Spilled(nodes) => nodes,
        }
    }
}

impl<'a> IntoIterator for &'a Replicas {
    type Item = &'a NodeId;
    type IntoIter = std::slice::Iter<'a, NodeId>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Sorts and deduplicates.
impl From<Vec<NodeId>> for Replicas {
    fn from(mut nodes: Vec<NodeId>) -> Self {
        let kept = sort_dedup(&mut nodes);
        Self::from_sorted(&nodes[..kept])
    }
}

/// Sorts and deduplicates; allocates only when more than the inline
/// capacity arrives.
impl FromIterator<NodeId> for Replicas {
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        let mut iter = iter.into_iter();
        let mut nodes = [NodeId(0); INLINE];
        let mut len = 0;
        while len < INLINE {
            let Some(node) = iter.next() else { break };
            nodes[len] = node;
            len += 1;
        }
        match iter.next() {
            None => {
                let kept = sort_dedup(&mut nodes[..len]);
                Self::from_sorted(&nodes[..kept])
            }
            Some(node) => {
                let mut all = nodes.to_vec();
                all.push(node);
                all.extend(iter);
                all.into()
            }
        }
    }
}

impl fmt::Debug for Replicas {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl PartialEq for Replicas {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Replicas {}

impl PartialEq<[NodeId]> for Replicas {
    fn eq(&self, other: &[NodeId]) -> bool {
        **self == *other
    }
}

impl PartialEq<&[NodeId]> for Replicas {
    fn eq(&self, other: &&[NodeId]) -> bool {
        **self == **other
    }
}

impl PartialEq<Vec<NodeId>> for Replicas {
    fn eq(&self, other: &Vec<NodeId>) -> bool {
        **self == other[..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::ChunkMeta;
    use crate::layout::ChunkLayout;

    fn ids(raw: &[u32]) -> Vec<NodeId> {
        raw.iter().map(|&n| NodeId(n)).collect()
    }

    #[test]
    fn sizes_keep_the_block_map_flat() {
        assert_eq!(std::mem::size_of::<Replicas>(), 16);
        assert_eq!(std::mem::size_of::<ChunkMeta>(), 48);
        assert_eq!(std::mem::size_of::<ChunkLayout>(), 32);
    }

    #[test]
    fn constructors_sort_and_dedup() {
        let from_vec = Replicas::from(ids(&[9, 1, 5, 1]));
        let collected: Replicas = ids(&[5, 9, 1, 9]).into_iter().collect();
        assert_eq!(from_vec, ids(&[1, 5, 9]));
        assert_eq!(from_vec, collected);
        assert!(Replicas::new().is_empty());
        assert_eq!(Replicas::default(), Replicas::new());
        // Duplicates beyond the inline capacity collapse back inline.
        let dupes: Replicas = ids(&[3, 3, 3, 3, 3, 2]).into_iter().collect();
        assert_eq!(dupes, ids(&[2, 3]));
        assert!(!dupes.is_spilled());
    }

    #[test]
    fn spills_only_above_the_inline_capacity() {
        let three = Replicas::from(ids(&[3, 2, 1]));
        assert!(!three.is_spilled());
        let four: Replicas = ids(&[4, 3, 2, 1]).into_iter().collect();
        assert!(four.is_spilled());
        assert_eq!(four, ids(&[1, 2, 3, 4]));
        assert!(Replicas::from(ids(&[5, 4, 3, 2, 1])).is_spilled());

        // insert crosses the boundary upward, retain downward.
        let mut r = three.clone();
        assert!(r.insert(NodeId(0)));
        assert!(r.is_spilled());
        assert_eq!(r, ids(&[0, 1, 2, 3]));
        assert!(r.insert(NodeId(9)));
        assert_eq!(r, ids(&[0, 1, 2, 3, 9]));
        r.retain(|&n| n != NodeId(2));
        assert!(r.is_spilled(), "four holders still need the heap");
        r.retain(|&n| n != NodeId(9));
        assert!(!r.is_spilled());
        assert_eq!(r, ids(&[0, 1, 3]));
        assert_eq!(three, ids(&[1, 2, 3]), "the clone was independent");
    }

    #[test]
    fn insert_and_retain_keep_order() {
        let mut r = Replicas::new();
        for (n, fresh) in [(7, true), (2, true), (9, true), (2, false), (4, true)] {
            assert_eq!(r.insert(NodeId(n)), fresh, "insert {n}");
        }
        assert_eq!(r, ids(&[2, 4, 7, 9]));
        assert!(!r.insert(NodeId(7)), "already a holder");
        r.retain(|n| n.0 % 2 == 1);
        assert_eq!(r, ids(&[7, 9]));
        r.retain(|_| false);
        assert!(r.is_empty());
        assert!(r.insert(NodeId(1)));
        assert_eq!(r, ids(&[1]));
    }

    #[test]
    fn compares_with_vecs_and_slices() {
        for raw in [&[1u32, 5, 9][..], &[1, 2, 3, 4, 5, 6]] {
            let r = Replicas::from(ids(raw));
            let v = ids(raw);
            assert_eq!(r, v);
            assert_eq!(r, v[..]);
            assert_eq!(r, &v[..]);
            assert_eq!(&r[..], &v[..]);
            assert_ne!(r, ids(&raw[1..]));
            assert_eq!(format!("{r:?}"), format!("{v:?}"));
        }
    }

    #[test]
    fn reads_like_the_vec_it_replaced() {
        // The five access forms callers (and the frozen benchmark) use.
        for raw in [&[1u32, 5, 9][..], &[1, 2, 3, 4, 5, 6]] {
            let layout = ChunkLayout {
                chunk: crate::ids::ChunkId(0),
                size: 1,
                locations: ids(raw).into(),
            };
            assert_eq!(layout.locations[1], NodeId(raw[1]));
            assert_eq!(layout.locations.len(), raw.len());
            assert!(layout.locations.contains(&NodeId(raw[0])));
            assert!(!layout.locations.contains(&NodeId(77)));
            let via_iter: Vec<u32> = layout.locations.iter().map(|n| n.0).collect();
            assert_eq!(via_iter, raw);
            let mut via_for = Vec::new();
            for n in &layout.locations {
                via_for.push(n.0);
            }
            assert_eq!(via_for, raw);
        }
    }
}
