//! Randomized property tests for the file-system substrate.
//!
//! Invariants on randomized configurations and operation sequences (seeded
//! `StdRng` loops, deterministic across runs):
//! * every placement policy returns distinct, sorted, alive nodes of the
//!   requested count;
//! * namenode invariants (replica counts, index consistency) survive
//!   arbitrary sequences of dataset creation, node addition, and
//!   decommission;
//! * replica selection always returns a holder;
//! * layout snapshots agree with the namenode at capture time.

use opass_dfs::{
    ChunkId, DatasetSpec, DfsConfig, LayoutSnapshot, Namenode, NodeId, Placement, RackMap,
    ReplicaChoice,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn node_ids(n: usize) -> Vec<NodeId> {
    (0..n as u32).map(NodeId).collect()
}

#[test]
fn placements_return_distinct_alive_nodes() {
    let mut rng = StdRng::seed_from_u64(0xD1);
    let mut checked = 0;
    while checked < 48 {
        let n_nodes = rng.gen_range(3usize..20);
        let replication = rng.gen_range(1usize..4);
        let seq = rng.gen_range(0usize..100);
        let seed = rng.gen_range(0u64..500);
        let policy_pick = rng.gen_range(0usize..4);
        if replication > n_nodes {
            continue;
        }
        checked += 1;
        let alive = node_ids(n_nodes);
        let racks = RackMap::uniform(n_nodes, 4.min(n_nodes));
        let policy = match policy_pick {
            0 => Placement::Random,
            1 => Placement::WriterLocal {
                writer: NodeId((seed % n_nodes as u64) as u32),
            },
            2 => Placement::RoundRobin,
            _ => Placement::RackAware { racks },
        };
        let mut place_rng = StdRng::seed_from_u64(seed);
        let locs = policy.place(seq, replication, &alive, &mut place_rng, &mut Vec::new());
        assert_eq!(locs.len(), replication);
        for w in locs.windows(2) {
            assert!(w[0] < w[1], "locations must be sorted and distinct");
        }
        for n in &locs {
            assert!(alive.contains(n));
        }
    }
}

#[test]
fn namenode_invariants_survive_churn() {
    let mut meta_rng = StdRng::seed_from_u64(0xD2);
    for _ in 0..48 {
        let n_nodes = meta_rng.gen_range(4usize..12);
        let n_ops = meta_rng.gen_range(1usize..12);
        let mut nn = Namenode::new(n_nodes, DfsConfig::default());
        let mut rng = StdRng::seed_from_u64(7);
        let mut created = 0usize;
        for _ in 0..n_ops {
            let op = meta_rng.gen_range(0u8..3);
            let arg = meta_rng.gen_range(0u64..1000);
            match op {
                0 => {
                    // Create a small dataset.
                    let spec = DatasetSpec::uniform(
                        format!("d{created}"),
                        (arg % 8 + 1) as usize,
                        1 + arg % 64,
                    );
                    nn.create_dataset(&spec, &Placement::Random, &mut rng);
                    created += 1;
                }
                1 => {
                    nn.add_node();
                }
                _ => {
                    // Try to decommission an arbitrary node; failures
                    // (already down, too few alive) are fine — invariants
                    // must hold either way.
                    let victim = NodeId((arg % nn.node_count() as u64) as u32);
                    let _ = nn.decommission(victim, &mut rng);
                }
            }
            assert!(nn.check_invariants().is_ok(), "{:?}", nn.check_invariants());
        }
    }
}

#[test]
fn replica_choice_always_returns_a_holder() {
    let mut meta_rng = StdRng::seed_from_u64(0xD3);
    let mut checked = 0;
    while checked < 48 {
        let n_nodes = meta_rng.gen_range(3usize..16);
        let reader = meta_rng.gen_range(0usize..16);
        let seed = meta_rng.gen_range(0u64..300);
        let policy_pick = meta_rng.gen_range(0usize..3);
        if reader >= n_nodes {
            continue;
        }
        checked += 1;
        let mut nn = Namenode::new(n_nodes.max(3), DfsConfig::default());
        let mut rng = StdRng::seed_from_u64(seed);
        let ds = nn.create_dataset(
            &DatasetSpec::uniform("d", 6, 10),
            &Placement::Random,
            &mut rng,
        );
        let racks = RackMap::uniform(nn.node_count(), 4.min(nn.node_count()));
        let policy = match policy_pick {
            0 => ReplicaChoice::PreferLocalRandom,
            1 => ReplicaChoice::RandomReplica,
            _ => ReplicaChoice::PreferLocalThenRack(racks),
        };
        for &chunk in &nn.dataset(ds).unwrap().chunks {
            let locations = nn.locate(chunk).unwrap();
            let picked = policy.select(chunk, NodeId(reader as u32), locations, &mut rng);
            assert!(locations.contains(&picked));
        }
    }
}

#[test]
fn snapshot_matches_namenode() {
    let mut meta_rng = StdRng::seed_from_u64(0xD4);
    for _ in 0..48 {
        let n_chunks = meta_rng.gen_range(1usize..30);
        let seed = meta_rng.gen_range(0u64..300);
        let mut nn = Namenode::new(8, DfsConfig::default());
        let mut rng = StdRng::seed_from_u64(seed);
        let ds = nn.create_dataset(
            &DatasetSpec::uniform("d", n_chunks, 64),
            &Placement::Random,
            &mut rng,
        );
        let chunks = nn.dataset(ds).unwrap().chunks.clone();
        let snap = LayoutSnapshot::capture(&nn, &chunks);
        assert_eq!(snap.len(), n_chunks);
        for (i, entry) in snap.entries().iter().enumerate() {
            assert_eq!(entry.chunk, chunks[i]);
            assert_eq!(&entry.locations[..], nn.locate(chunks[i]).unwrap());
        }
        assert_eq!(snap.total_bytes(), n_chunks as u64 * 64);
    }
}

#[test]
fn chunk_payload_prefixes_are_consistent() {
    use opass_dfs::datanode::chunk_payload;
    let mut rng = StdRng::seed_from_u64(0xD5);
    for _ in 0..48 {
        let id = rng.gen_range(0u64..10_000);
        let short = rng.gen_range(1usize..128);
        let long = rng.gen_range(128usize..1024);
        let a = chunk_payload(ChunkId(id), short);
        let b = chunk_payload(ChunkId(id), long);
        assert_eq!(&b[..short], &a[..]);
    }
}
