//! Replica placement policies.
//!
//! HDFS decides where each chunk's `r` replicas live when the dataset is
//! written. The paper's analysis assumes the default *random* placement
//! ("data are randomly distributed within HDFS"); the writer-local and
//! round-robin variants exist for the ablation study (Opass's benefit
//! depends on how skewed placement is).

use crate::ids::NodeId;
use crate::replicas::{Replicas, INLINE};
use crate::topology::RackMap;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

/// How replicas are placed across alive nodes at write time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Placement {
    /// `r` distinct nodes chosen uniformly at random — the HDFS default the
    /// paper analyzes.
    Random,
    /// First replica on the writing node, remaining `r - 1` random — HDFS's
    /// actual behaviour when the writer is a cluster node.
    WriterLocal {
        /// The node performing the write.
        writer: NodeId,
    },
    /// Consecutive chunks start at consecutive nodes (`chunk i` →
    /// nodes `i, i+1, …, i+r-1` mod alive count) — a perfectly even
    /// distribution used as the "ideal" baseline in tests and ablations.
    RoundRobin,
    /// HDFS's production rack-aware policy (this repository's rack
    /// extension): the first replica on a random node, the second and
    /// third together on one *different* random rack, any further
    /// replicas random. Survives a whole-rack failure while keeping
    /// cross-rack write traffic low.
    RackAware {
        /// Node→rack membership.
        racks: RackMap,
    },
}

impl Placement {
    /// Chooses the `replication` nodes for the `chunk_seq`-th chunk placed
    /// under this policy.
    ///
    /// `Random` and `WriterLocal` draw their random replicas with Floyd's
    /// sampling: one generator draw per replica (`r`, or `r − 1` beside
    /// the writer) whatever the cluster size, and no working memory.
    /// Every seeded layout in this repository is a function of exactly
    /// those draws. `RackAware` reads a whole shuffled order of `alive`,
    /// so it is the only policy that uses `pool`: pass the same vector for
    /// every chunk of a dataset and it allocates nothing per chunk (its
    /// contents on entry are ignored).
    ///
    /// # Panics
    ///
    /// Panics if `replication` exceeds the number of alive nodes or is
    /// zero, or if a `WriterLocal` writer is not among `alive`.
    pub fn place(
        &self,
        chunk_seq: usize,
        replication: usize,
        alive: &[NodeId],
        rng: &mut StdRng,
        pool: &mut Vec<NodeId>,
    ) -> Replicas {
        assert!(replication >= 1, "replication must be at least 1");
        assert!(
            replication <= alive.len(),
            "replication {replication} exceeds alive node count {}",
            alive.len()
        );
        let chosen: Replicas = match self {
            Placement::Random => floyd_sample(alive.len(), replication, rng, |i| alive[i]),
            Placement::WriterLocal { writer } => {
                let at = alive
                    .iter()
                    .position(|n| n == writer)
                    .expect("the writer must be an alive node");
                // The alive list with the writer skipped.
                let mut chosen = floyd_sample(alive.len() - 1, replication - 1, rng, |i| {
                    alive[i + usize::from(i >= at)]
                });
                chosen.insert(*writer);
                chosen
            }
            Placement::RoundRobin => (0..replication)
                .map(|k| alive[(chunk_seq + k) % alive.len()])
                .collect(),
            Placement::RackAware { racks } => {
                pool.clear();
                pool.extend_from_slice(alive);
                pool.shuffle(rng);
                let first = pool[0];
                let mut chosen = Replicas::new();
                chosen.insert(first);
                if replication > 1 {
                    // Second (and third) replica on one different rack.
                    let home = racks.rack_of(first);
                    let mut other_racks: Vec<u32> = pool
                        .iter()
                        .map(|&n| racks.rack_of(n))
                        .filter(|&r| r != home)
                        .collect();
                    other_racks.sort_unstable();
                    other_racks.dedup();
                    if let Some(&remote_rack) = other_racks.choose(rng) {
                        for &n in pool.iter() {
                            if chosen.len() >= replication.min(3) {
                                break;
                            }
                            if racks.rack_of(n) == remote_rack {
                                chosen.insert(n);
                            }
                        }
                    }
                    // Fill any remainder (r > 3, tiny clusters, single
                    // rack) from the shuffled pool.
                    for &n in pool.iter() {
                        if chosen.len() >= replication {
                            break;
                        }
                        chosen.insert(n);
                    }
                }
                chosen
            }
        };
        debug_assert_eq!(
            chosen.len(),
            replication,
            "replicas must land on distinct nodes"
        );
        chosen
    }
}

/// A uniform `k`-subset of the `n` nodes `node(0..n)` by Floyd's
/// sampling: for `j` in `n − k..n`, draw `t ≤ j` and take `node(t)`, or
/// `node(j)` when `node(t)` is already taken. Before step `j` every taken
/// node lies in `node(0..j)`, so the fallback is always free. `node` must
/// be injective.
///
/// Up to [`INLINE`] picks are drawn into a stack array, sorted by a
/// three-element network and kept as the set's inline array; more go to
/// a vector. Either way the set is built once, from the sorted picks.
pub(crate) fn floyd_sample(
    n: usize,
    k: usize,
    rng: &mut StdRng,
    node: impl Fn(usize) -> NodeId,
) -> Replicas {
    let draw = |picks: &mut [NodeId], rng: &mut StdRng| {
        for (taken, j) in (n - k..n).enumerate() {
            let pick = node(rng.gen_range(0..=j));
            picks[taken] = if picks[..taken].contains(&pick) {
                node(j)
            } else {
                pick
            };
        }
    };
    if k <= INLINE {
        // The slots past `k` hold the largest id, so they sort last.
        let mut picks = [NodeId(u32::MAX); INLINE];
        draw(&mut picks[..k], rng);
        Replicas::inline(sort_three(picks), k)
    } else {
        let mut picks = vec![NodeId(0); k];
        draw(&mut picks, rng);
        picks.sort_unstable();
        Replicas::from_sorted(&picks)
    }
}

/// Sorts three ids with three compare-exchanges and no branch.
fn sort_three([a, b, c]: [NodeId; INLINE]) -> [NodeId; INLINE] {
    let (a, b) = (a.min(b), a.max(b));
    let (b, c) = (b.min(c), b.max(c));
    let (a, b) = (a.min(b), a.max(b));
    [a, b, c]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn nodes(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    /// Floyd's sampling written out over an explicit candidate list: the
    /// oracle for the random policies.
    fn floyd_reference(candidates: &[NodeId], k: usize, rng: &mut StdRng) -> Vec<NodeId> {
        let n = candidates.len();
        let mut chosen: Vec<NodeId> = Vec::with_capacity(k);
        for j in n - k..n {
            let t = rng.gen_range(0..j + 1);
            let pick = if chosen.contains(&candidates[t]) {
                candidates[j]
            } else {
                candidates[t]
            };
            chosen.push(pick);
        }
        chosen
    }

    /// The reference the stream test below compares `place` against.
    /// The random policies are [`floyd_reference`]. `RoundRobin` and
    /// `RackAware` are kept verbatim from before replica lists went
    /// inline and the pool became caller-owned: their seeded layouts
    /// never changed stream.
    fn place_reference(
        policy: &Placement,
        chunk_seq: usize,
        replication: usize,
        alive: &[NodeId],
        rng: &mut StdRng,
    ) -> Vec<NodeId> {
        let mut chosen: Vec<NodeId> = match policy {
            Placement::Random => floyd_reference(alive, replication, rng),
            Placement::WriterLocal { writer } => {
                let others: Vec<NodeId> = alive.iter().copied().filter(|n| n != writer).collect();
                let mut chosen = floyd_reference(&others, replication - 1, rng);
                chosen.push(*writer);
                chosen
            }
            Placement::RoundRobin => (0..replication)
                .map(|k| alive[(chunk_seq + k) % alive.len()])
                .collect(),
            Placement::RackAware { racks } => {
                let mut chosen: Vec<NodeId> = Vec::with_capacity(replication);
                let mut pool: Vec<NodeId> = alive.to_vec();
                pool.shuffle(rng);
                let first = pool[0];
                chosen.push(first);
                if replication > 1 {
                    let other_racks: Vec<u32> = {
                        let mut rs: Vec<u32> = pool
                            .iter()
                            .filter(|&&n| racks.rack_of(n) != racks.rack_of(first))
                            .map(|&n| racks.rack_of(n))
                            .collect();
                        rs.sort_unstable();
                        rs.dedup();
                        rs
                    };
                    if let Some(&remote_rack) = other_racks.choose(rng) {
                        let candidates: Vec<NodeId> = pool
                            .iter()
                            .copied()
                            .filter(|&n| racks.rack_of(n) == remote_rack && !chosen.contains(&n))
                            .collect();
                        for n in candidates {
                            if chosen.len() >= replication.min(3) {
                                break;
                            }
                            chosen.push(n);
                        }
                    }
                    let leftovers: Vec<NodeId> = pool
                        .iter()
                        .copied()
                        .filter(|n| !chosen.contains(n))
                        .collect();
                    for n in leftovers {
                        if chosen.len() >= replication {
                            break;
                        }
                        chosen.push(n);
                    }
                }
                chosen
            }
        };
        chosen.sort_unstable();
        chosen
    }

    #[test]
    fn place_consumes_the_reference_rng_stream() {
        // One pool across every case, as `create_dataset` reuses it:
        // whatever an earlier call left behind must not leak into a later
        // result. The alive set has gaps (decommissioned nodes).
        let mut cases = StdRng::seed_from_u64(0x0A55);
        let mut pool = Vec::new();
        let mut per_policy = [0usize; 4];
        for case in 0..12_000usize {
            let n_nodes = match case % 50 {
                0 => 3,
                1 => 1100,
                _ => cases.gen_range(3usize..=1100),
            };
            let alive: Vec<NodeId> = (0..n_nodes as u32)
                .filter(|n| n % 7 != 3 || n_nodes < 12)
                .map(NodeId)
                .collect();
            let replication = cases.gen_range(1usize..=6).min(alive.len());
            let chunk_seq = cases.gen_range(0usize..100_000);
            let policy = match case % 4 {
                0 => Placement::Random,
                1 => Placement::WriterLocal {
                    writer: alive[cases.gen_range(0..alive.len())],
                },
                2 => Placement::RoundRobin,
                _ => Placement::RackAware {
                    racks: RackMap::uniform(n_nodes, cases.gen_range(1..=n_nodes)),
                },
            };
            per_policy[case % 4] += 1;
            let seed = cases.gen_range(0u64..u64::MAX);
            let mut want_rng = StdRng::seed_from_u64(seed);
            let mut got_rng = want_rng.clone();
            let want = place_reference(&policy, chunk_seq, replication, &alive, &mut want_rng);
            let got = policy.place(chunk_seq, replication, &alive, &mut got_rng, &mut pool);
            assert_eq!(got, want, "case {case}: {policy:?} r={replication}");
            assert_eq!(got_rng, want_rng, "case {case}: rng state diverged");
        }
        assert!(per_policy.iter().all(|&n| n >= 2_500), "{per_policy:?}");
    }

    #[test]
    fn a_random_dataset_draws_once_per_replica() {
        // A 1024-node × 10 240-chunk dataset at r = 3 advances the
        // generator by exactly three draws per chunk, over spans 1022,
        // 1023 and 1024 — and, no rejection occurring on this seed, by
        // exactly three words.
        use crate::chunk::DatasetSpec;
        use crate::namenode::{DfsConfig, Namenode};
        use rand::RngCore;
        let (n_nodes, n_chunks) = (1024, 10_240);
        let mut nn = Namenode::new(n_nodes, DfsConfig::default());
        let mut rng = StdRng::seed_from_u64(0x0A55);
        let mut by_spans = rng.clone();
        let mut by_words = rng.clone();
        nn.create_dataset(
            &DatasetSpec::uniform("d", n_chunks, 64),
            &Placement::Random,
            &mut rng,
        );
        for _ in 0..n_chunks {
            for j in n_nodes - 3..n_nodes {
                by_spans.gen_range(0..=j);
            }
        }
        for _ in 0..3 * n_chunks {
            by_words.next_u64();
        }
        assert_eq!(rng, by_spans);
        assert_eq!(rng, by_words);
    }

    /// The 20 3-subsets of nodes `0..6`, ascending, in lexicographic order.
    fn three_subsets_of_six() -> Vec<[NodeId; 3]> {
        let mut subsets = Vec::new();
        for a in 0..6 {
            for b in a + 1..6 {
                for c in b + 1..6 {
                    subsets.push([NodeId(a), NodeId(b), NodeId(c)]);
                }
            }
        }
        subsets
    }

    /// Pearson's χ² of `counts` against equal expected counts.
    fn chi_squared(counts: &[usize]) -> f64 {
        let total: usize = counts.iter().sum();
        let expected = total as f64 / counts.len() as f64;
        counts
            .iter()
            .map(|&c| (c as f64 - expected).powi(2) / expected)
            .sum()
    }

    #[test]
    fn random_and_writer_local_subsets_are_uniform() {
        // 20 000 chunks on 6 nodes at r = 3. Critical values at
        // p = 0.001: 43.82 for the 19 degrees of freedom of Random's 20
        // subsets, 27.88 for the 9 of the 10 subsets holding the writer.
        let alive = nodes(6);
        let subsets = three_subsets_of_six();
        let mut rng = StdRng::seed_from_u64(0xC41);
        let writer = NodeId(4);
        for (policy, critical) in [
            (Placement::Random, 43.82),
            (Placement::WriterLocal { writer }, 27.88),
        ] {
            let mut counts = [0usize; 20];
            for seq in 0..20_000 {
                let locs = policy.place(seq, 3, &alive, &mut rng, &mut Vec::new());
                counts[subsets
                    .iter()
                    .position(|s| locs == s[..])
                    .expect("a 3-subset")] += 1;
            }
            // Under WriterLocal only the subsets holding the writer occur.
            let mut observed = Vec::new();
            for (subset, &count) in subsets.iter().zip(&counts) {
                if policy == Placement::Random || subset.contains(&writer) {
                    observed.push(count);
                } else {
                    assert_eq!(count, 0, "{subset:?} lacks the writer");
                }
            }
            let chi2 = chi_squared(&observed);
            assert!(
                chi2 < critical,
                "{policy:?}: χ² = {chi2:.2} over {observed:?}"
            );
        }
    }

    #[test]
    fn per_node_marginals_are_r_over_n_at_1024_nodes() {
        // 100 000 chunks at r = 3: each node holds ≈ 293 replicas. The χ²
        // of 1 023 degrees of freedom has mean 1 023 and deviation ≈ 45;
        // 1 250 is five deviations out. WriterLocal's non-writers share
        // its `r − 1` drawn replicas evenly.
        let n_nodes = 1024;
        let alive = nodes(n_nodes as u32);
        let mut rng = StdRng::seed_from_u64(0x3A1);
        let writer = NodeId(17);
        for policy in [Placement::Random, Placement::WriterLocal { writer }] {
            let mut counts = vec![0usize; n_nodes];
            for seq in 0..100_000 {
                for n in &policy.place(seq, 3, &alive, &mut rng, &mut Vec::new()) {
                    counts[n.index()] += 1;
                }
            }
            if let Placement::WriterLocal { .. } = policy {
                assert_eq!(counts.remove(writer.index()), 100_000);
            }
            let chi2 = chi_squared(&counts);
            assert!(chi2 < 1_250.0, "{policy:?}: χ² = {chi2:.1}");
        }
    }

    #[test]
    fn random_placement_gives_distinct_sorted_nodes() {
        let alive = nodes(10);
        let mut rng = StdRng::seed_from_u64(3);
        let mut pool = Vec::new();
        for seq in 0..50 {
            let locs = Placement::Random.place(seq, 3, &alive, &mut rng, &mut pool);
            assert_eq!(locs.len(), 3);
            assert!(locs.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn random_placement_covers_all_nodes_eventually() {
        let alive = nodes(8);
        let mut rng = StdRng::seed_from_u64(11);
        let mut pool = Vec::new();
        let mut hit = [false; 8];
        for seq in 0..200 {
            for n in &Placement::Random.place(seq, 3, &alive, &mut rng, &mut pool) {
                hit[n.index()] = true;
            }
        }
        assert!(hit.iter().all(|&h| h));
    }

    #[test]
    fn writer_local_always_includes_writer() {
        let alive = nodes(6);
        let mut rng = StdRng::seed_from_u64(5);
        let mut pool = Vec::new();
        for seq in 0..20 {
            let locs = Placement::WriterLocal { writer: NodeId(2) }
                .place(seq, 3, &alive, &mut rng, &mut pool);
            assert!(locs.contains(&NodeId(2)), "seq {seq}: {locs:?}");
            assert_eq!(locs.len(), 3);
        }
    }

    #[test]
    fn round_robin_is_even() {
        let alive = nodes(5);
        let mut rng = StdRng::seed_from_u64(0);
        let mut pool = Vec::new();
        let mut counts = vec![0usize; 5];
        for seq in 0..10 {
            for n in &Placement::RoundRobin.place(seq, 2, &alive, &mut rng, &mut pool) {
                counts[n.index()] += 1;
            }
        }
        // 10 chunks x 2 replicas over 5 nodes = exactly 4 each.
        assert!(counts.iter().all(|&c| c == 4), "{counts:?}");
    }

    #[test]
    fn replication_one_is_allowed() {
        let alive = nodes(3);
        let mut rng = StdRng::seed_from_u64(1);
        let locs = Placement::Random.place(0, 1, &alive, &mut rng, &mut Vec::new());
        assert_eq!(locs.len(), 1);
    }

    #[test]
    #[should_panic(expected = "exceeds alive node count")]
    fn rejects_replication_above_alive() {
        let alive = nodes(2);
        let mut rng = StdRng::seed_from_u64(1);
        Placement::Random.place(0, 3, &alive, &mut rng, &mut Vec::new());
    }

    #[test]
    fn rack_aware_spans_exactly_two_racks_at_r3() {
        let alive = nodes(12);
        let racks = RackMap::uniform(12, 4);
        let placement = Placement::RackAware {
            racks: racks.clone(),
        };
        let mut rng = StdRng::seed_from_u64(8);
        let mut pool = Vec::new();
        for seq in 0..50 {
            let locs = placement.place(seq, 3, &alive, &mut rng, &mut pool);
            assert_eq!(locs.len(), 3);
            let mut rs: Vec<u32> = locs.iter().map(|&n| racks.rack_of(n)).collect();
            rs.sort_unstable();
            rs.dedup();
            assert_eq!(
                rs.len(),
                2,
                "seq {seq}: replicas must span two racks, got {locs:?}"
            );
        }
    }

    #[test]
    fn rack_aware_single_rack_degrades_gracefully() {
        let alive = nodes(4);
        let racks = RackMap::uniform(4, 4); // everything in rack 0
        let placement = Placement::RackAware { racks };
        let mut rng = StdRng::seed_from_u64(3);
        let locs = placement.place(0, 3, &alive, &mut rng, &mut Vec::new());
        assert_eq!(locs.len(), 3);
    }

    #[test]
    fn rack_aware_replication_one_is_single_node() {
        let alive = nodes(8);
        let racks = RackMap::uniform(8, 4);
        let placement = Placement::RackAware { racks };
        let mut rng = StdRng::seed_from_u64(5);
        let locs = placement.place(0, 1, &alive, &mut rng, &mut Vec::new());
        assert_eq!(locs.len(), 1);
    }
}
