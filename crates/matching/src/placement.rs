//! Replica-placement proposals: invert the matcher to move data toward
//! demand.
//!
//! The single-data matcher maximizes matched-local bytes against a
//! *fixed* replica layout; whatever stays unmatched is the layout's
//! fault, not the matching's — every process co-located with an
//! unmatched file is provably already at quota (otherwise the matching
//! would not be maximum). The only way to recover those bytes is to
//! *change the layout*: give an unmatched file a replica on a node whose
//! processes still have spare quota.
//!
//! [`propose_moves`] computes such a proposal from the residual state of
//! an [`IncrementalMatcher`]: it walks unmatched files in descending
//! size order and, for each, picks the least-loaded process with spare
//! quota as the migration target, simulating the move on a scratch clone
//! of the matcher to account for how earlier moves consume quota. The
//! marginal gain of each move is exact — with spare quota at the target
//! the repaired matching must absorb the file, so every accepted move is
//! worth its full size in newly-local bytes.
//!
//! A simulated move is one augmenting search seeded at the file
//! ([`IncrementalMatcher::add_edge`]), not a full repair. The clone is
//! maximum before the edge, and an unmatched file cannot be entered
//! through a matching edge, so every augmenting path the edge opens
//! starts at that file. A repair phase over every unmatched file would
//! fail the searches before it — they mark only processes that cannot
//! reach spare quota, which the seeded search could not pass through
//! either — commit the same path from the file, and fail every search
//! after it.
//!
//! A candidate is still unmatched when its turn comes. An accepted move
//! adds exactly its file to the matched set, and under
//! [`crate::Objective::MatchedBytes`] the exchange pass lets nothing else
//! in: a file the old optimum left out was spanned by the heavier files
//! matched beside it, and a new edge at another file only widens what
//! they span. An undone move restores the old graph and a matching of
//! the old cardinality over the old files.
//!
//! Determinism: proposals are a pure function of the matcher state and
//! the policy. Candidate files are ordered by `(size desc, file index)`,
//! targets by `(load, proc index)`; no RNG, no map iteration order.

use crate::incremental::IncrementalMatcher;

/// Bounds on one round of placement proposals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlacementPolicy {
    /// Maximum total bytes the round may migrate (a migrated replica
    /// costs its chunk size in transfer bytes).
    pub round_byte_budget: u64,
    /// Maximum number of replica moves per round.
    pub max_moves_per_round: usize,
    /// Moves gaining fewer newly-local bytes than this are not proposed.
    pub min_gain_bytes: u64,
}

impl Default for PlacementPolicy {
    fn default() -> Self {
        PlacementPolicy {
            round_byte_budget: u64::MAX,
            max_moves_per_round: 64,
            min_gain_bytes: 1,
        }
    }
}

/// One proposed replica move: give `file` a replica co-located with
/// process `to_proc`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaMove {
    /// File index in the matcher's graph (= snapshot entry index).
    pub file: usize,
    /// Process that will own the file once the replica lands.
    pub to_proc: usize,
    /// The file's size — the migration's transfer cost in bytes.
    pub size: u64,
    /// Newly matched-local bytes realized by this move (simulated on the
    /// repaired matching, so it accounts for all earlier moves).
    pub gain_bytes: u64,
}

/// Proposes a bounded set of replica moves maximizing newly-local bytes.
///
/// Greedy by descending file size (ties broken by file index): each
/// unmatched file is offered to the least-loaded process with spare
/// quota (ties broken by process index) that is not already co-located
/// with it, and the move is accepted if its simulated marginal gain
/// clears `policy.min_gain_bytes` and fits the remaining byte budget.
/// `sizes[f]` must give the byte size of file `f` — unmatched files can
/// be edge-less, so the graph alone cannot supply sizes.
///
/// Returns moves in acceptance order. An empty result means the layout
/// is converged under the policy: nothing movable gains anything.
///
/// # Panics
///
/// Panics unless `sizes` has one entry per graph file.
pub fn propose_moves(
    matcher: &IncrementalMatcher,
    sizes: &[u64],
    policy: &PlacementPolicy,
) -> Vec<ReplicaMove> {
    assert_eq!(
        sizes.len(),
        matcher.graph().n_files(),
        "one size per graph file"
    );
    let mut sim = matcher.clone();
    let n_procs = sim.graph().n_procs();
    // Unmatched files, biggest first; index breaks ties so the proposal
    // order never depends on container order.
    let mut candidates: Vec<(u64, usize)> = (0..sim.graph().n_files())
        .filter(|&f| sim.owner_of(f).is_none())
        .map(|f| (sizes[f], f))
        .collect();
    candidates.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));

    let mut moves = Vec::new();
    let mut spent = 0u64;
    let mut matched = sim.matched_bytes();
    for (size, file) in candidates {
        if moves.len() >= policy.max_moves_per_round {
            break;
        }
        // A smaller file later in the order may still fit the budget, so
        // skip rather than break on a budget miss.
        if size > policy.round_byte_budget.saturating_sub(spent) {
            continue;
        }
        let target = (0..n_procs)
            .filter(|&p| sim.load()[p] < sim.quota()[p] && sim.graph().weight(p, file).is_none())
            .min_by_key(|&p| (sim.load()[p], p));
        let Some(to_proc) = target else {
            continue;
        };
        debug_assert!(sim.owner_of(file).is_none(), "candidates stay unmatched");
        sim.add_edge(to_proc, file, size);
        let after = sim.matched_bytes();
        let gain_bytes = after.saturating_sub(matched);
        if gain_bytes < policy.min_gain_bytes {
            // Undo the speculative edge so later simulations stay honest.
            sim.stage_remove_edge(to_proc, file);
            sim.repair_batch();
            debug_assert_eq!(sim.matched_bytes(), matched, "the old files match again");
            continue;
        }
        matched = after;
        spent += size;
        moves.push(ReplicaMove {
            file,
            to_proc,
            size,
            gain_bytes,
        });
    }
    moves
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::BipartiteGraph;
    use crate::single_data::Objective;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// 4 procs (quota 2 each), 8 files, all co-located with procs 0 and
    /// 1 only — the classic hot spot.
    fn hot_spot() -> IncrementalMatcher {
        let mut g = BipartiteGraph::new(4, 8);
        for f in 0..8 {
            g.add_edge(f % 2, f, 64);
        }
        IncrementalMatcher::new(g, Objective::MatchedBytes)
    }

    #[test]
    fn proposes_moves_for_unmatched_files_toward_spare_procs() {
        let m = hot_spot();
        assert_eq!(m.matched_count(), 4, "procs 0/1 absorb 2 files each");
        let sizes = vec![64u64; 8];
        let moves = propose_moves(&m, &sizes, &PlacementPolicy::default());
        assert_eq!(moves.len(), 4, "four files need re-homing");
        for mv in &moves {
            assert!(mv.to_proc >= 2, "targets must have spare quota");
            assert_eq!(mv.gain_bytes, 64, "spare quota makes gains exact");
        }
        // Deterministic: identical inputs, identical proposal.
        assert_eq!(
            moves,
            propose_moves(&m, &sizes, &PlacementPolicy::default())
        );
    }

    #[test]
    fn respects_byte_budget_and_move_cap() {
        let m = hot_spot();
        let sizes = vec![64u64; 8];
        let budget = PlacementPolicy {
            round_byte_budget: 130,
            ..Default::default()
        };
        let moves = propose_moves(&m, &sizes, &budget);
        assert_eq!(moves.len(), 2, "only two 64-byte moves fit 130 bytes");
        let cap = PlacementPolicy {
            max_moves_per_round: 1,
            ..Default::default()
        };
        assert_eq!(propose_moves(&m, &sizes, &cap).len(), 1);
    }

    #[test]
    fn bigger_files_move_first() {
        let sizes = vec![5u64, 10, 40, 100];
        let mut g = BipartiteGraph::new(2, 4);
        // All files on proc 0's node; quota 2 and the bytes objective
        // keep the 100- and 40-byte files local, so the 10- and 5-byte
        // files stay unmatched.
        for (f, &size) in sizes.iter().enumerate() {
            g.add_edge(0, f, size);
        }
        let m = IncrementalMatcher::new(g, Objective::MatchedBytes);
        let policy = PlacementPolicy {
            max_moves_per_round: 1,
            ..Default::default()
        };
        let moves = propose_moves(&m, &sizes, &policy);
        assert_eq!(moves.len(), 1);
        assert_eq!(moves[0].size, 10, "largest unmatched file goes first");
    }

    /// What the old body of [`propose_moves`] did along the way.
    #[derive(Debug, Default)]
    struct Walked {
        undone: usize,
        over_budget: usize,
    }

    /// `propose_moves` as it stood before a simulated move became one
    /// seeded augment: every move stages its edge and runs the full
    /// repair, and measures matched bytes before and after.
    fn propose_moves_full_repair(
        matcher: &IncrementalMatcher,
        sizes: &[u64],
        policy: &PlacementPolicy,
        walked: &mut Walked,
    ) -> Vec<ReplicaMove> {
        let mut sim = matcher.clone();
        let n_procs = sim.graph().n_procs();
        let mut candidates: Vec<(u64, usize)> = (0..sim.graph().n_files())
            .filter(|&f| sim.owner_of(f).is_none())
            .map(|f| (sizes[f], f))
            .collect();
        candidates.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let mut moves = Vec::new();
        let mut spent = 0u64;
        for (size, file) in candidates {
            if moves.len() >= policy.max_moves_per_round {
                break;
            }
            if size > policy.round_byte_budget.saturating_sub(spent) {
                walked.over_budget += 1;
                continue;
            }
            let target = (0..n_procs)
                .filter(|&p| {
                    sim.load()[p] < sim.quota()[p] && sim.graph().weight(p, file).is_none()
                })
                .min_by_key(|&p| (sim.load()[p], p));
            let Some(to_proc) = target else {
                continue;
            };
            let before = sim.matched_bytes();
            sim.stage_add_edge(to_proc, file, size);
            sim.repair_batch();
            let gain_bytes = sim.matched_bytes().saturating_sub(before);
            if gain_bytes < policy.min_gain_bytes {
                walked.undone += 1;
                sim.stage_remove_edge(to_proc, file);
                sim.repair_batch();
                continue;
            }
            spent += size;
            moves.push(ReplicaMove {
                file,
                to_proc,
                size,
                gain_bytes,
            });
        }
        moves
    }

    /// A seeded layout of `n` files over `nodes` nodes with 1–3
    /// processes each (`case` picks), replicas on a hot quarter of the
    /// nodes or anywhere, 0–3 per file; sizes uniform or mixed.
    fn seeded_layout(case: usize, rng: &mut StdRng) -> (IncrementalMatcher, Vec<u64>) {
        let nodes = rng.gen_range(2usize..12);
        let per_node = 1 + case % 3;
        let n = rng.gen_range(1usize..60);
        let hot = case / 3 % 2 == 0;
        let pool = if hot { (nodes / 4).max(1) } else { nodes };
        let mixed = case / 6 % 2 == 0;
        let objective = [Objective::MatchCount, Objective::MatchedBytes][case / 12 % 2];
        let sizes: Vec<u64> = (0..n)
            .map(|_| if mixed { rng.gen_range(1u64..200) } else { 64 })
            .collect();
        let mut g = BipartiteGraph::new(nodes * per_node, n);
        for (f, &size) in sizes.iter().enumerate() {
            let r = rng.gen_range(0usize..4).min(pool);
            let mut held: Vec<usize> = Vec::new();
            while held.len() < r {
                let node = rng.gen_range(0..pool);
                if !held.contains(&node) {
                    held.push(node);
                }
            }
            for node in held {
                for p in node * per_node..(node + 1) * per_node {
                    g.add_edge(p, f, size);
                }
            }
        }
        (IncrementalMatcher::new(g, objective), sizes)
    }

    #[test]
    fn seeded_augments_propose_what_full_repairs_proposed() {
        let mut rng = StdRng::seed_from_u64(0x9_1ACE);
        let mut walked = Walked::default();
        let mut moved = 0usize;
        for case in 0..2_400 {
            let (matcher, sizes) = seeded_layout(case, &mut rng);
            let total: u64 = sizes.iter().sum();
            let policy = PlacementPolicy {
                round_byte_budget: if case % 5 == 0 {
                    u64::MAX
                } else {
                    rng.gen_range(0..=total / 2)
                },
                max_moves_per_round: if case % 7 == 0 {
                    64
                } else {
                    rng.gen_range(1usize..10)
                },
                min_gain_bytes: if case % 4 == 0 {
                    1
                } else {
                    rng.gen_range(1u64..220)
                },
            };
            let want = propose_moves_full_repair(&matcher, &sizes, &policy, &mut walked);
            assert_eq!(
                propose_moves(&matcher, &sizes, &policy),
                want,
                "case {case}"
            );
            moved += want.len();
        }
        // Every branch of the loop was taken, and often.
        assert!(moved >= 5_000, "{moved} moves");
        assert!(walked.undone >= 500, "{walked:?}");
        assert!(walked.over_budget >= 500, "{walked:?}");
    }

    #[test]
    fn converged_layout_proposes_nothing() {
        let mut g = BipartiteGraph::new(4, 4);
        for f in 0..4 {
            g.add_edge(f, f, 64);
        }
        let m = IncrementalMatcher::new(g, Objective::MatchedBytes);
        let moves = propose_moves(&m, &[64u64; 4], &PlacementPolicy::default());
        assert!(moves.is_empty(), "everything already local");
    }
}
