//! Closed-loop replica placement: plan → observe → migrate → replan.
//!
//! Opass plans *readers* against a fixed replica layout; this module
//! closes the loop in the other direction and moves replicas toward
//! demand. Each round a [`PlacementSession`]:
//!
//! 1. asks the matching layer for bounded replica-move proposals
//!    ([`opass_matching::propose_moves`]) against the incremental
//!    matcher's residual state — exactly the files the current plan
//!    provably cannot keep local;
//! 2. converts them into one *migration-shaped* [`LayoutDelta`] (a
//!    paired drop+add per chunk, so replica counts — and the
//!    replication-factor invariant — are preserved), choosing the donor
//!    replica from the most-loaded holder;
//! 3. observes the matching the delta buys by replaying it through the
//!    ordinary incremental pipeline
//!    ([`crate::SingleDataSession::advance`]), recording matched-local
//!    bytes and the planned per-node service balance before and after;
//! 4. repeats until converged (no proposal gains anything) or the
//!    total migration-byte budget is exhausted.
//!
//! Each accepted move strictly increases matched-local bytes (the
//! engine only proposes moves with positive realized gain), so the loop
//! terminates: matched bytes are bounded by the workload's total.
//!
//! Determinism: rounds are a pure fold over the starting session state
//! and the config — proposals are RNG-free, donors are chosen by
//! `(stored bytes desc, node id)`, and the replay path is the same
//! deterministic delta pipeline every other consumer uses.

use crate::planner::{OpassPlanner, SingleDataPlan};
use crate::replan::SingleDataSession;
use crate::request::PlanRequest;
use opass_dfs::{LayoutDelta, LayoutSnapshot, NodeId};
use opass_matching::{propose_moves, PlacementPolicy, ReplicaMove, NONE};
use opass_runtime::{BalanceReport, ProcessPlacement};

/// Bounds on a whole placement loop.
#[derive(Debug, Clone, Copy)]
pub struct PlacementConfig {
    /// Per-round proposal bounds (byte budget, move cap, minimum gain).
    pub policy: PlacementPolicy,
    /// Maximum number of migration rounds.
    pub max_rounds: usize,
    /// Total bytes the loop may migrate across all rounds.
    pub total_byte_budget: u64,
}

impl Default for PlacementConfig {
    fn default() -> Self {
        PlacementConfig {
            policy: PlacementPolicy::default(),
            max_rounds: 16,
            total_byte_budget: u64::MAX,
        }
    }
}

/// One executed round of the placement loop.
#[derive(Debug, Clone)]
pub struct PlacementRound {
    /// Round number, starting at 1.
    pub round: usize,
    /// The accepted replica moves, in acceptance order.
    pub moves: Vec<ReplicaMove>,
    /// The migration-shaped delta realizing the moves — ready for
    /// [`opass_dfs::Namenode::apply_migrations`] or a serve
    /// `invalidate{dataset, delta}`.
    pub delta: LayoutDelta,
    /// Bytes this round migrates.
    pub migrated_bytes: u64,
    /// Matched-local bytes of the plan before the round.
    pub local_bytes_before: u64,
    /// Matched-local bytes after replaying the delta.
    pub local_bytes_after: u64,
    /// Planned per-node service balance before the round.
    pub balance_before: BalanceReport,
    /// Planned per-node service balance after the round.
    pub balance_after: BalanceReport,
}

/// The closed-loop replica placement driver. Created by
/// [`OpassPlanner::placement_session`] from the same [`PlanRequest`]
/// the read planner uses.
#[derive(Debug, Clone)]
pub struct PlacementSession {
    session: SingleDataSession,
    /// The layout the current plan was computed against, advanced by
    /// every round's delta: donors and balance read replica holders,
    /// which the session's graph keeps only on nodes with a process.
    layout: LayoutSnapshot,
    placement: ProcessPlacement,
    config: PlacementConfig,
    n_nodes: usize,
    rounds: usize,
    migrated_bytes: u64,
}

impl OpassPlanner {
    /// Starts a closed-loop placement session for a plain single-data
    /// request: the loop plans reads, proposes replica migrations toward
    /// the demand the plan cannot serve locally, and replans through the
    /// incremental delta pipeline.
    ///
    /// # Panics
    ///
    /// Panics unless the request is a plain [`PlanRequest::single`] /
    /// [`PlanRequest::single_from_layout`] request (rack-aware, weighted,
    /// multi and dynamic requests have no placement loop).
    pub fn placement_session(
        &self,
        request: &PlanRequest<'_>,
        config: PlacementConfig,
    ) -> PlacementSession {
        let placement = request.placement().clone();
        let session = self
            .session(request)
            .into_single()
            .expect("placement loops drive single-data requests only");
        let layout = request.single_layout().clone();
        let n_nodes = node_span(&placement, &layout);
        PlacementSession {
            session,
            layout,
            placement,
            config,
            n_nodes,
            rounds: 0,
            migrated_bytes: 0,
        }
    }
}

impl PlacementSession {
    /// The read plan for the current (post-migration) layout.
    pub fn plan(&self) -> &SingleDataPlan {
        self.session.plan()
    }

    /// The layout snapshot the current plan was computed against.
    pub fn snapshot(&self) -> &LayoutSnapshot {
        &self.layout
    }

    /// Rounds executed so far.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Total bytes migrated so far.
    pub fn migrated_bytes(&self) -> u64 {
        self.migrated_bytes
    }

    /// Matched-local bytes of the current plan, read off the matching
    /// with no plan rendered: a fill target is never co-located with its
    /// file, so the matched bytes are the plan's local bytes.
    pub fn local_bytes(&self) -> u64 {
        self.session.matcher().matched_bytes()
    }

    /// Executes one round: propose → build delta → replan. Returns
    /// `None` without mutating anything when the loop is finished —
    /// converged (no gaining proposal), round limit reached, or byte
    /// budget exhausted.
    pub fn step(&mut self) -> Option<PlacementRound> {
        if self.rounds >= self.config.max_rounds {
            return None;
        }
        let remaining = self
            .config
            .total_byte_budget
            .saturating_sub(self.migrated_bytes);
        if remaining == 0 {
            return None;
        }
        let policy = PlacementPolicy {
            round_byte_budget: self.config.policy.round_byte_budget.min(remaining),
            ..self.config.policy
        };
        let matcher = self.session.matcher();
        let moves = propose_moves(matcher, matcher.graph().sizes(), &policy);
        let (delta, migrated) = self.delta_for(&moves);
        if delta.is_empty() {
            return None;
        }

        let before = self.local_bytes();
        let balance_before = self.planned_balance();
        self.session.advance(&delta);
        self.layout.apply_delta(&delta);
        let after = self.local_bytes();
        let balance_after = self.planned_balance();

        self.rounds += 1;
        self.migrated_bytes += migrated;
        Some(PlacementRound {
            round: self.rounds,
            moves,
            delta,
            migrated_bytes: migrated,
            local_bytes_before: before,
            local_bytes_after: after,
            balance_before,
            balance_after,
        })
    }

    /// Runs the loop to completion and returns every executed round.
    pub fn run(&mut self) -> Vec<PlacementRound> {
        let mut rounds = Vec::new();
        while let Some(round) = self.step() {
            rounds.push(round);
        }
        rounds
    }

    /// Converts matcher-level moves into one migration-shaped delta.
    /// The target node hosts the proposed process; the donor replica is
    /// the holder storing the most planned bytes (ties to the lower node
    /// id), so migrations also drain the hottest holders first.
    fn delta_for(&self, moves: &[ReplicaMove]) -> (LayoutDelta, u64) {
        let stored = self.layout.bytes_per_node(self.n_nodes);
        let mut pairs = Vec::new();
        let mut migrated = 0u64;
        for mv in moves {
            let entry = &self.layout.entries()[mv.file];
            let target = self.placement.node_of(mv.to_proc);
            if entry.locations.contains(&target) {
                continue; // already co-located; nothing to move
            }
            let donor = entry.locations.iter().copied().max_by(|a, b| {
                let (ab, bb) = (stored_bytes(&stored, *a), stored_bytes(&stored, *b));
                ab.cmp(&bb).then(b.cmp(a))
            });
            let Some(donor) = donor else { continue };
            pairs.push((entry.chunk, donor, target));
            migrated += mv.size;
        }
        (LayoutDelta::migrations(&pairs), migrated)
    }

    /// Planned bytes served per node under the current plan: matched
    /// files are served by their owner's node; filled files fall to
    /// their first replica holder (the deterministic worst-case read).
    fn planned_balance(&self) -> BalanceReport {
        let mut served = vec![0u64; self.n_nodes];
        let owners = self.session.matcher().owners_dense();
        for (f, entry) in self.layout.entries().iter().enumerate() {
            let node = match owners[f] {
                NONE => entry.locations.first().copied(),
                p => Some(self.placement.node_of(p as usize)),
            };
            if let Some(n) = node {
                if n.index() < served.len() {
                    served[n.index()] += entry.size;
                }
            }
        }
        BalanceReport::of(&served)
    }
}

fn stored_bytes(stored: &[u64], node: NodeId) -> u64 {
    stored.get(node.index()).copied().unwrap_or(0)
}

/// Node-index span covering both the process placement and every
/// replica holder in the snapshot.
fn node_span(placement: &ProcessPlacement, snapshot: &LayoutSnapshot) -> usize {
    let mut max = 0usize;
    for p in 0..placement.n_procs() {
        max = max.max(placement.node_of(p).index() + 1);
    }
    for entry in snapshot.entries() {
        for n in &entry.locations {
            max = max.max(n.index() + 1);
        }
    }
    max
}
