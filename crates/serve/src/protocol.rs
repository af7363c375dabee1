//! The wire protocol: versioned request/response messages.
//!
//! Every message is one JSON frame (see [`crate::frame`]) whose object
//! carries a `"v"` version field and a `"type"` tag. The version is
//! checked on decode: a peer speaking a different protocol version gets a
//! typed error instead of a misinterpreted message. Unknown dataset
//! indices, unparsable strategies, and malformed fields are all decode
//! errors — a request that decodes successfully is structurally valid.

use crate::frame::FrameError;
use opass_core::dfs::{ChunkId, ChunkLayout, LayoutDelta, NodeId};
use opass_core::Strategy;
use opass_json::Json;

/// The protocol version this build speaks.
pub const PROTOCOL_VERSION: u64 = 1;

/// A decode failure: version mismatch or malformed message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The peer's `"v"` field differs from [`PROTOCOL_VERSION`].
    BadVersion {
        /// The version the peer sent (0 when absent).
        got: u64,
    },
    /// Structurally invalid message.
    Malformed(String),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::BadVersion { got } => write!(
                f,
                "protocol version mismatch: peer sent v{got}, this build speaks v{PROTOCOL_VERSION}"
            ),
            ProtoError::Malformed(m) => write!(f, "malformed message: {m}"),
        }
    }
}

impl std::error::Error for ProtoError {}

fn check_version(v: &Json) -> Result<(), ProtoError> {
    let got = v.get("v").and_then(Json::as_u64).unwrap_or(0);
    if got != PROTOCOL_VERSION {
        return Err(ProtoError::BadVersion { got });
    }
    Ok(())
}

fn field<'a>(v: &'a Json, name: &str) -> Result<&'a Json, ProtoError> {
    v.get(name)
        .ok_or_else(|| ProtoError::Malformed(format!("missing field {name:?}")))
}

fn u64_field(v: &Json, name: &str) -> Result<u64, ProtoError> {
    field(v, name)?
        .as_u64()
        .ok_or_else(|| ProtoError::Malformed(format!("field {name:?} must be an unsigned integer")))
}

fn usize_field(v: &Json, name: &str) -> Result<usize, ProtoError> {
    Ok(u64_field(v, name)? as usize)
}

fn f64_field(v: &Json, name: &str) -> Result<f64, ProtoError> {
    field(v, name)?
        .as_f64()
        .ok_or_else(|| ProtoError::Malformed(format!("field {name:?} must be a number")))
}

fn str_field<'a>(v: &'a Json, name: &str) -> Result<&'a str, ProtoError> {
    field(v, name)?
        .as_str()
        .ok_or_else(|| ProtoError::Malformed(format!("field {name:?} must be a string")))
}

fn bool_field(v: &Json, name: &str) -> Result<bool, ProtoError> {
    field(v, name)?
        .as_bool()
        .ok_or_else(|| ProtoError::Malformed(format!("field {name:?} must be a boolean")))
}

fn envelope(ty: &str, mut fields: Vec<(String, Json)>) -> Json {
    let mut pairs = vec![
        ("v".to_string(), Json::from(PROTOCOL_VERSION)),
        ("type".to_string(), Json::from(ty)),
    ];
    pairs.append(&mut fields);
    Json::Object(pairs)
}

// ---------------------------------------------------------------------------
// Layout delta codec
// ---------------------------------------------------------------------------

fn u64_array(v: &Json, name: &str) -> Result<Vec<u64>, ProtoError> {
    field(v, name)?
        .as_array()
        .ok_or_else(|| ProtoError::Malformed(format!("field {name:?} must be an array")))?
        .iter()
        .map(|x| {
            x.as_u64().ok_or_else(|| {
                ProtoError::Malformed(format!("{name} elements must be unsigned integers"))
            })
        })
        .collect()
}

fn replica_pairs(v: &Json, name: &str) -> Result<Vec<(ChunkId, NodeId)>, ProtoError> {
    field(v, name)?
        .as_array()
        .ok_or_else(|| ProtoError::Malformed(format!("field {name:?} must be an array")))?
        .iter()
        .map(|pair| {
            let pair = pair.as_array().filter(|p| p.len() == 2).ok_or_else(|| {
                ProtoError::Malformed(format!("{name} elements must be [chunk, node] pairs"))
            })?;
            let chunk = pair[0].as_u64();
            let node = pair[1].as_u64();
            match (chunk, node) {
                (Some(c), Some(n)) => Ok((ChunkId(c), NodeId(n as u32))),
                _ => Err(ProtoError::Malformed(format!(
                    "{name} pairs must hold unsigned integers"
                ))),
            }
        })
        .collect()
}

/// Encodes a [`LayoutDelta`] as a wire JSON object. Replica changes ride
/// as `[chunk, node]` pairs; added files reuse the layout-entry shape.
fn delta_to_json(delta: &LayoutDelta) -> Json {
    let pairs = |ps: &[(ChunkId, NodeId)]| {
        Json::array(
            ps.iter()
                .map(|&(c, n)| Json::array([Json::from(c.0), Json::from(u64::from(n.0))])),
        )
    };
    Json::object([
        (
            "files_added".to_string(),
            Json::array(delta.files_added.iter().map(|f| {
                Json::object([
                    ("chunk".to_string(), Json::from(f.chunk.0)),
                    ("size".to_string(), Json::from(f.size)),
                    (
                        "locations".to_string(),
                        Json::array(f.locations.iter().map(|n| Json::from(u64::from(n.0)))),
                    ),
                ])
            })),
        ),
        (
            "files_removed".to_string(),
            Json::array(delta.files_removed.iter().map(|c| Json::from(c.0))),
        ),
        ("replicas_added".to_string(), pairs(&delta.replicas_added)),
        (
            "replicas_dropped".to_string(),
            pairs(&delta.replicas_dropped),
        ),
        (
            "nodes_failed".to_string(),
            Json::array(
                delta
                    .nodes_failed
                    .iter()
                    .map(|n| Json::from(u64::from(n.0))),
            ),
        ),
        (
            "nodes_joined".to_string(),
            Json::array(
                delta
                    .nodes_joined
                    .iter()
                    .map(|n| Json::from(u64::from(n.0))),
            ),
        ),
    ])
}

fn delta_from_json(v: &Json) -> Result<LayoutDelta, ProtoError> {
    let files_added = field(v, "files_added")?
        .as_array()
        .ok_or_else(|| ProtoError::Malformed("field \"files_added\" must be an array".into()))?
        .iter()
        .map(|f| {
            Ok(ChunkLayout {
                chunk: ChunkId(u64_field(f, "chunk")?),
                size: u64_field(f, "size")?,
                locations: u64_array(f, "locations")?
                    .into_iter()
                    .map(|n| NodeId(n as u32))
                    .collect(),
            })
        })
        .collect::<Result<Vec<ChunkLayout>, ProtoError>>()?;
    Ok(LayoutDelta {
        files_added,
        files_removed: u64_array(v, "files_removed")?
            .into_iter()
            .map(ChunkId)
            .collect(),
        replicas_added: replica_pairs(v, "replicas_added")?,
        replicas_dropped: replica_pairs(v, "replicas_dropped")?,
        nodes_failed: u64_array(v, "nodes_failed")?
            .into_iter()
            .map(|n| NodeId(n as u32))
            .collect(),
        nodes_joined: u64_array(v, "nodes_joined")?
            .into_iter()
            .map(|n| NodeId(n as u32))
            .collect(),
    })
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness / version probe.
    Ping,
    /// Compute (or fetch from cache) a plan for a dataset.
    Plan {
        /// Dataset index (`0..spec.n_datasets`).
        dataset: usize,
        /// Assignment strategy (`rank_interval`, `random`, `opass`).
        strategy: Strategy,
        /// Seed for the strategy's random choices.
        seed: u64,
    },
    /// Fetch the (possibly cached) layout snapshot of a dataset.
    Layout {
        /// Dataset index.
        dataset: usize,
    },
    /// Fetch service counters and the latency histogram.
    Stats,
    /// Bump the invalidation generation (stands in for a namenode
    /// mutation notification). A bare invalidation (`dataset: None`)
    /// stales every cached layout and plan. A dataset-scoped
    /// invalidation carrying a [`LayoutDelta`] stales only that
    /// dataset — and tells the server *what* changed, so cached plans
    /// can be repaired in place instead of recomputed.
    Invalidate {
        /// Dataset to invalidate, or `None` for a global flush.
        dataset: Option<usize>,
        /// What changed. Requires `dataset`.
        delta: Option<LayoutDelta>,
    },
    /// Run the closed-loop replica placement engine against a dataset's
    /// current layout and return the recommended migrations. The server
    /// computes recommendations only — nothing is applied; the client
    /// applies each round's delta to the real namenode and then replays
    /// it here via a delta invalidation, so the serve caches repair in
    /// place.
    Place {
        /// Dataset index.
        dataset: usize,
        /// Maximum migration rounds to run.
        rounds: usize,
        /// Total migration-byte budget across all rounds (`None` for
        /// unbounded).
        budget: Option<u64>,
        /// Seed for the underlying planning session.
        seed: u64,
    },
    /// Ask the server to shut down gracefully (drain in-flight work).
    Shutdown,
}

impl Request {
    /// Encodes the request as a wire JSON object.
    pub fn to_json(&self) -> Json {
        match self {
            Request::Ping => envelope("ping", vec![]),
            Request::Plan {
                dataset,
                strategy,
                seed,
            } => envelope(
                "plan",
                vec![
                    ("dataset".to_string(), Json::from(*dataset)),
                    ("strategy".to_string(), Json::from(strategy.label())),
                    ("seed".to_string(), Json::from(*seed)),
                ],
            ),
            Request::Layout { dataset } => envelope(
                "layout",
                vec![("dataset".to_string(), Json::from(*dataset))],
            ),
            Request::Stats => envelope("stats", vec![]),
            Request::Invalidate { dataset, delta } => {
                let mut fields = vec![];
                if let Some(d) = dataset {
                    fields.push(("dataset".to_string(), Json::from(*d)));
                }
                if let Some(delta) = delta {
                    fields.push(("delta".to_string(), delta_to_json(delta)));
                }
                envelope("invalidate", fields)
            }
            Request::Place {
                dataset,
                rounds,
                budget,
                seed,
            } => {
                let mut fields = vec![
                    ("dataset".to_string(), Json::from(*dataset)),
                    ("rounds".to_string(), Json::from(*rounds)),
                    ("seed".to_string(), Json::from(*seed)),
                ];
                if let Some(b) = budget {
                    fields.push(("budget".to_string(), Json::from(*b)));
                }
                envelope("place", fields)
            }
            Request::Shutdown => envelope("shutdown", vec![]),
        }
    }

    /// Decodes a wire JSON object, checking the protocol version first.
    pub fn from_json(v: &Json) -> Result<Request, ProtoError> {
        check_version(v)?;
        match str_field(v, "type")? {
            "ping" => Ok(Request::Ping),
            "plan" => {
                let label = str_field(v, "strategy")?;
                let strategy = Strategy::parse(label)
                    .ok_or_else(|| ProtoError::Malformed(format!("unknown strategy {label:?}")))?;
                Ok(Request::Plan {
                    dataset: usize_field(v, "dataset")?,
                    strategy,
                    seed: u64_field(v, "seed")?,
                })
            }
            "layout" => Ok(Request::Layout {
                dataset: usize_field(v, "dataset")?,
            }),
            "stats" => Ok(Request::Stats),
            "invalidate" => {
                let dataset = match v.get("dataset") {
                    Some(d) => Some(d.as_usize().ok_or_else(|| {
                        ProtoError::Malformed(
                            "field \"dataset\" must be an unsigned integer".into(),
                        )
                    })?),
                    None => None,
                };
                let delta = match v.get("delta") {
                    Some(d) => Some(delta_from_json(d)?),
                    None => None,
                };
                if delta.is_some() && dataset.is_none() {
                    return Err(ProtoError::Malformed(
                        "a delta invalidation must name a dataset".into(),
                    ));
                }
                Ok(Request::Invalidate { dataset, delta })
            }
            "place" => {
                let budget = match v.get("budget") {
                    Some(b) => Some(b.as_u64().ok_or_else(|| {
                        ProtoError::Malformed("field \"budget\" must be an unsigned integer".into())
                    })?),
                    None => None,
                };
                Ok(Request::Place {
                    dataset: usize_field(v, "dataset")?,
                    rounds: usize_field(v, "rounds")?,
                    budget,
                    seed: u64_field(v, "seed")?,
                })
            }
            "shutdown" => Ok(Request::Shutdown),
            other => Err(ProtoError::Malformed(format!(
                "unknown request type {other:?}"
            ))),
        }
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// A computed (or cached) plan, as shipped over the wire.
///
/// For a fixed `(spec, generation, strategy, seed)` a plan computed from
/// scratch has an `owners` vector byte-identical to the in-process
/// planner's output — the service adds caching and concurrency, never
/// different answers. A plan *repaired* from a cached predecessor after
/// a delta invalidation (`repaired: true`) agrees with the from-scratch
/// plan on `matched_files` and both locality fractions, but may realize
/// them with a different maximum matching.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanReply {
    /// Dataset index the plan is for.
    pub dataset: usize,
    /// Invalidation generation the plan was computed under.
    pub generation: u64,
    /// Strategy label.
    pub strategy: String,
    /// Seed the plan was computed with.
    pub seed: u64,
    /// Owning process per task, in task order.
    pub owners: Vec<usize>,
    /// Tasks matched to co-located processes (0 for baselines).
    pub matched_files: usize,
    /// Tasks placed by the fill policy (0 for baselines).
    pub filled_files: usize,
    /// Fraction of tasks whose data is local to their owner.
    pub local_task_fraction: f64,
    /// Fraction of bytes readable locally.
    pub local_byte_fraction: f64,
    /// True when the reply was served from the plan cache.
    pub cached: bool,
    /// True when this request piggybacked on another in-flight
    /// computation of the same key.
    pub coalesced: bool,
    /// True when the plan was repaired from a cached predecessor via a
    /// layout delta rather than computed from scratch.
    pub repaired: bool,
}

impl PlanReply {
    /// Encodes as wire JSON.
    pub fn to_json(&self) -> Json {
        envelope(
            "plan",
            vec![
                ("dataset".to_string(), Json::from(self.dataset)),
                ("generation".to_string(), Json::from(self.generation)),
                ("strategy".to_string(), Json::from(self.strategy.clone())),
                ("seed".to_string(), Json::from(self.seed)),
                (
                    "owners".to_string(),
                    Json::array(self.owners.iter().map(|&o| Json::from(o))),
                ),
                ("matched_files".to_string(), Json::from(self.matched_files)),
                ("filled_files".to_string(), Json::from(self.filled_files)),
                (
                    "local_task_fraction".to_string(),
                    Json::from(self.local_task_fraction),
                ),
                (
                    "local_byte_fraction".to_string(),
                    Json::from(self.local_byte_fraction),
                ),
                ("cached".to_string(), Json::from(self.cached)),
                ("coalesced".to_string(), Json::from(self.coalesced)),
                ("repaired".to_string(), Json::from(self.repaired)),
            ],
        )
    }

    fn from_json(v: &Json) -> Result<PlanReply, ProtoError> {
        let owners = field(v, "owners")?
            .as_array()
            .ok_or_else(|| ProtoError::Malformed("field \"owners\" must be an array".into()))?
            .iter()
            .map(|o| {
                o.as_usize()
                    .ok_or_else(|| ProtoError::Malformed("owner must be an integer".into()))
            })
            .collect::<Result<Vec<usize>, ProtoError>>()?;
        Ok(PlanReply {
            dataset: usize_field(v, "dataset")?,
            generation: u64_field(v, "generation")?,
            strategy: str_field(v, "strategy")?.to_string(),
            seed: u64_field(v, "seed")?,
            owners,
            matched_files: usize_field(v, "matched_files")?,
            filled_files: usize_field(v, "filled_files")?,
            local_task_fraction: f64_field(v, "local_task_fraction")?,
            local_byte_fraction: f64_field(v, "local_byte_fraction")?,
            cached: bool_field(v, "cached")?,
            coalesced: bool_field(v, "coalesced")?,
            repaired: bool_field(v, "repaired")?,
        })
    }
}

/// One chunk's layout entry on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayoutEntry {
    /// Chunk id (raw).
    pub chunk: u64,
    /// Size, bytes.
    pub size: u64,
    /// Replica holder node ids (raw), sorted.
    pub locations: Vec<u64>,
}

/// A dataset layout snapshot, as shipped over the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayoutReply {
    /// Dataset index.
    pub dataset: usize,
    /// Generation the snapshot was captured under.
    pub generation: u64,
    /// True when served from the layout cache.
    pub cached: bool,
    /// One entry per chunk, in task order.
    pub entries: Vec<LayoutEntry>,
}

impl LayoutReply {
    /// Encodes as wire JSON.
    pub fn to_json(&self) -> Json {
        envelope(
            "layout",
            vec![
                ("dataset".to_string(), Json::from(self.dataset)),
                ("generation".to_string(), Json::from(self.generation)),
                ("cached".to_string(), Json::from(self.cached)),
                (
                    "entries".to_string(),
                    Json::array(self.entries.iter().map(|e| {
                        Json::object([
                            ("chunk".to_string(), Json::from(e.chunk)),
                            ("size".to_string(), Json::from(e.size)),
                            (
                                "locations".to_string(),
                                Json::array(e.locations.iter().map(|&n| Json::from(n))),
                            ),
                        ])
                    })),
                ),
            ],
        )
    }

    fn from_json(v: &Json) -> Result<LayoutReply, ProtoError> {
        let entries = field(v, "entries")?
            .as_array()
            .ok_or_else(|| ProtoError::Malformed("field \"entries\" must be an array".into()))?
            .iter()
            .map(|e| {
                let locations = field(e, "locations")?
                    .as_array()
                    .ok_or_else(|| {
                        ProtoError::Malformed("field \"locations\" must be an array".into())
                    })?
                    .iter()
                    .map(|n| {
                        n.as_u64().ok_or_else(|| {
                            ProtoError::Malformed("location must be an integer".into())
                        })
                    })
                    .collect::<Result<Vec<u64>, ProtoError>>()?;
                Ok(LayoutEntry {
                    chunk: u64_field(e, "chunk")?,
                    size: u64_field(e, "size")?,
                    locations,
                })
            })
            .collect::<Result<Vec<LayoutEntry>, ProtoError>>()?;
        Ok(LayoutReply {
            dataset: usize_field(v, "dataset")?,
            generation: u64_field(v, "generation")?,
            cached: bool_field(v, "cached")?,
            entries,
        })
    }
}

/// One recommended migration round, as shipped over the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct PlaceRoundReply {
    /// Round number, starting at 1.
    pub round: usize,
    /// Replica moves the round recommends.
    pub moves: usize,
    /// Bytes the round migrates.
    pub migrated_bytes: u64,
    /// Matched-local bytes of the plan before the round.
    pub local_bytes_before: u64,
    /// Matched-local bytes after replaying the round's delta.
    pub local_bytes_after: u64,
    /// The migration-shaped delta realizing the round — apply it to the
    /// namenode, then replay it here via a delta invalidation.
    pub delta: LayoutDelta,
}

/// The closed-loop placement engine's recommendation for one dataset.
///
/// The server computes this from the dataset's current layout without
/// mutating anything: the deltas are *recommendations*. For a fixed
/// `(spec, generation, seed, rounds, budget)` the reply is
/// byte-identical to running
/// [`opass_core::OpassPlanner::placement_session`] in-process against
/// the same snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct PlaceReply {
    /// Dataset index the recommendation is for.
    pub dataset: usize,
    /// Invalidation generation the layout was captured under.
    pub generation: u64,
    /// Seed the planning session ran with.
    pub seed: u64,
    /// Matched-local bytes of the initial plan (before any migration).
    pub local_bytes_before: u64,
    /// Matched-local bytes after every recommended round.
    pub local_bytes_after: u64,
    /// Total bytes the recommendation migrates.
    pub migrated_bytes: u64,
    /// True when the loop stopped because nothing movable gains anything
    /// (rather than hitting the round or byte-budget cap).
    pub converged: bool,
    /// The executed rounds, in order.
    pub rounds: Vec<PlaceRoundReply>,
}

impl PlaceReply {
    /// Encodes as wire JSON.
    pub fn to_json(&self) -> Json {
        envelope(
            "place",
            vec![
                ("dataset".to_string(), Json::from(self.dataset)),
                ("generation".to_string(), Json::from(self.generation)),
                ("seed".to_string(), Json::from(self.seed)),
                (
                    "local_bytes_before".to_string(),
                    Json::from(self.local_bytes_before),
                ),
                (
                    "local_bytes_after".to_string(),
                    Json::from(self.local_bytes_after),
                ),
                (
                    "migrated_bytes".to_string(),
                    Json::from(self.migrated_bytes),
                ),
                ("converged".to_string(), Json::from(self.converged)),
                (
                    "rounds".to_string(),
                    Json::array(self.rounds.iter().map(|r| {
                        Json::object([
                            ("round".to_string(), Json::from(r.round)),
                            ("moves".to_string(), Json::from(r.moves)),
                            ("migrated_bytes".to_string(), Json::from(r.migrated_bytes)),
                            (
                                "local_bytes_before".to_string(),
                                Json::from(r.local_bytes_before),
                            ),
                            (
                                "local_bytes_after".to_string(),
                                Json::from(r.local_bytes_after),
                            ),
                            ("delta".to_string(), delta_to_json(&r.delta)),
                        ])
                    })),
                ),
            ],
        )
    }

    fn from_json(v: &Json) -> Result<PlaceReply, ProtoError> {
        let rounds = field(v, "rounds")?
            .as_array()
            .ok_or_else(|| ProtoError::Malformed("field \"rounds\" must be an array".into()))?
            .iter()
            .map(|r| {
                Ok(PlaceRoundReply {
                    round: usize_field(r, "round")?,
                    moves: usize_field(r, "moves")?,
                    migrated_bytes: u64_field(r, "migrated_bytes")?,
                    local_bytes_before: u64_field(r, "local_bytes_before")?,
                    local_bytes_after: u64_field(r, "local_bytes_after")?,
                    delta: delta_from_json(field(r, "delta")?)?,
                })
            })
            .collect::<Result<Vec<PlaceRoundReply>, ProtoError>>()?;
        Ok(PlaceReply {
            dataset: usize_field(v, "dataset")?,
            generation: u64_field(v, "generation")?,
            seed: u64_field(v, "seed")?,
            local_bytes_before: u64_field(v, "local_bytes_before")?,
            local_bytes_after: u64_field(v, "local_bytes_after")?,
            migrated_bytes: u64_field(v, "migrated_bytes")?,
            converged: bool_field(v, "converged")?,
            rounds,
        })
    }
}

/// One latency histogram bin (same `lo`/`hi`/`count` vocabulary as the
/// observability subsystem's `HistogramBin`), edges in microseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyBin {
    /// Inclusive lower edge, microseconds.
    pub lo: f64,
    /// Exclusive upper edge, microseconds.
    pub hi: f64,
    /// Requests whose latency fell in the bin.
    pub count: u64,
}

/// A compact latency summary (no bins) for one class of planning work.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencySummary {
    /// Operations measured.
    pub count: u64,
    /// Mean latency, microseconds.
    pub mean_us: f64,
    /// Approximate median latency, microseconds.
    pub p50_us: f64,
    /// Approximate 99th-percentile latency, microseconds.
    pub p99_us: f64,
}

impl LatencySummary {
    fn to_json(self) -> Json {
        Json::object([
            ("count".to_string(), Json::from(self.count)),
            ("mean".to_string(), Json::from(self.mean_us)),
            ("p50".to_string(), Json::from(self.p50_us)),
            ("p99".to_string(), Json::from(self.p99_us)),
        ])
    }

    fn from_json(v: &Json) -> Result<LatencySummary, ProtoError> {
        Ok(LatencySummary {
            count: u64_field(v, "count")?,
            mean_us: f64_field(v, "mean")?,
            p50_us: f64_field(v, "p50")?,
            p99_us: f64_field(v, "p99")?,
        })
    }
}

/// Encodes histogram bins as a wire JSON array.
fn bins_to_json(bins: &[LatencyBin]) -> Json {
    Json::array(bins.iter().map(|b| {
        Json::object([
            ("lo".to_string(), Json::from(b.lo)),
            ("hi".to_string(), Json::from(b.hi)),
            ("count".to_string(), Json::from(b.count)),
        ])
    }))
}

fn bins_from_json(v: &Json) -> Result<Vec<LatencyBin>, ProtoError> {
    v.as_array()
        .ok_or_else(|| ProtoError::Malformed("histogram must be an array".into()))?
        .iter()
        .map(|b| {
            Ok(LatencyBin {
                lo: f64_field(b, "lo")?,
                hi: f64_field(b, "hi")?,
                count: u64_field(b, "count")?,
            })
        })
        .collect()
}

/// Counters for one reactor shard, as shipped in the `stats` reply.
///
/// The server serializes the per-shard list in ascending `shard` index
/// order — a deterministic ordering clients may rely on.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ShardStatsReply {
    /// Shard index (0-based; doubles as the affinity residue:
    /// the shard owns datasets with `dataset % shards == shard`).
    pub shard: usize,
    /// Connections the accept loop assigned to the shard.
    pub accepted: u64,
    /// Connections shed at accept because the shard's pending queue
    /// exceeded the backpressure bound.
    pub shed_accept: u64,
    /// Frames decoded on the shard's connections (all request types).
    pub requests: u64,
    /// Requests forwarded to another shard's cache slice.
    pub forwarded: u64,
    /// Reply slots awaiting a computation when the snapshot was taken
    /// (the shard's pending queue depth).
    pub pending: usize,
    /// Latency summary for requests whose connection lives on the shard.
    pub latency_us: LatencySummary,
    /// Non-empty latency histogram bins for the shard.
    pub latency_histogram: Vec<LatencyBin>,
}

impl ShardStatsReply {
    fn to_json(&self) -> Json {
        Json::object([
            ("shard".to_string(), Json::from(self.shard)),
            ("accepted".to_string(), Json::from(self.accepted)),
            ("shed_accept".to_string(), Json::from(self.shed_accept)),
            ("requests".to_string(), Json::from(self.requests)),
            ("forwarded".to_string(), Json::from(self.forwarded)),
            ("pending".to_string(), Json::from(self.pending)),
            ("latency_us".to_string(), self.latency_us.to_json()),
            (
                "histogram".to_string(),
                bins_to_json(&self.latency_histogram),
            ),
        ])
    }

    fn from_json(v: &Json) -> Result<ShardStatsReply, ProtoError> {
        Ok(ShardStatsReply {
            shard: usize_field(v, "shard")?,
            accepted: u64_field(v, "accepted")?,
            shed_accept: u64_field(v, "shed_accept")?,
            requests: u64_field(v, "requests")?,
            forwarded: u64_field(v, "forwarded")?,
            pending: usize_field(v, "pending")?,
            latency_us: LatencySummary::from_json(field(v, "latency_us")?)?,
            latency_histogram: bins_from_json(field(v, "histogram")?)?,
        })
    }
}

/// Service counters and latency distribution.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StatsReply {
    /// Current invalidation generation.
    pub generation: u64,
    /// Requests accepted (all types).
    pub requests: u64,
    /// Plans actually computed from scratch (cache misses that ran the
    /// planner end to end).
    pub planned: u64,
    /// Plans repaired from a cached predecessor via a layout delta.
    pub repaired: u64,
    /// Layouts served by the world (the fetches the layout cache avoids).
    pub layout_walks: u64,
    /// Plan + layout cache hits.
    pub cache_hits: u64,
    /// Plan + layout cache misses.
    pub cache_misses: u64,
    /// Cache entries dropped because their generation was stale.
    pub cache_invalidated: u64,
    /// Requests that piggybacked on an in-flight computation.
    pub coalesced: u64,
    /// Requests shed because the bounded queue was full.
    pub shed: u64,
    /// Planning jobs currently queued.
    pub queue_depth: usize,
    /// Queue capacity.
    pub queue_capacity: usize,
    /// Worker threads.
    pub workers: usize,
    /// Requests measured by the latency histogram.
    pub latency_count: u64,
    /// Mean service latency, microseconds.
    pub latency_mean_us: f64,
    /// Approximate median latency, microseconds.
    pub latency_p50_us: f64,
    /// Approximate 99th-percentile latency, microseconds.
    pub latency_p99_us: f64,
    /// Non-empty latency histogram bins.
    pub latency_histogram: Vec<LatencyBin>,
    /// Latency of delta repairs of cached plans.
    pub repair_us: LatencySummary,
    /// Latency of from-scratch plan computations.
    pub cold_plan_us: LatencySummary,
    /// Per-shard reactor counters, in ascending shard-index order
    /// (deterministic).
    pub shards: Vec<ShardStatsReply>,
}

impl StatsReply {
    /// Encodes as wire JSON (counters + queue + latency sub-objects,
    /// mirroring the `RunMetrics` JSON layout).
    pub fn to_json(&self) -> Json {
        envelope(
            "stats",
            vec![
                ("generation".to_string(), Json::from(self.generation)),
                (
                    "counters".to_string(),
                    Json::object([
                        ("requests".to_string(), Json::from(self.requests)),
                        ("planned".to_string(), Json::from(self.planned)),
                        ("repaired".to_string(), Json::from(self.repaired)),
                        ("layout_walks".to_string(), Json::from(self.layout_walks)),
                        ("cache_hits".to_string(), Json::from(self.cache_hits)),
                        ("cache_misses".to_string(), Json::from(self.cache_misses)),
                        (
                            "cache_invalidated".to_string(),
                            Json::from(self.cache_invalidated),
                        ),
                        ("coalesced".to_string(), Json::from(self.coalesced)),
                        ("shed".to_string(), Json::from(self.shed)),
                    ]),
                ),
                (
                    "queue".to_string(),
                    Json::object([
                        ("depth".to_string(), Json::from(self.queue_depth)),
                        ("capacity".to_string(), Json::from(self.queue_capacity)),
                        ("workers".to_string(), Json::from(self.workers)),
                    ]),
                ),
                (
                    "latency_us".to_string(),
                    Json::object([
                        ("count".to_string(), Json::from(self.latency_count)),
                        ("mean".to_string(), Json::from(self.latency_mean_us)),
                        ("p50".to_string(), Json::from(self.latency_p50_us)),
                        ("p99".to_string(), Json::from(self.latency_p99_us)),
                        (
                            "histogram".to_string(),
                            bins_to_json(&self.latency_histogram),
                        ),
                    ]),
                ),
                ("repair_us".to_string(), self.repair_us.to_json()),
                ("cold_plan_us".to_string(), self.cold_plan_us.to_json()),
                (
                    "shards".to_string(),
                    Json::array(self.shards.iter().map(ShardStatsReply::to_json)),
                ),
            ],
        )
    }

    fn from_json(v: &Json) -> Result<StatsReply, ProtoError> {
        let counters = field(v, "counters")?;
        let queue = field(v, "queue")?;
        let latency = field(v, "latency_us")?;
        let histogram = bins_from_json(field(latency, "histogram")?)?;
        let shards = field(v, "shards")?
            .as_array()
            .ok_or_else(|| ProtoError::Malformed("field \"shards\" must be an array".into()))?
            .iter()
            .map(ShardStatsReply::from_json)
            .collect::<Result<Vec<ShardStatsReply>, ProtoError>>()?;
        Ok(StatsReply {
            generation: u64_field(v, "generation")?,
            requests: u64_field(counters, "requests")?,
            planned: u64_field(counters, "planned")?,
            repaired: u64_field(counters, "repaired")?,
            layout_walks: u64_field(counters, "layout_walks")?,
            cache_hits: u64_field(counters, "cache_hits")?,
            cache_misses: u64_field(counters, "cache_misses")?,
            cache_invalidated: u64_field(counters, "cache_invalidated")?,
            coalesced: u64_field(counters, "coalesced")?,
            shed: u64_field(counters, "shed")?,
            queue_depth: usize_field(queue, "depth")?,
            queue_capacity: usize_field(queue, "capacity")?,
            workers: usize_field(queue, "workers")?,
            latency_count: u64_field(latency, "count")?,
            latency_mean_us: f64_field(latency, "mean")?,
            latency_p50_us: f64_field(latency, "p50")?,
            latency_p99_us: f64_field(latency, "p99")?,
            latency_histogram: histogram,
            repair_us: LatencySummary::from_json(field(v, "repair_us")?)?,
            cold_plan_us: LatencySummary::from_json(field(v, "cold_plan_us")?)?,
            shards,
        })
    }
}

/// A server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Reply to [`Request::Ping`]: the server's protocol version and world
    /// dimensions.
    Pong {
        /// Protocol version the server speaks.
        protocol: u64,
        /// Nodes in the served cluster.
        nodes: usize,
        /// Datasets available for planning.
        datasets: usize,
    },
    /// A plan.
    Plan(PlanReply),
    /// A layout snapshot.
    Layout(LayoutReply),
    /// A replica-placement recommendation.
    Place(PlaceReply),
    /// Service statistics.
    Stats(StatsReply),
    /// The generation after an invalidation.
    Invalidated {
        /// The new generation.
        generation: u64,
    },
    /// The bounded queue was full: the request was shed, not queued. The
    /// client may retry later; the server never blocks an accept on a
    /// full queue.
    Overloaded {
        /// Queue depth observed when shedding (== capacity).
        queue_depth: usize,
    },
    /// The server is draining and will close the connection.
    ShuttingDown,
    /// The request could not be served (unknown dataset, bad message, …).
    Error {
        /// Human-readable reason.
        message: String,
    },
}

impl Response {
    /// Encodes the response as a wire JSON object.
    pub fn to_json(&self) -> Json {
        match self {
            Response::Pong {
                protocol,
                nodes,
                datasets,
            } => envelope(
                "pong",
                vec![
                    ("protocol".to_string(), Json::from(*protocol)),
                    ("nodes".to_string(), Json::from(*nodes)),
                    ("datasets".to_string(), Json::from(*datasets)),
                ],
            ),
            Response::Plan(p) => p.to_json(),
            Response::Layout(l) => l.to_json(),
            Response::Place(p) => p.to_json(),
            Response::Stats(s) => s.to_json(),
            Response::Invalidated { generation } => envelope(
                "invalidated",
                vec![("generation".to_string(), Json::from(*generation))],
            ),
            Response::Overloaded { queue_depth } => envelope(
                "overloaded",
                vec![("queue_depth".to_string(), Json::from(*queue_depth))],
            ),
            Response::ShuttingDown => envelope("shutting_down", vec![]),
            Response::Error { message } => envelope(
                "error",
                vec![("message".to_string(), Json::from(message.clone()))],
            ),
        }
    }

    /// Decodes a wire JSON object, checking the protocol version first.
    pub fn from_json(v: &Json) -> Result<Response, ProtoError> {
        check_version(v)?;
        match str_field(v, "type")? {
            "pong" => Ok(Response::Pong {
                protocol: u64_field(v, "protocol")?,
                nodes: usize_field(v, "nodes")?,
                datasets: usize_field(v, "datasets")?,
            }),
            "plan" => Ok(Response::Plan(PlanReply::from_json(v)?)),
            "layout" => Ok(Response::Layout(LayoutReply::from_json(v)?)),
            "place" => Ok(Response::Place(PlaceReply::from_json(v)?)),
            "stats" => Ok(Response::Stats(StatsReply::from_json(v)?)),
            "invalidated" => Ok(Response::Invalidated {
                generation: u64_field(v, "generation")?,
            }),
            "overloaded" => Ok(Response::Overloaded {
                queue_depth: usize_field(v, "queue_depth")?,
            }),
            "shutting_down" => Ok(Response::ShuttingDown),
            "error" => Ok(Response::Error {
                message: str_field(v, "message")?.to_string(),
            }),
            other => Err(ProtoError::Malformed(format!(
                "unknown response type {other:?}"
            ))),
        }
    }
}

/// Convenience: a protocol error rendered as a frame-layer error (used
/// where the two layers meet in client code).
impl From<ProtoError> for FrameError {
    fn from(e: ProtoError) -> FrameError {
        FrameError::BadJson(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        for req in [
            Request::Ping,
            Request::Plan {
                dataset: 3,
                strategy: Strategy::Opass,
                seed: 99,
            },
            Request::Layout { dataset: 0 },
            Request::Stats,
            Request::Invalidate {
                dataset: None,
                delta: None,
            },
            Request::Invalidate {
                dataset: Some(2),
                delta: None,
            },
            Request::Invalidate {
                dataset: Some(1),
                delta: Some(LayoutDelta {
                    files_added: vec![ChunkLayout {
                        chunk: ChunkId(40),
                        size: 4096,
                        locations: vec![NodeId(1), NodeId(5)].into(),
                    }],
                    files_removed: vec![ChunkId(7)],
                    replicas_added: vec![(ChunkId(3), NodeId(2))],
                    replicas_dropped: vec![(ChunkId(3), NodeId(0)), (ChunkId(9), NodeId(4))],
                    nodes_failed: vec![NodeId(0)],
                    nodes_joined: vec![NodeId(6)],
                }),
            },
            Request::Place {
                dataset: 4,
                rounds: 8,
                budget: Some(1 << 20),
                seed: 13,
            },
            Request::Place {
                dataset: 0,
                rounds: 1,
                budget: None,
                seed: 0,
            },
            Request::Shutdown,
        ] {
            let back = Request::from_json(&req.to_json()).expect("round trip");
            assert_eq!(back, req);
        }
    }

    #[test]
    fn delta_without_dataset_is_malformed() {
        let msg = Json::object([
            ("v".to_string(), Json::from(PROTOCOL_VERSION)),
            ("type".to_string(), Json::from("invalidate")),
            ("delta".to_string(), delta_to_json(&LayoutDelta::default())),
        ]);
        assert!(matches!(
            Request::from_json(&msg),
            Err(ProtoError::Malformed(_))
        ));
    }

    #[test]
    fn responses_round_trip() {
        let plan = PlanReply {
            dataset: 1,
            generation: 4,
            strategy: "opass".into(),
            seed: 7,
            owners: vec![0, 2, 1],
            matched_files: 2,
            filled_files: 1,
            local_task_fraction: 0.66,
            local_byte_fraction: 0.5,
            cached: true,
            coalesced: false,
            repaired: true,
        };
        let stats = StatsReply {
            generation: 4,
            requests: 10,
            planned: 2,
            repaired: 1,
            cache_hits: 7,
            cache_misses: 3,
            coalesced: 1,
            shed: 5,
            queue_depth: 0,
            queue_capacity: 64,
            workers: 4,
            latency_count: 10,
            latency_mean_us: 120.0,
            latency_p50_us: 64.0,
            latency_p99_us: 1024.0,
            latency_histogram: vec![LatencyBin {
                lo: 64.0,
                hi: 128.0,
                count: 10,
            }],
            repair_us: LatencySummary {
                count: 1,
                mean_us: 40.0,
                p50_us: 32.0,
                p99_us: 64.0,
            },
            cold_plan_us: LatencySummary {
                count: 2,
                mean_us: 900.0,
                p50_us: 512.0,
                p99_us: 2048.0,
            },
            ..Default::default()
        };
        for resp in [
            Response::Pong {
                protocol: PROTOCOL_VERSION,
                nodes: 64,
                datasets: 8,
            },
            Response::Plan(plan),
            Response::Layout(LayoutReply {
                dataset: 0,
                generation: 1,
                cached: false,
                entries: vec![LayoutEntry {
                    chunk: 5,
                    size: 1024,
                    locations: vec![1, 2, 3],
                }],
            }),
            Response::Stats(stats),
            Response::Place(PlaceReply {
                dataset: 2,
                generation: 3,
                seed: 13,
                local_bytes_before: 4096,
                local_bytes_after: 8192,
                migrated_bytes: 4096,
                converged: true,
                rounds: vec![PlaceRoundReply {
                    round: 1,
                    moves: 2,
                    migrated_bytes: 4096,
                    local_bytes_before: 4096,
                    local_bytes_after: 8192,
                    delta: LayoutDelta {
                        files_added: vec![],
                        files_removed: vec![],
                        replicas_added: vec![(ChunkId(1), NodeId(4)), (ChunkId(2), NodeId(5))],
                        replicas_dropped: vec![(ChunkId(1), NodeId(0)), (ChunkId(2), NodeId(0))],
                        nodes_failed: vec![],
                        nodes_joined: vec![],
                    },
                }],
            }),
            Response::Invalidated { generation: 5 },
            Response::Overloaded { queue_depth: 64 },
            Response::ShuttingDown,
            Response::Error {
                message: "nope".into(),
            },
        ] {
            let back = Response::from_json(&resp.to_json()).expect("round trip");
            assert_eq!(back, resp);
        }
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let mut msg = Request::Ping.to_json();
        if let Json::Object(pairs) = &mut msg {
            pairs[0].1 = Json::from(2u64);
        }
        assert_eq!(
            Request::from_json(&msg),
            Err(ProtoError::BadVersion { got: 2 })
        );
        let missing = Json::object([("type".to_string(), Json::from("ping"))]);
        assert_eq!(
            Request::from_json(&missing),
            Err(ProtoError::BadVersion { got: 0 })
        );
    }

    #[test]
    fn unknown_types_and_strategies_are_malformed() {
        let bad = Json::object([
            ("v".to_string(), Json::from(PROTOCOL_VERSION)),
            ("type".to_string(), Json::from("frobnicate")),
        ]);
        assert!(matches!(
            Request::from_json(&bad),
            Err(ProtoError::Malformed(_))
        ));
        let bad_strategy = Json::object([
            ("v".to_string(), Json::from(PROTOCOL_VERSION)),
            ("type".to_string(), Json::from("plan")),
            ("dataset".to_string(), Json::from(0usize)),
            ("strategy".to_string(), Json::from("sorcery")),
            ("seed".to_string(), Json::from(1u64)),
        ]);
        assert!(matches!(
            Request::from_json(&bad_strategy),
            Err(ProtoError::Malformed(_))
        ));
    }
}
