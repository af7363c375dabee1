//! The wire protocol: versioned request/response messages.
//!
//! Every message is one JSON frame (see [`crate::frame`]) whose object
//! carries a `"v"` version field and a `"type"` tag. The version is
//! checked on decode: a peer speaking a different protocol version gets a
//! typed error instead of a misinterpreted message. Unknown dataset
//! indices, unparsable strategies, and malformed fields are all decode
//! errors — a request that decodes successfully is structurally valid.
//!
//! Each wire struct is one table of `field: "key"` rows
//! ([`opass_json::json_object!`]), from which both its encoder and its
//! decoder are generated, so a key is spelled once. The value types a
//! row may hold implement [`opass_json::Field`], whose decoders
//! range-check what the peer sent: integers must be exact in a JSON
//! number (below 2⁵³) and node ids must fit in `u32`.

use crate::frame::FrameError;
use opass_core::dfs::LayoutDelta;
use opass_core::Strategy;
use opass_json::{field, get, get_opt, json_object, Field, FieldError, Json};

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

impl From<FieldError> for ProtoError {
    fn from(e: FieldError) -> ProtoError {
        ProtoError::Malformed(e.0)
    }
}

json_object! {
    PlanReply {
        dataset: "dataset",
        generation: "generation",
        strategy: "strategy",
        seed: "seed",
        owners: "owners",
        matched_files: "matched_files",
        filled_files: "filled_files",
        local_task_fraction: "local_task_fraction",
        local_byte_fraction: "local_byte_fraction",
        cached: "cached",
        coalesced: "coalesced",
        repaired: "repaired",
    }
    LayoutEntry { chunk: "chunk", size: "size", locations: "locations" }
    LayoutReply {
        dataset: "dataset",
        generation: "generation",
        cached: "cached",
        entries: "entries",
    }
    PlaceRoundReply {
        round: "round",
        moves: "moves",
        migrated_bytes: "migrated_bytes",
        local_bytes_before: "local_bytes_before",
        local_bytes_after: "local_bytes_after",
        delta: "delta",
    }
    PlaceReply {
        dataset: "dataset",
        generation: "generation",
        seed: "seed",
        local_bytes_before: "local_bytes_before",
        local_bytes_after: "local_bytes_after",
        migrated_bytes: "migrated_bytes",
        converged: "converged",
        rounds: "rounds",
    }
    LatencyBin { lo: "lo", hi: "hi", count: "count" }
    LatencySummary { count: "count", mean_us: "mean", p50_us: "p50", p99_us: "p99" }
    ShardStatsReply {
        shard: "shard",
        accepted: "accepted",
        shed_accept: "shed_accept",
        requests: "requests",
        forwarded: "forwarded",
        pending: "pending",
        latency_us: "latency_us",
        latency_histogram: "histogram",
    }
}

/// An object of hand-listed fields.
fn object<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
    Json::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Message `ty`: the version and the type tag, then `body`'s fields.
fn envelope(ty: &str, body: Json) -> Json {
    let mut pairs = vec![
        ("v".to_string(), PROTOCOL_VERSION.put()),
        ("type".to_string(), Json::from(ty)),
    ];
    if let Json::Object(mut fields) = body {
        pairs.append(&mut fields);
    }
    Json::Object(pairs)
}

/// Checks the protocol version of message `v` and returns its type tag.
fn open(v: &Json) -> Result<&str, ProtoError> {
    let got = v.get("v").and_then(Json::as_u64).unwrap_or(0);
    if got != PROTOCOL_VERSION {
        return Err(ProtoError::BadVersion { got });
    }
    field(v, "type")?
        .as_str()
        .ok_or_else(|| FieldError::must_be("type", "a string").into())
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
        let (ty, body) = match self {
            Request::Ping => ("ping", object([])),
            Request::Plan {
                dataset,
                strategy,
                seed,
            } => (
                "plan",
                object([
                    ("dataset", dataset.put()),
                    ("strategy", strategy.put()),
                    ("seed", seed.put()),
                ]),
            ),
            Request::Layout { dataset } => ("layout", object([("dataset", dataset.put())])),
            Request::Stats => ("stats", object([])),
            Request::Invalidate { dataset, delta } => (
                "invalidate",
                object(
                    dataset
                        .map(|d| ("dataset", d.put()))
                        .into_iter()
                        .chain(delta.as_ref().map(|d| ("delta", d.put()))),
                ),
            ),
            Request::Place {
                dataset,
                rounds,
                budget,
                seed,
            } => (
                "place",
                object(
                    [
                        ("dataset", dataset.put()),
                        ("rounds", rounds.put()),
                        ("seed", seed.put()),
                    ]
                    .into_iter()
                    .chain(budget.map(|b| ("budget", b.put()))),
                ),
            ),
            Request::Shutdown => ("shutdown", object([])),
        };
        envelope(ty, body)
    }

    /// Decodes a wire JSON object, checking the protocol version first.
    pub fn from_json(v: &Json) -> Result<Request, ProtoError> {
        match open(v)? {
            "ping" => Ok(Request::Ping),
            "plan" => Ok(Request::Plan {
                dataset: get(v, "dataset")?,
                strategy: get(v, "strategy")?,
                seed: get(v, "seed")?,
            }),
            "layout" => Ok(Request::Layout {
                dataset: get(v, "dataset")?,
            }),
            "stats" => Ok(Request::Stats),
            "invalidate" => {
                let dataset = get_opt(v, "dataset")?;
                let delta = get_opt(v, "delta")?;
                if delta.is_some() && dataset.is_none() {
                    return Err(ProtoError::Malformed(
                        "a delta invalidation must name a dataset".into(),
                    ));
                }
                Ok(Request::Invalidate { dataset, delta })
            }
            "place" => Ok(Request::Place {
                dataset: get(v, "dataset")?,
                rounds: get(v, "rounds")?,
                budget: get_opt(v, "budget")?,
                seed: get(v, "seed")?,
            }),
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
        envelope("plan", self.put())
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
        envelope("layout", self.put())
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
        envelope("place", self.put())
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
        envelope("stats", self.put())
    }
}

/// The flat struct rides as nested sections.
impl Field for StatsReply {
    fn put(&self) -> Json {
        object([
            ("generation", self.generation.put()),
            (
                "counters",
                object([
                    ("requests", self.requests.put()),
                    ("planned", self.planned.put()),
                    ("repaired", self.repaired.put()),
                    ("layout_walks", self.layout_walks.put()),
                    ("cache_hits", self.cache_hits.put()),
                    ("cache_misses", self.cache_misses.put()),
                    ("cache_invalidated", self.cache_invalidated.put()),
                    ("coalesced", self.coalesced.put()),
                    ("shed", self.shed.put()),
                ]),
            ),
            (
                "queue",
                object([
                    ("depth", self.queue_depth.put()),
                    ("capacity", self.queue_capacity.put()),
                    ("workers", self.workers.put()),
                ]),
            ),
            (
                "latency_us",
                object([
                    ("count", self.latency_count.put()),
                    ("mean", self.latency_mean_us.put()),
                    ("p50", self.latency_p50_us.put()),
                    ("p99", self.latency_p99_us.put()),
                    ("histogram", self.latency_histogram.put()),
                ]),
            ),
            ("repair_us", self.repair_us.put()),
            ("cold_plan_us", self.cold_plan_us.put()),
            ("shards", self.shards.put()),
        ])
    }

    fn take(v: &Json, _key: &str) -> Result<StatsReply, FieldError> {
        let counters = field(v, "counters")?;
        let queue = field(v, "queue")?;
        let latency = field(v, "latency_us")?;
        Ok(StatsReply {
            generation: get(v, "generation")?,
            requests: get(counters, "requests")?,
            planned: get(counters, "planned")?,
            repaired: get(counters, "repaired")?,
            layout_walks: get(counters, "layout_walks")?,
            cache_hits: get(counters, "cache_hits")?,
            cache_misses: get(counters, "cache_misses")?,
            cache_invalidated: get(counters, "cache_invalidated")?,
            coalesced: get(counters, "coalesced")?,
            shed: get(counters, "shed")?,
            queue_depth: get(queue, "depth")?,
            queue_capacity: get(queue, "capacity")?,
            workers: get(queue, "workers")?,
            latency_count: get(latency, "count")?,
            latency_mean_us: get(latency, "mean")?,
            latency_p50_us: get(latency, "p50")?,
            latency_p99_us: get(latency, "p99")?,
            latency_histogram: get(latency, "histogram")?,
            repair_us: get(v, "repair_us")?,
            cold_plan_us: get(v, "cold_plan_us")?,
            shards: get(v, "shards")?,
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
        let (ty, body) = match self {
            Response::Pong {
                protocol,
                nodes,
                datasets,
            } => (
                "pong",
                object([
                    ("protocol", protocol.put()),
                    ("nodes", nodes.put()),
                    ("datasets", datasets.put()),
                ]),
            ),
            Response::Plan(p) => ("plan", p.put()),
            Response::Layout(l) => ("layout", l.put()),
            Response::Place(p) => ("place", p.put()),
            Response::Stats(s) => ("stats", s.put()),
            Response::Invalidated { generation } => {
                ("invalidated", object([("generation", generation.put())]))
            }
            Response::Overloaded { queue_depth } => {
                ("overloaded", object([("queue_depth", queue_depth.put())]))
            }
            Response::ShuttingDown => ("shutting_down", object([])),
            Response::Error { message } => ("error", object([("message", message.put())])),
        };
        envelope(ty, body)
    }

    /// Decodes a wire JSON object, checking the protocol version first.
    pub fn from_json(v: &Json) -> Result<Response, ProtoError> {
        match open(v)? {
            "pong" => Ok(Response::Pong {
                protocol: get(v, "protocol")?,
                nodes: get(v, "nodes")?,
                datasets: get(v, "datasets")?,
            }),
            "plan" => Ok(Response::Plan(PlanReply::take(v, "plan")?)),
            "layout" => Ok(Response::Layout(LayoutReply::take(v, "layout")?)),
            "place" => Ok(Response::Place(PlaceReply::take(v, "place")?)),
            "stats" => Ok(Response::Stats(StatsReply::take(v, "stats")?)),
            "invalidated" => Ok(Response::Invalidated {
                generation: get(v, "generation")?,
            }),
            "overloaded" => Ok(Response::Overloaded {
                queue_depth: get(v, "queue_depth")?,
            }),
            "shutting_down" => Ok(Response::ShuttingDown),
            "error" => Ok(Response::Error {
                message: get(v, "message")?,
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
    use opass_core::dfs::{ChunkId, ChunkLayout, NodeId};

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
            ("delta".to_string(), LayoutDelta::default().put()),
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

    /// An `invalidate` request for dataset 0 whose delta body is `delta`.
    fn invalidate_with(delta: &str) -> Json {
        Json::parse(&format!(
            r#"{{"v":1,"type":"invalidate","dataset":0,"delta":{delta}}}"#
        ))
        .expect("literal json")
    }

    #[test]
    fn node_ids_past_u32_are_malformed() {
        let lists =
            r#""files_added":[],"files_removed":[],"replicas_added":[],"replicas_dropped":[]"#;
        let fits = invalidate_with(&format!(
            r#"{{{lists},"nodes_failed":[4294967295],"nodes_joined":[]}}"#
        ));
        match Request::from_json(&fits) {
            Ok(Request::Invalidate {
                delta: Some(delta), ..
            }) => assert_eq!(delta.nodes_failed, [NodeId(u32::MAX)]),
            other => panic!("expected a delta invalidation, got {other:?}"),
        }
        // 2^32 + 5 used to wrap to node 5.
        let wraps = invalidate_with(&format!(
            r#"{{{lists},"nodes_failed":[4294967301],"nodes_joined":[]}}"#
        ));
        assert_eq!(
            Request::from_json(&wraps),
            Err(ProtoError::Malformed(
                "field \"nodes_failed\" must be a node id below 2^32".into()
            ))
        );
        let pair = invalidate_with(
            &format!(r#"{{{lists},"nodes_failed":[],"nodes_joined":[]}}"#).replace(
                r#""replicas_added":[]"#,
                r#""replicas_added":[[1,4294967296]]"#,
            ),
        );
        assert!(matches!(
            Request::from_json(&pair),
            Err(ProtoError::Malformed(_))
        ));
    }

    #[test]
    fn seeds_a_json_number_cannot_hold_are_refused_not_rounded() {
        // 2^53 + 1 encodes as 2^53, the nearest double; decoding that as
        // a seed would plan under a seed the client never named.
        let plan = |seed| Request::Plan {
            dataset: 0,
            strategy: Strategy::Opass,
            seed,
        };
        let largest = plan((1 << 53) - 1);
        assert_eq!(Request::from_json(&largest.to_json()), Ok(largest));
        for seed in [(1 << 53) + 1, 1 << 53, u64::MAX] {
            assert_eq!(
                Request::from_json(&plan(seed).to_json()),
                Err(ProtoError::Malformed(
                    "field \"seed\" must be below 2^53".into()
                )),
                "{seed}"
            );
        }
    }

    #[test]
    fn malformed_shapes_name_their_field() {
        for (delta, message) in [
            (
                r#"{"files_added":[],"files_removed":[],"replicas_added":[[1]],"replicas_dropped":[],"nodes_failed":[],"nodes_joined":[]}"#,
                "field \"replicas_added\" must be a two-element array",
            ),
            (
                r#"{"files_added":[],"files_removed":7,"replicas_added":[],"replicas_dropped":[],"nodes_failed":[],"nodes_joined":[]}"#,
                "field \"files_removed\" must be an array",
            ),
            (
                r#"{"files_added":[{"chunk":1,"size":-2,"locations":[]}],"files_removed":[],"replicas_added":[],"replicas_dropped":[],"nodes_failed":[],"nodes_joined":[]}"#,
                "field \"size\" must be an unsigned integer",
            ),
            (
                r#"{"files_added":[],"files_removed":[]}"#,
                "missing field \"replicas_added\"",
            ),
        ] {
            assert_eq!(
                Request::from_json(&invalidate_with(delta)),
                Err(ProtoError::Malformed(message.into())),
                "{delta}"
            );
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
