//! The wire bytes of every request and response kind, held to literals.
//!
//! Each case encodes a value and compares the compact JSON with the bytes
//! recorded for it, then decodes those bytes and compares the value. A
//! codec rewrite that keeps every valid message byte-identical passes
//! this file unedited; one that renames a key, reorders fields, drops an
//! optional or changes a number's spelling fails it.

use opass_core::dfs::{ChunkId, ChunkLayout, LayoutDelta, NodeId};
use opass_json::Json;
use opass_serve::{
    LatencyBin, LatencySummary, LayoutEntry, LayoutReply, PlaceReply, PlaceRoundReply, PlanReply,
    Request, Response, ShardStatsReply, StatsReply, Strategy, PROTOCOL_VERSION,
};

fn full_delta() -> LayoutDelta {
    LayoutDelta {
        files_added: vec![
            ChunkLayout {
                chunk: ChunkId(40),
                size: 4096,
                locations: vec![NodeId(1), NodeId(5)].into(),
            },
            ChunkLayout {
                chunk: ChunkId(41),
                size: 0,
                locations: vec![].into(),
            },
        ],
        files_removed: vec![ChunkId(7), ChunkId(8)],
        replicas_added: vec![(ChunkId(3), NodeId(2))],
        replicas_dropped: vec![(ChunkId(3), NodeId(0)), (ChunkId(9), NodeId(4))],
        nodes_failed: vec![NodeId(0)],
        nodes_joined: vec![NodeId(6), NodeId(4_000_000_000)],
    }
}

fn requests() -> Vec<(Request, &'static str)> {
    vec![
        (Request::Ping, r#"{"v":1,"type":"ping"}"#),
        (
            Request::Plan {
                dataset: 3,
                strategy: Strategy::Opass,
                seed: 99,
            },
            r#"{"v":1,"type":"plan","dataset":3,"strategy":"opass","seed":99}"#,
        ),
        (
            Request::Plan {
                dataset: 0,
                strategy: Strategy::RankInterval,
                seed: (1 << 53) - 1,
            },
            r#"{"v":1,"type":"plan","dataset":0,"strategy":"rank_interval","seed":9007199254740991}"#,
        ),
        (
            Request::Plan {
                dataset: 2,
                strategy: Strategy::DelayScheduling { max_skips: 16 },
                seed: 1,
            },
            r#"{"v":1,"type":"plan","dataset":2,"strategy":"delay:16","seed":1}"#,
        ),
        (
            Request::Layout { dataset: 7 },
            r#"{"v":1,"type":"layout","dataset":7}"#,
        ),
        (Request::Stats, r#"{"v":1,"type":"stats"}"#),
        (
            Request::Invalidate {
                dataset: None,
                delta: None,
            },
            r#"{"v":1,"type":"invalidate"}"#,
        ),
        (
            Request::Invalidate {
                dataset: Some(2),
                delta: None,
            },
            r#"{"v":1,"type":"invalidate","dataset":2}"#,
        ),
        (
            Request::Invalidate {
                dataset: Some(1),
                delta: Some(full_delta()),
            },
            concat!(
                r#"{"v":1,"type":"invalidate","dataset":1,"delta":{"files_added":["#,
                r#"{"chunk":40,"size":4096,"locations":[1,5]},"#,
                r#"{"chunk":41,"size":0,"locations":[]}],"#,
                r#""files_removed":[7,8],"replicas_added":[[3,2]],"#,
                r#""replicas_dropped":[[3,0],[9,4]],"nodes_failed":[0],"#,
                r#""nodes_joined":[6,4000000000]}}"#,
            ),
        ),
        (
            Request::Invalidate {
                dataset: Some(0),
                delta: Some(LayoutDelta::default()),
            },
            concat!(
                r#"{"v":1,"type":"invalidate","dataset":0,"delta":{"files_added":[],"#,
                r#""files_removed":[],"replicas_added":[],"replicas_dropped":[],"#,
                r#""nodes_failed":[],"nodes_joined":[]}}"#,
            ),
        ),
        (
            Request::Place {
                dataset: 4,
                rounds: 8,
                budget: Some(1 << 20),
                seed: 13,
            },
            r#"{"v":1,"type":"place","dataset":4,"rounds":8,"seed":13,"budget":1048576}"#,
        ),
        (
            Request::Place {
                dataset: 0,
                rounds: 1,
                budget: None,
                seed: 0,
            },
            r#"{"v":1,"type":"place","dataset":0,"rounds":1,"seed":0}"#,
        ),
        (Request::Shutdown, r#"{"v":1,"type":"shutdown"}"#),
    ]
}

fn summary(count: u64, mean_us: f64, p50_us: f64, p99_us: f64) -> LatencySummary {
    LatencySummary {
        count,
        mean_us,
        p50_us,
        p99_us,
    }
}

fn responses() -> Vec<(Response, &'static str)> {
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
    let layout = LayoutReply {
        dataset: 0,
        generation: 1,
        cached: false,
        entries: vec![
            LayoutEntry {
                chunk: 5,
                size: 1024,
                locations: vec![1, 2, 3],
            },
            LayoutEntry {
                chunk: 6,
                size: 67_108_864,
                locations: vec![],
            },
        ],
    };
    let place = PlaceReply {
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
                replicas_added: vec![(ChunkId(1), NodeId(4)), (ChunkId(2), NodeId(5))],
                replicas_dropped: vec![(ChunkId(1), NodeId(0)), (ChunkId(2), NodeId(0))],
                ..LayoutDelta::default()
            },
        }],
    };
    let stats = StatsReply {
        generation: 4,
        requests: 10,
        planned: 2,
        repaired: 1,
        layout_walks: 3,
        cache_hits: 7,
        cache_misses: 3,
        cache_invalidated: 2,
        coalesced: 1,
        shed: 5,
        queue_depth: 0,
        queue_capacity: 64,
        workers: 4,
        latency_count: 10,
        latency_mean_us: 120.5,
        latency_p50_us: 64.0,
        latency_p99_us: 1024.0,
        latency_histogram: vec![
            LatencyBin {
                lo: 64.0,
                hi: 128.0,
                count: 9,
            },
            LatencyBin {
                lo: 1024.0,
                hi: 2048.0,
                count: 1,
            },
        ],
        repair_us: summary(1, 40.25, 32.0, 64.0),
        cold_plan_us: summary(2, 900.0, 512.0, 2048.0),
        shards: vec![
            ShardStatsReply {
                shard: 0,
                accepted: 3,
                shed_accept: 0,
                requests: 6,
                forwarded: 2,
                pending: 1,
                latency_us: summary(6, 99.5, 64.0, 128.0),
                latency_histogram: vec![LatencyBin {
                    lo: 64.0,
                    hi: 128.0,
                    count: 6,
                }],
            },
            ShardStatsReply {
                shard: 1,
                ..ShardStatsReply::default()
            },
        ],
    };
    vec![
        (
            Response::Pong {
                protocol: PROTOCOL_VERSION,
                nodes: 64,
                datasets: 8,
            },
            r#"{"v":1,"type":"pong","protocol":1,"nodes":64,"datasets":8}"#,
        ),
        (
            Response::Plan(plan),
            concat!(
                r#"{"v":1,"type":"plan","dataset":1,"generation":4,"strategy":"opass","#,
                r#""seed":7,"owners":[0,2,1],"matched_files":2,"filled_files":1,"#,
                r#""local_task_fraction":0.66,"local_byte_fraction":0.5,"cached":true,"#,
                r#""coalesced":false,"repaired":true}"#,
            ),
        ),
        (
            Response::Layout(layout),
            concat!(
                r#"{"v":1,"type":"layout","dataset":0,"generation":1,"cached":false,"#,
                r#""entries":[{"chunk":5,"size":1024,"locations":[1,2,3]},"#,
                r#"{"chunk":6,"size":67108864,"locations":[]}]}"#,
            ),
        ),
        (
            Response::Place(place),
            concat!(
                r#"{"v":1,"type":"place","dataset":2,"generation":3,"seed":13,"#,
                r#""local_bytes_before":4096,"local_bytes_after":8192,"migrated_bytes":4096,"#,
                r#""converged":true,"rounds":[{"round":1,"moves":2,"migrated_bytes":4096,"#,
                r#""local_bytes_before":4096,"local_bytes_after":8192,"delta":{"#,
                r#""files_added":[],"files_removed":[],"replicas_added":[[1,4],[2,5]],"#,
                r#""replicas_dropped":[[1,0],[2,0]],"nodes_failed":[],"nodes_joined":[]}}]}"#,
            ),
        ),
        (
            Response::Stats(stats),
            concat!(
                r#"{"v":1,"type":"stats","generation":4,"counters":{"requests":10,"#,
                r#""planned":2,"repaired":1,"layout_walks":3,"cache_hits":7,"#,
                r#""cache_misses":3,"cache_invalidated":2,"coalesced":1,"shed":5},"#,
                r#""queue":{"depth":0,"capacity":64,"workers":4},"#,
                r#""latency_us":{"count":10,"mean":120.5,"p50":64,"p99":1024,"#,
                r#""histogram":[{"lo":64,"hi":128,"count":9},{"lo":1024,"hi":2048,"count":1}]},"#,
                r#""repair_us":{"count":1,"mean":40.25,"p50":32,"p99":64},"#,
                r#""cold_plan_us":{"count":2,"mean":900,"p50":512,"p99":2048},"#,
                r#""shards":[{"shard":0,"accepted":3,"shed_accept":0,"requests":6,"#,
                r#""forwarded":2,"pending":1,"latency_us":{"count":6,"mean":99.5,"p50":64,"#,
                r#""p99":128},"histogram":[{"lo":64,"hi":128,"count":6}]},"#,
                r#"{"shard":1,"accepted":0,"shed_accept":0,"requests":0,"forwarded":0,"#,
                r#""pending":0,"latency_us":{"count":0,"mean":0,"p50":0,"p99":0},"#,
                r#""histogram":[]}]}"#,
            ),
        ),
        (
            Response::Invalidated { generation: 5 },
            r#"{"v":1,"type":"invalidated","generation":5}"#,
        ),
        (
            Response::Overloaded { queue_depth: 64 },
            r#"{"v":1,"type":"overloaded","queue_depth":64}"#,
        ),
        (Response::ShuttingDown, r#"{"v":1,"type":"shutting_down"}"#),
        (
            Response::Error {
                message: "unknown dataset \"9\"\n".into(),
            },
            r#"{"v":1,"type":"error","message":"unknown dataset \"9\"\n"}"#,
        ),
    ]
}

#[test]
fn every_request_kind_encodes_and_decodes_to_its_recorded_bytes() {
    for (request, bytes) in requests() {
        assert_eq!(request.to_json().to_compact(), bytes, "{request:?}");
        let parsed = Json::parse(bytes).expect("recorded bytes are JSON");
        assert_eq!(Request::from_json(&parsed), Ok(request), "{bytes}");
    }
}

#[test]
fn every_response_kind_encodes_and_decodes_to_its_recorded_bytes() {
    for (response, bytes) in responses() {
        assert_eq!(response.to_json().to_compact(), bytes, "{response:?}");
        let parsed = Json::parse(bytes).expect("recorded bytes are JSON");
        assert_eq!(Response::from_json(&parsed), Ok(response), "{bytes}");
    }
}

#[test]
fn the_recorded_layout_reply_re_encodes_byte_for_byte() {
    // A `layout` reply as the service sent it from a fresh `serve_hot`
    // world: 1 280 entries.
    let recorded = include_str!("../../json/tests/layout_reply_1280.json");
    let parsed = Json::parse(recorded).expect("recorded bytes are JSON");
    let response = Response::from_json(&parsed).expect("a layout reply");
    match &response {
        Response::Layout(layout) => assert_eq!(layout.entries.len(), 1280),
        other => panic!("expected a layout reply, got {other:?}"),
    }
    assert_eq!(response.to_json().to_compact(), recorded);
}
