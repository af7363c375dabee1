//! Simulated parallel writes into the DFS.
//!
//! The paper's related work (Garth \[8\], Sun \[15\]) concerns MPI programs
//! *writing* into HDFS; Opass itself only reads, but a complete system
//! needs the ingest path: each writer streams its chunks through the HDFS
//! write pipeline (writer → replica 1 → replica 2 → …), placement decided
//! per chunk by a [`Placement`] policy. The simulated flows contend on
//! target disks and NICs exactly like reads do, and the resulting dataset
//! is registered on the namenode with the locations the pipeline produced
//! — so a subsequent Opass read plan sees the layout the write created.

use crate::placement::ProcessPlacement;
use crate::trace::RunResult;
use opass_dfs::{DatasetId, DatasetSpec, Namenode, Placement, Replicas};
use opass_simio::{ClusterIo, Event, IoParams, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Parameters of a parallel write run.
#[derive(Debug, Clone)]
pub struct WriteConfig {
    /// Hardware calibration.
    pub io: IoParams,
    /// Network topology.
    pub topology: Topology,
    /// Replica placement policy applied per chunk.
    pub placement: Placement,
    /// Seed for placement decisions.
    pub seed: u64,
}

impl Default for WriteConfig {
    fn default() -> Self {
        WriteConfig {
            io: IoParams::marmot(),
            topology: Topology::Flat,
            placement: Placement::Random,
            seed: 0,
        }
    }
}

/// Outcome of a parallel write: the registered dataset plus the write
/// trace. `result.records` reuses the read-record type with `reader` =
/// writer node and `source` = first replica holder.
#[derive(Debug, Clone)]
pub struct WriteOutcome {
    /// The dataset registered on the namenode.
    pub dataset: DatasetId,
    /// Trace of the write flows (durations, makespan, bytes per node —
    /// `served_bytes` counts bytes *received* by each replica holder).
    pub result: RunResult,
}

/// Writes `spec` into the file system in parallel: chunk `i` is written by
/// writer `i % writers`, each writer streaming its chunks sequentially
/// through the replica pipeline. Returns when every chunk is durable.
///
/// # Panics
///
/// Panics if there are no writers or the spec is empty.
pub fn write_dataset(
    namenode: &mut Namenode,
    spec: &DatasetSpec,
    writers: &ProcessPlacement,
    config: &WriteConfig,
) -> WriteOutcome {
    let n_writers = writers.n_procs();
    assert!(n_writers > 0, "need at least one writer");
    let n_chunks = spec.n_chunks();
    assert!(n_chunks > 0, "nothing to write");
    let n_nodes = namenode.node_count();

    // Decide every chunk's replica set up front (placement is a namenode
    // decision in HDFS, made at block allocation time).
    let mut rng = StdRng::seed_from_u64(config.seed);
    let alive = namenode.alive_nodes();
    let replication = namenode.config().replication as usize;
    let mut pool = Vec::new();
    let locations: Vec<Replicas> = (0..n_chunks)
        .map(|i| {
            config
                .placement
                .place(i, replication, &alive, &mut rng, &mut pool)
        })
        .collect();

    // Simulate the pipelined writes: writer w owns chunks w, w+W, w+2W, …
    let mut cluster = ClusterIo::with_topology(n_nodes, config.io, config.topology);
    let mut next_chunk: Vec<usize> = (0..n_writers).collect();
    let mut records = Vec::with_capacity(n_chunks);
    let mut served_bytes = vec![0u64; n_nodes];
    let mut makespan = 0.0f64;

    let start_next = |cluster: &mut ClusterIo, writer: usize, chunk: usize| {
        let writer_node = writers.node_of(writer);
        let targets: Vec<usize> = locations[chunk].iter().map(|n| n.index()).collect();
        cluster.start_write(
            writer_node.index(),
            &targets,
            spec.chunk_sizes[chunk],
            ((writer as u64) << 32) | chunk as u64,
        );
    };

    for (w, &first_chunk) in next_chunk.iter().enumerate().take(n_writers.min(n_chunks)) {
        start_next(&mut cluster, w, first_chunk);
    }
    while let Some(event) = cluster.next_event() {
        if let Event::FlowCompleted(c) = event {
            let writer = (c.token >> 32) as usize;
            let chunk = (c.token & 0xFFFF_FFFF) as usize;
            makespan = makespan.max(c.completed_at.as_secs());
            for holder in &locations[chunk] {
                served_bytes[holder.index()] += spec.chunk_sizes[chunk];
            }
            records.push(crate::trace::IoRecord {
                proc: writer,
                task: chunk,
                // The chunk id is assigned at registration; use the
                // dataset-relative index for the trace.
                chunk: opass_dfs::ChunkId(chunk as u64),
                source: locations[chunk][0],
                reader: writers.node_of(writer),
                bytes: spec.chunk_sizes[chunk],
                issued_at: c.issued_at.as_secs(),
                completed_at: c.completed_at.as_secs(),
            });
            let follow = next_chunk[writer] + n_writers;
            if follow < n_chunks {
                next_chunk[writer] = follow;
                start_next(&mut cluster, writer, follow);
            }
        }
    }
    assert_eq!(records.len(), n_chunks, "every chunk must be written");

    let dataset = namenode.create_dataset_placed(spec, locations);
    WriteOutcome {
        dataset,
        result: RunResult {
            records,
            makespan,
            served_bytes,
            events: None,
            engine: cluster.engine_stats(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opass_dfs::DfsConfig;

    fn write_run(replication: u32, n_chunks: usize) -> (Namenode, WriteOutcome) {
        let mut nn = Namenode::new(8, DfsConfig { replication });
        let spec = DatasetSpec::uniform("ingest", n_chunks, 64 << 20);
        let writers = ProcessPlacement::one_per_node(8);
        let outcome = write_dataset(&mut nn, &spec, &writers, &WriteConfig::default());
        (nn, outcome)
    }

    #[test]
    fn write_registers_dataset_with_pipeline_locations() {
        let (nn, outcome) = write_run(3, 16);
        let ds = nn.dataset(outcome.dataset).unwrap();
        assert_eq!(ds.chunks.len(), 16);
        nn.check_invariants().unwrap();
        assert_eq!(outcome.result.records.len(), 16);
        // Replicated bytes received must be r x data volume.
        let total: u64 = outcome.result.served_bytes.iter().sum();
        assert_eq!(total, 3 * 16 * (64 << 20));
    }

    #[test]
    fn higher_replication_slows_ingest() {
        let (_, r1) = write_run(1, 16);
        let (_, r3) = write_run(3, 16);
        assert!(
            r3.result.makespan > r1.result.makespan,
            "r=3 {} should be slower than r=1 {}",
            r3.result.makespan,
            r1.result.makespan
        );
    }

    #[test]
    fn writers_stream_their_chunks_sequentially() {
        let (_, outcome) = write_run(2, 24);
        for w in 0..8usize {
            let mine: Vec<_> = outcome
                .result
                .records
                .iter()
                .filter(|r| r.proc == w)
                .collect();
            assert_eq!(mine.len(), 3, "writer {w}");
            for pair in mine.windows(2) {
                assert!(pair[1].issued_at >= pair[0].completed_at - 1e-9);
            }
        }
    }

    #[test]
    fn written_layout_is_readable_by_the_planner() {
        // End-to-end: write, then read back with Opass over the layout the
        // write produced.
        let (nn, outcome) = write_run(3, 16);
        let chunks = nn.dataset(outcome.dataset).unwrap().chunks.clone();
        let tasks = chunks
            .iter()
            .map(|&c| opass_workloads::Task::single(c))
            .collect();
        let workload = opass_workloads::Workload::new("readback", tasks);
        let placement = ProcessPlacement::one_per_node(8);
        let run = crate::execute(
            &nn,
            &workload,
            &placement,
            crate::TaskSource::Static(crate::baseline::rank_interval(16, 8)),
            &crate::ExecConfig::default(),
        );
        assert_eq!(run.records.len(), 16);
    }

    #[test]
    fn more_chunks_than_writer_rounds() {
        let (_, outcome) = write_run(2, 9); // 8 writers, 9 chunks
        assert_eq!(outcome.result.records.len(), 9);
    }
}
