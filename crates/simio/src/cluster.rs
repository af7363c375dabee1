//! Cluster-level I/O model: one disk and one full-duplex NIC per node.
//!
//! [`ClusterIo`] wraps an [`Engine`] with the resource topology of the
//! paper's testbed — PRObE's *Marmot*, where every node has a single SATA
//! disk and a Gigabit Ethernet port, and all nodes hang off one switch.
//! A **local** read touches only the source disk. A **remote** read streams
//! through the source disk, the source NIC transmit side, and the reader
//! NIC receive side (the switch is non-blocking and is not modelled as a
//! shared resource).

use crate::engine::{Engine, Event};
use crate::flow::{FlowId, FlowSpec};
use crate::record::TraceEvent;
use crate::resource::{Resource, ResourceId};
use crate::time::SimTime;
use crate::topology::Topology;

/// Calibration parameters for the per-node I/O model.
///
/// Defaults are calibrated so that the simulator reproduces the absolute
/// numbers the paper reports for Marmot: a lone local 64 MB chunk read takes
/// ≈0.9 s (Fig. 7b), and contended remote reads span roughly 2–12 s
/// (Section V-C2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IoParams {
    /// Streaming bandwidth of a node's disk, bytes/second.
    pub disk_bandwidth: f64,
    /// Seek-degradation slope of the disk (see [`Resource::disk`]).
    pub disk_seek_alpha: f64,
    /// Seek-degradation floor of the disk.
    pub disk_seek_floor: f64,
    /// Effective bandwidth of each NIC direction, bytes/second.
    pub nic_bandwidth: f64,
    /// Per-stream ceiling of a single remote read, bytes/second. The
    /// paper observes that reading one 64 MB chunk remotely takes ~2 s
    /// even uncontended (Section V-C2): the HDFS/TCP stream itself tops
    /// out near 32 MB/s on that hardware. `f64::INFINITY` disables it.
    pub remote_stream_bandwidth: f64,
    /// Fixed request latency for a local read, seconds.
    pub local_latency: f64,
    /// Fixed request latency for a remote read (adds protocol round trips).
    pub remote_latency: f64,
}

impl Default for IoParams {
    fn default() -> Self {
        IoParams::marmot()
    }
}

impl IoParams {
    /// Parameters modelling a Marmot node: ~72 MB/s SATA disk with seek
    /// degradation, Gigabit Ethernet at ~117 MB/s effective.
    pub fn marmot() -> Self {
        IoParams {
            disk_bandwidth: 72.0 * MB,
            disk_seek_alpha: 0.35,
            disk_seek_floor: 0.15,
            nic_bandwidth: 117.0 * MB,
            remote_stream_bandwidth: 34.0 * MB,
            local_latency: 0.01,
            remote_latency: 0.06,
        }
    }

    /// An idealized cluster without seek degradation; used by the ablation
    /// study to show the contention tail is driven by the seek model.
    pub fn no_seek_degradation(mut self) -> Self {
        self.disk_seek_alpha = 0.0;
        self.disk_seek_floor = 1.0;
        self
    }

    /// Validates the parameters.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.disk_bandwidth.is_finite() && self.disk_bandwidth > 0.0) {
            return Err(format!(
                "disk_bandwidth must be positive: {}",
                self.disk_bandwidth
            ));
        }
        if !(self.nic_bandwidth.is_finite() && self.nic_bandwidth > 0.0) {
            return Err(format!(
                "nic_bandwidth must be positive: {}",
                self.nic_bandwidth
            ));
        }
        if self.remote_stream_bandwidth <= 0.0 {
            return Err(format!(
                "remote_stream_bandwidth must be positive: {}",
                self.remote_stream_bandwidth
            ));
        }
        if !(0.0..=1.0).contains(&self.disk_seek_floor) {
            return Err(format!(
                "disk_seek_floor must be in [0,1]: {}",
                self.disk_seek_floor
            ));
        }
        if self.disk_seek_alpha < 0.0 {
            return Err(format!(
                "disk_seek_alpha must be >= 0: {}",
                self.disk_seek_alpha
            ));
        }
        if self.local_latency < 0.0 || self.remote_latency < 0.0 {
            return Err("latencies must be non-negative".into());
        }
        Ok(())
    }
}

/// One megabyte, in bytes, as an `f64` (for bandwidth expressions).
pub const MB: f64 = 1024.0 * 1024.0;

/// One megabyte, in bytes, as a `u64` (for payload sizes).
pub const MB_U64: u64 = 1024 * 1024;

/// Per-node resource handles.
#[derive(Debug, Clone, Copy)]
struct NodeResources {
    disk: ResourceId,
    nic_out: ResourceId,
    nic_in: ResourceId,
}

/// Per-rack uplink handles (racked topologies only).
#[derive(Debug, Clone, Copy)]
struct RackResources {
    uplink_out: ResourceId,
    uplink_in: ResourceId,
}

/// A simulated cluster: engine plus per-node disk/NIC resources and,
/// under a racked topology, per-rack uplinks.
#[derive(Debug)]
pub struct ClusterIo {
    engine: Engine,
    nodes: Vec<NodeResources>,
    racks: Vec<RackResources>,
    topology: Topology,
    params: IoParams,
    /// The path of the flow being issued, kept across calls so a read
    /// or a write allocates nothing for it.
    path: Vec<ResourceId>,
}

impl ClusterIo {
    /// Builds a cluster of `n_nodes` identical nodes on one flat switch
    /// (the paper's Marmot setup).
    ///
    /// # Panics
    ///
    /// Panics if `n_nodes` is zero or `params` fail validation.
    pub fn new(n_nodes: usize, params: IoParams) -> Self {
        Self::with_topology(n_nodes, params, Topology::Flat)
    }

    /// Builds a cluster under an explicit network [`Topology`].
    ///
    /// # Panics
    ///
    /// Panics if `n_nodes` is zero or parameters fail validation.
    pub fn with_topology(n_nodes: usize, params: IoParams, topology: Topology) -> Self {
        Self::with_disk_factors(params, topology, &vec![1.0; n_nodes])
    }

    /// Builds a *heterogeneous* cluster: node `i`'s disk runs at
    /// `disk_factors[i] × params.disk_bandwidth` (NICs stay uniform). One
    /// entry per node; factors must be positive and finite.
    ///
    /// # Panics
    ///
    /// Panics if `disk_factors` is empty, contains a non-positive factor,
    /// or parameters fail validation.
    pub fn with_disk_factors(params: IoParams, topology: Topology, disk_factors: &[f64]) -> Self {
        let n_nodes = disk_factors.len();
        assert!(n_nodes > 0, "cluster must have at least one node");
        assert!(
            disk_factors.iter().all(|f| f.is_finite() && *f > 0.0),
            "disk factors must be positive and finite"
        );
        params.validate().expect("invalid IoParams");
        topology.validate().expect("invalid Topology");
        let mut engine = Engine::new();
        let nodes = (0..n_nodes)
            .map(|i| NodeResources {
                disk: engine.add_resource(Resource::disk(
                    format!("node{i}.disk"),
                    params.disk_bandwidth * disk_factors[i],
                    params.disk_seek_alpha,
                    params.disk_seek_floor,
                )),
                nic_out: engine.add_resource(Resource::constant(
                    format!("node{i}.nic_out"),
                    params.nic_bandwidth,
                )),
                nic_in: engine.add_resource(Resource::constant(
                    format!("node{i}.nic_in"),
                    params.nic_bandwidth,
                )),
            })
            .collect();
        let racks = match topology {
            Topology::Flat => Vec::new(),
            Topology::Racked {
                uplink_bandwidth, ..
            } => (0..topology.rack_count(n_nodes).expect("racked"))
                .map(|r| RackResources {
                    uplink_out: engine.add_resource(Resource::constant(
                        format!("rack{r}.uplink_out"),
                        uplink_bandwidth,
                    )),
                    uplink_in: engine.add_resource(Resource::constant(
                        format!("rack{r}.uplink_in"),
                        uplink_bandwidth,
                    )),
                })
                .collect(),
        };
        ClusterIo {
            engine,
            nodes,
            racks,
            topology,
            params,
            path: Vec::new(),
        }
    }

    /// The network topology in use.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// The rack-uplink hops a `from -> to` transfer crosses, if any.
    fn uplinks(&self, from: usize, to: usize) -> Option<[ResourceId; 2]> {
        let (ra, rb) = (self.topology.rack_of(from)?, self.topology.rack_of(to)?);
        (ra != rb).then(|| [self.racks[ra].uplink_out, self.racks[rb].uplink_in])
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The calibration parameters in use.
    pub fn params(&self) -> &IoParams {
        &self.params
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// Issues a chunk read: `reader` (node index) pulls `bytes` from
    /// `source` (node index). Local when `reader == source`.
    ///
    /// # Panics
    ///
    /// Panics if either node index is out of range.
    pub fn start_read(&mut self, reader: usize, source: usize, bytes: u64, token: u64) -> FlowId {
        assert!(
            reader < self.nodes.len(),
            "reader node {reader} out of range"
        );
        assert!(
            source < self.nodes.len(),
            "source node {source} out of range"
        );
        if self.engine.recording() {
            self.engine.emit(TraceEvent::ReadIssued {
                at: self.engine.now().as_secs(),
                token,
                reader,
                source,
                bytes,
                local: reader == source,
            });
        }
        self.path.clear();
        self.path.push(self.nodes[source].disk);
        let spec = if reader == source {
            FlowSpec::new(bytes, &self.path[..], token).with_latency(self.params.local_latency)
        } else {
            let uplinks = self.uplinks(source, reader);
            self.path
                .extend([self.nodes[source].nic_out, self.nodes[reader].nic_in]);
            self.path.extend(uplinks.into_iter().flatten());
            let spec = FlowSpec::new(bytes, &self.path[..], token)
                .with_latency(self.params.remote_latency);
            if self.params.remote_stream_bandwidth.is_finite() {
                spec.with_rate_cap(self.params.remote_stream_bandwidth)
            } else {
                spec
            }
        };
        self.engine.start_flow(spec)
    }

    /// Issues a pipelined replicated write: `writer` streams `bytes` to
    /// every node in `targets` (HDFS write pipeline). The fluid model
    /// routes one flow through the writer's NIC transmit side and every
    /// replica's NIC receive side and disk (a target equal to `writer`
    /// only contributes its disk), plus any rack uplinks crossed; the
    /// pipeline runs at the minimum hop rate.
    ///
    /// # Panics
    ///
    /// Panics if any node index is out of range or `targets` is empty.
    pub fn start_write(
        &mut self,
        writer: usize,
        targets: &[usize],
        bytes: u64,
        token: u64,
    ) -> FlowId {
        assert!(
            writer < self.nodes.len(),
            "writer node {writer} out of range"
        );
        assert!(!targets.is_empty(), "write needs at least one target");
        if self.engine.recording() {
            self.engine.emit(TraceEvent::WriteIssued {
                at: self.engine.now().as_secs(),
                token,
                writer,
                targets: targets.len(),
                bytes,
            });
        }
        self.path.clear();
        let mut any_remote = false;
        for &t in targets {
            assert!(t < self.nodes.len(), "target node {t} out of range");
            self.path.push(self.nodes[t].disk);
            if t != writer {
                any_remote = true;
                let uplinks = self.uplinks(writer, t);
                self.path.push(self.nodes[t].nic_in);
                self.path.extend(uplinks.into_iter().flatten());
            }
        }
        if any_remote {
            self.path.push(self.nodes[writer].nic_out);
        }
        let spec =
            FlowSpec::new(bytes, &self.path[..], token).with_latency(self.params.remote_latency);
        self.engine.start_flow(spec)
    }

    /// Schedules a compute/render delay as a user timer.
    pub fn start_compute(&mut self, seconds: f64, token: u64) {
        self.engine.set_timer(seconds, token);
    }

    /// Advances to the next event. See [`Engine::next_event`].
    pub fn next_event(&mut self) -> Option<Event> {
        self.engine.next_event()
    }

    /// Turns event recording on in the underlying engine (see
    /// [`Engine::record_events`]).
    ///
    /// ```
    /// use opass_simio::{ClusterIo, IoParams, TraceEvent, MB_U64};
    ///
    /// let mut cluster = ClusterIo::new(2, IoParams::marmot());
    /// cluster.record_events();
    /// cluster.start_read(1, 0, 64 * MB_U64, 7);
    /// while cluster.next_event().is_some() {}
    /// let events = cluster.take_events().expect("recording is on");
    /// assert!(matches!(events[0], TraceEvent::ReadIssued { token: 7, .. }));
    /// ```
    pub fn record_events(&mut self) {
        self.engine.record_events();
    }

    /// Whether recording is on.
    pub fn recording(&self) -> bool {
        self.engine.recording()
    }

    /// The events recorded so far (see [`Engine::take_events`]); `None`
    /// while recording is off.
    pub fn take_events(&mut self) -> Option<Vec<TraceEvent>> {
        self.engine.take_events()
    }

    /// Appends an event to the log while recording (no-op otherwise).
    /// Lets callers above the I/O layer (the executor) interleave their
    /// own events with the simulator's.
    #[inline]
    pub fn emit(&mut self, event: TraceEvent) {
        self.engine.emit(event);
    }

    /// Work counters of the underlying engine (recompute passes, rerated
    /// flows, ETA churn) — see [`crate::EngineStats`].
    #[inline]
    pub fn engine_stats(&self) -> crate::EngineStats {
        self.engine.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Event;

    const CHUNK: u64 = 64 * MB_U64;

    fn drain_durations(cluster: &mut ClusterIo) -> Vec<(u64, f64)> {
        let mut out = Vec::new();
        while let Some(ev) = cluster.next_event() {
            if let Event::FlowCompleted(c) = ev {
                out.push((c.token, c.duration()));
            }
        }
        out
    }

    #[test]
    fn lone_local_read_is_about_point_nine_seconds() {
        let mut c = ClusterIo::new(4, IoParams::marmot());
        c.start_read(0, 0, CHUNK, 0);
        let d = drain_durations(&mut c)[0].1;
        // 64 MB / 72 MB/s + 0.01 s latency = 0.899 s
        assert!((d - 0.899).abs() < 0.01, "duration={d}");
    }

    #[test]
    fn lone_remote_read_takes_about_two_seconds() {
        // Paper Section V-C2: "reading a single chunk file remotely could
        // take more than 2 seconds" even uncontended — the per-stream
        // remote ceiling binds, not the disk.
        let mut c = ClusterIo::new(4, IoParams::marmot());
        c.start_read(0, 1, CHUNK, 0);
        let d = drain_durations(&mut c)[0].1;
        assert!(d > 1.8 && d < 2.3, "duration={d}");
    }

    #[test]
    fn uncapped_remote_read_is_disk_bound() {
        let mut params = IoParams::marmot();
        params.remote_stream_bandwidth = f64::INFINITY;
        let mut c = ClusterIo::new(4, params);
        c.start_read(0, 1, CHUNK, 0);
        let d = drain_durations(&mut c)[0].1;
        assert!(d > 0.90 && d < 1.05, "duration={d}");
    }

    #[test]
    fn contended_source_node_slows_remote_readers() {
        // Six readers all pulling distinct chunks from node 0's disk —
        // the pattern the paper's Figure 1 exhibits on over-loaded nodes.
        let mut c = ClusterIo::new(8, IoParams::marmot());
        for reader in 1..7 {
            c.start_read(reader, 0, CHUNK, reader as u64);
        }
        let durations = drain_durations(&mut c);
        let worst = durations.iter().map(|&(_, d)| d).fold(0.0, f64::max);
        // Degraded aggregate ~28 MB/s shared six ways: many seconds, at
        // the top of the 2–12 s band the paper reports for contended reads.
        assert!(worst > 4.0 && worst < 15.0, "worst={worst}");
    }

    #[test]
    fn balanced_local_reads_stay_fast() {
        let mut c = ClusterIo::new(8, IoParams::marmot());
        for node in 0..8 {
            c.start_read(node, node, CHUNK, node as u64);
        }
        let durations = drain_durations(&mut c);
        for (_, d) in durations {
            assert!(d < 1.0, "local read should stay ~0.9 s, got {d}");
        }
    }

    #[test]
    fn nic_limits_fan_in() {
        // Many sources to one reader: reader's NIC-in is the bottleneck.
        let mut c = ClusterIo::new(9, IoParams::marmot());
        for src in 1..9 {
            c.start_read(0, src, CHUNK, src as u64);
        }
        let durations = drain_durations(&mut c);
        let worst = durations.iter().map(|&(_, d)| d).fold(0.0, f64::max);
        // 8 chunks through a 117 MB/s NIC ≈ 4.4 s minimum.
        assert!(worst > 4.0, "worst={worst}");
    }

    #[test]
    fn no_seek_ablation_removes_degradation() {
        let params = IoParams::marmot().no_seek_degradation();
        let mut c = ClusterIo::new(8, params);
        for reader in 1..7 {
            c.start_read(reader, 0, CHUNK, reader as u64);
        }
        let worst = drain_durations(&mut c)
            .iter()
            .map(|&(_, d)| d)
            .fold(0.0, f64::max);
        // 6 chunks at full 72 MB/s aggregate ≈ 5.3 s; with degradation it
        // would be ~9.7 s.
        assert!(worst < 6.0, "worst={worst}");
    }

    #[test]
    fn validate_rejects_bad_params() {
        let mut p = IoParams::marmot();
        p.disk_bandwidth = -1.0;
        assert!(p.validate().is_err());
        let mut p = IoParams::marmot();
        p.disk_seek_floor = 2.0;
        assert!(p.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn read_from_unknown_node_panics() {
        let mut c = ClusterIo::new(2, IoParams::marmot());
        c.start_read(0, 5, 1, 0);
    }

    fn racked(nodes: usize, per_rack: usize, uplink: f64) -> ClusterIo {
        ClusterIo::with_topology(
            nodes,
            IoParams::marmot(),
            crate::topology::Topology::Racked {
                nodes_per_rack: per_rack,
                uplink_bandwidth: uplink,
            },
        )
    }

    #[test]
    fn intra_rack_reads_skip_the_uplink() {
        // Tiny uplink; same-rack remote read must be unaffected by it.
        let mut c = racked(8, 4, 1.0 * MB);
        c.start_read(0, 1, CHUNK, 0); // nodes 0,1 share rack 0
        let d = drain_durations(&mut c)[0].1;
        assert!(d < 2.5, "intra-rack read throttled by uplink: {d}");
    }

    #[test]
    fn cross_rack_reads_share_the_uplink() {
        // Four cross-rack readers from distinct sources: the 30 MB/s rack-0
        // uplink is the bottleneck (4 x 64 MB through 30 MB/s ~ 8.5 s),
        // slower than the same fan-out on a flat switch.
        let mut c = racked(8, 4, 30.0 * MB);
        for (i, reader) in (4..8).enumerate() {
            c.start_read(reader, i, CHUNK, reader as u64);
        }
        let worst_racked = drain_durations(&mut c)
            .iter()
            .map(|&(_, d)| d)
            .fold(0.0, f64::max);

        let mut flat = ClusterIo::new(8, IoParams::marmot());
        for (i, reader) in (4..8).enumerate() {
            flat.start_read(reader, i, CHUNK, reader as u64);
        }
        let worst_flat = drain_durations(&mut flat)
            .iter()
            .map(|&(_, d)| d)
            .fold(0.0, f64::max);
        assert!(
            worst_racked > worst_flat * 2.0,
            "racked {worst_racked} vs flat {worst_flat}"
        );
    }

    #[test]
    fn pipelined_write_is_min_hop_bound() {
        // Writer-local first replica plus two remote replicas: the pipeline
        // runs at the slowest disk (all idle, so ~disk speed).
        let mut c = ClusterIo::new(4, IoParams::marmot());
        c.start_write(0, &[0, 1, 2], CHUNK, 9);
        let d = drain_durations(&mut c)[0].1;
        // 64 MB at 72 MB/s + latency ~ 0.95 s.
        assert!(d > 0.85 && d < 1.1, "write duration {d}");
    }

    #[test]
    fn concurrent_writes_contend_on_target_disks() {
        // Two writers replicating onto the same pair of disks halve their
        // throughput.
        let mut c = ClusterIo::new(4, IoParams::marmot());
        c.start_write(0, &[2, 3], CHUNK, 0);
        c.start_write(1, &[2, 3], CHUNK, 1);
        let durations = drain_durations(&mut c);
        for (_, d) in durations {
            assert!(d > 1.6, "contended write too fast: {d}");
        }
    }

    #[test]
    fn local_only_write_skips_the_nic() {
        let mut c = ClusterIo::new(2, IoParams::marmot());
        c.start_write(0, &[0], CHUNK, 0);
        let d = drain_durations(&mut c)[0].1;
        assert!(d < 1.0, "local write should be disk-bound: {d}");
    }

    /// Bytes streamed by a node's disk so far (local and remote serving).
    fn disk_bytes(c: &ClusterIo, node: usize) -> f64 {
        c.engine.bytes_through(c.nodes[node].disk)
    }

    /// Bytes carried by a rack's uplink, both directions summed; 0 under
    /// a flat topology.
    fn uplink_bytes(c: &ClusterIo, rack: usize) -> f64 {
        c.racks.get(rack).map_or(0.0, |r| {
            c.engine.bytes_through(r.uplink_out) + c.engine.bytes_through(r.uplink_in)
        })
    }

    #[test]
    fn disk_byte_accounting_matches_reads() {
        let mut c = ClusterIo::new(4, IoParams::marmot());
        c.start_read(1, 0, CHUNK, 0); // remote: disk 0 streams the chunk
        c.start_read(2, 2, CHUNK, 1); // local on node 2
        drain_durations(&mut c);
        assert!((disk_bytes(&c, 0) - CHUNK as f64).abs() < 1.0);
        assert!((disk_bytes(&c, 2) - CHUNK as f64).abs() < 1.0);
        assert!(disk_bytes(&c, 3) < 1.0);
    }

    #[test]
    fn uplink_bytes_counted_only_cross_rack() {
        let mut c = racked(8, 4, 100.0 * MB);
        c.start_read(1, 0, CHUNK, 0); // intra-rack
        c.start_read(5, 0, CHUNK, 1); // cross-rack: rack0 -> rack1
        drain_durations(&mut c);
        assert!(
            (uplink_bytes(&c, 0) - CHUNK as f64).abs() < 1.0,
            "rack0 out"
        );
        assert!((uplink_bytes(&c, 1) - CHUNK as f64).abs() < 1.0, "rack1 in");
        // Flat clusters report zero.
        let mut flat = ClusterIo::new(2, IoParams::marmot());
        flat.start_read(0, 1, CHUNK, 0);
        drain_durations(&mut flat);
        assert_eq!(uplink_bytes(&flat, 0), 0.0);
    }

    #[test]
    fn heterogeneous_disks_differ_in_speed() {
        let factors = [1.0, 0.5];
        let mut c = ClusterIo::with_disk_factors(
            IoParams::marmot(),
            crate::topology::Topology::Flat,
            &factors,
        );
        c.start_read(0, 0, CHUNK, 0);
        c.start_read(1, 1, CHUNK, 1);
        let durations = drain_durations(&mut c);
        let fast = durations.iter().find(|&&(t, _)| t == 0).unwrap().1;
        let slow = durations.iter().find(|&&(t, _)| t == 1).unwrap().1;
        assert!(
            (slow / fast - 2.0).abs() < 0.1,
            "slow {slow} should be ~2x fast {fast}"
        );
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn rejects_bad_disk_factor() {
        let _ = ClusterIo::with_disk_factors(
            IoParams::marmot(),
            crate::topology::Topology::Flat,
            &[1.0, 0.0],
        );
    }

    #[test]
    #[should_panic(expected = "at least one target")]
    fn write_requires_targets() {
        let mut c = ClusterIo::new(2, IoParams::marmot());
        c.start_write(0, &[], 1, 0);
    }
}
