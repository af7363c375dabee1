//! The original blocking thread-per-connection server, kept behind the
//! `blocking-server` feature for one more release of A/B benchmarking
//! against the sharded reactor in [`crate::server`].
//!
//! One thread accepts connections; each connection gets a thread that
//! decodes frames and answers cheap requests (`ping`, `stats`,
//! `invalidate`) inline. Planning and layout requests go through the
//! bounded [`WorkerPool`] — the admission valve — and inside a worker
//! the path is: plan cache → coalesced flight → repair attempt → layout
//! cache → world layout fetch → planner. Both frontends call the same
//! [`crate::planning`] helpers, so replies are byte-identical for equal
//! `(spec, generation, strategy, seed)` tuples; only the concurrency
//! architecture differs. The `shards`/`shard_backlog` fields of
//! [`ServerConfig`] are ignored here.

use crate::cache::ShardedCache;
use crate::coalesce::Coalescer;
use crate::frame::{read_frame, write_frame, FrameError};
use crate::metrics::{ServeMetrics, Timer};
use crate::planning::{self, ComputedPlan, PlanKey};
use crate::pool::{SubmitError, WorkerPool};
use crate::protocol::{PlanReply, Request, Response, StatsReply, PROTOCOL_VERSION};
use crate::server::ServerConfig;
use crate::spec::World;
use opass_core::dfs::LayoutSnapshot;
use opass_core::runtime::ProcessPlacement;
use opass_core::{OpassPlanner, SingleDataSession, Strategy};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;

/// A cached plan plus — for planner-backed strategies — the live
/// planning session that produced it. The session is `take`n by the
/// repairing flight, so at most one repair chain extends a session.
struct CachedPlan {
    reply: PlanReply,
    session: Mutex<Option<SingleDataSession>>,
}

/// State shared by the accept loop, connection threads, and workers.
struct Shared {
    world: World,
    placement: ProcessPlacement,
    planner: OpassPlanner,
    layout_cache: ShardedCache<usize, Arc<LayoutSnapshot>>,
    plan_cache: ShardedCache<PlanKey, Arc<CachedPlan>>,
    plan_flights: Coalescer<(PlanKey, u64), Arc<CachedPlan>>,
    layout_flights: Coalescer<(usize, u64), Arc<LayoutSnapshot>>,
    pool: WorkerPool,
    metrics: ServeMetrics,
    closing: AtomicBool,
    /// Clones of accepted streams, so shutdown can unblock reads.
    conns: Mutex<Vec<TcpStream>>,
}

impl Shared {
    /// The layout for `dataset` under `generation`: cache hit, or a
    /// (coalesced) world layout fetch that fills the cache.
    fn layout_for(&self, dataset: usize, generation: u64) -> (Arc<LayoutSnapshot>, bool) {
        if let Some(snap) = self.layout_cache.get(&dataset, generation) {
            return (snap, true);
        }
        let (snap, _) = self.layout_flights.run((dataset, generation), || {
            let snap = Arc::new(
                self.world
                    .capture_layout(dataset)
                    .expect("dataset validated before submission"),
            );
            self.layout_cache
                .insert(dataset, generation, Arc::clone(&snap));
            snap
        });
        (snap, false)
    }

    /// Computes (or fetches) the plan for one request key.
    fn plan(&self, dataset: usize, strategy: &Strategy, seed: u64) -> Response {
        let generation = self.world.generation_of(dataset);
        let key: PlanKey = (dataset, strategy.label(), seed);
        if let Some(hit) = self.plan_cache.get(&key, generation) {
            let mut reply = hit.reply.clone();
            reply.cached = true;
            return Response::Plan(reply);
        }
        let flight_key = (key.clone(), generation);
        let (arc, coalesced) = self.plan_flights.run(flight_key, || {
            if let Some(entry) = self.try_repair(&key, generation) {
                self.plan_cache
                    .insert(key.clone(), generation, Arc::clone(&entry));
                return entry;
            }
            self.metrics.planned.fetch_add(1, Ordering::Relaxed);
            let (snapshot, _) = self.layout_for(dataset, generation);
            let timer = Timer::start();
            let ComputedPlan { reply, session } = planning::compute_plan(
                &self.planner,
                &self.placement,
                &snapshot,
                dataset,
                strategy,
                seed,
                generation,
            );
            self.metrics.cold_plan_latency.record(timer.elapsed_us());
            let entry = Arc::new(CachedPlan {
                reply,
                session: Mutex::new(session),
            });
            self.plan_cache
                .insert(key.clone(), generation, Arc::clone(&entry));
            entry
        });
        let mut reply = arc.reply.clone();
        reply.coalesced = coalesced;
        Response::Plan(reply)
    }

    /// Attempts to bring a superseded cached plan up to `generation` by
    /// replaying journalled deltas through its planning session.
    fn try_repair(&self, key: &PlanKey, generation: u64) -> Option<Arc<CachedPlan>> {
        let dataset = key.0;
        let (stale, from) = self.plan_cache.take_stale(key, generation)?;
        let deltas = self.world.deltas_since(dataset, from)?;
        let session = stale
            .session
            .lock()
            .expect("session slot not poisoned")
            .take()?;
        let timer = Timer::start();
        let ComputedPlan { reply, session } =
            planning::repair_plan(session, &deltas, key, generation);
        self.metrics.repaired.fetch_add(1, Ordering::Relaxed);
        self.metrics.repair_latency.record(timer.elapsed_us());
        Some(Arc::new(CachedPlan {
            reply,
            session: Mutex::new(session),
        }))
    }

    /// Fetches (or captures) the layout reply for one request.
    fn layout(&self, dataset: usize) -> Response {
        let generation = self.world.generation_of(dataset);
        let (snap, was_cached) = self.layout_for(dataset, generation);
        Response::Layout(planning::layout_reply(
            dataset, generation, was_cached, &snap,
        ))
    }

    /// Runs the closed-loop placement engine for one request.
    fn place(&self, dataset: usize, rounds: usize, budget: Option<u64>, seed: u64) -> Response {
        let generation = self.world.generation_of(dataset);
        let (snapshot, _) = self.layout_for(dataset, generation);
        Response::Place(planning::place_reply(
            &self.planner,
            &self.placement,
            &snapshot,
            dataset,
            generation,
            rounds,
            budget,
            seed,
        ))
    }

    /// Snapshot of every counter the service exports. The blocking
    /// server has no shards, so the per-shard list is empty.
    fn stats(&self) -> StatsReply {
        let (count, mean, p50, p99, bins) = self.metrics.latency.snapshot();
        StatsReply {
            generation: self.world.generation(),
            requests: self.metrics.requests.load(Ordering::Relaxed),
            planned: self.metrics.planned.load(Ordering::Relaxed),
            repaired: self.metrics.repaired.load(Ordering::Relaxed),
            layout_walks: self.world.layout_walks(),
            cache_hits: self.plan_cache.hits() + self.layout_cache.hits(),
            cache_misses: self.plan_cache.misses() + self.layout_cache.misses(),
            cache_invalidated: self.plan_cache.invalidated() + self.layout_cache.invalidated(),
            coalesced: self.plan_flights.coalesced() + self.layout_flights.coalesced(),
            shed: self.pool.shed(),
            queue_depth: self.pool.depth(),
            queue_capacity: self.pool.capacity(),
            workers: self.pool.workers(),
            latency_count: count,
            latency_mean_us: mean,
            latency_p50_us: p50,
            latency_p99_us: p99,
            latency_histogram: bins,
            repair_us: self.metrics.repair_latency.summary(),
            cold_plan_us: self.metrics.cold_plan_latency.summary(),
            shards: Vec::new(),
        }
    }
}

/// A running blocking server. Dropping the handle shuts it down.
pub struct BlockingServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Mutex<Option<JoinHandle<()>>>,
}

impl BlockingServerHandle {
    /// The bound address (with the OS-assigned port resolved).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Initiates shutdown (idempotent) and waits for the server to
    /// drain.
    pub fn shutdown(&self) {
        initiate_close(&self.shared, self.addr);
        self.wait();
    }

    /// Waits for the server to exit without initiating shutdown locally.
    pub fn wait(&self) {
        let handle = self
            .accept
            .lock()
            .expect("accept handle not poisoned")
            .take();
        if let Some(h) = handle {
            h.join().expect("accept thread exits cleanly");
        }
    }
}

impl Drop for BlockingServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Marks the server as closing and wakes the blocked accept call with a
/// throwaway connection.
fn initiate_close(shared: &Shared, addr: SocketAddr) {
    if !shared.closing.swap(true, Ordering::AcqRel) {
        let _ = TcpStream::connect(addr);
    }
}

/// Binds, spawns the blocking accept loop, and returns a handle. The
/// `shards` and `shard_backlog` fields of `config` are ignored.
///
/// # Errors
///
/// Returns the bind error message if the address cannot be bound.
pub fn serve_blocking(config: ServerConfig) -> Result<BlockingServerHandle, String> {
    let listener =
        TcpListener::bind(&config.addr).map_err(|e| format!("cannot bind {}: {e}", config.addr))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("cannot resolve bound address: {e}"))?;
    let placement = config.spec.placement();
    let shared = Arc::new(Shared {
        world: World::new(config.spec),
        placement,
        planner: OpassPlanner::default(),
        layout_cache: ShardedCache::new(),
        plan_cache: ShardedCache::new(),
        plan_flights: Coalescer::new(),
        layout_flights: Coalescer::new(),
        pool: WorkerPool::new(config.workers, config.queue_depth),
        metrics: ServeMetrics::new(),
        closing: AtomicBool::new(false),
        conns: Mutex::new(Vec::new()),
    });
    let accept = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("opass-serve-blocking-accept".to_string())
            .spawn(move || accept_loop(&listener, &shared))
            .expect("accept thread spawns")
    };
    Ok(BlockingServerHandle {
        addr,
        shared,
        accept: Mutex::new(Some(accept)),
    })
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    let mut conn_threads: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let (stream, _) = match listener.accept() {
            Ok(pair) => pair,
            Err(_) => break,
        };
        if shared.closing.load(Ordering::Acquire) {
            let mut stream = stream;
            let _ = write_frame(&mut stream, &Response::ShuttingDown.to_json());
            break;
        }
        if let Ok(clone) = stream.try_clone() {
            shared
                .conns
                .lock()
                .expect("conn registry not poisoned")
                .push(clone);
        }
        let shared = Arc::clone(shared);
        let handle = std::thread::Builder::new()
            .name("opass-serve-conn".to_string())
            .spawn(move || connection_loop(stream, &shared))
            .expect("connection thread spawns");
        conn_threads.push(handle);
    }
    // Drain: unblock every connection read, let each thread finish its
    // in-flight request, then stop the pool.
    for conn in shared
        .conns
        .lock()
        .expect("conn registry not poisoned")
        .iter()
    {
        let _ = conn.shutdown(std::net::Shutdown::Both);
    }
    for handle in conn_threads {
        handle.join().expect("connection thread exits cleanly");
    }
    shared.pool.shutdown();
}

fn connection_loop(mut stream: TcpStream, shared: &Arc<Shared>) {
    loop {
        let msg = match read_frame(&mut stream) {
            Ok(msg) => msg,
            Err(FrameError::Closed) => break,
            Err(FrameError::Truncated { .. }) | Err(FrameError::Io(_)) => break,
            Err(e) => {
                let resp = Response::Error {
                    message: e.to_string(),
                };
                let _ = write_frame(&mut stream, &resp.to_json());
                break;
            }
        };
        shared.metrics.requests.fetch_add(1, Ordering::Relaxed);
        let request = match Request::from_json(&msg) {
            Ok(r) => r,
            Err(e) => {
                let resp = Response::Error {
                    message: e.to_string(),
                };
                if write_frame(&mut stream, &resp.to_json()).is_err() {
                    break;
                }
                continue;
            }
        };
        let response = match request {
            Request::Ping => Response::Pong {
                protocol: PROTOCOL_VERSION,
                nodes: shared.world.spec().n_nodes,
                datasets: shared.world.spec().n_datasets,
            },
            Request::Stats => Response::Stats(shared.stats()),
            Request::Invalidate {
                dataset: None,
                delta: _,
            } => Response::Invalidated {
                generation: shared.world.invalidate(),
            },
            Request::Invalidate {
                dataset: Some(dataset),
                delta,
            } => {
                let generation = match delta {
                    Some(delta) => shared.world.invalidate_dataset(dataset, &delta),
                    None => shared.world.invalidate_dataset_opaque(dataset),
                };
                match generation {
                    Some(generation) => Response::Invalidated { generation },
                    None => planning::unknown_dataset(dataset, shared.world.spec().n_datasets),
                }
            }
            Request::Shutdown => {
                // Reply *before* waking the accept loop: once the drain
                // starts, this connection's socket may be closed under us.
                let _ = write_frame(&mut stream, &Response::ShuttingDown.to_json());
                initiate_close(
                    shared,
                    stream
                        .local_addr()
                        .expect("connected stream has an address"),
                );
                break;
            }
            Request::Plan {
                dataset,
                strategy,
                seed,
            } => dispatch(shared, dataset, move |shared| {
                shared.plan(dataset, &strategy, seed)
            }),
            Request::Layout { dataset } => {
                dispatch(shared, dataset, move |shared| shared.layout(dataset))
            }
            Request::Place {
                dataset,
                rounds,
                budget,
                seed,
            } => dispatch(shared, dataset, move |shared| {
                shared.place(dataset, rounds, budget, seed)
            }),
        };
        if write_frame(&mut stream, &response.to_json()).is_err() {
            break;
        }
    }
}

/// Runs `work` on the worker pool and waits for its reply, converting
/// queue refusal into a typed response.
fn dispatch<F>(shared: &Arc<Shared>, dataset: usize, work: F) -> Response
where
    F: FnOnce(&Shared) -> Response + Send + 'static,
{
    if !shared.world.has_dataset(dataset) {
        return planning::unknown_dataset(dataset, shared.world.spec().n_datasets);
    }
    let timer = Timer::start();
    let (tx, rx) = mpsc::channel();
    let worker_shared = Arc::clone(shared);
    let submitted = shared.pool.try_submit(move || {
        let response = work(&worker_shared);
        // The connection thread may have hung up; dropping the reply is
        // fine.
        let _ = tx.send(response);
    });
    match submitted {
        Ok(()) => {
            // Admitted jobs always run (the pool drains on shutdown), so
            // this recv cannot hang.
            let response = rx.recv().expect("admitted job always replies");
            shared.metrics.latency.record(timer.elapsed_us());
            response
        }
        Err(SubmitError::Overloaded { queue_depth }) => Response::Overloaded { queue_depth },
        Err(SubmitError::ShuttingDown) => Response::ShuttingDown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::spec::ServeSpec;

    fn small_spec() -> ServeSpec {
        ServeSpec {
            n_nodes: 16,
            n_datasets: 4,
            chunks_per_dataset: 64,
            ..ServeSpec::default()
        }
    }

    /// The blocking frontend still serves, caches, and drains — and its
    /// plan bytes match the sharded reactor's for the same world.
    #[test]
    fn blocking_server_matches_sharded_replies() {
        let blocking = serve_blocking(ServerConfig {
            spec: small_spec(),
            ..ServerConfig::default()
        })
        .expect("blocking server boots");
        let sharded = crate::serve(ServerConfig {
            spec: small_spec(),
            shards: 2,
            ..ServerConfig::default()
        })
        .expect("sharded server boots");

        let mut a = Client::connect(blocking.addr().to_string()).expect("connect blocking");
        let mut b = Client::connect(sharded.addr().to_string()).expect("connect sharded");
        for dataset in 0..4 {
            let pa = a.plan(dataset, Strategy::Opass, 7).expect("plan a");
            let pb = b.plan(dataset, Strategy::Opass, 7).expect("plan b");
            assert_eq!(pa.owners, pb.owners, "dataset {dataset} owners diverge");
            assert_eq!(pa.local_byte_fraction, pb.local_byte_fraction);
        }
        // Second fetch is a cache hit on both frontends.
        let hit = a.plan(0, Strategy::Opass, 7).expect("hit");
        assert!(hit.cached);
        blocking.shutdown();
        sharded.shutdown();
    }
}
