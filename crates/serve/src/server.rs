//! The planning server frontend: bind, accept, and the thread-per-core
//! sharded reactor behind it.
//!
//! One thread accepts connections and assigns them round-robin to N
//! shard threads (see the `reactor` module); each shard runs a nonblocking
//! readiness loop over its connections and owns the cache slice for the
//! datasets affine to it (`dataset % shards`). Cheap requests (`ping`,
//! `stats`, `invalidate`) are answered inline on the shard; planning,
//! layout, and placement go through the bounded worker pool — the
//! admission valve — with singleflight coalescing of identical requests
//! and delta repair of stale cached plans.
//!
//! Backpressure is two-layered: the pool sheds *requests* with a typed
//! `overloaded` reply when its queue is full, and the accept loop sheds
//! *connections* with the same reply when the target shard's pending
//! queue exceeds [`ServerConfig::shard_backlog`].
//!
//! Shutdown (local [`ServerHandle::shutdown`] or a remote `shutdown`
//! request) is graceful: stop accepting, quiesce every shard's reads,
//! finish every admitted job, flush every reply, then join all threads.
//! A request that was admitted always gets its reply; one that was not
//! gets a typed `overloaded`/`shutting_down` refusal. Nothing hangs.

use crate::frame::write_frame;
use crate::pool::WorkerPool;
use crate::protocol::Response;
use crate::reactor::{self, Ctx};
use crate::spec::{ServeSpec, World};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind (use port 0 for an OS-assigned port).
    pub addr: String,
    /// Worker threads executing planning jobs.
    pub workers: usize,
    /// Bounded queue capacity; submissions beyond it are shed.
    pub queue_depth: usize,
    /// Reactor shard threads (thread-per-core; clamped to at least 1).
    pub shards: usize,
    /// Accept backpressure bound: a shard whose pending reply queue
    /// exceeds this sheds new connections with a typed `overloaded`
    /// reply at accept time.
    pub shard_backlog: usize,
    /// The world to serve.
    pub spec: ServeSpec,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_depth: 64,
            shards: default_shards(),
            shard_backlog: 1024,
            spec: ServeSpec::default(),
        }
    }
}

/// The default shard count: the host's available parallelism (1 when it
/// cannot be determined).
pub fn default_shards() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// A running server. Dropping the handle shuts the server down.
pub struct ServerHandle {
    ctx: Arc<Ctx>,
    accept: Mutex<Option<JoinHandle<()>>>,
}

impl ServerHandle {
    /// The bound address (with the OS-assigned port resolved).
    pub fn addr(&self) -> SocketAddr {
        self.ctx.addr
    }

    /// Initiates shutdown (idempotent) and waits for the server to drain:
    /// in-flight planning jobs finish, every reply flushes, connections
    /// close, threads join.
    pub fn shutdown(&self) {
        self.ctx.begin_close();
        self.wait();
    }

    /// Waits for the server to exit (e.g. after a remote `shutdown`
    /// request) without initiating shutdown locally.
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

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Binds, spawns the shard threads and the accept loop, and returns a
/// handle.
///
/// # Errors
///
/// Returns the bind error message if the address cannot be bound.
pub fn serve(config: ServerConfig) -> Result<ServerHandle, String> {
    let listener =
        TcpListener::bind(&config.addr).map_err(|e| format!("cannot bind {}: {e}", config.addr))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("cannot resolve bound address: {e}"))?;
    let n_shards = config.shards.max(1);
    let placement = config.spec.placement();
    let pool = WorkerPool::new(config.workers, config.queue_depth);
    let ctx = Ctx::new(
        World::new(config.spec),
        placement,
        pool,
        addr,
        n_shards,
        config.shard_backlog,
    );
    let mut shard_threads = Vec::with_capacity(n_shards);
    for index in 0..n_shards {
        let ctx = Arc::clone(&ctx);
        shard_threads.push(
            std::thread::Builder::new()
                .name(format!("opass-serve-shard-{index}"))
                .spawn(move || reactor::run_shard(ctx, index))
                .expect("shard thread spawns"),
        );
    }
    let accept = {
        let ctx = Arc::clone(&ctx);
        std::thread::Builder::new()
            .name("opass-serve-accept".to_string())
            .spawn(move || accept_loop(&listener, &ctx, shard_threads))
            .expect("accept thread spawns")
    };
    Ok(ServerHandle {
        ctx,
        accept: Mutex::new(Some(accept)),
    })
}

fn accept_loop(listener: &TcpListener, ctx: &Arc<Ctx>, shard_threads: Vec<JoinHandle<()>>) {
    // Round-robin over *accepted* connections: the k-th successfully
    // accepted connection lands on shard `k % shards` — a deterministic
    // mapping clients (and the loadgen) can align with dataset affinity.
    let mut next = 0usize;
    loop {
        let (stream, _) = match listener.accept() {
            Ok(pair) => pair,
            Err(_) => break,
        };
        if ctx.closing.load(Ordering::Acquire) {
            // The wake-up connection (or a late client). Refuse politely.
            let mut stream = stream;
            let _ = write_frame(&mut stream, &Response::ShuttingDown.to_json());
            break;
        }
        let shard = ctx.shard(next % ctx.n_shards());
        let pending = shard.stats.pending.load(Ordering::Acquire) as usize;
        if pending > ctx.backlog {
            // Backpressure-aware accept: shed the connection before it
            // can queue work the shard cannot absorb.
            shard.stats.shed_accept.fetch_add(1, Ordering::Relaxed);
            let mut stream = stream;
            let _ = write_frame(
                &mut stream,
                &Response::Overloaded {
                    queue_depth: pending,
                }
                .to_json(),
            );
            continue;
        }
        next += 1;
        shard.stats.accepted.fetch_add(1, Ordering::Relaxed);
        shard.push_conn(stream);
    }
    // Drain: make sure every shard observes the close (a listener error
    // can land here without `begin_close` having run), let them answer
    // everything admitted and flush, then stop the pool.
    ctx.closing.store(true, Ordering::Release);
    for index in 0..ctx.n_shards() {
        ctx.shard(index).nudge();
    }
    for handle in shard_threads {
        handle.join().expect("shard thread exits cleanly");
    }
    ctx.pool.shutdown();
}
