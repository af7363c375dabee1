//! Bounded worker pool with explicit admission control.
//!
//! Planning work is CPU-bound, so the pool is the server's admission
//! valve: a fixed number of workers drain a bounded queue, and when the
//! queue is full [`WorkerPool::try_submit`] refuses immediately with
//! [`SubmitError::Overloaded`] instead of queueing unboundedly or
//! blocking the connection thread. The caller turns that into a typed
//! `overloaded` response — a saturated server *sheds* load, it never
//! hangs a client.
//!
//! Shutdown is graceful: the queue closes to new work, workers finish
//! everything already admitted, then exit. Admitted work is therefore a
//! promise — a request either gets a real reply or an explicit refusal.

use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

pub(crate) type Job = Box<dyn FnOnce() + Send + 'static>;

/// A job that always reports: `report(Some(result))` once `run` returns,
/// `report(None)` if `run` unwinds. A guard makes the report from its
/// drop, so the worker's `catch_unwind` cannot swallow it and whoever
/// waits on the job is answered either way.
pub(crate) fn reporting<T>(
    run: impl FnOnce() -> T + Send + 'static,
    report: impl FnOnce(Option<T>) + Send + 'static,
) -> Job {
    Box::new(move || {
        let mut guard = Report {
            result: None,
            report: Some(report),
        };
        guard.result = Some(run());
    })
}

/// The drop guard of [`reporting`].
struct Report<T, F: FnOnce(Option<T>)> {
    result: Option<T>,
    report: Option<F>,
}

impl<T, F: FnOnce(Option<T>)> Drop for Report<T, F> {
    fn drop(&mut self) {
        if let Some(report) = self.report.take() {
            report(self.result.take());
        }
    }
}

/// Why a submission was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at capacity; the job was shed.
    Overloaded {
        /// Queue depth observed at refusal (== capacity).
        queue_depth: usize,
    },
    /// The pool is shutting down and admits no new work.
    ShuttingDown,
}

struct Queue {
    jobs: VecDeque<Job>,
    closed: bool,
}

struct PoolInner {
    queue: Mutex<Queue>,
    /// Signalled when a job arrives or the queue closes.
    available: Condvar,
}

/// A fixed-size worker pool over a bounded FIFO queue.
pub struct WorkerPool {
    inner: Arc<PoolInner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    capacity: usize,
    n_workers: usize,
    shed: AtomicU64,
}

impl WorkerPool {
    /// Spawns `workers` worker threads draining a queue that admits at
    /// most `capacity` waiting jobs.
    pub fn new(workers: usize, capacity: usize) -> WorkerPool {
        let workers = workers.max(1);
        let inner = Arc::new(PoolInner {
            queue: Mutex::new(Queue {
                jobs: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            available: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("opass-serve-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("worker thread spawns")
            })
            .collect();
        WorkerPool {
            inner,
            workers: Mutex::new(handles),
            capacity,
            n_workers: workers,
            shed: AtomicU64::new(0),
        }
    }

    /// Admits `job` if the queue has room; sheds it otherwise.
    pub fn try_submit(&self, job: Job) -> Result<(), SubmitError> {
        let mut queue = self.inner.queue.lock().expect("pool queue not poisoned");
        if queue.closed {
            return Err(SubmitError::ShuttingDown);
        }
        if queue.jobs.len() >= self.capacity {
            self.shed.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::Overloaded {
                queue_depth: queue.jobs.len(),
            });
        }
        queue.jobs.push_back(job);
        drop(queue);
        self.inner.available.notify_one();
        Ok(())
    }

    /// Jobs currently waiting (not counting ones being executed).
    pub fn depth(&self) -> usize {
        self.inner
            .queue
            .lock()
            .expect("pool queue not poisoned")
            .jobs
            .len()
    }

    /// Queue capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.n_workers
    }

    /// Jobs refused because the queue was full.
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Closes the queue to new work, drains every admitted job, and joins
    /// the workers. Idempotent.
    pub fn shutdown(&self) {
        {
            let mut queue = self.inner.queue.lock().expect("pool queue not poisoned");
            queue.closed = true;
        }
        self.inner.available.notify_all();
        let handles: Vec<_> = {
            let mut workers = self.workers.lock().expect("pool workers not poisoned");
            workers.drain(..).collect()
        };
        for h in handles {
            h.join().expect("worker thread exits cleanly");
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(inner: &PoolInner) {
    loop {
        let job = {
            let mut queue = inner.queue.lock().expect("pool queue not poisoned");
            loop {
                if let Some(job) = queue.jobs.pop_front() {
                    break job;
                }
                if queue.closed {
                    return;
                }
                queue = inner
                    .available
                    .wait(queue)
                    .expect("pool queue not poisoned");
            }
        };
        // A panicking job must not take its worker with it: a pool of
        // one would never run another job, and `shutdown` would panic
        // joining the dead thread. The panic has already been reported
        // by the hook; the worker moves on to the next job.
        let _ = std::panic::catch_unwind(AssertUnwindSafe(job));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;

    #[test]
    fn runs_admitted_jobs() {
        let pool = WorkerPool::new(2, 16);
        let (tx, rx) = mpsc::channel();
        for i in 0..8u32 {
            let tx = tx.clone();
            pool.try_submit(Box::new(move || tx.send(i).expect("receiver alive")))
                .expect("queue has room");
        }
        let mut got: Vec<u32> = (0..8).map(|_| rx.recv().expect("job ran")).collect();
        got.sort_unstable();
        assert_eq!(got, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn saturated_queue_sheds_with_depth() {
        let pool = WorkerPool::new(1, 2);
        let (block_tx, block_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        pool.try_submit(Box::new(move || {
            started_tx.send(()).expect("test listening");
            block_rx.recv().expect("test releases");
        }))
        .expect("first job admitted");
        started_rx.recv().expect("worker picked up the blocker");
        // Worker is busy; fill the queue to capacity.
        let ran = Arc::new(AtomicUsize::new(0));
        for _ in 0..2 {
            let ran = Arc::clone(&ran);
            pool.try_submit(Box::new(move || {
                ran.fetch_add(1, Ordering::SeqCst);
            }))
            .expect("queue has room");
        }
        // Next submission must shed, reporting the observed depth.
        let refused = pool.try_submit(Box::new(|| {}));
        assert_eq!(refused, Err(SubmitError::Overloaded { queue_depth: 2 }));
        assert_eq!(pool.shed(), 1);
        // Release the blocker; shutdown drains the admitted jobs.
        block_tx.send(()).expect("blocker waiting");
        pool.shutdown();
        assert_eq!(ran.load(Ordering::SeqCst), 2, "admitted jobs all ran");
    }

    #[test]
    fn shutdown_drains_then_refuses() {
        let pool = WorkerPool::new(1, 64);
        let ran = Arc::new(AtomicUsize::new(0));
        for _ in 0..32 {
            let ran = Arc::clone(&ran);
            pool.try_submit(Box::new(move || {
                ran.fetch_add(1, Ordering::SeqCst);
            }))
            .expect("queue has room");
        }
        pool.shutdown();
        assert_eq!(ran.load(Ordering::SeqCst), 32, "every admitted job ran");
        assert_eq!(
            pool.try_submit(Box::new(|| {})),
            Err(SubmitError::ShuttingDown)
        );
        // Idempotent.
        pool.shutdown();
    }

    #[test]
    fn panicking_job_leaves_its_worker_running() {
        let pool = WorkerPool::new(1, 4);
        let (tx, rx) = mpsc::channel();
        pool.try_submit(Box::new(|| panic!("job panics on purpose")))
            .expect("queue has room");
        pool.try_submit(Box::new(move || tx.send(7u32).expect("receiver alive")))
            .expect("queue has room");
        // A dead worker would leave the second job queued forever; the
        // timeout turns that hang into a failure.
        let ran = rx.recv_timeout(std::time::Duration::from_secs(30));
        assert_eq!(ran, Ok(7), "the lone worker survived the panic");
        pool.shutdown();
    }

    #[test]
    fn a_reporting_job_reports_even_when_it_panics() {
        let pool = WorkerPool::new(1, 4);
        let (tx, rx) = mpsc::channel();
        for panics in [true, false] {
            let tx = tx.clone();
            let run = move || {
                assert!(!panics, "job panics on purpose");
                7u32
            };
            let report = move |result| tx.send(result).expect("receiver alive");
            pool.try_submit(reporting(run, report))
                .expect("queue has room");
        }
        pool.shutdown();
        let reports: Vec<Option<u32>> = rx.try_iter().collect();
        assert_eq!(reports, [None, Some(7)], "the panic reported a lost job");
    }
}
