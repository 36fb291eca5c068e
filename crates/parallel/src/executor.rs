//! A bounded, sharded work-queue executor for long-lived server workers.
//!
//! The scoped primitives in the crate root ([`crate::par_map_indexed`] and
//! friends) cover *batch* parallelism: spawn, fan out, join, return. A
//! serving process needs the opposite shape — a fixed set of **long-lived**
//! worker threads consuming an unbounded stream of small jobs — and the
//! workspace's T1 thread-discipline rule deliberately confines raw
//! `std::thread` use to this crate (plus the server's connection-worker
//! module). [`Executor`] is that seam.
//!
//! # Sharding and ordering
//!
//! The executor owns `shards` independent FIFO queues, each drained by
//! exactly one dedicated worker thread. Jobs submitted to the same shard
//! therefore execute **serially, in submission order**; jobs on different
//! shards run concurrently. A caller that routes all work for one key (e.g.
//! a serving tenant) to one shard gets single-writer execution for that key
//! without any per-job locking — the property the serving host's
//! determinism argument rests on (DESIGN.md §11).
//!
//! # Backpressure
//!
//! Every queue is bounded by `capacity`. [`Executor::try_submit`] never
//! blocks: a full queue rejects the job immediately ([`SubmitError::Full`]),
//! handing the load-shedding decision back to the caller (the serving host
//! maps it onto the `overloaded` wire error). This keeps a slow tenant from
//! stalling the accept loop or eating unbounded memory.
//!
//! # Shutdown
//!
//! [`Executor::shutdown`] closes the queues (subsequent submissions are
//! rejected with [`SubmitError::Closed`]), lets every worker **drain the
//! jobs already queued**, then joins the threads. Nothing accepted is ever
//! dropped — the graceful-drain guarantee the server's SIGTERM handling
//! builds on.
//!
//! A panicking job is contained: the worker catches the unwind, counts it
//! ([`Executor::jobs_panicked`]) and keeps serving its queue. The panic
//! payload is dropped rather than propagated because there is no joining
//! caller mid-stream to rethrow into; the count makes the failure
//! observable.
//!
//! # Model checking
//!
//! Everything above is a *claimed* property of lock/condvar/atomic
//! interleavings. The executor is therefore written against the
//! [`crate::sync::Backend`] seam as [`ExecutorCore`]; `grgad-check`
//! instantiates it on instrumented shims and exhaustively explores bounded
//! schedules of exactly this code — FIFO order, bounded reject,
//! drain-on-shutdown and panic containment are machine-checked invariants,
//! not reviewed ones (DESIGN.md §12). [`Executor`] is the production
//! instantiation on [`StdBackend`].

use std::collections::VecDeque;
use std::sync::Arc;

use crate::sync::{Backend, Counter, Flag, Monitor, StdBackend};

/// A unit of work: boxed once at submission, run once on a shard worker.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Final counters returned by [`ExecutorCore::shutdown_stats`] after the
/// drain completed and every worker joined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutorStats {
    /// Jobs executed to completion (panicking jobs included).
    pub jobs_run: u64,
    /// Jobs whose unwind was caught and contained by a worker.
    pub jobs_panicked: u64,
}

/// Why [`Executor::try_submit`] rejected a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The shard's bounded queue is at capacity; the job was not enqueued.
    /// Retry later or shed the load.
    Full {
        /// The shard whose queue was saturated.
        shard: usize,
        /// The bound that was hit.
        capacity: usize,
    },
    /// The executor is shutting down; no new work is accepted.
    Closed,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Full { shard, capacity } => {
                write!(f, "shard {shard} queue full (capacity {capacity})")
            }
            SubmitError::Closed => write!(f, "executor is shut down"),
        }
    }
}

/// One shard: a bounded FIFO queue and its wake signal, drained by a
/// single dedicated worker.
struct Shard<B: Backend> {
    /// The queue and the condvar that signals the worker that a job
    /// arrived or the executor closed.
    queue: B::Monitor<VecDeque<Job>>,
}

/// State shared by all shards and the submission side.
struct Shared<B: Backend> {
    shards: Vec<Shard<B>>,
    capacity: usize,
    closed: B::Flag,
    jobs_run: B::Counter,
    jobs_panicked: B::Counter,
}

/// A fixed pool of long-lived worker threads, one per bounded FIFO shard,
/// generic over the [`Backend`] sync seam. See the module docs for the
/// ordering, backpressure and shutdown contracts. Production code uses
/// the [`Executor`] alias; `grgad-check` model tests instantiate this on
/// the instrumented backend.
pub struct ExecutorCore<B: Backend> {
    shared: Arc<Shared<B>>,
    workers: Vec<B::JoinHandle>,
}

/// The production executor: [`ExecutorCore`] on real OS threads and
/// `std::sync` primitives.
pub type Executor = ExecutorCore<StdBackend>;

impl<B: Backend> ExecutorCore<B> {
    /// Starts `shards` worker threads, each owning a FIFO queue bounded at
    /// `capacity` jobs. Both are clamped to at least 1.
    pub fn new(shards: usize, capacity: usize) -> ExecutorCore<B> {
        let shards = shards.max(1);
        let capacity = capacity.max(1);
        let shared = Arc::new(Shared {
            shards: (0..shards)
                .map(|_| Shard {
                    queue: B::Monitor::new(VecDeque::new()),
                })
                .collect(),
            capacity,
            closed: B::Flag::new(false),
            jobs_run: B::Counter::new(0),
            jobs_panicked: B::Counter::new(0),
        });
        let workers = (0..shards)
            .map(|i| {
                let shared = Arc::clone(&shared);
                B::spawn(format!("grgad-exec-{i}"), move || worker_loop(&shared, i))
            })
            .collect();
        ExecutorCore { shared, workers }
    }

    /// Number of shards (== worker threads).
    pub fn num_shards(&self) -> usize {
        self.shared.shards.len()
    }

    /// Per-shard queue bound.
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }

    /// Jobs executed to completion so far (including panicked ones).
    pub fn jobs_run(&self) -> u64 {
        self.shared.jobs_run.load()
    }

    /// Jobs whose closure panicked (contained, worker kept running).
    pub fn jobs_panicked(&self) -> u64 {
        self.shared.jobs_panicked.load()
    }

    /// Jobs currently waiting on `shard`'s queue (racy snapshot; intended
    /// for stats/monitoring, not control flow).
    pub fn queue_len(&self, shard: usize) -> usize {
        self.shared.shards[shard % self.shared.shards.len()]
            .queue
            .lock()
            .len()
    }

    /// Enqueues `job` on `shard` (wrapped modulo the shard count) without
    /// blocking.
    ///
    /// # Errors
    /// [`SubmitError::Full`] when the shard's queue is at capacity,
    /// [`SubmitError::Closed`] after [`Executor::shutdown`] began. In both
    /// cases the job is dropped without running.
    pub fn try_submit(
        &self,
        shard: usize,
        job: impl FnOnce() + Send + 'static,
    ) -> Result<(), SubmitError> {
        if self.shared.closed.load() {
            return Err(SubmitError::Closed);
        }
        let index = shard % self.shared.shards.len();
        let target = &self.shared.shards[index];
        let mut queue = target.queue.lock();
        if queue.len() >= self.shared.capacity {
            return Err(SubmitError::Full {
                shard: index,
                capacity: self.shared.capacity,
            });
        }
        queue.push_back(Box::new(job));
        drop(queue);
        target.queue.notify_one();
        Ok(())
    }

    /// Closes the queues, drains every job already accepted, and joins the
    /// worker threads. Consumes the executor; all accepted work completes
    /// before this returns.
    pub fn shutdown(self) {
        self.shutdown_stats();
    }

    /// [`Self::shutdown`], returning the final counters. The executor is
    /// gone by the time `shutdown` returns, so this is the only way to
    /// observe how much work a fully drained executor actually ran —
    /// model tests and edge-case tests assert on it.
    pub fn shutdown_stats(mut self) -> ExecutorStats {
        self.begin_shutdown();
        for handle in self.workers.drain(..) {
            // A worker that panicked outside a job (impossible by
            // construction — jobs are unwind-caught) is not worth taking
            // the shutdown path down with.
            B::join(handle);
        }
        ExecutorStats {
            jobs_run: self.shared.jobs_run.load(),
            jobs_panicked: self.shared.jobs_panicked.load(),
        }
    }

    fn begin_shutdown(&self) {
        self.shared.closed.store(true);
        for shard in &self.shared.shards {
            // Touch the lock so a worker between its closed-check and its
            // condvar wait cannot miss the notification.
            drop(shard.queue.lock());
            shard.queue.notify_all();
        }
    }
}

impl<B: Backend> Drop for ExecutorCore<B> {
    fn drop(&mut self) {
        // Mirrors `shutdown` for executors dropped without an explicit
        // call (e.g. on an error path): drain accepted work, then join.
        self.begin_shutdown();
        for handle in self.workers.drain(..) {
            B::join(handle);
        }
    }
}

/// One worker: pop-run until the executor closes *and* the queue is empty.
fn worker_loop<B: Backend>(shared: &Shared<B>, index: usize) {
    let shard = &shared.shards[index];
    loop {
        let job = {
            let mut queue = shard.queue.lock();
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                if shared.closed.load() {
                    return;
                }
                queue = shard.queue.wait(queue);
            }
        };
        // Contain job panics: a serving worker must outlive any one bad
        // request. The payload is dropped; the counter records it.
        if std::panic::catch_unwind(std::panic::AssertUnwindSafe(job)).is_err() {
            shared.jobs_panicked.add(1);
        }
        shared.jobs_run.add(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{mpsc, Mutex};

    #[test]
    fn same_shard_jobs_run_serially_in_submission_order() {
        let executor = Executor::new(1, 64);
        let log = Arc::new(Mutex::new(Vec::new()));
        for i in 0..32 {
            let log = Arc::clone(&log);
            executor
                .try_submit(0, move || {
                    log.lock().expect("log lock").push(i);
                })
                .expect("submit");
        }
        executor.shutdown();
        let got = log.lock().expect("log lock").clone();
        assert_eq!(got, (0..32).collect::<Vec<_>>());
    }

    #[test]
    #[cfg_attr(miri, ignore)] // cross-thread channel timeouts crawl under the interpreter
    fn shards_run_concurrently() {
        // Shard 0 blocks until shard 1's job completes — only possible if
        // the two shards really are independent threads.
        let executor = Executor::new(2, 4);
        let (unblock_tx, unblock_rx) = mpsc::channel::<()>();
        let (done_tx, done_rx) = mpsc::channel::<&'static str>();

        let done = done_tx.clone();
        executor
            .try_submit(0, move || {
                unblock_rx
                    .recv_timeout(std::time::Duration::from_secs(10))
                    .expect("shard 1 must unblock shard 0");
                done.send("blocked-job").expect("send");
            })
            .expect("submit shard 0");
        executor
            .try_submit(1, move || {
                // Report before unblocking, so shard 0 cannot report first.
                done_tx.send("free-job").expect("send");
                unblock_tx.send(()).expect("send unblock");
            })
            .expect("submit shard 1");

        assert_eq!(done_rx.recv().expect("first"), "free-job");
        assert_eq!(done_rx.recv().expect("second"), "blocked-job");
        executor.shutdown();
    }

    #[test]
    #[cfg_attr(miri, ignore)] // spin-waits on a live worker thread; slow under the interpreter
    fn full_queue_rejects_without_blocking() {
        let executor = Executor::new(1, 2);
        // Block the worker so queued jobs cannot drain.
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        executor
            .try_submit(0, move || {
                gate_rx
                    .recv_timeout(std::time::Duration::from_secs(10))
                    .expect("gate");
            })
            .expect("blocker");
        // Wait until the worker picked up the blocker, so capacity checks
        // below see a deterministic queue.
        while executor.queue_len(0) > 0 {
            std::thread::yield_now();
        }
        executor.try_submit(0, || {}).expect("first queued");
        executor.try_submit(0, || {}).expect("second queued");
        let err = executor.try_submit(0, || {}).expect_err("queue is full");
        assert_eq!(
            err,
            SubmitError::Full {
                shard: 0,
                capacity: 2
            }
        );
        assert!(err.to_string().contains("capacity 2"));
        gate_tx.send(()).expect("open gate");
        executor.shutdown();
    }

    #[test]
    fn shutdown_drains_accepted_jobs_then_rejects() {
        let executor = Executor::new(3, 128);
        let counter = Arc::new(std::sync::atomic::AtomicU64::new(0));
        for i in 0..96 {
            let counter = Arc::clone(&counter);
            executor
                .try_submit(i, move || {
                    counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                })
                .expect("submit");
        }
        let shared = Arc::clone(&executor.shared);
        executor.shutdown();
        assert_eq!(
            counter.load(std::sync::atomic::Ordering::Relaxed),
            96,
            "all accepted jobs ran"
        );
        assert_eq!(Counter::load(&shared.jobs_run), 96);
    }

    #[test]
    fn closed_executor_rejects_submissions() {
        let executor = Executor::new(1, 4);
        Flag::store(&executor.shared.closed, true);
        assert_eq!(
            executor.try_submit(0, || {}).expect_err("closed"),
            SubmitError::Closed
        );
    }

    #[test]
    fn job_panic_is_contained_and_counted() {
        let executor = Executor::new(1, 8);
        executor
            .try_submit(0, || panic!("bad request"))
            .expect("submit panicking job");
        let probe = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let p = Arc::clone(&probe);
        executor
            .try_submit(0, move || {
                p.store(7, std::sync::atomic::Ordering::Relaxed);
            })
            .expect("submit follow-up");
        let shared = Arc::clone(&executor.shared);
        executor.shutdown();
        assert_eq!(
            probe.load(std::sync::atomic::Ordering::Relaxed),
            7,
            "worker survived a panic"
        );
        assert_eq!(Counter::load(&shared.jobs_panicked), 1);
        assert_eq!(Counter::load(&shared.jobs_run), 2);
    }

    #[test]
    fn shard_index_wraps_and_params_clamp() {
        let executor = Executor::new(0, 0);
        assert_eq!(executor.num_shards(), 1);
        assert_eq!(executor.capacity(), 1);
        executor.try_submit(17, || {}).expect("wrapped shard index");
        executor.shutdown();
    }
}
