//! A shared FIFO worker pool for the sharded stages and the server.
//!
//! Before this module existed every sharded stage (candidate generation,
//! graph preparation, pivot-path search) spawned *scoped* threads per batch —
//! cheap for one-shot CLI runs, wasteful for long-lived processes like
//! `ec serve`, where grouping re-spawned a handful of threads for every
//! parallel step of every request. [`WorkerPool`] keeps a fixed set of
//! long-lived workers instead:
//!
//! * one **FIFO queue** holds every submitted job, whoever submits it — a
//!   job that re-queues itself from inside a worker (a server connection
//!   yielding its worker) lands behind the jobs already waiting, so it can
//!   never starve them;
//! * jobs are **panic-isolated**: a panicking job never kills its worker —
//!   batch panics are captured and re-raised in the submitting thread,
//!   detached-job panics are counted and dropped.
//!
//! Batches ([`WorkerPool::run`]) block the submitting thread, but the
//! submitter *participates*: it claims unclaimed tasks of its own batch while
//! waiting, so a batch submitted from inside a pool worker (a server
//! connection handler fanning out structure partitions, say) can always make
//! progress even when every worker is busy — the pool is deadlock-free by
//! construction.
//!
//! Because every sharded stage is bit-identical for *any* thread count, the
//! number of pool workers never affects results; it only trades wall-clock
//! time for cores. Stages therefore share one process-wide pool ([`shared`]),
//! sized on first use (`ec serve --threads` pins it via [`configure_shared`]).

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

/// A detached job: runs once on some worker, result discarded.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// Registry handles for the pool's runtime signals: queue depth, submit
/// traffic, and how long jobs wait versus run.
struct PoolMetrics {
    /// Jobs currently waiting in the queue.
    queue_depth: ec_obs::Gauge,
    /// Jobs pushed onto the queue.
    submitted: ec_obs::Counter,
    /// Time from submit to dequeue.
    queue_seconds: ec_obs::Histogram,
    /// Time a job spends executing on its worker.
    wall_seconds: ec_obs::Histogram,
}

fn pool_metrics() -> &'static PoolMetrics {
    static METRICS: OnceLock<PoolMetrics> = OnceLock::new();
    METRICS.get_or_init(|| PoolMetrics {
        queue_depth: ec_obs::gauge(
            "ec_pool_queue_depth",
            "Jobs waiting in the shared pool's queue.",
        ),
        submitted: ec_obs::counter("ec_pool_submit_total", "Jobs submitted to the pool."),
        queue_seconds: ec_obs::histogram(
            "ec_pool_task_queue_seconds",
            "Time pool jobs wait between submit and dequeue.",
            ec_obs::Unit::Seconds,
            ec_obs::LATENCY_BUCKETS_US,
        ),
        wall_seconds: ec_obs::histogram(
            "ec_pool_task_wall_seconds",
            "Time pool jobs spend executing on a worker.",
            ec_obs::Unit::Seconds,
            ec_obs::LATENCY_BUCKETS_US,
        ),
    })
}

/// A queued job plus its submit time (for the queue-wait histogram).
struct Queued {
    job: Job,
    submitted: Instant,
}

/// One task of a [`WorkerPool::run`] batch.
pub type PoolTask<R> = Box<dyn FnOnce() -> R + Send + 'static>;

/// Jobs run outside the queue lock and a push or pop cannot panic halfway,
/// so the lock is never poisoned.
const QUEUE_POISONED: &str = "the pool queue lock is never held across a panic";

/// The queue plus the sleep/wake coordination shared by all workers of a pool.
struct PoolShared {
    /// Every submitted job, oldest first.
    queue: Mutex<VecDeque<Queued>>,
    /// Signalled (after a push to `queue`) once per job, and on shutdown.
    wake: Condvar,
    /// Set before the shutdown wake-up; workers exit once the queue drains.
    shutdown: AtomicBool,
    /// Detached jobs whose panic was swallowed (observability only).
    detached_panics: AtomicUsize,
}

impl PoolShared {
    /// Appends a job to the back of the queue and wakes one sleeping worker.
    fn push(&self, job: Job) {
        let metrics = pool_metrics();
        metrics.submitted.inc();
        metrics.queue_depth.add(1);
        self.queue.lock().expect(QUEUE_POISONED).push_back(Queued {
            job,
            submitted: Instant::now(),
        });
        self.wake.notify_one();
    }

    /// Runs queued jobs until shutdown, sleeping while the queue is empty.
    /// A worker only sleeps after seeing the queue empty under its lock, and
    /// every push (and the shutdown flag) is followed by a notify, so no
    /// wake-up is lost; jobs queued before shutdown still run.
    fn worker_loop(&self) {
        let mut queue = self.queue.lock().expect(QUEUE_POISONED);
        loop {
            if let Some(queued) = queue.pop_front() {
                drop(queue);
                let metrics = pool_metrics();
                metrics.queue_depth.sub(1);
                metrics
                    .queue_seconds
                    .observe_duration(queued.submitted.elapsed());
                let started = Instant::now();
                (queued.job)();
                metrics.wall_seconds.observe_duration(started.elapsed());
                queue = self.queue.lock().expect(QUEUE_POISONED);
            } else if self.shutdown.load(Ordering::Acquire) {
                return;
            } else {
                queue = self.wake.wait(queue).expect(QUEUE_POISONED);
            }
        }
    }
}

/// One batch in flight: its unclaimed tasks, its result slots and the
/// completion signal the submitter waits on.
struct BatchState<R> {
    pending: Mutex<VecDeque<(usize, PoolTask<R>)>>,
    results: Mutex<Vec<Option<std::thread::Result<R>>>>,
    finished: Mutex<usize>,
    done: Condvar,
}

impl<R: Send + 'static> BatchState<R> {
    fn new(total: usize) -> Self {
        BatchState {
            pending: Mutex::new(VecDeque::with_capacity(total)),
            results: Mutex::new((0..total).map(|_| None).collect()),
            finished: Mutex::new(0),
            done: Condvar::new(),
        }
    }

    /// Claims and runs one unclaimed task of this batch; false when every
    /// task is already claimed. Panics are captured into the result slot.
    fn run_one(&self) -> bool {
        let Some((index, task)) = self.pending.lock().unwrap().pop_front() else {
            return false;
        };
        let outcome = catch_unwind(AssertUnwindSafe(task));
        self.results.lock().unwrap()[index] = Some(outcome);
        let mut finished = self.finished.lock().unwrap();
        *finished += 1;
        self.done.notify_all();
        true
    }
}

/// A fixed-size pool of long-lived worker threads fed by one FIFO queue. See
/// the module docs for the full design.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns a pool of `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
            detached_panics: AtomicUsize::new(0),
        });
        let handles = (0..threads)
            .map(|slot| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ec-pool-{slot}"))
                    .spawn(move || shared.worker_loop())
                    .expect("spawning a pool worker thread")
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.handles.len()
    }

    /// Submits a detached job to the back of the queue, from any thread. A
    /// panicking job is swallowed (the worker survives) and counted in
    /// [`WorkerPool::detached_panics`].
    pub fn spawn(&self, job: impl FnOnce() + Send + 'static) {
        let shared = Arc::clone(&self.shared);
        self.shared.push(Box::new(move || {
            if catch_unwind(AssertUnwindSafe(job)).is_err() {
                shared.detached_panics.fetch_add(1, Ordering::Relaxed);
            }
        }));
    }

    /// Number of detached jobs that panicked so far.
    pub fn detached_panics(&self) -> usize {
        self.shared.detached_panics.load(Ordering::Relaxed)
    }

    /// Runs `tasks` to completion and returns their results in task order.
    ///
    /// The submitting thread participates: while any task of the batch is
    /// unclaimed it claims and runs tasks itself, and only blocks once every
    /// task is claimed by some thread. A batch may therefore be submitted
    /// from *inside* a pool worker without risk of deadlock — a claimed task
    /// is always actively being executed by somebody.
    ///
    /// If any task panicked, the first panic (in task order) is re-raised
    /// here after the whole batch has finished; the workers themselves
    /// survive.
    pub fn run<R: Send + 'static>(&self, tasks: Vec<PoolTask<R>>) -> Vec<R> {
        let total = tasks.len();
        match total {
            0 => return Vec::new(),
            // A lone task gains nothing from the queue.
            1 => return tasks.into_iter().map(|t| t()).collect(),
            _ => {}
        }
        let state = Arc::new(BatchState::new(total));
        state
            .pending
            .lock()
            .unwrap()
            .extend(tasks.into_iter().enumerate());
        // One claim ticket per task beyond the one the submitter starts on;
        // a ticket that finds the batch fully claimed is a cheap no-op.
        for _ in 1..total {
            let state = Arc::clone(&state);
            self.shared.push(Box::new(move || {
                state.run_one();
            }));
        }
        while state.run_one() {}
        let mut finished = state.finished.lock().unwrap();
        while *finished < total {
            finished = state.done.wait(finished).unwrap();
        }
        drop(finished);
        let collected: Vec<std::thread::Result<R>> = state
            .results
            .lock()
            .unwrap()
            .iter_mut()
            .map(|slot| slot.take().expect("finished batch has all results"))
            .collect();
        let mut out = Vec::with_capacity(total);
        let mut panic_payload = None;
        for result in collected {
            match result {
                Ok(value) => out.push(value),
                Err(payload) => {
                    panic_payload.get_or_insert(payload);
                }
            }
        }
        if let Some(payload) = panic_payload {
            resume_unwind(payload);
        }
        out
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // Taking the lock orders the flag after any worker's empty-queue
        // check, so the notify cannot slip in before that worker sleeps.
        drop(self.shared.queue.lock());
        self.shared.wake.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads())
            .finish()
    }
}

static SHARED: OnceLock<WorkerPool> = OnceLock::new();

/// The process-wide pool every sharded stage runs on, created on first use
/// with [`crate::Parallelism::AUTO`]'s thread count (`EC_THREADS` or the
/// machine, clamped). The worker count never affects results — every sharded
/// stage is bit-identical for any thread count — so one pool can serve
/// stages configured with different [`crate::Parallelism`] values at once.
pub fn shared() -> &'static WorkerPool {
    SHARED.get_or_init(|| WorkerPool::new(crate::Parallelism::AUTO.threads()))
}

/// Sizes the shared pool to `threads` workers (0 = auto) if it has not been
/// created yet, and returns it. The first caller wins: once any stage has
/// used the pool its size is pinned, so long-lived processes (`ec serve`)
/// should call this during startup, before any consolidation work runs.
pub fn configure_shared(threads: usize) -> &'static WorkerPool {
    SHARED.get_or_init(|| {
        if threads == 0 {
            WorkerPool::new(crate::Parallelism::AUTO.threads())
        } else {
            WorkerPool::new(threads)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::time::Duration;

    fn task<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> PoolTask<R> {
        Box::new(f)
    }

    #[test]
    fn batch_results_come_back_in_task_order() {
        let pool = WorkerPool::new(4);
        let tasks: Vec<PoolTask<usize>> = (0..64).map(|i| task(move || i * 2)).collect();
        let results = pool.run(tasks);
        assert_eq!(results, (0..64).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_singleton_batches() {
        let pool = WorkerPool::new(2);
        assert!(pool.run::<usize>(Vec::new()).is_empty());
        assert_eq!(pool.run(vec![task(|| 7usize)]), vec![7]);
    }

    /// `n` tasks that each record their thread and then wait (up to 5 s)
    /// until some other thread has run a task of the same batch too. The
    /// batch reports more than one thread only if the pool spread it.
    fn rendezvous_tasks(n: usize) -> Vec<PoolTask<std::thread::ThreadId>> {
        let seen = Arc::new((Mutex::new(HashSet::new()), Condvar::new()));
        (0..n)
            .map(|_| {
                let seen = Arc::clone(&seen);
                task(move || {
                    let me = std::thread::current().id();
                    let (threads, met) = &*seen;
                    let mut threads = threads.lock().unwrap();
                    threads.insert(me);
                    met.notify_all();
                    drop(
                        met.wait_timeout_while(threads, Duration::from_secs(5), |t| t.len() < 2)
                            .unwrap(),
                    );
                    me
                })
            })
            .collect()
    }

    #[test]
    fn a_batch_spreads_across_workers() {
        // The claim tickets land in the queue and an idle worker picks one
        // up while the submitter runs the first task.
        let pool = WorkerPool::new(4);
        let threads: HashSet<_> = pool.run(rendezvous_tasks(4)).into_iter().collect();
        assert!(
            threads.len() >= 2,
            "the batch ran on one thread: {threads:?}"
        );
    }

    #[test]
    fn a_batch_submitted_from_a_worker_runs_on_more_than_one_thread() {
        // The submitting worker participates, but the other idle workers
        // must pick up the nested batch's tickets too.
        use std::sync::mpsc;
        let pool = Arc::new(WorkerPool::new(4));
        let (tx, rx) = mpsc::channel();
        let inner = Arc::clone(&pool);
        pool.spawn(move || {
            let submitter = std::thread::current().name().map(str::to_owned);
            let threads: HashSet<_> = inner.run(rendezvous_tasks(4)).into_iter().collect();
            // The test must hold the last handle: dropping the pool on one
            // of its own workers would join that worker from itself.
            drop(inner);
            tx.send((submitter, threads)).unwrap();
        });
        let (submitter, threads) = rx.recv_timeout(Duration::from_secs(30)).unwrap();
        assert!(
            submitter.is_some_and(|name| name.starts_with("ec-pool-")),
            "the batch must be submitted from a pool worker"
        );
        assert!(
            threads.len() >= 2,
            "the nested batch ran on one thread: {threads:?}"
        );
    }

    #[test]
    fn batch_panics_propagate_but_workers_survive() {
        let pool = WorkerPool::new(2);
        let tasks: Vec<PoolTask<usize>> = (0..6)
            .map(|i| {
                task(move || {
                    if i == 3 {
                        panic!("task 3 exploded");
                    }
                    i
                })
            })
            .collect();
        let outcome = catch_unwind(AssertUnwindSafe(|| pool.run(tasks)));
        let payload = outcome.expect_err("the batch panic must propagate");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("non-str payload");
        assert!(message.contains("exploded"), "{message}");
        // The pool still works afterwards.
        let results = pool.run((0..8).map(|i| task(move || i + 1)).collect::<Vec<_>>());
        assert_eq!(results.iter().sum::<usize>(), 36);
    }

    #[test]
    fn detached_panics_are_isolated_and_counted() {
        let pool = WorkerPool::new(1);
        pool.spawn(|| panic!("detached job panicked"));
        // The job runs asynchronously; wait for the swallowed panic to land.
        for _ in 0..400 {
            if pool.detached_panics() == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(pool.detached_panics(), 1);
        // A follow-up batch proves the lone worker survived the panic.
        let results = pool.run((0..4).map(|i| task(move || i)).collect::<Vec<_>>());
        assert_eq!(results, vec![0, 1, 2, 3]);
    }

    #[test]
    fn deeply_nested_batches_complete_on_a_tiny_pool() {
        // With 1 worker, every level of nesting relies on submitter
        // participation — this deadlocks unless claimed-task progress is
        // guaranteed.
        let pool = Arc::new(WorkerPool::new(1));
        fn nest(pool: &Arc<WorkerPool>, depth: usize) -> usize {
            if depth == 0 {
                return 1;
            }
            let tasks: Vec<PoolTask<usize>> = (0..2)
                .map(|_| {
                    let pool = Arc::clone(pool);
                    task(move || nest(&pool, depth - 1))
                })
                .collect();
            pool.run(tasks).into_iter().sum()
        }
        assert_eq!(nest(&pool, 4), 16);
    }

    #[test]
    fn a_job_requeued_from_a_worker_runs_after_waiting_jobs() {
        // A job that re-queues itself to give up the worker (a server
        // connection yielding mid-burst) must land *behind* jobs already
        // waiting; a worker-local LIFO shortcut would run it first again and
        // starve them.
        use std::sync::mpsc;
        let pool = Arc::new(WorkerPool::new(1));
        let order = Arc::new(Mutex::new(Vec::new()));
        let (started_tx, started_rx) = mpsc::channel();
        let (go_tx, go_rx) = mpsc::channel::<()>();
        let (done_tx, done_rx) = mpsc::channel();
        {
            let pool = Arc::clone(&pool);
            let order = Arc::clone(&order);
            pool.clone().spawn(move || {
                started_tx.send(()).unwrap();
                go_rx.recv().unwrap();
                // The queue now holds "waiting"; the re-queued "yielded"
                // must run after it.
                let order2 = Arc::clone(&order);
                pool.spawn(move || {
                    order2.lock().unwrap().push("yielded");
                    done_tx.send(()).unwrap();
                });
            });
        }
        started_rx.recv().unwrap();
        {
            let order = Arc::clone(&order);
            pool.spawn(move || order.lock().unwrap().push("waiting"));
        }
        go_tx.send(()).unwrap();
        done_rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(*order.lock().unwrap(), vec!["waiting", "yielded"]);
    }

    #[test]
    fn shared_pool_is_a_singleton() {
        let a = shared() as *const WorkerPool;
        let b = configure_shared(3) as *const WorkerPool;
        assert_eq!(a, b, "configure after first use returns the same pool");
        assert!(shared().threads() >= 1);
    }
}
