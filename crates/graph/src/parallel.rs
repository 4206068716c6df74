//! The parallelism knob shared by the pipeline's sharded stages.
//!
//! Candidate generation (`ec-replace`), structure-partition materialization
//! and pivot-path search (`ec-grouping`) all shard their work across the
//! shared worker pool.
//! [`Parallelism`] is the single configuration value they consult: a fixed
//! thread count, or *auto* — resolved once per process from the `EC_THREADS`
//! environment variable when set, otherwise from
//! [`std::thread::available_parallelism`].
//!
//! Every sharded stage is required to produce **bit-identical output** for
//! every `Parallelism` value; the knob only trades wall-clock time for cores.

use crate::pool::PoolTask;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Environment variable consulted by [`Parallelism::AUTO`].
pub const EC_THREADS_ENV: &str = "EC_THREADS";

/// Upper clamp for auto-resolved thread counts; explicit settings may exceed
/// it.
const MAX_AUTO_THREADS: usize = 8;

/// Number of worker threads a sharded stage may use.
///
/// The inner value is the configured thread count, with `0` meaning *auto*
/// (resolved on first use from `EC_THREADS` or the machine). Constructed via
/// [`Parallelism::AUTO`], [`Parallelism::SEQUENTIAL`] or
/// [`Parallelism::fixed`]; `From<usize>` maps `0` to auto, which is what the
/// CLI's `--threads 0` default relies on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Parallelism(usize);

impl Parallelism {
    /// Resolve the thread count on first use: `EC_THREADS` when set and
    /// valid, otherwise the machine's available parallelism (clamped to 8).
    /// The answer is kept for the rest of the process, the same way the
    /// shared pool is sized once.
    pub const AUTO: Parallelism = Parallelism(0);

    /// Exactly one thread: the sharded stages run their plain sequential
    /// code paths with no worker threads spawned.
    pub const SEQUENTIAL: Parallelism = Parallelism(1);

    /// Exactly `n` threads (`n` is clamped to at least 1).
    pub fn fixed(n: usize) -> Self {
        Parallelism(n.max(1))
    }

    /// The resolved thread count (always at least 1).
    pub fn threads(self) -> usize {
        if self.0 > 0 {
            return self.0;
        }
        static AUTO_THREADS: OnceLock<usize> = OnceLock::new();
        *AUTO_THREADS.get_or_init(|| {
            std::env::var(EC_THREADS_ENV)
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok())
                .filter(|&n| n > 0)
                .unwrap_or_else(|| {
                    std::thread::available_parallelism()
                        .map(|n| n.get())
                        .unwrap_or(1)
                        .clamp(1, MAX_AUTO_THREADS)
                })
        })
    }

    /// The number of shards to split `items` units of work into: the resolved
    /// thread count, but never more shards than items and never zero.
    pub fn shards(self, items: usize) -> usize {
        self.threads().min(items).max(1)
    }

    /// Runs one task per shard and returns the results in task order.
    ///
    /// Zero or one task runs inline on the calling thread; larger batches run
    /// on the process-wide FIFO pool ([`crate::pool::shared`])
    /// instead of spawning scoped threads per call. The number of pool
    /// workers is independent of this `Parallelism` value — the knob decides
    /// how many *shards* a stage cuts its work into, and since every sharded
    /// stage is bit-identical for any shard count, sharing one pool across
    /// stages (and server connections) never changes results.
    pub fn run_tasks<R: Send + 'static>(self, tasks: Vec<PoolTask<R>>) -> Vec<R> {
        if tasks.len() <= 1 {
            return tasks.into_iter().map(|t| t()).collect();
        }
        crate::pool::shared().run(tasks)
    }

    /// Maps `f` over `items` and returns the results in item order. Up to
    /// [`Parallelism::shards`] pool tasks each claim the next unclaimed item
    /// until none is left, so one slow item holds up only its own task.
    /// Which task ran an item cannot show in the output: it is the same at
    /// every thread count.
    pub fn map_claimed<T, R, F>(self, items: &Arc<Vec<T>>, f: F) -> Vec<R>
    where
        T: Send + Sync + 'static,
        R: Send + 'static,
        F: Fn(&T) -> R + Send + Sync + 'static,
    {
        let (next, f) = (Arc::new(AtomicUsize::new(0)), Arc::new(f));
        let tasks: Vec<PoolTask<Vec<(usize, R)>>> = (0..self.shards(items.len()))
            .map(|_| {
                let (items, next, f) = (Arc::clone(items), Arc::clone(&next), Arc::clone(&f));
                Box::new(move || {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else {
                            break done;
                        };
                        done.push((i, f(item)));
                    }
                }) as PoolTask<_>
            })
            .collect();
        let mut done: Vec<(usize, R)> = self.run_tasks(tasks).into_iter().flatten().collect();
        done.sort_unstable_by_key(|&(i, _)| i);
        done.into_iter().map(|(_, r)| r).collect()
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism::AUTO
    }
}

impl From<usize> for Parallelism {
    /// `0` means auto; anything else is a fixed thread count.
    fn from(n: usize) -> Self {
        Parallelism(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_counts_resolve_to_themselves() {
        assert_eq!(Parallelism::fixed(4).threads(), 4);
        assert_eq!(Parallelism::fixed(0).threads(), 1, "fixed clamps to 1");
        assert_eq!(Parallelism::SEQUENTIAL.threads(), 1);
    }

    #[test]
    fn shards_never_exceed_items_and_never_vanish() {
        let p = Parallelism::fixed(8);
        assert_eq!(p.shards(3), 3);
        assert_eq!(p.shards(100), 8);
        assert_eq!(p.shards(0), 1);
    }

    #[test]
    fn map_claimed_returns_item_order_at_every_thread_count() {
        let items = Arc::new((0..64u64).collect::<Vec<_>>());
        let expected: Vec<u64> = items.iter().map(|x| x * x).collect();
        // Slow items keep every task claiming, so the claims interleave.
        let square = |x: &u64| {
            std::thread::sleep(std::time::Duration::from_micros(500));
            x * x
        };
        for threads in [1, 2, 3, 8] {
            let squares = Parallelism::fixed(threads).map_claimed(&items, square);
            assert_eq!(squares, expected, "{threads} threads");
        }
        let none = Parallelism::fixed(4).map_claimed(&Arc::new(Vec::<u64>::new()), |x| x + 1);
        assert!(none.is_empty());
    }

    #[test]
    fn auto_resolves_to_at_least_one_thread() {
        assert!(Parallelism::AUTO.threads() >= 1);
        assert_eq!(Parallelism::default(), Parallelism::AUTO);
        assert_eq!(Parallelism::from(0), Parallelism::AUTO);
        assert_eq!(Parallelism::from(3), Parallelism::fixed(3));
    }
}
