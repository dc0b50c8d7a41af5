//! A deterministic thread pool for the simulation fleet.
//!
//! Discrete-event time-sync experiments are embarrassingly parallel
//! across independent seeded trials: every figure, ablation arm, tuner
//! grid point, and multi-seed average owns its own `SimRng` stream and
//! touches no shared mutable state. This module supplies the in-tree
//! substrate that fans those trials out over OS threads (the workspace
//! is hermetic — no rayon) while keeping one hard guarantee:
//!
//! > **Bit-identical output.** [`Pool::map`] preserves input order and
//! > every task is a pure function of its input, so the assembled output
//! > is byte-for-byte the same `Vec` the serial loop would produce, for
//! > any worker count and any interleaving.
//!
//! ## Scheduling
//!
//! One shared queue: the input's `enumerate()` behind a mutex. A worker
//! holds the lock only to take the next `(index, item)` and runs the
//! item outside it, so one slow item delays only itself while the other
//! workers drain the rest. The results are sorted back by index. Every
//! caller hands the pool a few dozen coarse trials at most, so one lock
//! per item is noise next to the work.
//!
//! ## Worker count
//!
//! [`Pool::from_env`] honors the `MNTP_JOBS` environment variable and
//! falls back to [`std::thread::available_parallelism`]. `jobs = 1` (or
//! at most one item) runs the serial loop inline on the caller's thread
//! — no threads are spawned, so `MNTP_JOBS=1` *is* the serial baseline
//! the equivalence tests compare against.

use std::sync::{Mutex, PoisonError};

/// A pool handle: just a worker count. Workers are scoped
/// `std::thread`s spawned per call (the tasks may borrow from the
/// caller's stack), so a `Pool` is cheap to construct and carries no OS
/// resources while idle.
#[derive(Clone, Copy, Debug)]
pub struct Pool {
    jobs: usize,
}

impl Pool {
    /// A pool with exactly `jobs` workers (clamped to at least 1).
    pub fn with_jobs(jobs: usize) -> Pool {
        Pool { jobs: jobs.max(1) }
    }

    /// A pool sized from the environment: `MNTP_JOBS` if set to a
    /// positive integer, otherwise [`std::thread::available_parallelism`]
    /// (and 1 if even that fails).
    pub fn from_env() -> Pool {
        if let Ok(v) = std::env::var("MNTP_JOBS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n >= 1 {
                    return Pool::with_jobs(n);
                }
            }
            eprintln!("warning: ignoring invalid MNTP_JOBS={v:?} (want a positive integer)");
        }
        Pool::with_jobs(std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
    }

    /// The worker count this pool dispatches over.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Order-preserving parallel map: `map(items, f)` returns exactly
    /// `items.into_iter().map(f).collect()`, computed by up to
    /// [`Pool::jobs`] workers. Panics in `f` propagate to the caller.
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        if self.jobs == 1 || items.len() <= 1 {
            return items.into_iter().map(f).collect();
        }
        let workers = self.jobs.min(items.len());
        let queue = Mutex::new(items.into_iter().enumerate());
        let (queue, f) = (&queue, &f);
        let mut done: Vec<(usize, R)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(move || {
                        let mut out = Vec::new();
                        loop {
                            // The guard drops at the end of this
                            // statement: the item runs unlocked. Only
                            // `next()` runs under the lock and it cannot
                            // panic, so a poisoned lock is still whole.
                            let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
                            let Some((i, item)) = next else { break };
                            out.push((i, f(item)));
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| match h.join() {
                    Ok(out) => out,
                    // Re-raise the worker's own payload so callers see
                    // the original panic, not a pool-flavored wrapper.
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect()
        });
        // Output order is input order, whichever worker ran what: this
        // is the bit-identical guarantee.
        done.sort_unstable_by_key(|&(i, _)| i);
        done.into_iter().map(|(_, r)| r).collect()
    }

    /// Order-preserving map over borrowed items.
    pub fn map_ref<'a, T, R, F>(&self, items: &'a [T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&'a T) -> R + Sync,
    {
        self.map(items.iter().collect(), f)
    }

    /// Run a set of *heterogeneous* one-shot tasks (each its own boxed
    /// closure) and return their results in task order. This is the
    /// fan-out used by `repro`, where every figure pipeline is a
    /// different closure type; same-typed work calls [`Pool::map`].
    pub fn invoke<'scope, R: Send>(
        &self,
        tasks: Vec<Box<dyn FnOnce() -> R + Send + 'scope>>,
    ) -> Vec<R> {
        self.map(tasks, |task| task())
    }

    /// Run two closures, potentially in parallel, returning both results.
    pub fn join<A, B, FA, FB>(&self, fa: FA, fb: FB) -> (A, B)
    where
        A: Send,
        B: Send,
        FA: FnOnce() -> A + Send,
        FB: FnOnce() -> B + Send,
    {
        if self.jobs == 1 {
            return (fa(), fb());
        }
        std::thread::scope(|s| {
            let hb = s.spawn(fb);
            let a = fa();
            match hb.join() {
                Ok(b) => (a, b),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn map_preserves_order_and_values() {
        for jobs in [1, 2, 3, 8, 32] {
            let pool = Pool::with_jobs(jobs);
            let out = pool.map((0..100u64).collect(), |x| x * x);
            assert_eq!(out, (0..100u64).map(|x| x * x).collect::<Vec<_>>(), "jobs={jobs}");
        }
    }

    #[test]
    fn map_matches_serial_with_uneven_work() {
        // Heavily skewed task costs: the shared queue must still cover
        // every index exactly once, and order must survive.
        let serial: Vec<u64> = (0..57u64).map(busy).collect();
        for jobs in [2, 5, 16] {
            let pool = Pool::with_jobs(jobs);
            assert_eq!(pool.map((0..57u64).collect(), busy), serial, "jobs={jobs}");
        }
    }

    fn busy(x: u64) -> u64 {
        // Index 0 is ~10_000x the work of the rest — the pathological
        // case for one-shot chunking.
        let spins = if x == 0 { 200_000 } else { 20 };
        let mut acc = x;
        for i in 0..spins {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(acc);
        x * 3 + 1
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let count = AtomicUsize::new(0);
        let pool = Pool::with_jobs(7);
        let out = pool.map((0..501usize).collect(), |i| {
            count.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(count.load(Ordering::Relaxed), 501);
        assert_eq!(out, (0..501).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let pool = Pool::with_jobs(4);
        assert_eq!(pool.map(Vec::<u8>::new(), |x| x), Vec::<u8>::new());
        assert_eq!(pool.map(vec![9u8], |x| x + 1), vec![10]);
    }

    #[test]
    fn more_workers_than_items() {
        let pool = Pool::with_jobs(64);
        assert_eq!(pool.map((0..5u32).collect(), |x| x + 1), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn map_ref_borrows() {
        let items: Vec<String> = (0..20).map(|i| format!("s{i}")).collect();
        let pool = Pool::with_jobs(4);
        let out = pool.map_ref(&items, |s| s.len());
        assert_eq!(out, items.iter().map(|s| s.len()).collect::<Vec<_>>());
    }

    #[test]
    fn invoke_heterogeneous_tasks_in_order() {
        let pool = Pool::with_jobs(3);
        let x = 41u64;
        let tasks: Vec<Box<dyn FnOnce() -> u64 + Send>> = vec![
            Box::new(move || x + 1),
            Box::new(|| busy(7)),
            Box::new(|| 0),
        ];
        assert_eq!(pool.invoke(tasks), vec![42, 22, 0]);
    }

    #[test]
    fn join_returns_both() {
        for jobs in [1, 2] {
            let pool = Pool::with_jobs(jobs);
            let (a, b) = pool.join(|| busy(3), || "right");
            assert_eq!((a, b), (10, "right"));
        }
    }

    #[test]
    fn with_jobs_clamps_to_one() {
        assert_eq!(Pool::with_jobs(0).jobs(), 1);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        let pool = Pool::with_jobs(2);
        pool.map((0..10u32).collect(), |i| {
            if i == 5 {
                panic!("boom");
            }
            i
        });
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::prop;
    use crate::{prop_assert_eq, props};

    props! {
        /// The pool's contract: for any input and any worker count, the
        /// output of `map`, `map_ref` and `invoke` is exactly the serial
        /// map.
        fn par_map_equals_serial_map(
            items in prop::vecs(prop::ints(-1000..1000), 0..80),
            jobs in prop::ints(1..9)
        ) {
            let serial: Vec<i64> = items.iter().map(|&x| x * 7 - 3).collect();
            let pool = Pool::with_jobs(jobs as usize);
            let out = pool.map(items.clone(), |x| x * 7 - 3);
            prop_assert_eq!(out, serial);
            prop_assert_eq!(pool.map_ref(&items, |&x| x * 7 - 3), serial);
            type Task = Box<dyn FnOnce() -> i64 + Send>;
            let tasks: Vec<Task> = items.iter().map(|&x| Box::new(move || x * 7 - 3) as Task).collect();
            prop_assert_eq!(pool.invoke(tasks), serial);
        }
    }
}
