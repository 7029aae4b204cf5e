//! Non-deterministic parallelism primitives for CPU-bound batch work:
//! a small crossbeam-based [`ThreadPool`] for long-lived pools, and the
//! scoped [`fan_out`] for one-shot trial fan-outs whose results must
//! land in input order (the primitive the experiment harness in
//! `udc-bench` builds on).
//!
//! The deterministic [`crate::system::System`] is the actor executor;
//! these helpers exist for workloads (experiment drivers, batch
//! analytics in examples) that want raw parallelism and do not need
//! deterministic interleaving.

use crossbeam::channel::{unbounded, Sender};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::JoinHandle;

/// Runs `f(0..trials)` across `threads` workers and returns the results
/// indexed by trial, exactly as a serial `(0..trials).map(f)` would.
///
/// Work is distributed by an atomic next-trial counter, so uneven trial
/// costs self-balance. With `threads <= 1` (or a single trial) no
/// threads are spawned and `f` runs inline on the caller's stack.
/// Determinism at any thread count is by construction: threads only
/// decide *who* computes a trial, never *what* it computes or where its
/// result lands.
pub fn fan_out<T, F>(threads: usize, trials: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if threads <= 1 || trials <= 1 {
        return (0..trials).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..trials).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads.min(trials) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= trials {
                    break;
                }
                let out = f(i);
                *slots[i].lock().expect("fan_out slot poisoned") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("fan_out slot poisoned")
                .expect("every trial fills its slot")
        })
        .collect()
}

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed-size worker pool. Dropping the pool joins all workers.
pub struct ThreadPool {
    tx: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    size: usize,
}

impl ThreadPool {
    /// Spawns `size` workers.
    ///
    /// # Panics
    ///
    /// Panics when `size` is zero.
    pub fn new(size: usize) -> Self {
        assert!(size > 0, "thread pool needs at least one worker");
        let (tx, rx) = unbounded::<Job>();
        let workers = (0..size)
            .map(|_| {
                let rx = rx.clone();
                std::thread::spawn(move || {
                    while let Ok(job) = rx.recv() {
                        job();
                    }
                })
            })
            .collect();
        Self {
            tx: Some(tx),
            workers,
            size,
        }
    }

    /// Number of worker threads.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Submits a job.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        self.tx
            .as_ref()
            .expect("pool is alive while tx is Some")
            .send(Box::new(job))
            .expect("workers outlive the sender");
    }

    /// Runs `f` over every item of `items` in parallel and returns the
    /// results in input order.
    ///
    /// Items are submitted in contiguous chunks — a few per worker so
    /// uneven chunk costs still balance — rather than one job per item:
    /// per-item submission costs one box allocation plus two channel
    /// crossings, which dominates wall-clock for cheap `f` (the original
    /// shape regressed ~6× on a trivial map at 8 workers).
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send + 'static,
        R: Send + 'static,
        F: Fn(T) -> R + Send + Sync + 'static,
    {
        use std::sync::Arc;
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        // ~4 chunks per worker: granular enough to self-balance, coarse
        // enough that submission overhead is amortized across the chunk.
        let chunk = n.div_ceil(self.size * 4).max(1);
        let f = Arc::new(f);
        let (rtx, rrx) = unbounded::<(usize, Vec<R>)>();
        let mut start = 0usize;
        let mut items = items.into_iter();
        let mut jobs = 0usize;
        while start < n {
            let batch: Vec<T> = items.by_ref().take(chunk).collect();
            let len = batch.len();
            let f = Arc::clone(&f);
            let rtx = rtx.clone();
            self.execute(move || {
                let out: Vec<R> = batch.into_iter().map(|x| f(x)).collect();
                let _ = rtx.send((start, out));
            });
            start += len;
            jobs += 1;
        }
        drop(rtx);
        let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
        for _ in 0..jobs {
            let (at, out) = rrx.recv().expect("every chunk sends one result");
            for (off, r) in out.into_iter().enumerate() {
                slots[at + off] = Some(r);
            }
        }
        slots.into_iter().map(|s| s.expect("filled")).collect()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Close the channel so workers drain and exit, then join.
        self.tx = None;
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn executes_jobs() {
        let pool = ThreadPool::new(4);
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..100 {
            let c = Arc::clone(&counter);
            pool.execute(move || {
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        drop(pool); // Joins workers.
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn map_preserves_order() {
        let pool = ThreadPool::new(8);
        let out = pool.map((0..1000).collect::<Vec<u64>>(), |x| x * x);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i * i) as u64);
        }
    }

    #[test]
    fn map_handles_uneven_final_chunk() {
        // Sizes chosen to leave a short final chunk (and some where the
        // chunk size exceeds the remainder) at several worker counts.
        for workers in [1, 3, 8] {
            let pool = ThreadPool::new(workers);
            for n in [1usize, 2, 7, 31, 33, 97, 129] {
                let out = pool.map((0..n as u64).collect::<Vec<_>>(), |x| x + 1);
                let want: Vec<u64> = (1..=n as u64).collect();
                assert_eq!(out, want, "workers={workers} n={n}");
            }
        }
    }

    #[test]
    fn map_order_survives_reversed_cost_profile() {
        // Early items are the slow ones, so later chunks finish first
        // and results arrive out of submission order.
        let pool = ThreadPool::new(4);
        let out = pool.map((0..200u64).collect::<Vec<_>>(), |x| {
            if x < 8 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            x * 3
        });
        assert_eq!(out, (0..200u64).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn map_empty_input() {
        let pool = ThreadPool::new(2);
        let out: Vec<u32> = pool.map(Vec::<u32>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        let _ = ThreadPool::new(0);
    }

    #[test]
    fn fan_out_results_arrive_in_trial_order_at_any_thread_count() {
        let serial = fan_out(1, 40, |i| i * i);
        for threads in [2, 4, 8] {
            assert_eq!(fan_out(threads, 40, |i| i * i), serial);
        }
    }

    #[test]
    fn fan_out_more_threads_than_trials_is_fine() {
        assert_eq!(fan_out(16, 3, |i| i), vec![0, 1, 2]);
        assert_eq!(fan_out(8, 0, |i| i), Vec::<usize>::new());
    }
}
