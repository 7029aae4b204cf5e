//! The one thread primitive for CPU-bound batch work: the scoped
//! [`fan_out`], for one-shot trial fan-outs whose results must land in
//! input order (the experiment harness in `udc-bench` and the
//! `udc-chaos` sweeps build on it).
//!
//! The deterministic [`crate::system::System`] is the actor executor;
//! `fan_out` exists for workloads that want raw parallelism and do not
//! need deterministic interleaving.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

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

#[cfg(test)]
mod tests {
    use super::*;

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
