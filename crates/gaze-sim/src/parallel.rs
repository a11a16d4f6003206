//! A dependency-free parallel map for the experiment engine.
//!
//! The evaluation is embarrassingly parallel — every (trace × prefetcher)
//! simulation is independent — but the build environment has no access to a
//! crate registry, so instead of rayon this module provides a small
//! work-stealing `parallel_map` on `std::thread::scope`: workers pull indices
//! from a shared atomic counter and write results into their own slots, so
//! the output order (and therefore every downstream report) is deterministic
//! regardless of scheduling.
//!
//! The worker count comes from `std::thread::available_parallelism`, capped
//! by the `GAZE_THREADS` environment variable (`GAZE_THREADS=1` forces the
//! serial path, which the determinism tests use as the reference).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of worker threads the engine will use.
pub fn worker_count() -> usize {
    let available = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    match std::env::var("GAZE_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        Some(n) if n >= 1 => n, // explicit override wins
        _ => available,
    }
}

/// Applies `f` to every item, using up to [`worker_count`] threads, and
/// returns the results in input order.
///
/// `f` runs concurrently on shared references; results are moved back to the
/// caller's thread. Panics in a worker propagate to the caller.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    // Fewer than two items never need a worker, nor the worker count.
    let threads = match items.len() {
        0 | 1 => 1,
        n => worker_count().min(n),
    };
    if threads <= 1 {
        return items.iter().map(&f).collect();
    }

    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<R>>> = Mutex::new((0..items.len()).map(|_| None).collect());

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                if idx >= items.len() {
                    break;
                }
                let r = f(&items[idx]);
                results.lock().expect("result lock poisoned")[idx] = Some(r);
            });
        }
    });

    results
        .into_inner()
        .expect("result lock poisoned")
        .into_iter()
        .map(|r| r.expect("worker filled every slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_keep_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map(&items, |&x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_inputs_work() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(&empty, |&x| x).is_empty());
        assert_eq!(parallel_map(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn worker_count_is_at_least_one() {
        assert!(worker_count() >= 1);
    }

    #[test]
    fn heavier_closures_still_map_correctly() {
        let items: Vec<u64> = (0..32).collect();
        let out = parallel_map(&items, |&x| {
            // Enough work to force real interleaving.
            let mut acc = x;
            for i in 0..10_000u64 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            (x, acc)
        });
        for (i, (x, _)) in out.iter().enumerate() {
            assert_eq!(*x, i as u64);
        }
    }
}
