//! The one worker pool every grid runner shares: the sweep's
//! [`run_sweep`](crate::run_sweep) and the serve layer's `run_serve`
//! both hand their grid points to [`run_pool`].
//!
//! # Determinism
//!
//! Workers claim items by atomic index and may finish them in any
//! order, but every result is put back at its item's position, so the
//! output order is the input order whatever the worker count. A runner
//! whose per-item work is a pure function of the item therefore
//! produces the same results — and the same report bytes — on 1 worker
//! or N.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// A reasonable worker count for the local machine, capped so the quick
/// grids do not oversubscribe CI runners.
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(8)
}

/// The pool size [`run_pool`] actually runs: the requested count
/// clamped to `1..=items` (at least one worker, never more workers
/// than items).
pub fn pool_size(requested: usize, items: usize) -> usize {
    requested.clamp(1, items.max(1))
}

/// What [`run_pool`] hands back.
#[derive(Debug)]
pub struct Pooled<R> {
    /// One result per item, in item order.
    pub results: Vec<R>,
    /// Wall-clock nanoseconds each item's work took, in item order.
    /// Measured — never feed these into anything that must be
    /// reproducible.
    pub nanos: Vec<u64>,
    /// The effective worker count ([`pool_size`] of the request).
    pub workers: usize,
}

/// Runs `work` on every item over [`pool_size`]`(workers, items.len())`
/// scoped threads and returns the results in item order, with one
/// wall-clock time per item.
///
/// Always spawns its workers, even for one, so single- and multi-worker
/// runs take the same code path. A panic in `work` propagates to the
/// caller.
pub fn run_pool<T, R, F>(items: &[T], workers: usize, work: F) -> Pooled<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = pool_size(workers, items.len());
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<(R, u64)>> = items.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break done };
                        let start = Instant::now();
                        let result = work(item);
                        done.push((i, result, start.elapsed().as_nanos() as u64));
                    }
                })
            })
            .collect();
        for handle in handles {
            let done = handle.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            for (i, result, nanos) in done {
                slots[i] = Some((result, nanos));
            }
        }
    });
    let (results, nanos) =
        slots.into_iter().map(|slot| slot.expect("every item was claimed")).unzip();
    Pooled { results, nanos, workers }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;
    use std::time::Duration;

    #[test]
    fn pool_clamps_workers_and_keeps_item_order() {
        // item 0 is claimed first but cannot finish until every other
        // item has, so completion order is never item order
        let items: Vec<usize> = (0..4).collect();
        let finished = AtomicUsize::new(0);
        let completion = Mutex::new(Vec::new());
        let pooled = run_pool(&items, 64, |&i| {
            if i == 0 {
                while finished.load(Ordering::Acquire) < items.len() - 1 {
                    std::thread::yield_now();
                }
            } else {
                std::thread::sleep(Duration::from_millis(2));
            }
            completion.lock().unwrap().push(i);
            finished.fetch_add(1, Ordering::Release);
            i * 10
        });
        assert_eq!(pooled.workers, 4, "64 requested workers clamp to the 4 items");
        assert_eq!(completion.into_inner().unwrap().last(), Some(&0), "item 0 finished last");
        assert_eq!(pooled.results, vec![0, 10, 20, 30], "results come back in item order");
        assert_eq!(pooled.nanos.len(), items.len(), "one clock per item");
        for &nanos in &pooled.nanos[1..] {
            assert!(nanos >= 2_000_000, "each clock brackets its own item's work: {nanos}");
        }

        let one = run_pool(&items, 1, |&i| i);
        assert_eq!((one.workers, one.results), (1, items.clone()));
        assert_eq!(run_pool(&items, 0, |&i| i).workers, 1, "at least one worker");
        let empty = run_pool(&[] as &[usize], 8, |&i| i);
        assert!(empty.results.is_empty() && empty.nanos.is_empty());
        assert_eq!(empty.workers, 1);
    }
}
