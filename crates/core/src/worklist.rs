//! The atomic worklist Phase II and Phase III share.
//!
//! Phase II's instance builds and region solves, and Phase III's pass-2
//! trials, are independent per-region jobs. [`map_worklist`] hands them to
//! a scoped pool of `threads` workers that pop the next unclaimed item from
//! an atomic counter, so one pathological region cannot idle the rest of
//! the pool. Each worker owns one scratch value reused across every item
//! it pops. Results come back in item order, so callers see the same
//! output for every thread count and pop interleaving.

use crate::Result;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Worklists shorter than this run inline on the caller's thread:
/// spawning workers costs more than the jobs they would share.
const MIN_PARALLEL_ITEMS: usize = 32;

/// Resolves a thread-count request (`0` = available parallelism).
fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    }
}

/// Maps `f` over `items`, moving each item out exactly once, and returns
/// the results in item order. `threads = 0` uses the available
/// parallelism; one thread, or fewer than 32 items, runs inline with a
/// single scratch.
///
/// # Errors
///
/// The first error `f` returns. On the parallel path each worker stops at
/// its own first error, and the other workers drain what is left.
pub(crate) fn map_worklist<T, U, S, M, F>(
    items: Vec<T>,
    threads: usize,
    make_scratch: M,
    f: F,
) -> Result<Vec<U>>
where
    T: Send,
    U: Send,
    M: Fn() -> S + Sync,
    F: Fn(T, &mut S) -> Result<U> + Sync,
{
    // Short lists run inline without asking the OS for its parallelism.
    if items.len() < MIN_PARALLEL_ITEMS || resolve_threads(threads) <= 1 {
        let mut scratch = make_scratch();
        return items
            .into_iter()
            .map(|item| f(item, &mut scratch))
            .collect();
    }
    let total = items.len();
    let mut out: Vec<Option<U>> = (0..total).map(|_| None).collect();
    for done in drain_worklist(items, resolve_threads(threads), make_scratch, f) {
        for (i, u) in done? {
            out[i] = Some(u);
        }
    }
    Ok(out
        .into_iter()
        // invariant: the atomic counter hands each index to one worker,
        // and every worker either maps its items or returned an error above.
        .map(|u| u.expect("every item is mapped exactly once"))
        .collect())
}

/// Runs `f` over `items` on `workers` scoped threads draining an atomic
/// worklist. Each worker returns its results tagged with the item index.
fn drain_worklist<T, U, S, M, F>(
    items: Vec<T>,
    workers: usize,
    make_scratch: M,
    f: F,
) -> Vec<Result<Vec<(usize, U)>>>
where
    T: Send,
    U: Send,
    M: Fn() -> S + Sync,
    F: Fn(T, &mut S) -> Result<U> + Sync,
{
    // Each cell is locked exactly once (by whichever worker pops its
    // index), so the mutexes are contention-free ownership transfer, not
    // synchronization.
    let cells: Vec<Mutex<Option<T>>> = items.into_iter().map(|w| Mutex::new(Some(w))).collect();
    let next = AtomicUsize::new(0);
    let workers = workers.min(cells.len()).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut scratch = make_scratch();
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(cell) = cells.get(i) else { break };
                        // invariant: a cell is poisoned only if another
                        // worker panicked (propagated below anyway), and
                        // the atomic counter hands each index out once.
                        let item = cell
                            .lock()
                            .expect("worklist cell poisoned")
                            .take()
                            .expect("each index is claimed once");
                        done.push((i, f(item, &mut scratch)?));
                    }
                    Ok(done)
                })
            })
            .collect();
        handles
            .into_iter()
            // invariant: re-raise a worker panic on the caller's thread
            // rather than swallowing it into a mangled result set.
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CoreError;

    #[test]
    fn an_error_is_returned_on_both_paths() {
        for (threads, len) in [(1, 200), (2, 10), (2, 200)] {
            let items: Vec<u32> = (0..len).collect();
            let result = map_worklist(
                items,
                threads,
                || (),
                |x, _| {
                    if x == 7 {
                        Err(CoreError::Canceled { phase: "test" })
                    } else {
                        Ok(x)
                    }
                },
            );
            assert!(
                matches!(result, Err(CoreError::Canceled { .. })),
                "threads {threads} len {len}"
            );
        }
    }
}
