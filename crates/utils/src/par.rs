//! Deterministic fork/join helper built on scoped threads.
//!
//! Work items are claimed from a shared atomic counter (so a slow item does
//! not stall the items behind it) and every worker tags its results with the
//! item index; the caller gets results back in *input order* regardless of
//! which thread ran what when. That index-ordered merge is what makes the
//! staged per-unit analysis and the batch driver independent of `--jobs`.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Applies `f` to every item, using up to `jobs` worker threads, and returns
/// the results in input order. With `jobs <= 1` (or a single item) this runs
/// inline on the caller's thread — no thread is ever spawned for nothing.
///
/// `f` must be deterministic in `(index, item)`; the scheduler guarantees
/// only that each item runs exactly once, not on which thread.
pub fn run_indexed<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    run_indexed_interruptible(jobs, items, || false, f)
        .into_iter()
        .map(|r| r.expect("uninterrupted run completes every item"))
        .collect()
}

/// [`run_indexed`] with graceful-shutdown support: `stop` is polled before
/// each item is *claimed*. Once it returns `true`, no new items start, but
/// items already in flight run to completion (drain semantics) — so a slot
/// is either the item's full result or `None`, never a half-result. The
/// returned vector always has one slot per input item, in input order.
pub fn run_indexed_interruptible<T, R, F, S>(
    jobs: usize,
    items: &[T],
    stop: S,
    f: F,
) -> Vec<Option<R>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
    S: Fn() -> bool + Sync,
{
    let n = items.len();
    let workers = jobs.min(n);
    if workers <= 1 {
        let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
        for (i, t) in items.iter().enumerate() {
            slots.push((!stop()).then(|| f(i, t)));
        }
        return slots;
    }

    let next = AtomicUsize::new(0);
    // A worker panic is re-raised *on the calling thread* with its original
    // payload, so callers that isolate faults (the unit loop's
    // `catch_unwind`) see exactly the panic the work item raised.
    let scoped = crossbeam::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|_| {
                    let mut done = Vec::new();
                    loop {
                        if stop() {
                            break;
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        done.push((i, f(i, &items[i])));
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join())
            .collect::<Result<Vec<_>, _>>()
    });
    let per_worker: Vec<Vec<(usize, R)>> = match scoped {
        Ok(Ok(batches)) => batches,
        Ok(Err(payload)) | Err(payload) => std::panic::resume_unwind(payload),
    };

    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for batch in per_worker {
        for (i, r) in batch {
            debug_assert!(slots[i].is_none(), "item {i} claimed twice");
            slots[i] = Some(r);
        }
    }
    slots
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..100).collect();
        for jobs in [1, 2, 7] {
            let out = run_indexed(jobs, &items, |i, &x| {
                assert_eq!(i, x);
                x * 2
            });
            assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_input() {
        let out: Vec<u32> = run_indexed(4, &[] as &[u32], |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn stop_skips_unclaimed_items_but_keeps_slots() {
        use std::sync::atomic::AtomicBool;
        let items: Vec<usize> = (0..10).collect();
        // Sequential path: stop after item 3 completes, deterministically.
        let stop = AtomicBool::new(false);
        let out = run_indexed_interruptible(
            1,
            &items,
            || stop.load(Ordering::Relaxed),
            |i, &x| {
                if i == 3 {
                    stop.store(true, Ordering::Relaxed);
                }
                x * 2
            },
        );
        assert_eq!(out.len(), 10);
        assert_eq!(out[..4], [Some(0), Some(2), Some(4), Some(6)]);
        assert!(out[4..].iter().all(Option::is_none));
    }

    #[test]
    fn stop_before_start_skips_everything() {
        let items: Vec<usize> = (0..5).collect();
        for jobs in [1, 3] {
            let out = run_indexed_interruptible(jobs, &items, || true, |_, &x| x);
            assert_eq!(out.len(), 5);
            assert!(out.iter().all(Option::is_none));
        }
    }
}
