//! A std-only scoped worker pool: chunked, order-preserving parallel map.
//!
//! Workers claim fixed-size chunks of the index space from an atomic cursor
//! (dynamic load balancing — campaign devices have very uneven costs:
//! a catastrophic-defect signature has few zones, a noisy one has many), and
//! results are reassembled in index order afterwards. Because the mapped
//! function receives only the item index, the output is bit-identical for
//! every thread count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use dsig_core::recover;

/// Default number of items claimed per worker visit to the queue.
pub const DEFAULT_CHUNK: usize = 16;

/// Applies `f` to every index in `0..n` across `threads` scoped workers and
/// returns the results in index order.
///
/// `f(i)` must depend only on `i` (not on shared mutable state); under that
/// contract the result vector is identical for every `threads` value,
/// including the serial `threads == 1` fast path.
pub fn parallel_map_indexed<T, F>(n: usize, threads: usize, chunk: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.max(1);
    let chunk = chunk.max(1);
    if threads == 1 || n <= chunk {
        return (0..n).map(f).collect();
    }

    let cursor = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, Vec<T>)>> = Mutex::new(Vec::with_capacity(n.div_ceil(chunk)));
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n.div_ceil(chunk)) {
            scope.spawn(|| loop {
                let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                if start >= n {
                    break;
                }
                let end = (start + chunk).min(n);
                let out: Vec<T> = (start..end).map(&f).collect();
                recover(done.lock()).push((start, out));
            });
        }
    });

    let mut chunks = recover(done.into_inner());
    chunks.sort_unstable_by_key(|&(start, _)| start);
    let mut results = Vec::with_capacity(n);
    for (_, mut part) in chunks {
        results.append(&mut part);
    }
    results
}

/// The number of hardware threads available to the process (at least 1).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_all_indices_in_order() {
        for threads in [1, 2, 3, 8] {
            for n in [0usize, 1, 5, 100, 1000] {
                let out = parallel_map_indexed(n, threads, 7, |i| i * i);
                assert_eq!(out.len(), n);
                assert!(
                    out.iter().enumerate().all(|(i, &v)| v == i * i),
                    "threads={threads} n={n}"
                );
            }
        }
    }

    #[test]
    fn results_are_identical_across_thread_counts() {
        let serial = parallel_map_indexed(257, 1, DEFAULT_CHUNK, |i| (i as u64).wrapping_mul(0x9E3779B9));
        for threads in [2, 4, 8] {
            let parallel = parallel_map_indexed(257, threads, DEFAULT_CHUNK, |i| (i as u64).wrapping_mul(0x9E3779B9));
            assert_eq!(serial, parallel);
        }
    }

    #[test]
    fn uneven_chunks_cover_the_tail() {
        let out = parallel_map_indexed(10, 4, 3, |i| i);
        assert_eq!(out, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn available_threads_is_positive() {
        assert!(available_threads() >= 1);
    }
}
