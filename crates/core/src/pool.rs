//! Scoped worker-pool helper shared by the SA engine and the DSE
//! drivers.
//!
//! One implementation of the "atomic work counter + slot vector +
//! `std::thread::scope`" pattern, so panic handling and result ordering
//! stay in sync across every parallel call site.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The host's available parallelism, or 1 when it cannot be queried:
/// what an automatic (`0`) thread count resolves to. The query reads
/// cgroup files on Linux (about 20 us), so a caller that fans work out
/// resolves it once rather than per item.
pub(crate) fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The SA thread count that an automatic (`0`) one resolves to for each
/// of `workers` parallel workers: 1 while several share the host (not
/// `workers x chains` threads), else the host's parallelism. The DSE
/// sweep and the campaign runner resolve it once, where they size their
/// fan-out, so that no SA run queries the host (results are unaffected:
/// the SA engine is bit-identical at any thread count).
pub(crate) fn sa_threads_for(workers: usize) -> usize {
    if workers > 1 {
        1
    } else {
        host_threads()
    }
}

/// Evaluates `f(0..n)` on up to `workers` scoped threads and returns
/// the results in index order.
///
/// `workers` is clamped to `1..=n`; with one worker the closure runs
/// inline on the caller's thread (no spawn overhead). Work is handed
/// out through an atomic counter, so long items do not convoy behind a
/// static partition. A panic inside `f` propagates to the caller when
/// the scope joins.
pub(crate) fn parallel_map_indexed<T, F>(workers: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    if workers.clamp(1, n) == 1 {
        return (0..n).map(f).collect();
    }
    let workers = workers.clamp(1, n);
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(i);
                slots
                    .lock()
                    .expect("a worker panicked holding the slot lock")[i] = Some(r);
            });
        }
    });
    slots
        .into_inner()
        .expect("slot lock poisoned")
        .into_iter()
        .map(|r| r.expect("every index visited"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workers_get_a_resolved_sa_thread_count() {
        // A lone worker maps with every core, parallel workers with one
        // chain thread each; never the automatic 0.
        assert!(host_threads() >= 1);
        assert_eq!(sa_threads_for(1), host_threads());
        assert_eq!(sa_threads_for(2), 1);
        assert_eq!(sa_threads_for(usize::MAX), 1);
    }

    #[test]
    fn results_are_in_index_order() {
        for workers in [1, 2, 3, 17] {
            let out = parallel_map_indexed(workers, 10, |i| i * i);
            assert_eq!(out, (0..10).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_and_oversized_worker_counts() {
        assert_eq!(parallel_map_indexed(4, 0, |i| i), Vec::<usize>::new());
        assert_eq!(parallel_map_indexed(0, 3, |i| i), vec![0, 1, 2]);
        assert_eq!(parallel_map_indexed(100, 2, |i| i), vec![0, 1]);
    }

    #[test]
    fn every_index_runs_exactly_once() {
        use std::sync::atomic::AtomicU32;
        let counts: Vec<AtomicU32> = (0..64).map(|_| AtomicU32::new(0)).collect();
        let _ = parallel_map_indexed(8, 64, |i| counts[i].fetch_add(1, Ordering::Relaxed));
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "index {i}");
        }
    }
}
