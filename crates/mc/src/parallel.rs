//! Parallel synthesis driver.
//!
//! The MC pipeline is embarrassingly parallel at two levels: the cover
//! search of each excitation function is independent of every other
//! function's, and whole benchmarks are independent of each other. This
//! module exploits both with nothing but `std::thread::scope` — no
//! external thread-pool dependency — while keeping results byte-identical
//! to the sequential path: work items are claimed off a shared atomic
//! counter, but every result is written back to the slot of its item, so
//! the output order never depends on thread scheduling.

use simc_sg::{Dir, StateGraph};

use crate::cover::{McCheck, McReport};
use crate::error::McError;
use crate::synth::{build_from_report, Implementation, Target};

/// Maps `f` over `items` on up to `threads` OS threads, preserving input
/// order.
///
/// Work is distributed dynamically (an atomic next-item counter), so
/// uneven item costs — one hard cover search among many trivial ones — do
/// not idle whole threads. CPU-bound work gains nothing from more workers
/// than hardware threads, so the worker count is clamped to the machine's
/// available parallelism and to the item count; with one worker the map
/// runs inline with no thread spawned. The clamp never changes results,
/// only wall-clock.
///
/// # Panics
///
/// Propagates the first worker panic.
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = threads.min(hw).clamp(1, items.len().max(1));
    if threads == 1 {
        return items.iter().map(f).collect();
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut claimed = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if i >= items.len() {
                            return claimed;
                        }
                        claimed.push((i, f(&items[i])));
                    }
                })
            })
            .collect();
        for handle in handles {
            for (i, r) in handle.join().expect("synthesis worker panicked") {
                slots[i] = Some(r);
            }
        }
    });
    slots.into_iter().map(|r| r.expect("every item claimed")).collect()
}

/// Estimated work (roughly "state visits": states × functions) below
/// which a cover report runs inline whatever the thread count — a
/// trivial report costs a few microseconds, spawning and joining a
/// scoped pool costs tens.
const INLINE_REPORT_WORK: u64 = 4096;

/// A synthesis driver that fans independent cover searches across a
/// scoped thread pool.
///
/// All entry points produce results identical to their sequential
/// counterparts ([`McCheck::report`], [`synthesize`](crate::synth::synthesize))
/// for every thread count — parallelism changes wall-clock time only.
#[derive(Debug, Clone, Copy)]
pub struct ParallelSynth {
    threads: usize,
}

impl ParallelSynth {
    /// A driver using `threads` worker threads (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        ParallelSynth { threads: threads.max(1) }
    }

    /// The sequential driver (one thread, runs inline).
    pub fn sequential() -> Self {
        ParallelSynth::new(1)
    }

    /// A driver sized to the machine's available parallelism.
    pub fn available() -> Self {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        ParallelSynth::new(threads)
    }

    /// The configured thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// [`McCheck::report`] with the per-function cover searches — one per
    /// non-input signal and direction, each of which fans into per-ER MC
    /// cube searches — run concurrently.
    pub fn report(&self, check: &McCheck<'_>) -> McReport {
        let _span = simc_obs::span("cover");
        let functions: Vec<(simc_sg::SignalId, Dir)> = check
            .sg()
            .non_input_signals()
            .iter()
            .flat_map(|&a| [(a, Dir::Rise), (a, Dir::Fall)])
            .collect();
        // Each function's search walks the state set a bounded number of
        // times; states × functions approximates the total work well
        // enough to keep suite-sized reports inline.
        let work = check.sg().state_count() as u64 * functions.len() as u64;
        let threads = if work < INLINE_REPORT_WORK { 1 } else { self.threads };
        let entries = parallel_map(&functions, threads, |&(a, dir)| crate::cover::McEntry {
            signal: a,
            dir,
            result: check.function_cover(a, dir),
        });
        McReport::from_entries(entries)
    }

    /// [`synthesize`](crate::synth::synthesize) with the function covers
    /// computed concurrently.
    ///
    /// # Errors
    ///
    /// Same conditions as sequential synthesis: output semi-modularity and
    /// the MC requirement.
    pub fn synthesize(&self, sg: &StateGraph, target: Target) -> Result<Implementation, McError> {
        let _span = simc_obs::span("synth");
        if !sg.analysis().is_output_semimodular() {
            return Err(McError::NotOutputSemimodular);
        }
        build_from_report(sg, &self.report(&McCheck::new(sg)), target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simc_benchmarks::figures;

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<usize> = (0..100).collect();
        for threads in [1, 2, 3, 8] {
            let out = parallel_map(&items, threads, |&i| i * 2);
            assert_eq!(out, items.iter().map(|&i| i * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parallel_map_handles_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(&empty, 8, |&i| i).is_empty());
        assert_eq!(parallel_map(&[7u32], 8, |&i| i + 1), vec![8]);
    }

    #[test]
    fn parallel_report_matches_sequential() {
        for sg in [figures::toggle(), figures::c_element(), figures::figure1(), figures::figure3()] {
            let check = McCheck::new(&sg);
            let sequential = check.report();
            for threads in [1, 2, 8] {
                let parallel = ParallelSynth::new(threads).report(&check);
                assert_eq!(parallel, sequential, "{threads} threads");
            }
        }
    }

    #[test]
    fn parallel_synthesis_matches_sequential() {
        for sg in [figures::toggle(), figures::c_element(), figures::figure3()] {
            let sequential = crate::synth::synthesize(&sg, Target::CElement).unwrap();
            for threads in [1, 2, 8] {
                let parallel =
                    ParallelSynth::new(threads).synthesize(&sg, Target::CElement).unwrap();
                assert_eq!(parallel.equations(), sequential.equations());
            }
        }
    }

    #[test]
    fn parallel_synthesis_refuses_what_sequential_refuses() {
        let sg = figures::figure1();
        let err = ParallelSynth::new(4).synthesize(&sg, Target::CElement).unwrap_err();
        assert!(matches!(err, McError::NotMonotonous { .. }));
    }
}
