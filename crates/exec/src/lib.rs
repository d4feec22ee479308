//! Deterministic parallel execution for sampsim.
//!
//! Every replayable unit in the PinPoints flow — a regional pinball, a
//! shard of the whole-program profiling pass, a benchmark in a suite
//! sweep — is independent of its siblings, so the hot paths fan them out
//! over a worker pool. The non-negotiable contract is **bit-identical
//! results regardless of the job count**: parallelism may only change
//! wall-clock time, never a single output bit (the differential harness
//! in `tests/parallel_differential.rs` enforces this).
//!
//! Two rules make that hold:
//!
//! 1. **No shared mutable state.** Workers receive a shared `&` view of
//!    the inputs and build private outputs; anything stateful (RNG,
//!    cache models, BBV accumulators) is constructed per work item from
//!    a deterministic seed or checkpoint.
//! 2. **Reduction in item order.** [`parallel_map`] returns results
//!    indexed exactly like its input slice, so every downstream fold —
//!    including floating-point reductions, which are not associative —
//!    sees the same operand order a serial run would.
//!
//! The pool is a hand-rolled `std::thread::scope` work-stealing loop
//! rather than rayon: simulation results must be reproducible across
//! environments, and this build is fully self-contained (no external
//! crates), so the ~100 lines of pool are the whole dependency.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::num::NonZeroUsize;
use std::str::FromStr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Worker-count configuration for the parallel hot paths.
///
/// `Auto` resolves to the machine's available parallelism at the moment
/// [`Jobs::get`] is called; an explicit count pins the pool size. A
/// count of 1 (or a single-item workload) bypasses the pool entirely and
/// runs inline on the caller's thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Jobs {
    /// Use every hardware thread the host reports.
    #[default]
    Auto,
    /// Use exactly this many workers.
    N(NonZeroUsize),
}

/// A single worker: the serial reference configuration.
pub const SERIAL: Jobs = Jobs::N(NonZeroUsize::MIN);

impl Jobs {
    /// An explicit worker count.
    ///
    /// # Errors
    ///
    /// Returns an error message for a zero count.
    pub fn new(n: usize) -> Result<Self, String> {
        NonZeroUsize::new(n)
            .map(Jobs::N)
            .ok_or_else(|| "--jobs must be at least 1".to_string())
    }

    /// Resolves to a concrete worker count (at least 1).
    pub fn get(self) -> usize {
        match self {
            Jobs::Auto => std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1),
            Jobs::N(n) => n.get(),
        }
    }
}

impl FromStr for Jobs {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        if s == "auto" {
            return Ok(Jobs::Auto);
        }
        let n: usize = s
            .parse()
            .map_err(|_| format!("bad --jobs value: {s} (expected a count or 'auto')"))?;
        Jobs::new(n)
    }
}

impl fmt::Display for Jobs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Jobs::Auto => write!(f, "auto"),
            Jobs::N(n) => write!(f, "{n}"),
        }
    }
}

/// Maps `f` over `items` on up to `jobs` workers, returning results in
/// input order.
///
/// `f` receives the item index alongside the item so per-item labels and
/// seeds stay deterministic. Items are claimed from a shared atomic
/// counter (dynamic scheduling — a slow item does not stall its
/// neighbours), but the output vector is assembled by index, so callers
/// observe exactly the serial result order.
///
/// # Panics
///
/// Propagates the first worker panic (by join order) after all workers
/// have stopped.
pub fn parallel_map<T, R, F>(jobs: Jobs, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = jobs.get().min(items.len());
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            let f = &f;
            handles.push(scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let r = f(i, &items[i]);
                if tx.send((i, r)).is_err() {
                    break;
                }
            }));
        }
        drop(tx);
        let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
        for (i, r) in rx {
            slots[i] = Some(r);
        }
        // Join explicitly so a worker's own panic payload (an assertion
        // from the differential harness, say) surfaces instead of a
        // generic "missing result" message.
        for h in handles {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
        slots
            .into_iter()
            .map(|s| s.expect("every index produced a result"))
            .collect()
    })
}

/// Streaming [`parallel_map`]: maps `f` over `items` on up to `jobs`
/// workers and delivers each result to `sink` **in input order, as soon
/// as the ordered prefix is complete** — result `i` is delivered the
/// moment items `0..=i` have all finished, without waiting for the rest
/// of the batch.
///
/// This is the fan-out shape the fleet router's batch op needs: a suite
/// sweep streams per-benchmark reply lines back to the client while
/// later benchmarks are still executing, yet the line order is exactly
/// the serial order, so the byte stream is deterministic for every job
/// count. Out-of-order completions wait in a reorder buffer bounded by
/// the item count.
///
/// # Panics
///
/// Propagates the first worker panic (by join order) after all workers
/// have stopped; `sink` runs on the calling thread and may panic freely.
pub fn parallel_stream<T, R, F, S>(jobs: Jobs, items: &[T], f: F, mut sink: S)
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
    S: FnMut(usize, R),
{
    let workers = jobs.get().min(items.len());
    if workers <= 1 {
        for (i, t) in items.iter().enumerate() {
            sink(i, f(i, t));
        }
        return;
    }
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            let f = &f;
            handles.push(scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let r = f(i, &items[i]);
                if tx.send((i, r)).is_err() {
                    break;
                }
            }));
        }
        drop(tx);
        // Reorder buffer: deliver the contiguous prefix as it completes.
        let mut pending: Vec<Option<R>> =
            std::iter::repeat_with(|| None).take(items.len()).collect();
        let mut delivered = 0;
        for (i, r) in rx {
            pending[i] = Some(r);
            while delivered < items.len() {
                match pending[delivered].take() {
                    Some(r) => {
                        sink(delivered, r);
                        delivered += 1;
                    }
                    None => break,
                }
            }
        }
        for h in handles {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
        assert_eq!(delivered, items.len(), "every index streamed a result");
    });
}

/// Runs `walk`, one sequential whole-run task, on a reserved worker beside
/// `rest`, which gets the other `jobs - 1` workers, and returns both
/// results.
///
/// This is the shape of every pass that pairs a walk whose state carries
/// across the whole run in order (a cache simulator, the timing model)
/// with work that shards: the walk cannot be split, so it takes a worker
/// to itself and everything else shares the rest. `walk` runs on a scoped
/// thread and `rest` on the caller's, so busy threads never exceed
/// `jobs`. With one worker both run in turn on the caller's thread,
/// `walk` first, and `rest` receives [`SERIAL`].
///
/// # Panics
///
/// Propagates a panic from either side, with its payload, once both
/// sides have stopped; when both panic, `rest`'s payload wins.
pub fn join<A, B>(
    jobs: Jobs,
    walk: impl FnOnce() -> A + Send,
    rest: impl FnOnce(Jobs) -> B,
) -> (A, B)
where
    A: Send,
{
    let Some(others) = NonZeroUsize::new(jobs.get() - 1) else {
        let a = walk();
        return (a, rest(SERIAL));
    };
    std::thread::scope(|scope| {
        let handle = scope.spawn(walk);
        // A panic in `rest` unwinds out of this closure; the scope still
        // waits for `walk` before resuming it.
        let b = rest(Jobs::N(others));
        match handle.join() {
            Ok(a) => (a, b),
            Err(payload) => std::panic::resume_unwind(payload),
        }
    })
}

/// Fallible [`parallel_map`]: maps `f` over `items` and returns either
/// every success (in input order) or the error belonging to the
/// *lowest-indexed* failing item — the same error a serial loop would
/// have returned first.
///
/// All items run to completion even when one fails; error selection is
/// therefore independent of worker scheduling.
///
/// # Errors
///
/// Returns the lowest-indexed error produced by `f`.
pub fn try_parallel_map<T, R, E, F>(jobs: Jobs, items: &[T], f: F) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(usize, &T) -> Result<R, E> + Sync,
{
    let results = parallel_map(jobs, items, f);
    let mut out = Vec::with_capacity(results.len());
    for r in results {
        out.push(r?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_parsing() {
        assert_eq!("auto".parse::<Jobs>().unwrap(), Jobs::Auto);
        assert_eq!("3".parse::<Jobs>().unwrap(), Jobs::new(3).unwrap());
        assert!("0".parse::<Jobs>().is_err());
        assert!("-1".parse::<Jobs>().is_err());
        assert!("two".parse::<Jobs>().is_err());
        assert!(Jobs::new(0).is_err());
        assert_eq!(SERIAL.get(), 1);
        assert!(Jobs::Auto.get() >= 1);
        assert_eq!(Jobs::new(7).unwrap().to_string(), "7");
        assert_eq!(Jobs::Auto.to_string(), "auto");
    }

    #[test]
    fn map_preserves_order_for_every_job_count() {
        let items: Vec<u64> = (0..101).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for jobs in [
            SERIAL,
            Jobs::new(2).unwrap(),
            Jobs::new(7).unwrap(),
            Jobs::Auto,
        ] {
            let got = parallel_map(jobs, &items, |_, &x| x * x);
            assert_eq!(got, expect, "jobs = {jobs}");
        }
    }

    #[test]
    fn map_passes_matching_index() {
        let items = vec!["a", "b", "c", "d", "e"];
        let got = parallel_map(Jobs::new(3).unwrap(), &items, |i, &s| (i, s));
        for (i, (gi, gs)) in got.iter().enumerate() {
            assert_eq!(*gi, i);
            assert_eq!(*gs, items[i]);
        }
    }

    #[test]
    fn more_workers_than_items_is_fine() {
        let items = vec![1, 2];
        let got = parallel_map(Jobs::new(16).unwrap(), &items, |_, &x| x + 1);
        assert_eq!(got, vec![2, 3]);
        let empty: Vec<i32> = vec![];
        assert!(parallel_map(Jobs::new(4).unwrap(), &empty, |_, &x: &i32| x).is_empty());
    }

    #[test]
    fn stream_delivers_in_input_order_for_every_job_count() {
        let items: Vec<u64> = (0..73).collect();
        let expect: Vec<(usize, u64)> = items.iter().map(|&x| (x as usize, x * 3)).collect();
        for jobs in [
            SERIAL,
            Jobs::new(2).unwrap(),
            Jobs::new(7).unwrap(),
            Jobs::Auto,
        ] {
            let mut got = Vec::new();
            parallel_stream(jobs, &items, |_, &x| x * 3, |i, r| got.push((i, r)));
            assert_eq!(got, expect, "jobs = {jobs}");
        }
        let empty: Vec<u64> = vec![];
        let mut calls = 0;
        parallel_stream(Jobs::new(4).unwrap(), &empty, |_, &x| x, |_, _| calls += 1);
        assert_eq!(calls, 0);
    }

    #[test]
    fn stream_delivers_prefix_before_the_batch_finishes() {
        // Item 0 is slow; items 1.. are instant. With >= 2 workers the
        // fast items pile into the reorder buffer and must all flush the
        // moment item 0 lands — order stays serial regardless.
        let items: Vec<u64> = (0..16).collect();
        let mut got = Vec::new();
        parallel_stream(
            Jobs::new(4).unwrap(),
            &items,
            |i, &x| {
                if i == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(30));
                }
                x
            },
            |i, r| got.push((i, r)),
        );
        let expect: Vec<(usize, u64)> = items.iter().map(|&x| (x as usize, x)).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn try_map_returns_lowest_indexed_error() {
        let items: Vec<usize> = (0..50).collect();
        for jobs in [SERIAL, Jobs::new(2).unwrap(), Jobs::new(7).unwrap()] {
            let r: Result<Vec<usize>, usize> =
                try_parallel_map(
                    jobs,
                    &items,
                    |i, &x| {
                        if i % 13 == 12 {
                            Err(i)
                        } else {
                            Ok(x)
                        }
                    },
                );
            assert_eq!(r.unwrap_err(), 12, "jobs = {jobs}");
        }
        let ok: Result<Vec<usize>, usize> =
            try_parallel_map(Jobs::new(3).unwrap(), &items, |_, &x| Ok(x));
        assert_eq!(ok.unwrap(), items);
    }

    /// The message of a panic payload (`&'static str` or `String`).
    fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
        payload
            .downcast_ref::<&'static str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default()
    }

    #[test]
    fn join_is_sequential_on_one_worker() {
        let main = std::thread::current().id();
        let order = std::sync::Mutex::new(Vec::new());
        let (a, b) = join(
            SERIAL,
            || {
                order.lock().unwrap().push("walk");
                std::thread::current().id()
            },
            |jobs| {
                order.lock().unwrap().push("rest");
                (jobs, std::thread::current().id())
            },
        );
        assert_eq!(*order.lock().unwrap(), ["walk", "rest"]);
        assert_eq!(a, main);
        assert_eq!(b, (SERIAL, main));
    }

    #[test]
    fn join_returns_results_in_position_and_gives_rest_the_other_workers() {
        for n in [2, 3, 7] {
            let jobs = Jobs::new(n).unwrap();
            let (a, (rest_jobs, b)) = join(
                jobs,
                || (0..1000u64).sum::<u64>(),
                |rest_jobs| (rest_jobs, "rest"),
            );
            assert_eq!(a, 499_500, "jobs = {n}");
            assert_eq!(b, "rest");
            assert_eq!(rest_jobs, Jobs::new(n - 1).unwrap());
        }
        // Two workers: the walk runs beside the caller, not on it.
        let main = std::thread::current().id();
        let (walker, _) = join(
            Jobs::new(2).unwrap(),
            || std::thread::current().id(),
            |_| (),
        );
        assert_ne!(walker, main);
    }

    #[test]
    fn join_propagates_either_sides_panic_after_both_stop() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::atomic::AtomicBool;
        let two = Jobs::new(2).unwrap();

        // The walk panics while the rest still runs: the rest finishes
        // only after the walk's last message, and the walk's payload
        // surfaces after that.
        let (tx, rx) = mpsc::channel();
        let rest_done = AtomicBool::new(false);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            join(
                two,
                move || -> u32 {
                    tx.send(()).unwrap();
                    panic!("walk exploded")
                },
                |_| {
                    rx.recv().unwrap();
                    rest_done.store(true, Ordering::SeqCst);
                },
            )
        }));
        let msg = panic_message(&*caught.unwrap_err());
        assert!(msg.contains("walk exploded"), "{msg}");
        assert!(rest_done.load(Ordering::SeqCst), "rest stopped early");

        // The mirror image: the rest panics while the walk still runs.
        let (tx, rx) = mpsc::channel();
        let walk_done = AtomicBool::new(false);
        let done = &walk_done;
        let caught = catch_unwind(AssertUnwindSafe(|| {
            join(
                two,
                move || {
                    rx.recv().unwrap();
                    done.store(true, Ordering::SeqCst);
                },
                move |_| -> u32 {
                    tx.send(()).unwrap();
                    panic!("rest exploded: {}", 7)
                },
            )
        }));
        let msg = panic_message(&*caught.unwrap_err());
        assert!(msg.contains("rest exploded: 7"), "{msg}");
        assert!(walk_done.load(Ordering::SeqCst), "walk stopped early");

        // One worker: the walk's panic surfaces before the rest starts.
        let caught = catch_unwind(|| {
            join(
                SERIAL,
                || -> u32 { panic!("walk exploded") },
                |_| unreachable!("the rest runs after the walk"),
            )
        });
        let msg = panic_message(&*caught.unwrap_err());
        assert!(msg.contains("walk exploded"), "{msg}");
    }

    #[test]
    fn worker_panic_propagates_with_payload() {
        let items: Vec<u32> = (0..20).collect();
        let caught = std::panic::catch_unwind(|| {
            parallel_map(Jobs::new(4).unwrap(), &items, |_, &x| {
                assert!(x != 11, "item eleven exploded");
                x
            })
        });
        // A format-less assert! panics with &'static str; formatted ones
        // with String. Accept either.
        let msg = panic_message(&*caught.unwrap_err());
        assert!(msg.contains("item eleven exploded"), "{msg}");
    }
}
