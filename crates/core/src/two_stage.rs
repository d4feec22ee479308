//! The profiled `allcache` walk as two stages on two workers.
//!
//! With a profiled cache and at least two workers,
//! [`Pipeline::profile_jobs`](crate::Pipeline::profile_jobs) runs its one
//! executor walk as a pipeline:
//!
//! - the **fetch stage**, on the caller's worker, runs the executor, the
//!   BBV and mix tools and the L1I ([`FetchStage`]), and forwards each
//!   instruction's L1I miss, then its data accesses (a read-modify-write
//!   makes two);
//! - the **data stage**, on a reserved worker ([`data_stage`]), runs the
//!   L1D, L2, L3 and prefetcher over those events.
//!
//! The counters equal the serial walk's: the L1I sees only fetch PCs,
//! only an L1I miss reaches L2/L3, and the prefetcher fires only on
//! data-side L2 misses, so every structure sees exactly the access
//! sequence it sees in the serial walk.

use sampsim_cache::{Cache, HierarchyConfig, HierarchyStats, SharedHalf};
use sampsim_exec::Jobs;
use sampsim_pin::engine::Pintool;
use sampsim_workload::Retired;
use std::sync::mpsc::{self, Receiver, SyncSender};

/// Events per batch: 256 KiB of 16-byte events.
const BATCH: usize = 16_384;

/// Full batches the channel holds before the fetch stage blocks; with the
/// batch each stage holds, about 1.5 MiB is in flight.
const DEPTH: usize = 4;

/// One access the fetch stage forwards to the data stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Event {
    /// An L1I miss at this PC; it continues at L2.
    FetchMiss(u64),
    /// A load or a store at this address.
    Data(u64),
}

/// The fetch stage's end of the channel: fills a batch and sends it when
/// full.
pub(crate) struct Forwarder {
    batch: Vec<Event>,
    /// `None` once a send has failed.
    tx: Option<SyncSender<Vec<Event>>>,
}

impl Forwarder {
    /// Appends `event`, sending the batch once it is full.
    #[inline]
    pub(crate) fn push(&mut self, event: Event) {
        self.batch.push(event);
        if self.batch.len() == BATCH {
            self.flush();
        }
    }

    #[inline(never)]
    fn flush(&mut self) {
        let batch = std::mem::replace(&mut self.batch, Vec::with_capacity(BATCH));
        // A failed send means the data stage died. Stop sending but do not
        // panic, so `join` resurfaces the data stage's own payload.
        if self.tx.as_ref().is_some_and(|tx| tx.send(batch).is_err()) {
            self.tx = None;
        }
    }
}

/// Runs `fetch` on the caller's worker and `data` on a reserved one,
/// `fetch` streaming [`Event`]s to `data` through a bounded channel of
/// batches. Workers beyond two stay idle.
///
/// # Panics
///
/// Panics on one worker: `join` would run `data` first, and it would wait
/// forever for a fetch stage that has not started. Propagates a panic from
/// either stage with its payload.
pub(crate) fn run<A, B>(
    jobs: Jobs,
    fetch: impl FnOnce(&mut Forwarder) -> A,
    data: impl FnOnce(Receiver<Vec<Event>>) -> B + Send,
) -> (A, B)
where
    B: Send,
{
    assert!(jobs.get() >= 2, "the two-stage walk needs two workers");
    let (tx, rx) = mpsc::sync_channel(DEPTH);
    let (b, a) = sampsim_exec::join(
        jobs,
        move || data(rx),
        // The fetch stage owns the sender, so a fetch stage that returns
        // or unwinds closes the channel and the data stage ends; `join`
        // waits for the data stage before it returns or resumes a panic.
        move |_| {
            let mut out = Forwarder {
                batch: Vec::with_capacity(BATCH),
                tx: Some(tx),
            };
            let a = fetch(&mut out);
            out.flush();
            a
        },
    );
    (a, b)
}

/// The fetch stage's cache tool: the L1I, forwarding each instruction's
/// L1I miss and data accesses to the data stage in program order.
pub(crate) struct FetchStage<'a> {
    l1i: Cache,
    out: &'a mut Forwarder,
}

impl<'a> FetchStage<'a> {
    /// A cold L1I for `config`, forwarding through `out`.
    pub(crate) fn new(config: &HierarchyConfig, out: &'a mut Forwarder) -> Self {
        Self {
            l1i: Cache::new(config.l1i),
            out,
        }
    }

    /// The L1I counters; every other field is zero.
    pub(crate) fn stats(&self) -> HierarchyStats {
        HierarchyStats {
            l1i: self.l1i.stats(),
            ..HierarchyStats::default()
        }
    }
}

impl Pintool for FetchStage<'_> {
    #[inline]
    fn on_inst(&mut self, inst: &Retired) {
        if !self.l1i.access(inst.pc, true) {
            self.out.push(Event::FetchMiss(inst.pc));
        }
        if inst.mem.reads() {
            self.out.push(Event::Data(inst.addr));
        }
        if inst.mem.writes() {
            self.out.push(Event::Data(inst.addr));
        }
    }
}

/// The data stage: drives a cold [`SharedHalf`] with every forwarded
/// event until the fetch stage closes the channel, and returns its
/// counters.
pub(crate) fn data_stage(
    config: &HierarchyConfig,
    batches: Receiver<Vec<Event>>,
) -> HierarchyStats {
    let mut half = SharedHalf::new(config);
    for batch in batches {
        for &event in &batch {
            match event {
                Event::FetchMiss(pc) => half.fetch_miss(pc, true),
                Event::Data(addr) => half.access_data(addr, true),
            };
        }
    }
    half.stats()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PinPointsConfig, Pipeline};
    use sampsim_cache::configs;
    use sampsim_exec::SERIAL;
    use sampsim_workload::spec::{PhaseSpec, WorkloadSpec};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::time::Duration;

    fn two() -> Jobs {
        Jobs::new(2).unwrap()
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
    fn events_arrive_in_order_across_batches() {
        let n = 3 * BATCH as u64 + 5;
        let (pushed, seen) = run(
            two(),
            |out| {
                for i in 0..n {
                    out.push(Event::Data(i));
                }
                n
            },
            |batches| batches.into_iter().flatten().collect::<Vec<_>>(),
        );
        assert_eq!(seen.len() as u64, pushed);
        assert!(seen.iter().zip(0..).all(|(&e, i)| e == Event::Data(i)));
    }

    #[test]
    fn data_stage_panic_surfaces_with_its_own_payload() {
        // The data stage hangs up and panics before the fetch stage's
        // first send; every send after that fails. The fetch stage must
        // finish quietly so the data stage's payload is the one `join`
        // resumes, not a send-failure panic of the fetch stage.
        let (hung_up, wait_hang_up) = mpsc::channel();
        let mut fetch_finished = false;
        let caught = catch_unwind(AssertUnwindSafe(|| {
            run(
                two(),
                |out| {
                    wait_hang_up.recv().unwrap();
                    for i in 0..(DEPTH as u64 + 2) * BATCH as u64 {
                        out.push(Event::Data(i));
                    }
                    fetch_finished = true;
                },
                move |batches| -> HierarchyStats {
                    drop(batches);
                    hung_up.send(()).unwrap();
                    panic!("data stage exploded")
                },
            )
        }));
        let msg = panic_message(&*caught.unwrap_err());
        assert!(msg.contains("data stage exploded"), "{msg}");
        assert!(fetch_finished, "the fetch stage stopped at a failed send");
    }

    #[test]
    fn fetch_stage_panic_surfaces_and_never_hangs() {
        // The fetch stage panics while the data stage waits on the
        // channel. Its unwinding drops the sender, the data stage ends,
        // and the panic surfaces; a sender that outlived the fetch stage
        // would leave the data stage (and `join`) waiting forever.
        let (done, wait_done) = mpsc::channel();
        let watched = std::thread::spawn(move || {
            let (got_batch, wait_batch) = mpsc::channel();
            let caught = catch_unwind(AssertUnwindSafe(|| {
                run(
                    two(),
                    |out| {
                        for i in 0..BATCH as u64 {
                            out.push(Event::Data(i));
                        }
                        wait_batch.recv().unwrap();
                        panic!("fetch stage exploded")
                    },
                    move |batches| {
                        let mut seen = 0;
                        for batch in batches {
                            seen += batch.len();
                            let _ = got_batch.send(());
                        }
                        seen
                    },
                )
            }));
            let _ = done.send(caught.map_err(|p| panic_message(&*p)));
        });
        let outcome = wait_done
            .recv_timeout(Duration::from_secs(60))
            .expect("the two-stage walk hung after its fetch stage panicked");
        watched
            .join()
            .expect("the watched thread catches the panic");
        let msg = outcome.unwrap_err();
        assert!(msg.contains("fetch stage exploded"), "{msg}");
    }

    #[test]
    fn one_worker_never_enters_the_two_stage_walk() {
        // At one worker `join` would start the data stage first and it
        // would wait forever, so `run` refuses outright...
        let caught = catch_unwind(|| run(SERIAL, |_| (), |_| ()));
        let msg = panic_message(&*caught.unwrap_err());
        assert!(msg.contains("needs two workers"), "{msg}");
        // ...and a profiled cache at jobs = 1 still profiles: the serial
        // path, never `run`.
        let program = WorkloadSpec::builder("one-worker", 3)
            .total_insts(20_000)
            .phase(PhaseSpec::memory_bound(1.0))
            .build()
            .build();
        let pipeline = Pipeline::new(PinPointsConfig {
            slice_size: 1_000,
            profile_cache: Some(configs::allcache_table1()),
            ..Default::default()
        });
        let (_, _, metrics) = pipeline.profile_jobs(&program, SERIAL);
        assert_eq!(metrics.cache.unwrap().l1i.accesses, 20_000);
    }
}
