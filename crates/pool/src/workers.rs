//! The persistent worker set behind every pool dispatch.
//!
//! Workers start lazily, the first time a dispatch needs them, and the
//! set grows to the widest dispatch any call has asked for. Between
//! dispatches a worker spins for [`SPIN`] watching the dispatch epoch,
//! then parks on a `Condvar`, so back-to-back passes of one transpose
//! find their workers awake while an idle process costs no CPU.
//!
//! One dispatch owns the workers at a time. [`run`] publishes the job
//! (a lifetime-erased `&dyn Fn(usize)`), runs part 0 on the calling
//! thread, claims any part no worker has picked up yet, and does not
//! return until every claimed part has finished. A dispatch that finds
//! the workers owned — a concurrent caller, or a nested dispatch from
//! inside a part — runs all its parts inline instead, so callers never
//! wait on one another and can never deadlock.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long an idle worker (and a dispatching thread waiting for its
/// parts) spins before parking on a `Condvar`. Longer than the gap
/// between two passes of a cache-resident transpose, much shorter than
/// any pause a user would notice as burnt CPU.
const SPIN: Duration = Duration::from_micros(100);

/// One dispatch part: called once per part index.
type Job = dyn Fn(usize) + Sync;

/// The dispatch slot, guarded by [`Workers::slot`].
struct Slot {
    /// The in-flight job, lifetime-erased (see [`run`]); `None` between
    /// dispatches.
    job: Option<&'static Job>,
    /// Parts of `job`; parts `next..parts` are still unclaimed.
    parts: usize,
    next: usize,
    /// Workers blocked on [`Workers::wake`].
    parked: usize,
    /// Every spawned worker thread.
    handles: Vec<JoinHandle<()>>,
    /// Set while [`join_workers`] stops the set.
    shutdown: bool,
}

impl Slot {
    /// Claim the next unclaimed part of the current job, counting it as
    /// running. Called with the slot locked.
    fn claim(&mut self, running: &AtomicUsize) -> Option<(&'static Job, usize)> {
        let job = self.job?;
        if self.next >= self.parts {
            return None;
        }
        let k = self.next;
        self.next += 1;
        running.fetch_add(1, Ordering::Relaxed);
        Some((job, k))
    }
}

struct Workers {
    slot: Mutex<Slot>,
    /// Parked workers wait here for a job or shutdown.
    wake: Condvar,
    /// The dispatching thread waits here for its claimed parts.
    done: Condvar,
    /// Bumped once per published job; spinning workers watch it.
    epoch: AtomicU64,
    /// Claimed parts of the current job that have not finished.
    running: AtomicUsize,
    /// Set while the dispatching thread is parked on `done`.
    caller_parked: AtomicBool,
    /// Held by the one dispatch that owns the workers.
    busy: AtomicBool,
}

static WORKERS: Workers = Workers {
    slot: Mutex::new(Slot {
        job: None,
        parts: 0,
        next: 0,
        parked: 0,
        handles: Vec::new(),
        shutdown: false,
    }),
    wake: Condvar::new(),
    done: Condvar::new(),
    epoch: AtomicU64::new(0),
    running: AtomicUsize::new(0),
    caller_parked: AtomicBool::new(false),
    busy: AtomicBool::new(false),
};

impl Workers {
    fn lock(&self) -> MutexGuard<'_, Slot> {
        // Parts never run under the lock, so nothing can poison it; be
        // robust anyway.
        self.slot.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Run one claimed part and count it finished, waking the dispatching
    /// thread when it was the last one.
    fn finish(&self, job: &Job, k: usize) {
        // The pool primitives catch panics at the chunk boundary, so a
        // part never unwinds; this catch keeps the worker alive and the
        // count right even if one did.
        let _ = catch_unwind(AssertUnwindSafe(|| job(k)));
        // SeqCst pairs with `retract`: either it sees this decrement
        // before it parks, or this load sees it parked and wakes it.
        if self.running.fetch_sub(1, Ordering::SeqCst) == 1
            && self.caller_parked.load(Ordering::SeqCst)
        {
            let _slot = self.lock();
            self.done.notify_all();
        }
    }

    fn worker_loop(&self) {
        // A value no epoch takes, so a fresh worker checks the slot at
        // once: it was spawned for the job being published.
        let mut seen = u64::MAX;
        loop {
            let deadline = Instant::now() + SPIN;
            let mut idle = false;
            let mut spins = 0u32;
            loop {
                let epoch = self.epoch.load(Ordering::Acquire);
                if epoch != seen {
                    seen = epoch;
                    break;
                }
                spins = spins.wrapping_add(1);
                if spins % 64 == 0 && Instant::now() >= deadline {
                    idle = true;
                    break;
                }
                std::hint::spin_loop();
            }
            let mut slot = self.lock();
            if idle {
                slot.parked += 1;
                while !slot.shutdown && (slot.job.is_none() || slot.next >= slot.parts) {
                    slot = self.wake.wait(slot).unwrap_or_else(PoisonError::into_inner);
                }
                slot.parked -= 1;
                seen = self.epoch.load(Ordering::Acquire);
            }
            if slot.shutdown {
                return;
            }
            if let Some((job, k)) = slot.claim(&self.running) {
                drop(slot);
                self.finish(job, k);
            }
        }
    }

    /// Publish `job` as `parts` parts, first growing the worker set to
    /// `parts - 1` threads. Part 0 stays with the caller.
    fn publish(&'static self, parts: usize, job: &'static Job) {
        let mut slot = self.lock();
        while slot.handles.len() < parts - 1 {
            let id = slot.handles.len() + 1;
            let spawned = std::thread::Builder::new()
                .name(format!("ipt-pool-{id}"))
                .spawn(move || self.worker_loop());
            match spawned {
                Ok(handle) => slot.handles.push(handle),
                // Parts no worker claims run on the caller: a smaller set
                // is slower, never wrong.
                Err(_) => break,
            }
        }
        slot.job = Some(job);
        slot.parts = parts;
        slot.next = 1;
        let wake = slot.parked.min(parts - 1);
        drop(slot);
        self.epoch.fetch_add(1, Ordering::Release);
        for _ in 0..wake {
            self.wake.notify_one();
        }
    }

    /// Claim and run every part no worker has picked up yet.
    fn help(&self) {
        loop {
            let claimed = self.lock().claim(&self.running);
            match claimed {
                Some((job, k)) => self.finish(job, k),
                None => return,
            }
        }
    }

    /// Retract the job and wait for every claimed part to finish.
    fn retract(&self) {
        self.lock().job = None;
        let deadline = Instant::now() + SPIN;
        while self.running.load(Ordering::Acquire) != 0 {
            if Instant::now() >= deadline {
                let mut slot = self.lock();
                self.caller_parked.store(true, Ordering::SeqCst);
                while self.running.load(Ordering::SeqCst) != 0 {
                    slot = self.done.wait(slot).unwrap_or_else(PoisonError::into_inner);
                }
                self.caller_parked.store(false, Ordering::Relaxed);
                return;
            }
            std::hint::spin_loop();
        }
    }
}

/// Ownership of the workers for one dispatch. Dropping it — on return
/// or while unwinding — retracts the job and waits for every claimed
/// part, which is what keeps the lifetime-erased job sound.
struct Lease;

impl Drop for Lease {
    fn drop(&mut self) {
        WORKERS.retract();
        if cfg!(miri) {
            // Miri rejects a test binary whose main thread exits while
            // threads still run; join the set after every dispatch there.
            join_workers();
        }
        WORKERS.busy.store(false, Ordering::Release);
    }
}

/// Run `part(k)` for every `k < parts`, returning once all have
/// finished: on the worker set when it is free and `parts > 1`, else
/// inline on the calling thread in part order.
pub(crate) fn run<'a>(parts: usize, part: &'a (dyn Fn(usize) + Sync + 'a)) {
    let owned = parts > 1
        && WORKERS
            .busy
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok();
    if !owned {
        for k in 0..parts {
            part(k);
        }
        return;
    }
    let _lease = Lease;
    // SAFETY: `job` is reachable only through the slot, which the lease
    // clears on drop before it waits for every claimed part to finish;
    // parts are claimed under the slot lock, so none can start after the
    // clear. The lease drops before `run` returns or unwinds, so no
    // worker touches `part` once its borrow ends.
    let job = unsafe {
        std::mem::transmute::<&'a (dyn Fn(usize) + Sync + 'a), &'static (dyn Fn(usize) + Sync)>(
            part,
        )
    };
    WORKERS.publish(parts, job);
    part(0);
    WORKERS.help();
}

/// Stop every worker and wait for it to exit; the next wide dispatch
/// starts a fresh set. The caller must own the workers (or know that no
/// dispatch is in flight).
fn join_workers() {
    let handles = {
        let mut slot = WORKERS.lock();
        slot.shutdown = true;
        std::mem::take(&mut slot.handles)
    };
    WORKERS.epoch.fetch_add(1, Ordering::Release);
    WORKERS.wake.notify_all();
    for handle in handles {
        // `finish` catches every part's panic, so a worker cannot die of
        // one; and this runs inside `Lease::drop`, which must not panic.
        let _ = handle.join();
    }
    WORKERS.lock().shutdown = false;
}
