//! The persistent worker set: concurrent callers, nested dispatch,
//! survival of a contained panic, and growth to the widest pool.
//!
//! Every test runs under a deadline, so a wedged dispatch fails the test
//! instead of hanging the suite, and the tests take turns: several of
//! them need every worker at once (a barrier across all parts), which a
//! concurrent dispatch owning the workers would turn into inline runs.

use ipt_core::check::reference_transpose;
use ipt_core::Layout;
use ipt_parallel::{transpose_parallel, ParOptions};
use ipt_pool::Pool;
use std::collections::HashSet;
use std::sync::{Barrier, Mutex, PoisonError};
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};

/// Run `f` on its own thread and fail if it takes longer than `secs`.
fn within<T: Send + 'static>(secs: u64, f: impl FnOnce() -> T + Send + 'static) -> T {
    static TURN: Mutex<()> = Mutex::new(());
    let _turn = TURN.lock().unwrap_or_else(PoisonError::into_inner);
    let handle = thread::spawn(f);
    let deadline = Instant::now() + Duration::from_secs(secs);
    while !handle.is_finished() {
        assert!(
            Instant::now() < deadline,
            "timed out after {secs} s: a dispatch wedged"
        );
        thread::sleep(Duration::from_millis(5));
    }
    handle
        .join()
        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
}

/// The threads that ran the parts of one `parts`-wide dispatch in which
/// every part waits for all the others: it completes only if `parts`
/// threads run it at once.
fn all_at_once(pool: Pool, parts: usize) -> HashSet<ThreadId> {
    let barrier = Barrier::new(parts);
    let seen = Mutex::new(HashSet::new());
    pool.par_chunks(0..parts, 1, |_| {
        barrier.wait();
        seen.lock().unwrap().insert(thread::current().id());
    })
    .unwrap();
    seen.into_inner().unwrap()
}

#[test]
#[cfg_attr(miri, ignore = "whole transposes are too slow under the interpreter")]
fn concurrent_callers_get_byte_exact_transposes() {
    within(120, || {
        ipt_pool::set_num_threads(2);
        let shapes = [(64usize, 96usize), (192, 256), (37, 1000), (256, 24)];
        let callers: Vec<_> = (0..4u64)
            .map(|caller| {
                thread::spawn(move || {
                    for round in 0..12u64 {
                        let (rows, cols) = shapes[((caller + round) % 4) as usize];
                        let orig: Vec<u64> = (0..(rows * cols) as u64)
                            .map(|x| x.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ caller)
                            .collect();
                        let mut got = orig.clone();
                        transpose_parallel(
                            &mut got,
                            rows,
                            cols,
                            Layout::RowMajor,
                            &ParOptions::default(),
                        )
                        .unwrap();
                        let want = reference_transpose(&orig, rows, cols, Layout::RowMajor);
                        assert!(got == want, "caller {caller}, round {round}: {rows}x{cols}");
                    }
                })
            })
            .collect();
        for c in callers {
            c.join().unwrap();
        }
    });
}

#[test]
fn nested_dispatch_from_a_worker_completes() {
    within(60, || {
        let barrier = Barrier::new(2);
        let sums = Mutex::new(Vec::new());
        let on_worker = Mutex::new(false);
        Pool::new(2)
            .par_chunks(0..2, 1, |_| {
                // Both parts at once: one of them is on a pool worker.
                barrier.wait();
                if thread::current()
                    .name()
                    .is_some_and(|n| n.starts_with("ipt-pool"))
                {
                    *on_worker.lock().unwrap() = true;
                }
                let total = Mutex::new(0usize);
                Pool::new(2)
                    .par_chunks(0..1000, 1, |sub| {
                        *total.lock().unwrap() += sub.sum::<usize>()
                    })
                    .unwrap();
                sums.lock().unwrap().push(total.into_inner().unwrap());
            })
            .unwrap();
        assert!(
            on_worker.into_inner().unwrap(),
            "one part must run on a worker"
        );
        assert_eq!(sums.into_inner().unwrap(), [499_500, 499_500]);
    });
}

#[test]
fn a_contained_panic_leaves_every_worker_alive() {
    within(60, || {
        // All four parts at once, so the failing part runs on a worker.
        let barrier = Barrier::new(4);
        let err = Pool::new(4)
            .par_chunks(0..4, 1, |sub| {
                barrier.wait();
                if sub.start == 2 {
                    panic!("part two fails");
                }
            })
            .unwrap_err();
        assert_eq!((err.worker, err.payload.as_str()), (2, "part two fails"));
        // The next dispatch still gets four threads at once.
        assert_eq!(all_at_once(Pool::new(4), 4).len(), 4);
    });
}

#[test]
#[cfg_attr(miri, ignore = "sixteen spinning threads are too slow under miri")]
fn a_wider_pool_grows_the_worker_set() {
    within(60, || {
        assert_eq!(all_at_once(Pool::new(2), 2).len(), 2);
        assert_eq!(all_at_once(Pool::new(16), 16).len(), 16);
        // The grown set keeps serving narrower pools.
        assert_eq!(all_at_once(Pool::new(3), 3).len(), 3);
    });
}
