//! Reusable per-worker scratch storage.
//!
//! Every column-wise step of the decomposition stages data through a small
//! temporary buffer — the CPU stand-in for the paper's §4.5 on-chip row
//! staging. Workers need one such buffer each, reused across all the
//! chunks a worker processes. [`Scratch`] wraps that pattern: a growable
//! buffer that hands out exactly-sized slices without reallocating in
//! steady state, so the per-chunk cost after warm-up is a `fill` (or
//! nothing, via [`Scratch::uninit_buf`]'s overwrite contract).
//!
//! [`Local`] keeps such state across calls: each thread caches one
//! [`WorkerState`] value per type, and a pool primitive whose `init` is
//! [`Local::take`] hands every part its thread's cached value. The pool's
//! workers are persistent, so their buffers survive from one pass — and
//! one call — to the next. When a part ends, the state is *parked*: its
//! scratch tallies are flushed into [`crate::stats`] (so snapshot deltas
//! stay per call) and storage past [`RETAIN_BYTES`] per thread is freed
//! (so a call with huge rows does not pin them for the life of the
//! process).

use std::any::{Any, TypeId};
use std::cell::RefCell;

/// Bytes of parked state one thread keeps between parts. Buffers beyond
/// it are freed when their part ends and regrown by the next call that
/// needs them — the cost of a fresh allocation, which is what every call
/// paid before state was kept.
pub const RETAIN_BYTES: usize = 4 << 20;

/// A reusable, growable scratch buffer for `Copy` elements.
///
/// Every buffer request is tallied as either an *allocation* (the request
/// grew the backing storage) or a *reuse* (served entirely from existing
/// capacity); the tallies are buffered locally — no atomics in the hot
/// path — and flushed into [`crate::stats`] when the scratch is parked
/// ([`WorkerState::park`]) or drops, so [`crate::stats::snapshot`] shows
/// whether workers reach allocation-free steady state.
///
/// Growth frees the old storage before allocating exactly the requested
/// length, so a growing scratch never holds two allocations, nor a
/// doubled one.
///
/// ```
/// use ipt_pool::Scratch;
///
/// let mut s: Scratch<u64> = Scratch::new();
/// let buf = s.filled_buf(16, 0);
/// assert_eq!(buf.len(), 16);
/// buf[3] = 7;
/// // Subsequent requests reuse the same allocation.
/// assert_eq!(s.filled_buf(8, 1), &[1; 8]);
/// ```
#[derive(Debug)]
pub struct Scratch<T> {
    storage: Vec<T>,
    /// Requests that grew the backing allocation (flushed on park or drop).
    allocs: u64,
    /// Requests served from existing capacity (flushed on park or drop).
    reuses: u64,
}

impl<T: Copy> Scratch<T> {
    /// An empty scratch; storage is allocated on first use.
    pub const fn new() -> Scratch<T> {
        Scratch {
            storage: Vec::new(),
            allocs: 0,
            reuses: 0,
        }
    }

    /// A scratch pre-sized for `len`-element requests.
    pub fn with_capacity(len: usize) -> Scratch<T> {
        Scratch {
            storage: Vec::with_capacity(len),
            allocs: 0,
            reuses: 0,
        }
    }

    /// Tally a `len`-element request and, when it does not fit, replace
    /// the storage with an empty one of exactly `len` capacity.
    #[inline]
    fn reserve_request(&mut self, len: usize) {
        if len > self.storage.capacity() {
            self.allocs += 1;
            self.storage = Vec::with_capacity(len);
        } else {
            self.reuses += 1;
        }
    }

    /// A `len`-element slice, every element set to `fill`.
    pub fn filled_buf(&mut self, len: usize, fill: T) -> &mut [T] {
        self.reserve_request(len);
        self.storage.clear();
        self.storage.resize(len, fill);
        &mut self.storage[..]
    }

    /// A `len`-element slice with **unspecified contents** (whatever a
    /// previous request left behind, `fill`-extended as needed). The
    /// caller must overwrite before reading — the usual contract for a
    /// gather destination.
    pub fn uninit_buf(&mut self, len: usize, fill: T) -> &mut [T] {
        self.reserve_request(len);
        if self.storage.len() < len {
            self.storage.resize(len, fill);
        }
        &mut self.storage[..len]
    }

    /// A copy of `src` — one pass over it, no fill — e.g. the staged row
    /// a row shuffle gathers from.
    pub fn copy_of(&mut self, src: &[T]) -> &mut [T] {
        self.reserve_request(src.len());
        self.storage.clear();
        self.storage.extend_from_slice(src);
        &mut self.storage[..]
    }

    /// Current backing capacity, in elements.
    pub fn capacity(&self) -> usize {
        self.storage.capacity()
    }

    /// Copy the elements yielded by `src` into a fresh **owned** buffer —
    /// the undo-snapshot staging hook used by
    /// [`recovery::TaskJournal`](crate::recovery::TaskJournal).
    ///
    /// Unlike [`Scratch::filled_buf`] / [`Scratch::uninit_buf`], the
    /// result must outlive the worker (a snapshot is consumed after the
    /// worker's part has failed and unwound), so it cannot borrow the
    /// reusable storage; each capture is tallied as one allocation so the
    /// per-run cost of arming recovery stays visible in
    /// [`crate::stats::snapshot`].
    pub fn capture(&mut self, len_hint: usize, src: impl IntoIterator<Item = T>) -> Vec<T> {
        self.allocs += 1;
        let mut out = Vec::with_capacity(len_hint);
        out.extend(src);
        out
    }
}

impl<T: Clone> Clone for Scratch<T> {
    /// Clones the storage; the clone starts with fresh (zero) tallies so
    /// no request is ever double-counted.
    fn clone(&self) -> Scratch<T> {
        Scratch {
            storage: self.storage.clone(),
            allocs: 0,
            reuses: 0,
        }
    }
}

impl<T> Default for Scratch<T> {
    fn default() -> Scratch<T> {
        Scratch {
            storage: Vec::new(),
            allocs: 0,
            reuses: 0,
        }
    }
}

impl<T> Scratch<T> {
    /// Flush the tallies into [`crate::stats`].
    fn flush(&mut self) {
        crate::stats::record_scratch(self.allocs, self.reuses);
        (self.allocs, self.reuses) = (0, 0);
    }
}

impl<T> Drop for Scratch<T> {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Per-worker state a thread can keep from one pool part to the next
/// (see [`Local`]).
pub trait WorkerState: Default + 'static {
    /// Called as a part finishes with the state: flush any buffered
    /// tallies and free storage that would push the bytes kept past
    /// `budget`. Returns the bytes still held.
    fn park(&mut self, budget: usize) -> usize;
}

impl<T: Copy + 'static> WorkerState for Scratch<T> {
    fn park(&mut self, budget: usize) -> usize {
        self.flush();
        let bytes = self.storage.capacity() * std::mem::size_of::<T>();
        if bytes > budget {
            self.storage = Vec::new();
            return 0;
        }
        bytes
    }
}

impl<A: WorkerState, B: WorkerState> WorkerState for (A, B) {
    fn park(&mut self, budget: usize) -> usize {
        let kept = self.0.park(budget);
        kept + self.1.park(budget - kept)
    }
}

/// One parked value in a thread's cache: its type, the bytes it holds,
/// and the value.
type Parked = (TypeId, usize, Box<dyn Any>);

thread_local! {
    /// This thread's parked worker states, most recently used first.
    static PARKED: RefCell<Vec<Parked>> = const { RefCell::new(Vec::new()) };
}

/// A thread's cached `S`, checked out for one pool part.
///
/// [`Local::take`] removes the thread's parked `S` from its cache (or
/// starts a default one); dropping the guard parks it again
/// ([`WorkerState::park`]) and puts it back, evicting the least recently
/// used states while the thread holds more than [`RETAIN_BYTES`]. Pass
/// `Local::take` as a primitive's `init` and every part gets its thread's
/// state; the pool's workers are persistent, so that state carries over
/// from call to call.
///
/// ```
/// use ipt_pool::{stats, Local, Pool, Scratch};
///
/// let run = || {
///     Pool::new(1)
///         .par_chunks_init(0..4, 1, Local::<Scratch<u32>>::take, |s, sub| {
///             assert_eq!(s.filled_buf(64, 7).len(), 64);
///             assert!(!sub.is_empty());
///         })
///         .unwrap()
/// };
/// run(); // grows this thread's buffer once
/// let before = stats::snapshot();
/// run(); // and the next call reuses it
/// assert!(stats::snapshot().delta_since(&before).scratch_reuses >= 1);
/// ```
pub struct Local<S: WorkerState> {
    state: Option<Box<S>>,
}

impl<S: WorkerState> Local<S> {
    /// Check out this thread's parked `S`, or a default one.
    pub fn take() -> Local<S> {
        let parked = PARKED
            .try_with(|cache| {
                let mut cache = cache.borrow_mut();
                let i = cache.iter().position(|e| e.0 == TypeId::of::<S>())?;
                cache.remove(i).2.downcast::<S>().ok()
            })
            .ok()
            .flatten();
        Local {
            state: Some(parked.unwrap_or_default()),
        }
    }
}

impl<S: WorkerState> std::ops::Deref for Local<S> {
    type Target = S;

    fn deref(&self) -> &S {
        self.state.as_deref().expect("present until drop")
    }
}

impl<S: WorkerState> std::ops::DerefMut for Local<S> {
    fn deref_mut(&mut self) -> &mut S {
        self.state.as_deref_mut().expect("present until drop")
    }
}

impl<S: WorkerState> Drop for Local<S> {
    fn drop(&mut self) {
        let Some(mut state) = self.state.take() else {
            return;
        };
        let bytes = state.park(RETAIN_BYTES);
        // A thread being torn down has no cache left: just drop the state.
        let _ = PARKED.try_with(|cache| {
            let mut cache = cache.borrow_mut();
            // A nested part of the same type may have parked one already;
            // the newest wins.
            cache.retain(|e| e.0 != TypeId::of::<S>());
            cache.insert(0, (TypeId::of::<S>(), bytes, state));
            let mut total = 0;
            cache.retain(|e| {
                total += e.1;
                total <= RETAIN_BYTES
            });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_are_sized_and_filled() {
        let mut s: Scratch<u32> = Scratch::new();
        assert_eq!(s.filled_buf(4, 9), &[9, 9, 9, 9]);
        s.filled_buf(4, 9)[0] = 1;
        // A fresh filled_buf never shows stale data.
        assert_eq!(s.filled_buf(4, 2), &[2; 4]);
    }

    #[test]
    fn reuse_does_not_reallocate() {
        let mut s: Scratch<u8> = Scratch::with_capacity(64);
        let cap = s.capacity();
        for _ in 0..10 {
            s.filled_buf(64, 0);
            s.uninit_buf(32, 0);
        }
        assert_eq!(s.capacity(), cap);
    }

    #[test]
    fn tallies_flush_to_stats_on_drop() {
        let before = crate::stats::snapshot();
        {
            let mut s: Scratch<u8> = Scratch::new();
            s.filled_buf(64, 0); // grows: alloc
            s.filled_buf(64, 0); // fits: reuse
            s.uninit_buf(32, 0); // fits: reuse
        } // drop flushes
        let d = crate::stats::snapshot().delta_since(&before);
        assert!(d.scratch_allocs >= 1, "{d:?}");
        assert!(d.scratch_reuses >= 2, "{d:?}");
    }

    #[test]
    fn capture_returns_owned_bytes_and_tallies_an_alloc() {
        let before = crate::stats::snapshot();
        let snap = {
            let mut s: Scratch<u16> = Scratch::new();
            let snap = s.capture(3, [4u16, 5, 6]);
            // The owned snapshot is independent of the reusable storage.
            s.filled_buf(8, 0);
            snap
        };
        assert_eq!(snap, [4, 5, 6]);
        let d = crate::stats::snapshot().delta_since(&before);
        assert!(d.scratch_allocs >= 1, "{d:?}");
    }

    #[test]
    fn uninit_buf_grows_on_demand() {
        let mut s: Scratch<u16> = Scratch::new();
        assert_eq!(s.uninit_buf(3, 5), &[5, 5, 5]);
        s.uninit_buf(3, 5)[2] = 8;
        assert_eq!(s.uninit_buf(6, 1)[3..], [1, 1, 1]);
    }
}
