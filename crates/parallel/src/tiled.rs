//! The tiled route: two sweeps, the tiles in place and then one
//! permutation of pages (DESIGN.md §7).
//!
//! Let a 4 KiB page hold `L` elements of `T`, with `L` dividing both `m`
//! and `n`, and write element `(i, j)` of an `m x n` row-major matrix as
//! `i = pL + r`, `j = qL + s`, with `P = m/L` tile rows and `Q = n/L`
//! tile columns. C2R runs:
//!
//! 1. **The tile pass** ([`tile::transpose_tiles`]): every `L x L` tile
//!    transposed where it lies, its rows `n` elements apart, one executor
//!    task each. Element `(pL + r, qL + s)` now sits at `(pL + s, qL + r)`.
//! 2. **The page pass** ([`exec::run_pages`]): the buffer is `[P][L][Q]`
//!    pages of `L` elements, and page `(p, s, q)` holds the run of row
//!    `qL + s` of the transpose that belongs at columns `[pL, pL + L)`.
//!    So page `(p, s, q)` moves to page `(q, s, p)` of `[Q][L][P]`, one
//!    cycle-following sweep over whole pages.
//!
//! The two sweeps commute, and the page permutation of `(Q, P)` undoes
//! that of `(P, Q)`: R2C, whose input is the `n x m` matrix, runs the
//! page permutation of that shape first, then the tiles.
//!
//! The page pass marks cycle leaders in a bitmap of one bit per page,
//! `mn/L` bits, which [`Cycles::scan`] fills once per call. Since `L`
//! elements are 4096 bytes, those `mn/(8L)` bytes are `min(m, n)/32768`
//! times the bytes of `max(m, n)` elements: within the paper's
//! `O(max(m, n))` budget while `min(m, n) <= 32768`.
//!
//! The §6.1 skinny route's block pass is the same page pass with `Q = 1`
//! and pages of `K` elements, one `K`-struct block of a field each
//! ([`Pages::blocks`]): [`page_pass`] runs both.
//!
//! [`exec::run_pages`]: crate::exec::run_pages

use std::mem::size_of;

use crate::exec::run_pages;
use crate::tile::{self, TileKernel};
use crate::{grain, phases, run_pass, TransposeAborted};
use ipt_core::Direction;

/// Bytes of one page.
pub(crate) const PAGE_BYTES: usize = 4096;

/// Side `L` of the tiles `c2r_parallel::<T>` cuts an `m x n` matrix
/// into, or `None` when it takes the element path: the call's
/// [`crate::Plan::tile_side`].
///
/// ```
/// use ipt_parallel::tile_side;
///
/// assert_eq!(tile_side::<u64>(1024, 1536), Some(512));
/// assert_eq!(tile_side::<u64>(1024, 1000), None); // 512 does not divide 1000
/// assert_eq!(tile_side::<[u8; 3]>(4096, 4096), None); // 3 does not divide 4096
/// assert_eq!(tile_side::<u64>(0, 512), None); // nothing to do
/// ```
pub fn tile_side<T>(m: usize, n: usize) -> Option<usize> {
    side(m, n, size_of::<T>()).filter(|_| m > 1 && n > 1)
}

/// The route test of [`crate::Plan::new`]: the tile side `L` when a
/// 4 KiB page holds `L > 1` whole `elem_size`-byte elements and `L`
/// divides both `m` and `n`. A 4 KiB element is its own page, so it
/// takes the element path.
pub(crate) fn side(m: usize, n: usize, elem_size: usize) -> Option<usize> {
    if elem_size == 0 || PAGE_BYTES % elem_size != 0 {
        return None;
    }
    let l = PAGE_BYTES / elem_size;
    (l > 1 && m % l == 0 && n % l == 0).then_some(l)
}

/// The tiled route's two passes on the plan's `m x n` (see
/// [`crate::Route::Tiled`]), the tiles transposed with the plan's
/// `kernel`: C2R transposes the tiles of the `m x n` input, then permutes
/// its pages; R2C permutes the pages of its `n x m` input, then
/// transposes the tiles of the `m x n` result.
pub(crate) fn run<T: Copy + Send + Sync + 'static>(
    data: &mut [T],
    dir: Direction,
    (m, n): (usize, usize),
    l: usize,
    kernel: TileKernel,
) -> Result<(), TransposeAborted> {
    let tiles = |data: &mut [T]| {
        run_pass(phases::CHUNK_TRANSPOSE, data, |d| {
            tile::transpose_tiles(d, (m, n), l, kernel)
        })
    };
    let pages = Pages::of(dir, (m, n), l);
    match dir {
        Direction::C2r => {
            tiles(data)?;
            page_pass(data, pages)
        }
        Direction::R2c => {
            page_pass(data, pages)?;
            tiles(data)
        }
    }
}

/// The page pass of the tiled and skinny routes, recorded as
/// [`phases::PAGE_PERMUTE`]: every page of `data` moved to its place by
/// `pages`, one segment per worker. Not run when every page is in place.
pub(crate) fn page_pass<T: Copy + Send + Sync + 'static>(
    data: &mut [T],
    pages: Pages,
) -> Result<(), TransposeAborted> {
    if pages.fixed() {
        return Ok(());
    }
    run_pass(phases::PAGE_PERMUTE, data, |d| {
        run_pages(
            d,
            &Cycles::scan(pages, ipt_pool::num_threads()),
            phases::PAGE_PERMUTE,
        )
    })
}

/// The page permutation of a buffer of `[p][s][q]` pages of `len`
/// elements: page `(a, c, b)` moves to page `(b, c, a)` of `[q][s][p]`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Pages {
    p: usize,
    s: usize,
    q: usize,
    len: usize,
}

impl Pages {
    /// The page permutation the tiled route runs in direction `dir` on
    /// the plan's `m x n` with tile side `l`: that of the `m x n` input
    /// for C2R, of the `n x m` input for R2C. Its pages are `l` long.
    pub(crate) fn of(dir: Direction, (m, n): (usize, usize), l: usize) -> Pages {
        let (p, q) = match dir {
            Direction::C2r => (m / l, n / l),
            Direction::R2c => (n / l, m / l),
        };
        Pages { p, s: l, q, len: l }
    }

    /// The transpose of a `rows x cols` row-major matrix of `k`-element
    /// blocks, the §6.1 block pass: block `(a, b)` is page `(a, b, 0)` of
    /// `[rows][cols][1]` and moves to page `(0, b, a)` of `[1][cols][rows]`.
    pub(crate) fn blocks((rows, cols): (usize, usize), k: usize) -> Pages {
        Pages {
            p: rows,
            s: cols,
            q: 1,
            len: k,
        }
    }

    /// Whether every page is in place already: one tile (`p = q = 1`),
    /// or one row or column of blocks (`s = 1` and `p` or `q` is 1).
    pub(crate) fn fixed(&self) -> bool {
        self.p.max(self.q) == 1 || (self.s == 1 && self.p.min(self.q) == 1)
    }

    /// The number of pages.
    fn count(&self) -> usize {
        self.p * self.s * self.q
    }

    /// The page whose content moves to page `y`.
    #[inline]
    fn source(&self, y: usize) -> usize {
        let (t, a) = (y / self.p, y % self.p);
        let (b, c) = (t / self.s, t % self.s);
        (a * self.s + c) * self.q + b
    }
}

/// Where one worker's segment of the page pass begins, and how far it
/// goes. Its moves walk cycles against the permutation: each page is
/// overwritten by its [`Cycles::source`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Segment {
    /// The leader of the cycle the first move is on.
    pub(crate) leader: usize,
    /// The page the first move writes: `leader` when the segment begins
    /// a cycle, else a page an earlier segment's cut fell before.
    pub(crate) first: usize,
    /// The segment's moves: one page written each.
    pub(crate) moves: usize,
    /// When the last move falls inside a cycle, the page whose content
    /// it writes: the next segment's first page, which that segment
    /// overwrites first.
    pub(crate) close: Option<usize>,
}

/// The cycles of a page permutation, and its moves cut into one segment
/// per worker.
///
/// Take the cycles in the order of their leaders (their smallest pages),
/// each as the moves of its walk, and cut that sequence into equal
/// segments. A cycle a cut falls inside is cut there; every other cycle
/// is moved whole by the segment it falls in. So the segment list is as
/// long as the pool is wide, whatever the number of cycles.
#[derive(Debug)]
pub(crate) struct Cycles {
    pages: Pages,
    /// One bit per page, clear exactly on the leaders of the cycles with
    /// pages to move.
    marks: Vec<u64>,
    /// Cycles, fixed points included.
    pub(crate) count: usize,
    /// Pages in the longest cycle.
    pub(crate) longest: usize,
    /// One per worker, in order.
    pub(crate) segments: Vec<Segment>,
}

impl Cycles {
    /// Scan the cycles of `pages` and cut their moves into a segment per
    /// worker for `threads` workers, fewer when a segment would move less
    /// than a worker's grain. Index arithmetic only: no page is read.
    pub(crate) fn scan(pages: Pages, threads: usize) -> Cycles {
        let total = pages.count();
        let moved = total - (0..total).filter(|&y| pages.source(y) == y).count();
        let parts = threads.min(moved / grain(pages.len)).max(1);
        // The move at which segment `k` begins.
        let start = |k: usize| k * (moved / parts) + k.min(moved % parts);
        let mut marks = vec![0u64; total.div_ceil(64)];
        let mut segments: Vec<Segment> = Vec::with_capacity(parts);
        let (mut count, mut longest, mut done) = (0, 0, 0);
        for leader in 0..total {
            if marks[leader / 64] >> (leader % 64) & 1 == 1 {
                continue;
            }
            count += 1;
            if pages.source(leader) == leader {
                // A fixed point: nothing moves, so no segment visits it.
                marks[leader / 64] |= 1 << (leader % 64);
                longest = longest.max(1);
                continue;
            }
            let (mut to, mut len) = (leader, 0);
            loop {
                let k = segments.len();
                if k < parts && done + len == start(k) {
                    if let Some(prev) = segments.last_mut().filter(|_| len > 0) {
                        prev.close = Some(to);
                    }
                    segments.push(Segment {
                        leader,
                        first: to,
                        moves: start(k + 1) - start(k),
                        close: None,
                    });
                }
                let from = pages.source(to);
                len += 1;
                if from == leader {
                    break;
                }
                marks[from / 64] |= 1 << (from % 64);
                to = from;
            }
            longest = longest.max(len);
            done += len;
        }
        Cycles {
            pages,
            marks,
            count,
            longest,
            segments,
        }
    }

    /// Elements per page.
    pub(crate) fn page_len(&self) -> usize {
        self.pages.len
    }

    /// The number of pages.
    pub(crate) fn pages(&self) -> usize {
        self.pages.count()
    }

    /// The page whose content moves to page `y`.
    #[inline]
    pub(crate) fn source(&self, y: usize) -> usize {
        self.pages.source(y)
    }

    /// The first leader of a cycle with pages to move from page `y` on.
    pub(crate) fn next_leader(&self, y: usize) -> usize {
        (y..self.pages.count())
            .find(|&y| self.marks[y / 64] >> (y % 64) & 1 == 0)
            .expect("a segment ends on its last move")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_route_needs_whole_elements_per_block_dividing_both_sides() {
        assert_eq!(tile_side::<u64>(512, 1024), Some(512));
        assert_eq!(tile_side::<u32>(1024, 2048), Some(1024));
        assert_eq!(tile_side::<[u64; 64]>(8, 24), Some(8));
        assert_eq!(tile_side::<u64>(512, 768), None);
        assert_eq!(tile_side::<u64>(256, 1024), None);
        assert_eq!(tile_side::<[u8; 4096]>(2, 2), None);
        assert_eq!(tile_side::<[u8; 8192]>(2, 2), None);
        assert_eq!(tile_side::<()>(4096, 4096), None);
    }

    /// The cycles of `pages` by a brute-force walk of the index map:
    /// their lengths, in the order of their smallest pages.
    fn brute_force(pages: Pages) -> Vec<usize> {
        let total = pages.count();
        // Where each page moves: the inverse of `source`.
        let mut dest = vec![usize::MAX; total];
        for y in 0..total {
            let (b, c, a) = (y / (pages.s * pages.p), y / pages.p % pages.s, y % pages.p);
            let x = (a * pages.s + c) * pages.q + b;
            assert_eq!(pages.source(y), x);
            assert_eq!(dest[x], usize::MAX, "a bijection");
            dest[x] = y;
        }
        let mut seen = vec![false; total];
        let mut lengths = Vec::new();
        for x in 0..total {
            let mut len = 0;
            let mut y = x;
            while !seen[y] {
                seen[y] = true;
                len += 1;
                y = dest[y];
            }
            if len > 0 {
                lengths.push(len);
            }
        }
        lengths
    }

    #[test]
    fn the_scan_counts_the_cycles_and_cuts_every_move_into_one_segment() {
        // The tiled route's [P][L][Q] pages of L elements, then the §6.1
        // block pass's [P][s][1] pages of K elements, K not s, one row
        // and one column of blocks (every page in place) included.
        let tiled = [
            (1usize, 8usize, 1usize),
            (2, 8, 3),
            (3, 8, 2),
            (4, 8, 4),
            (5, 16, 1),
            (1, 16, 6),
            (2, 512, 3),
            (6, 8, 5),
        ]
        .map(|(p, l, q)| Pages::of(Direction::C2r, (p * l, q * l), l));
        let blocks = [
            (7usize, 12usize, 5usize),
            (12, 7, 3),
            (2, 3, 70),
            (1, 4, 9),
            (4, 1, 9),
        ]
        .map(|(p, s, k)| Pages::blocks((p, s), k));
        for pages in tiled.into_iter().chain(blocks) {
            let lengths = brute_force(pages);
            let moved: usize = lengths.iter().filter(|&&c| c > 1).sum();
            assert_eq!(pages.fixed(), moved == 0, "{pages:?}");
            for threads in [1usize, 2, 3, 7] {
                let cycles = Cycles::scan(pages, threads);
                let what = format!("{pages:?}, {threads} threads");
                assert_eq!(cycles.count, lengths.len(), "{what}");
                assert_eq!(Some(&cycles.longest), lengths.iter().max(), "{what}");
                let segments = &cycles.segments;
                assert!(segments.len() <= threads, "{what}");
                // Walk each segment as the page pass does: every page that
                // moves is written once, the segments are equal, and each
                // one that ends inside a cycle ends where the next begins.
                let mut written = vec![0u8; pages.count()];
                for (k, seg) in segments.iter().enumerate() {
                    let (mut leader, mut y) = (seg.leader, seg.first);
                    for i in 0..seg.moves {
                        written[y] += 1;
                        y = cycles.source(y);
                        if y == leader && i + 1 < seg.moves {
                            leader = cycles.next_leader(leader + 1);
                            y = leader;
                        }
                    }
                    let next = segments.get(k + 1);
                    let inside = next.is_some_and(|n| n.first != n.leader);
                    assert_eq!(seg.close.is_some(), inside, "{what}: segment {k}");
                    if let (Some(close), Some(n)) = (seg.close, next) {
                        assert_eq!(close, n.first, "{what}");
                        assert_eq!(y, close, "{what}: segment {k} ends at the next");
                    }
                    let (lo, hi) = (moved / segments.len(), moved.div_ceil(segments.len()));
                    assert!((lo..=hi).contains(&seg.moves), "{what}: {segments:?}");
                }
                for (y, &w) in written.iter().enumerate() {
                    let fixed = cycles.source(y) == y;
                    assert_eq!(w, u8::from(!fixed), "{what}: page {y}");
                }
                assert_eq!(segments.is_empty(), moved == 0, "{what}");
            }
        }
    }
}
