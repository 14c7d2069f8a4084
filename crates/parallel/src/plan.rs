//! The parallel plan: [`ipt_core::Plan`] plus the route, which every
//! parallel transpose runs a `match` on and `ipt model` prints.

use core::fmt;
use std::mem::size_of;

use ipt_core::index::C2rParams;
use ipt_core::{kernels, Direction};

use crate::tile::{self, TileKernel};
use crate::tiled::{self, Cycles, Pages};
use crate::{phases, skinny, ParOptions};

/// How a parallel call moves its data.
#[derive(Debug, Clone, Copy)]
pub enum Route {
    /// `m <= 1` or `n <= 1`: a vector, or an empty matrix, is its own
    /// transpose, so no pass runs and none is recorded.
    Nothing,
    /// The element path on the plan's `m x n`.
    Elements {
        /// The parameters of the plan's `m x n`.
        params: C2rParams,
        /// Column-group width in elements ([`ParOptions::group_width`]),
        /// at most `n`.
        w: usize,
        /// Fine-window height in rows ([`ParOptions::block_rows`]).
        h: usize,
    },
    /// The tiled route ([`Plan::tile_side`]): every `L x L` tile of the
    /// `m x n` matrix transposed in place, then one cycle-following
    /// permutation of its 4 KiB pages (DESIGN.md §7).
    Tiled {
        /// Tile side `L`: the elements one 4 KiB page holds.
        l: usize,
        /// Tile rows of the `m x n` matrix, `P = m/L`.
        p: usize,
        /// Tile columns of the `m x n` matrix, `Q = n/L`.
        q: usize,
        /// The kernel that transposes the tiles in place.
        kernel: TileKernel,
    },
    /// The §6.1 skinny route of `transpose_skinny_{c2r,r2c}`: the
    /// two-level transpose of `m` fields by `n` structs in chunks of `K`
    /// structs.
    Skinny {
        /// Structs per chunk, `K`.
        k: usize,
        /// Structs the two-level transpose converts, a multiple of `K`;
        /// the other `n - main` are the peeled tail.
        main: usize,
    },
}

impl Route {
    /// The element path on `params` for `elem_size`-byte elements: column
    /// groups of [`ParOptions::group_width`], fine windows of `opts`'s
    /// height.
    fn elements(params: C2rParams, elem_size: usize, opts: &ParOptions) -> Route {
        Route::Elements {
            params,
            // A group as wide as the matrix is one group.
            w: crate::width(elem_size).min(params.n),
            h: opts.block_rows,
        }
    }
}

/// One resolved parallel call: its direction and view
/// ([`ipt_core::Plan`]) and its [`Route`]. [`Plan::new`] is its public
/// constructor.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// The direction and the view.
    pub core: ipt_core::Plan,
    /// How the call moves its data.
    pub route: Route,
}

impl Plan {
    /// The route of a resolved call on `elem_size`-byte elements with no
    /// padding bytes (an integer type of that size): tiled when a 4 KiB
    /// block holds `L > 1` whole elements and `L` divides both sides of
    /// the plan's `m x n`, else the element path.
    pub fn new(core: ipt_core::Plan, elem_size: usize, opts: &ParOptions) -> Plan {
        Plan::resolve(core, elem_size, true, opts)
    }

    /// The plan of a resolved call on `T` elements, which the parallel
    /// entry points run: as [`Plan::new`], with the tiled route's chunk
    /// kernel chosen for `T` itself.
    pub(crate) fn of<T: 'static>(core: ipt_core::Plan, opts: &ParOptions) -> Plan {
        Plan::resolve(core, size_of::<T>(), tile::padding_free::<T>(), opts)
    }

    /// [`Plan::new`] on elements that are `plain` when every byte of
    /// every value is initialised.
    fn resolve(core: ipt_core::Plan, elem_size: usize, plain: bool, opts: &ParOptions) -> Plan {
        let route = match core.params {
            None => Route::Nothing,
            Some(params) => match tiled::side(params.m, params.n, elem_size) {
                Some(l) => Route::Tiled {
                    l,
                    p: params.m / l,
                    q: params.n / l,
                    kernel: TileKernel::select(elem_size, plain, l),
                },
                None => Route::elements(params, elem_size, opts),
            },
        };
        Plan { core, route }
    }

    /// The §6.1 skinny route of a resolved call on `elem_size`-byte
    /// elements, `m` fields by `n` structs: `transpose_skinny_{c2r,r2c}`.
    /// A struct too wide for one chunk ([`skinny::fits_a_chunk`]) takes
    /// the element path with the default [`ParOptions`].
    pub(crate) fn skinny(core: ipt_core::Plan, elem_size: usize) -> Plan {
        let route = match core.params {
            None => Route::Nothing,
            Some(_) if skinny::fits_a_chunk(core.m, elem_size) => {
                skinny::route(core.m, core.n, elem_size)
            }
            Some(params) => Route::elements(params, elem_size, &ParOptions::default()),
        };
        Plan { core, route }
    }

    /// The plan of each head of a batched call on `elem_size`-byte
    /// elements: the element path with the default [`ParOptions`], which
    /// runs on the whole stack of heads, even for a head the tiled route
    /// would take; nothing to do for a vector.
    pub(crate) fn stacked(core: ipt_core::Plan, elem_size: usize) -> Plan {
        let elements = |p| Route::elements(p, elem_size, &ParOptions::default());
        let route = core.params.map_or(Route::Nothing, elements);
        Plan { core, route }
    }

    /// The tile side `L` on the tiled route, else `None`.
    pub fn tile_side(&self) -> Option<usize> {
        match self.route {
            Route::Tiled { l, .. } => Some(l),
            _ => None,
        }
    }
}

/// Four lines: the direction and view; the route and its sizes; then on
/// the element path the gcd and whether the rotation runs, and the
/// row-shuffle kernel, which [`kernels::select`] picks from the shape
/// alone; on the tiled route the tile kernel, and the page permutation's
/// cycles and segments from the scan its pass runs. The skinny route
/// prints the page permutation after its first two lines, a plan with
/// nothing to do only the first two.
impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "plan: {}", self.core)?;
        let p = match &self.route {
            Route::Nothing => {
                return write!(f, "route: nothing to do (a vector or an empty matrix)")
            }
            Route::Elements { params, w, h } => {
                writeln!(f, "route: element path, w = {w}, h = {h}")?;
                params
            }
            &Route::Tiled { l, p, q, kernel } => {
                writeln!(
                    f,
                    "route: tiled, L = {l}, P = {p}, Q = {q} tiles of {l} x {l}"
                )?;
                writeln!(f, "chunk kernel: {}", kernel.name())?;
                let pages = Pages::of(self.core.direction, (self.core.m, self.core.n), l);
                return page_permutation(f, pages, "tile");
            }
            &Route::Skinny { k, main } => {
                let (m, n) = (self.core.m, self.core.n);
                writeln!(
                    f,
                    "route: skinny (§6.1), K = {k}, P = {} chunks of {k} x {m}, {} structs peeled",
                    main / k,
                    n - main
                )?;
                let pages = skinny::pages(self.core.direction, (main / k, k, m));
                return page_permutation(f, pages, "chunk");
            }
        };
        let rotation = match self.core.direction {
            Direction::C2r => phases::PRE_ROTATE,
            Direction::R2c => phases::POST_ROTATE,
        };
        let verdict = if p.coprime() { "is skipped" } else { "runs" };
        writeln!(f, "gcd({}, {}) = {}: {rotation} {verdict}", p.m, p.n, p.c)?;
        write!(f, "row shuffle: {} kernel", kernels::select(p).name())
    }
}

/// The page pass's line: its pages, cycles and segments from the scan
/// the pass runs, or nothing to do when every page is in place (one
/// `unit`).
fn page_permutation(f: &mut fmt::Formatter<'_>, pages: Pages, unit: &str) -> fmt::Result {
    if pages.fixed() {
        return write!(f, "page permutation: nothing to do (one {unit})");
    }
    let c = Cycles::scan(pages, ipt_pool::num_threads());
    write!(
        f,
        "page permutation: {} pages in {} cycles, the longest {} pages, {} segments",
        c.pages(),
        c.count,
        c.longest,
        c.segments.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipt_core::{Algorithm, Layout};

    fn plan(rows: usize, cols: usize, alg: Algorithm, elem_size: usize) -> Plan {
        let core = ipt_core::Plan::new(rows * cols, rows, cols, Layout::RowMajor, alg);
        Plan::new(core, elem_size, &ParOptions::default())
    }

    #[test]
    fn the_route_follows_the_shape_and_the_element_size() {
        // Degenerate shapes have nothing to do, whatever the element.
        for (rows, cols) in [(0usize, 512usize), (512, 0), (0, 0), (1, 512), (512, 1)] {
            let p = plan(rows, cols, Algorithm::Auto, 8);
            assert!(matches!(p.route, Route::Nothing), "{rows}x{cols}");
        }
        match plan(1024, 1536, Algorithm::C2r, 8).route {
            Route::Tiled { l, p, q, .. } => assert_eq!((l, p, q), (512, 2, 3)),
            r => panic!("{r:?}"),
        }
        // One tile column.
        match plan(1024, 512, Algorithm::C2r, 8).route {
            Route::Tiled { l, p, q, .. } => assert_eq!((l, p, q), (512, 2, 1)),
            r => panic!("{r:?}"),
        }
        // R2C runs on the swapped parameters: the same 1024 x 1536.
        assert_eq!(plan(1536, 1024, Algorithm::R2c, 8).tile_side(), Some(512));
        // 512 does not divide 1000; 4096 is not a multiple of 3.
        assert_eq!(plan(1024, 1000, Algorithm::C2r, 8).tile_side(), None);
        assert_eq!(plan(4096, 4096, Algorithm::C2r, 3).tile_side(), None);
        match plan(96, 64, Algorithm::C2r, 8).route {
            Route::Elements { params, w, h } => {
                assert_eq!((params.m, params.n, w, h), (96, 64, 32, 256));
            }
            r => panic!("{r:?}"),
        }
    }

    #[test]
    fn display_prints_the_route_rotation_and_kernel() {
        let text = plan(96, 64, Algorithm::C2r, 8).to_string();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "{text}");
        assert_eq!(
            lines[0],
            "plan: C2R on the row-major 96 x 64 view of a row-major matrix"
        );
        assert_eq!(lines[1], "route: element path, w = 32, h = 256");
        assert_eq!(lines[2], "gcd(96, 64) = 32: pre_rotate runs");
        assert_eq!(lines[3], "row shuffle: block4 kernel");
        let text = plan(48, 61, Algorithm::R2c, 8).to_string();
        assert!(
            text.contains("gcd(61, 48) = 1: post_rotate is skipped"),
            "{text}"
        );
        let text = plan(0, 512, Algorithm::Auto, 8).to_string();
        assert!(text.ends_with("route: nothing to do (a vector or an empty matrix)"));
    }

    /// The skinny plan of `aos_to_soa` on `structs` structs of `fields`
    /// `u64` fields: R2C on the `structs x fields` buffer.
    fn aos_to_soa(structs: usize, fields: usize) -> Plan {
        let core = ipt_core::Plan::new(
            structs * fields,
            structs,
            fields,
            Layout::RowMajor,
            Algorithm::R2c,
        );
        Plan::skinny(core, 8)
    }

    /// The cycles of the transpose of a `rows x cols` grid, by a
    /// brute-force walk: how many, and the longest.
    fn grid_cycles(rows: usize, cols: usize) -> (usize, usize) {
        let dest = |i: usize| (i % cols) * rows + i / cols;
        let mut seen = vec![false; rows * cols];
        let (mut count, mut longest) = (0, 0);
        for x in 0..rows * cols {
            let (mut y, mut len) = (x, 0);
            while !seen[y] {
                seen[y] = true;
                len += 1;
                y = dest(y);
            }
            if len > 0 {
                count += 1;
                longest = longest.max(len);
            }
        }
        (count, longest)
    }

    #[test]
    fn the_skinny_route_chunks_the_structs_and_peels_without_a_divisor() {
        // Both page passes below move more pages than workers, so each
        // worker gets a segment.
        crate::force_multithreaded_pool();
        let threads = ipt_pool::num_threads();
        // aos-skinny: 5120 divides 13,107,200 and its chunk fits 512 KiB.
        // Its page pass transposes the 2560 x 12 grid of 5120-struct
        // blocks.
        assert_eq!(grid_cycles(2560, 12), (60, 1104));
        let p = aos_to_soa(13_107_200, 12);
        assert!(
            matches!(
                p.route,
                Route::Skinny {
                    k: 5120,
                    main: 13_107_200
                }
            ),
            "{p:?}"
        );
        let lines: Vec<String> = p.to_string().lines().map(String::from).collect();
        assert_eq!(
            lines,
            [
                "plan: R2C on the row-major 13107200 x 12 view of a row-major matrix",
                "route: skinny (§6.1), K = 5120, P = 2560 chunks of 5120 x 12, 0 structs peeled",
                &format!(
                    "page permutation: 30720 pages in 60 cycles, the longest 1104 pages, {threads} segments"
                ),
            ]
        );
        // A prime struct count: the largest chunk that fits, 8192 structs
        // of 8 fields, and the 65521 mod 8192 = 8177 left over are peeled.
        // C2R's page pass transposes the 8 x 7 grid of blocks.
        assert_eq!(grid_cycles(8, 7), (6, 20));
        let core = ipt_core::Plan::new(8 * 65_521, 8, 65_521, Layout::RowMajor, Algorithm::C2r);
        let p = Plan::skinny(core, 8);
        assert!(
            matches!(
                p.route,
                Route::Skinny {
                    k: 8192,
                    main: 57_344
                }
            ),
            "{p:?}"
        );
        let lines: Vec<String> = p.to_string().lines().map(String::from).collect();
        assert_eq!(
            lines,
            [
                "plan: C2R on the row-major 8 x 65521 view of a row-major matrix",
                "route: skinny (§6.1), K = 8192, P = 7 chunks of 8192 x 8, 8177 structs peeled",
                &format!(
                    "page permutation: 56 pages in 6 cycles, the longest 20 pages, {threads} segments"
                ),
            ]
        );
        // A prefix of one chunk has no page to move.
        let text = aos_to_soa(1000, 12).to_string();
        assert!(
            text.ends_with(
                "route: skinny (§6.1), K = 1000, P = 1 chunks of 1000 x 12, 0 structs peeled\n\
                 page permutation: nothing to do (one chunk)"
            ),
            "{text}"
        );
        // One field, or no struct, is nothing to do.
        assert!(matches!(aos_to_soa(50, 1).route, Route::Nothing));
        assert!(matches!(aos_to_soa(0, 12).route, Route::Nothing));
    }

    #[test]
    fn a_struct_wider_than_a_chunk_takes_the_element_path() {
        // 100000 fields of u64 make an 800 KB struct, past the 512 KiB
        // chunk: the element path with the default options, both ways.
        let c2r = ipt_core::Plan::new(700_000, 100_000, 7, Layout::RowMajor, Algorithm::C2r);
        for p in [aos_to_soa(7, 100_000), Plan::skinny(c2r, 8)] {
            match p.route {
                Route::Elements { params, w, h } => {
                    assert_eq!((params.m, params.n, w, h), (100_000, 7, 7, 256), "{p:?}");
                }
                r => panic!("{r:?}"),
            }
            let text = p.to_string();
            assert!(
                text.contains("route: element path, w = 7, h = 256"),
                "{text}"
            );
        }
        // A struct of exactly 512 KiB still fits one chunk.
        assert!(matches!(
            aos_to_soa(3, 65_536).route,
            Route::Skinny { k: 1, main: 3 }
        ));
    }

    #[test]
    fn a_padded_element_takes_the_scalar_chunk_kernel() {
        // `Plan::new` plans for integers, so a `u64` call's plan (and its
        // text) is the same; an 8-byte struct with 2 padding bytes keeps
        // the tiled route but never takes the AVX2 kernel.
        #[repr(C)]
        #[derive(Clone, Copy)]
        struct Padded {
            _a: u32,
            _b: u16,
        }
        let core = ipt_core::Plan::new(1024 * 1536, 1024, 1536, Layout::RowMajor, Algorithm::C2r);
        let opts = ParOptions::default();
        let ints = Plan::new(core, 8, &opts);
        assert_eq!(Plan::of::<u64>(core, &opts).to_string(), ints.to_string());
        let padded = Plan::of::<Padded>(core, &opts);
        match (ints.route, padded.route) {
            (Route::Tiled { kernel: k, .. }, Route::Tiled { kernel, l, .. }) => {
                assert_eq!(k, TileKernel::select(8, true, 512));
                assert_eq!((kernel, l), (TileKernel::Scalar, 512));
            }
            r => panic!("{r:?}"),
        }
        let text = padded.to_string();
        assert_eq!(
            text.lines().nth(2),
            Some("chunk kernel: scalar 16 x 16 sub-tile pairs"),
            "{text}"
        );
    }
}
