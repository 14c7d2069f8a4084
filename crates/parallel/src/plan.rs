//! The parallel plan: [`ipt_core::Plan`] plus the route, which every
//! parallel transpose runs a `match` on and `ipt model` prints.

use core::fmt;
use std::mem::size_of;

use ipt_core::index::C2rParams;
use ipt_core::{kernels, Direction};

use crate::two_level::{self, TileKernel};
use crate::{phases, skinny, tiled, ParOptions};

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
    /// The tiled route ([`Plan::tile_side`]): the element path on the
    /// `m x n/L` matrix of 4 KiB blocks with one-block column groups,
    /// then the two-level transpose of the `m x L` panels, each `P`
    /// square `L x L` chunks.
    Tiled {
        /// The parameters of the `m x n/L` matrix of blocks; `None` when
        /// it is one block column, so the block-level passes have
        /// nothing to do.
        blocks: Option<C2rParams>,
        /// Tile side `L`: the elements one 4 KiB block holds.
        l: usize,
        /// Tiles per panel, `P = m/L`.
        p: usize,
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
    /// The element path on `params` for `elem_size`-byte elements, with
    /// `opts`'s column-group width and fine-window height.
    fn elements(params: C2rParams, elem_size: usize, opts: &ParOptions) -> Route {
        Route::Elements {
            params,
            // A group as wide as the matrix is one group.
            w: opts.width(elem_size).min(params.n),
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
        Plan::resolve(core, size_of::<T>(), two_level::padding_free::<T>(), opts)
    }

    /// [`Plan::new`] on elements that are `plain` when every byte of
    /// every value is initialised.
    fn resolve(core: ipt_core::Plan, elem_size: usize, plain: bool, opts: &ParOptions) -> Plan {
        let route = match core.params {
            None => Route::Nothing,
            Some(params) => match tiled::side(params.m, params.n, elem_size) {
                Some(l) => Route::Tiled {
                    blocks: (params.n > l).then(|| C2rParams::new(params.m, params.n / l)),
                    l,
                    p: params.m / l,
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

    /// The tile side `L` on the tiled route, else `None`.
    pub fn tile_side(&self) -> Option<usize> {
        match self.route {
            Route::Tiled { l, .. } => Some(l),
            _ => None,
        }
    }
}

/// Four lines: the direction and view; the route and its sizes; the gcd
/// and whether the rotation runs; the row-shuffle kernel and the tier
/// that chose it. The tiled route adds the chunk pass's kernel after the
/// route. A plan with nothing to do, or on the skinny route, prints the
/// first two.
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
            Route::Tiled {
                blocks,
                l,
                p,
                kernel,
            } => {
                let (m, n) = (self.core.m, self.core.n / l);
                writeln!(
                    f,
                    "route: tiled, L = {l}, P = {p} ({m} x {n} blocks of 4 KiB)"
                )?;
                writeln!(f, "chunk kernel: {}", kernel.name())?;
                let Some(blocks) = blocks else {
                    return write!(f, "block-level passes: nothing to do (one block column)");
                };
                blocks
            }
            Route::Skinny { k, main } => {
                let (m, n) = (self.core.m, self.core.n);
                return write!(
                    f,
                    "route: skinny (§6.1), K = {k}, P = {} chunks of {k} x {m}, {} structs peeled",
                    main / k,
                    n - main
                );
            }
        };
        let rotation = match self.core.direction {
            Direction::C2r => phases::PRE_ROTATE,
            Direction::R2c => phases::POST_ROTATE,
        };
        let verdict = if p.coprime() { "is skipped" } else { "runs" };
        writeln!(f, "gcd({}, {}) = {}: {rotation} {verdict}", p.m, p.n, p.c)?;
        let (kernel, tier) = (kernels::select(p).name(), kernels::active_tier().name());
        write!(f, "row shuffle: {kernel} kernel ({tier} tier)")
    }
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
            Route::Tiled { blocks, l, p, .. } => {
                let blocks = blocks.map(|b| (b.m, b.n));
                assert_eq!((blocks, l, p), (Some((1024, 3)), 512, 2));
            }
            r => panic!("{r:?}"),
        }
        // One block column: the block-level passes have nothing to do.
        match plan(1024, 512, Algorithm::C2r, 8).route {
            Route::Tiled { blocks, l, p, .. } => {
                assert_eq!((blocks.is_none(), l, p), (true, 512, 2));
            }
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
        assert!(lines[3].starts_with("row shuffle: "), "{text}");
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

    #[test]
    fn the_skinny_route_chunks_the_structs_and_peels_without_a_divisor() {
        // aos-skinny: 5120 divides 13,107,200 and its chunk fits 512 KiB.
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
            ]
        );
        // A prime struct count: the largest chunk that fits, 8192 structs
        // of 8 fields, and the 65521 mod 8192 = 8177 left over are peeled.
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
            ]
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
