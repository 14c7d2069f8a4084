//! The parallel plan: [`ipt_core::Plan`] plus the route, which every
//! parallel transpose runs a `match` on and `ipt model` prints.

use core::fmt;

use ipt_core::index::C2rParams;
use ipt_core::{kernels, Direction};

use crate::{phases, tiled, ParOptions};

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
        /// Column-group width in elements ([`ParOptions::group_width`]).
        w: usize,
        /// Fine-window height in rows ([`ParOptions::block_rows`]).
        h: usize,
    },
    /// The tiled route ([`Plan::tile_side`]): the element path on the
    /// `m x n/L` matrix of 4 KiB blocks with one-block column groups, the
    /// `L x L` tiles, then the `m x L` panels.
    Tiled {
        /// The parameters of the `m x n/L` matrix of blocks; `None` when
        /// it is one block column, so the block-level passes have
        /// nothing to do.
        blocks: Option<C2rParams>,
        /// Tile side `L`: the elements one 4 KiB block holds.
        l: usize,
        /// Tiles per panel, `P = m/L`.
        p: usize,
        /// Fine-window height in rows for the block-level passes.
        h: usize,
    },
}

/// One resolved parallel call: its direction and view
/// ([`ipt_core::Plan`]) and its [`Route`]. [`Plan::new`] is its one
/// constructor.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// The direction and the view.
    pub core: ipt_core::Plan,
    /// How the call moves its data.
    pub route: Route,
}

impl Plan {
    /// The route of a resolved call on `elem_size`-byte elements: tiled
    /// when a 4 KiB block holds `L > 1` whole elements and `L` divides
    /// both sides of the plan's `m x n`, else the element path.
    pub fn new(core: ipt_core::Plan, elem_size: usize, opts: &ParOptions) -> Plan {
        let h = opts.block_rows;
        let route = match core.params {
            None => Route::Nothing,
            Some(params) => match tiled::side(params.m, params.n, elem_size) {
                Some(l) => Route::Tiled {
                    blocks: (params.n > l).then(|| C2rParams::new(params.m, params.n / l)),
                    l,
                    p: params.m / l,
                    h,
                },
                None => Route::Elements {
                    params,
                    w: opts.width(elem_size),
                    h,
                },
            },
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
/// that chose it. A plan with nothing to do prints the first two.
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
            Route::Tiled { blocks, l, p, .. } => {
                let (m, n) = (self.core.m, self.core.n / l);
                writeln!(
                    f,
                    "route: tiled, L = {l}, P = {p} ({m} x {n} blocks of 4 KiB)"
                )?;
                let Some(blocks) = blocks else {
                    return write!(f, "block-level passes: nothing to do (one block column)");
                };
                blocks
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
}
