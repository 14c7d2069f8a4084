//! The `cache-stream` request generator.
//!
//! Rows and cols are drawn log-uniform in `[MIN_DIM, MAX_DIM]`, so small
//! and large shapes are equally likely per octave; about 60% of such
//! pairs are coprime (`6 / pi^2`), which skips the rotation passes. One
//! request in four is a batch of [`HEADS`] same-shape heads.

use ipt_core::check::Rng;

/// Smallest drawn dimension.
pub const MIN_DIM: usize = 8;
/// Largest drawn dimension.
pub const MAX_DIM: usize = 1024;
/// Payload budget of one single-matrix request: fits one core's L2.
pub const SINGLE_BYTES: usize = 1 << 20;
/// Heads per batched request.
pub const HEADS: usize = 16;
/// Payload budget of one head of a batched request.
pub const HEAD_BYTES: usize = 64 << 10;

/// One request of the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Rows of each (row-major) matrix.
    pub rows: usize,
    /// Columns of each matrix.
    pub cols: usize,
    /// Element size in bytes: 4 (`u32`) or 8 (`u64`).
    pub elem: usize,
    /// 1 for a single `transpose_parallel` call, else [`HEADS`] for a
    /// `transpose_batched` call.
    pub batch: usize,
}

impl Request {
    /// Elements in the request's buffer.
    pub fn len(&self) -> usize {
        self.batch * self.rows * self.cols
    }

    /// Payload bytes of the request.
    pub fn bytes(&self) -> usize {
        self.len() * self.elem
    }

    /// Whether the shape skips the rotation passes (`gcd = 1`).
    #[cfg(test)]
    pub fn coprime(&self) -> bool {
        ipt_core::gcd::gcd(self.rows as u64, self.cols as u64) == 1
    }
}

/// `count` requests, fully determined by `seed`.
pub fn generate(seed: u64, count: usize) -> Vec<Request> {
    let mut rng = Rng::new(seed);
    (0..count)
        .map(|_| {
            let batch = if rng.chance(1, 4) { HEADS } else { 1 };
            let elem = if rng.chance(1, 2) { 8 } else { 4 };
            let budget = if batch == 1 { SINGLE_BYTES } else { HEAD_BYTES };
            loop {
                let (rows, cols) = (log_uniform(&mut rng), log_uniform(&mut rng));
                if rows * cols * elem <= budget {
                    return Request {
                        rows,
                        cols,
                        elem,
                        batch,
                    };
                }
            }
        })
        .collect()
}

fn log_uniform(rng: &mut Rng) -> usize {
    let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
    let span = (MAX_DIM as f64 / MIN_DIM as f64).ln();
    ((MIN_DIM as f64 * (u * span).exp()) as usize).clamp(MIN_DIM, MAX_DIM)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(generate(5, 1500), generate(5, 1500));
    }

    #[test]
    fn differs_across_seeds() {
        assert_ne!(generate(5, 64), generate(6, 64));
    }

    #[test]
    fn every_shape_fits_its_budget() {
        for seed in 0..8 {
            for r in generate(seed, 2000) {
                assert!((MIN_DIM..=MAX_DIM).contains(&r.rows), "{r:?}");
                assert!((MIN_DIM..=MAX_DIM).contains(&r.cols), "{r:?}");
                assert!(r.elem == 4 || r.elem == 8, "{r:?}");
                assert!(r.bytes() <= SINGLE_BYTES, "{r:?}");
                if r.batch > 1 {
                    assert_eq!(r.batch, HEADS);
                    assert!(r.rows * r.cols * r.elem <= HEAD_BYTES, "{r:?}");
                }
            }
        }
    }

    #[test]
    fn mix_matches_the_stated_shares() {
        let reqs = generate(42, 4000);
        let share = |f: &dyn Fn(&Request) -> bool| {
            reqs.iter().filter(|r| f(r)).count() as f64 / reqs.len() as f64
        };
        let batched = share(&|r| r.batch > 1);
        let coprime = share(&|r| r.coprime());
        let wide = share(&|r| r.elem == 8);
        assert!((0.2..0.3).contains(&batched), "batched share {batched}");
        assert!((0.5..0.7).contains(&coprime), "coprime share {coprime}");
        assert!((0.45..0.55).contains(&wide), "u64 share {wide}");
    }
}
