//! Seeded position patterns and the transpose verifier.
//!
//! Every input element encodes its own linear index under a per-seed key,
//! so a buffer can be checked in place after a call: position by
//! position, with no second copy of the matrix (the DRAM workloads hold
//! 1200 MiB).

use std::thread;

/// Odd multiplier: `l -> l * K ^ key` is a bijection on the integers of
/// the element's width, so no two positions share a value.
const K64: u64 = 0x9e37_79b9_7f4a_7c15;

/// An element type the benchmark fills and verifies.
pub trait Elem: Copy + PartialEq + Send + Sync + 'static {
    /// Size in bytes.
    const BYTES: usize = std::mem::size_of::<Self>();
    /// The value at linear input position `l` under `key`.
    fn tag(l: usize, key: u64) -> Self;
}

impl Elem for u64 {
    #[inline]
    fn tag(l: usize, key: u64) -> u64 {
        (l as u64).wrapping_mul(K64) ^ key
    }
}

impl Elem for u32 {
    #[inline]
    fn tag(l: usize, key: u64) -> u32 {
        (l as u32).wrapping_mul(K64 as u32) ^ key as u32
    }
}

/// A key for `seed`, decorrelated per `salt` (one salt per buffer).
pub fn key(seed: u64, salt: u64) -> u64 {
    ipt_core::check::Rng::new(seed ^ salt.wrapping_mul(K64)).next_u64()
}

/// Threads used to fill and verify large buffers (setup and checks run
/// outside the timed region, so they may use every core).
fn workers(len: usize) -> usize {
    if len < 1 << 20 {
        1
    } else {
        thread::available_parallelism().map_or(1, |n| n.get())
    }
}

/// `buf[l] = tag(l)`: the row-major input matrix, any shape.
pub fn fill<T: Elem>(buf: &mut [T], key: u64) {
    let parts = workers(buf.len());
    let chunk = buf.len().div_ceil(parts).max(1);
    thread::scope(|s| {
        for (c, part) in buf.chunks_mut(chunk).enumerate() {
            s.spawn(move || {
                let base = c * chunk;
                for (k, slot) in part.iter_mut().enumerate() {
                    *slot = T::tag(base + k, key);
                }
            });
        }
    });
}

/// Check `buf` against the pattern of a `rows x cols` row-major input:
/// unchanged when `transposed` is false, else its `cols x rows`
/// transpose.
pub fn verify<T: Elem>(buf: &[T], rows: usize, cols: usize, transposed: bool, key: u64) -> bool {
    if buf.len() != rows * cols {
        return false;
    }
    let parts = workers(buf.len());
    let chunk = buf.len().div_ceil(parts).max(1);
    thread::scope(|s| {
        let checks: Vec<_> = buf
            .chunks(chunk)
            .enumerate()
            .map(|(c, part)| {
                s.spawn(move || check_range(part, c * chunk, rows, cols, transposed, key))
            })
            .collect();
        checks
            .into_iter()
            .all(|h| h.join().expect("verifier thread panicked"))
    })
}

/// Check `vals`, which sit at positions `pos0..` of the output buffer.
pub fn check_range<T: Elem>(
    vals: &[T],
    pos0: usize,
    rows: usize,
    cols: usize,
    transposed: bool,
    key: u64,
) -> bool {
    if !transposed {
        return vals
            .iter()
            .enumerate()
            .all(|(k, &x)| x == T::tag(pos0 + k, key));
    }
    // Output is cols x rows: position (i, j) holds input (j, i).
    let (mut i, mut j) = (pos0 / rows, pos0 % rows);
    for &x in vals {
        if x != T::tag(j * cols + i, key) {
            return false;
        }
        j += 1;
        if j == rows {
            j = 0;
            i += 1;
        }
    }
    true
}

/// [`check_range`] over little-endian `u64` bytes at element position
/// `pos0` (file contents, or the type-erased path's buffers).
pub fn check_bytes(
    bytes: &[u8],
    pos0: usize,
    rows: usize,
    cols: usize,
    transposed: bool,
    key: u64,
) -> bool {
    const STEP: usize = 8192;
    let mut vals = Vec::with_capacity(STEP);
    bytes.chunks(STEP * 8).enumerate().all(|(c, chunk)| {
        vals.clear();
        vals.extend(
            chunk
                .chunks_exact(8)
                .map(|b| u64::from_le_bytes(b.try_into().expect("8-byte chunk"))),
        );
        chunk.len() % 8 == 0 && check_range(&vals, pos0 + c * STEP, rows, cols, transposed, key)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipt_core::check::reference_transpose;
    use ipt_core::Layout;

    #[test]
    fn verifier_accepts_a_transpose() {
        for (r, c) in [(3usize, 5usize), (8, 8), (1, 7), (64, 33)] {
            let mut a = vec![0u64; r * c];
            fill(&mut a, 7);
            assert!(verify(&a, r, c, false, 7));
            let t = reference_transpose(&a, r, c, Layout::RowMajor);
            assert!(verify(&t, r, c, true, 7), "{r}x{c}");
        }
    }

    #[test]
    fn verifier_rejects_an_untransposed_buffer() {
        let (r, c) = (6usize, 10usize);
        let mut a = vec![0u32; r * c];
        fill(&mut a, 11);
        assert!(!verify(&a, r, c, true, 11), "input passed as its transpose");
        let t = reference_transpose(&a, r, c, Layout::RowMajor);
        assert!(!verify(&t, r, c, false, 11), "transpose passed as input");
        let mut torn = t.clone();
        torn.swap(1, 2);
        assert!(
            !verify(&torn, r, c, true, 11),
            "two swapped elements passed"
        );
        assert!(!verify(&t, r, c, true, 12), "wrong key passed");
        assert!(!verify(&t[1..], r, c, true, 11), "short buffer passed");
    }

    #[test]
    fn chunked_checks_agree_with_whole_buffer_checks() {
        let (r, c) = (13usize, 29usize);
        let mut a = vec![0u64; r * c];
        fill(&mut a, 3);
        let t = reference_transpose(&a, r, c, Layout::RowMajor);
        for split in [1usize, 7, 100, r * c - 1] {
            let (x, y) = t.split_at(split);
            assert!(check_range(x, 0, r, c, true, 3));
            assert!(check_range(y, split, r, c, true, 3));
        }
    }

    #[test]
    fn byte_checks_match_element_checks() {
        let (r, c) = (9usize, 1000usize);
        let mut a = vec![0u64; r * c];
        fill(&mut a, 5);
        let t = reference_transpose(&a, r, c, Layout::RowMajor);
        let bytes: Vec<u8> = t.iter().flat_map(|x| x.to_le_bytes()).collect();
        assert!(check_bytes(&bytes, 0, r, c, true, 5));
        assert!(check_bytes(&bytes[8 * 100..], 100, r, c, true, 5));
        assert!(!check_bytes(&bytes, 0, r, c, false, 5));
        assert!(!check_bytes(&bytes[..bytes.len() - 1], 0, r, c, true, 5));
    }

    #[test]
    fn pattern_is_injective_and_seeded() {
        let mut a = vec![0u32; 1 << 16];
        fill(&mut a, key(1, 2));
        let mut s = a.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), a.len());
        assert_ne!(key(1, 2), key(2, 2));
        assert_ne!(key(1, 2), key(1, 3));
    }
}
