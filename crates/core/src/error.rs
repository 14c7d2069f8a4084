//! Fallible entry points for callers that prefer `Result` over panics.
//!
//! The primary API asserts its preconditions (shape/buffer agreement),
//! which suits numerical kernels where a violation is a programming
//! error. Systems embedding the transpose behind untrusted inputs — the
//! CLI, file-format tools, FFI — want to reject bad shapes gracefully;
//! [`try_transpose`] and friends validate first and return a
//! [`TransposeError`] instead.

use crate::layout::Layout;
use crate::scratch::Scratch;

/// Why a transposition request was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransposeError {
    /// `data.len()` does not equal `rows * cols` (or `* elem_size`).
    ShapeMismatch {
        /// Length the caller's shape implies.
        expected: usize,
        /// Length of the buffer actually provided.
        actual: usize,
    },
    /// `rows * cols` (or `* elem_size`) overflows `usize`/`u64`, so the
    /// index algebra cannot run.
    Overflow,
    /// A zero dimension or zero element size.
    Degenerate,
}

impl core::fmt::Display for TransposeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TransposeError::ShapeMismatch { expected, actual } => {
                write!(
                    f,
                    "buffer holds {actual} elements but the shape implies {expected}"
                )
            }
            TransposeError::Overflow => write!(f, "matrix dimensions overflow the index range"),
            TransposeError::Degenerate => write!(f, "dimensions and element size must be nonzero"),
        }
    }
}

impl std::error::Error for TransposeError {}

/// The element count `rows * cols` of a matrix shape, taken with
/// `checked_mul`.
///
/// The panicking entry points check their buffer against this count: a
/// shape whose count overflows `usize` panics here, naming the shape,
/// instead of wrapping to a small count that a short buffer could match
/// (and the passes would then index far outside it).
///
/// ```
/// assert_eq!(ipt_core::shape_len(3, 4), 12);
/// let big = 1usize << (usize::BITS - 1);
/// assert!(std::panic::catch_unwind(|| ipt_core::shape_len(big, 2)).is_err());
/// ```
///
/// # Panics
///
/// Panics if `rows * cols` overflows `usize`.
#[track_caller]
pub fn shape_len(rows: usize, cols: usize) -> usize {
    match rows.checked_mul(cols) {
        Some(len) => len,
        None => panic!("matrix shape {rows} x {cols} overflows usize"),
    }
}

fn validate(len: usize, rows: usize, cols: usize) -> Result<(), TransposeError> {
    if rows == 0 || cols == 0 {
        return Err(TransposeError::Degenerate);
    }
    let expected = rows.checked_mul(cols).ok_or(TransposeError::Overflow)?;
    if u64::try_from(expected).is_err() {
        return Err(TransposeError::Overflow);
    }
    if len != expected {
        return Err(TransposeError::ShapeMismatch {
            expected,
            actual: len,
        });
    }
    Ok(())
}

/// Fallible [`crate::transpose`]: validates the shape, then transposes.
///
/// ```
/// use ipt_core::error::{try_transpose, TransposeError};
/// use ipt_core::{Layout, Scratch};
///
/// let mut ok = vec![0u32; 6];
/// assert!(try_transpose(&mut ok, 2, 3, Layout::RowMajor, &mut Scratch::new()).is_ok());
///
/// let mut bad = vec![0u32; 5];
/// assert_eq!(
///     try_transpose(&mut bad, 2, 3, Layout::RowMajor, &mut Scratch::new()),
///     Err(TransposeError::ShapeMismatch { expected: 6, actual: 5 })
/// );
/// ```
pub fn try_transpose<T: Copy>(
    data: &mut [T],
    rows: usize,
    cols: usize,
    layout: Layout,
    scratch: &mut Scratch<T>,
) -> Result<(), TransposeError> {
    validate(data.len(), rows, cols)?;
    crate::transpose(data, rows, cols, layout, scratch);
    Ok(())
}

/// Fallible [`crate::c2r()`].
pub fn try_c2r<T: Copy>(
    data: &mut [T],
    m: usize,
    n: usize,
    scratch: &mut Scratch<T>,
) -> Result<(), TransposeError> {
    validate(data.len(), m, n)?;
    crate::c2r(data, m, n, scratch);
    Ok(())
}

/// Fallible [`crate::r2c()`].
pub fn try_r2c<T: Copy>(
    data: &mut [T],
    m: usize,
    n: usize,
    scratch: &mut Scratch<T>,
) -> Result<(), TransposeError> {
    validate(data.len(), m, n)?;
    crate::r2c(data, m, n, scratch);
    Ok(())
}

/// Fallible [`crate::erased::transpose_erased`].
pub fn try_transpose_erased(
    data: &mut [u8],
    rows: usize,
    cols: usize,
    elem_size: usize,
    layout: Layout,
) -> Result<(), TransposeError> {
    if elem_size == 0 {
        return Err(TransposeError::Degenerate);
    }
    // The bytes form an (rows * cols) x elem_size matrix: an empty shape
    // is degenerate, and a product past usize overflows.
    let elems = rows.checked_mul(cols).ok_or(TransposeError::Overflow)?;
    validate(data.len(), elems, elem_size)?;
    crate::erased::transpose_erased(data, rows, cols, elem_size, layout);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{fill_pattern, is_transposed_pattern};

    #[test]
    fn ok_path_transposes() {
        let mut a = vec![0u64; 4 * 7];
        fill_pattern(&mut a);
        try_transpose(&mut a, 4, 7, Layout::RowMajor, &mut Scratch::new()).unwrap();
        assert!(is_transposed_pattern(&a, 4, 7, Layout::RowMajor));
    }

    #[test]
    fn shape_mismatch_reports_both_sizes() {
        let mut a = vec![0u8; 10];
        let err = try_transpose(&mut a, 3, 4, Layout::RowMajor, &mut Scratch::new()).unwrap_err();
        assert_eq!(
            err,
            TransposeError::ShapeMismatch {
                expected: 12,
                actual: 10
            }
        );
        assert!(err.to_string().contains("10"));
        assert!(err.to_string().contains("12"));
    }

    #[test]
    fn zero_dimensions_are_degenerate() {
        let mut a: Vec<u8> = vec![];
        assert_eq!(
            try_transpose(&mut a, 0, 5, Layout::RowMajor, &mut Scratch::new()),
            Err(TransposeError::Degenerate)
        );
        assert_eq!(
            try_transpose_erased(&mut [], 2, 2, 0, Layout::RowMajor),
            Err(TransposeError::Degenerate)
        );
    }

    #[test]
    fn overflow_is_reported_not_panicked() {
        let mut a = vec![0u8; 8];
        assert_eq!(
            try_transpose(&mut a, usize::MAX, 2, Layout::RowMajor, &mut Scratch::new()),
            Err(TransposeError::Overflow)
        );
        assert_eq!(
            try_transpose_erased(&mut a, usize::MAX, 2, 2, Layout::RowMajor),
            Err(TransposeError::Overflow)
        );
    }

    #[test]
    fn c2r_r2c_fallible_round_trip() {
        let mut a = vec![0u32; 6 * 9];
        fill_pattern(&mut a);
        let orig = a.clone();
        let mut s = Scratch::new();
        try_c2r(&mut a, 6, 9, &mut s).unwrap();
        try_r2c(&mut a, 6, 9, &mut s).unwrap();
        assert_eq!(a, orig);
        assert!(try_c2r(&mut a, 5, 9, &mut s).is_err());
    }

    #[test]
    fn erased_ok_path() {
        let mut bytes = vec![0u8; 3 * 4 * 2];
        for (i, b) in bytes.iter_mut().enumerate() {
            *b = i as u8;
        }
        try_transpose_erased(&mut bytes, 3, 4, 2, Layout::RowMajor).unwrap();
        assert_eq!(&bytes[..2], &[0, 1]);
        assert_eq!(&bytes[2..4], &[8, 9]); // (0,1) of transpose = old (1,0)
    }

    #[test]
    fn error_implements_std_error() {
        let e: Box<dyn std::error::Error> = Box::new(TransposeError::Overflow);
        assert!(e.to_string().contains("overflow"));
    }
}
