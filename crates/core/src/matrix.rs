//! Matrix views and an owned matrix that tracks its shape across transposes.
//!
//! The in-place kernels in [`crate::c2r()`] / [`crate::r2c()`] work on raw
//! slices, because in-place transposition *reinterprets* the buffer: an
//! `m x n` row-major buffer becomes an `n x m` row-major buffer without the
//! type system seeing a change. [`Matrix`] packages buffer + shape + layout
//! and keeps them consistent, which is what examples and downstream users
//! want; [`MatrixMut`] is the borrowing equivalent.

use crate::layout::Layout;
use crate::scratch::Scratch;
use crate::shape_len;

/// An owned dense matrix with explicit storage order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Matrix<T> {
    data: Vec<T>,
    rows: usize,
    cols: usize,
    layout: Layout,
}

impl<T: Copy> Matrix<T> {
    /// Build from a flat buffer. `data.len()` must equal `rows * cols`.
    ///
    /// # Panics
    ///
    /// Panics on a length mismatch.
    pub fn from_vec(data: Vec<T>, rows: usize, cols: usize, layout: Layout) -> Matrix<T> {
        assert_eq!(data.len(), shape_len(rows, cols), "buffer/shape mismatch");
        Matrix {
            data,
            rows,
            cols,
            layout,
        }
    }

    /// A `rows x cols` matrix generated elementwise from `f(i, j)`.
    pub fn from_fn(
        rows: usize,
        cols: usize,
        layout: Layout,
        mut f: impl FnMut(usize, usize) -> T,
    ) -> Matrix<T> {
        let mut data = Vec::with_capacity(rows * cols);
        match layout {
            Layout::RowMajor => {
                for i in 0..rows {
                    for j in 0..cols {
                        data.push(f(i, j));
                    }
                }
            }
            Layout::ColMajor => {
                for j in 0..cols {
                    for i in 0..rows {
                        data.push(f(i, j));
                    }
                }
            }
        }
        Matrix {
            data,
            rows,
            cols,
            layout,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Storage order.
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// Element `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    pub fn get(&self, i: usize, j: usize) -> T {
        assert!(i < self.rows && j < self.cols, "({i}, {j}) out of bounds");
        self.data[self.layout.linearize(i, j, self.rows, self.cols)]
    }

    /// Overwrite element `(i, j)`.
    pub fn set(&mut self, i: usize, j: usize, v: T) {
        assert!(i < self.rows && j < self.cols, "({i}, {j}) out of bounds");
        let l = self.layout.linearize(i, j, self.rows, self.cols);
        self.data[l] = v;
    }

    /// The flat backing buffer in storage order.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable access to the flat backing buffer.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consume into the flat backing buffer.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Transpose in place with the decomposed algorithm, updating the shape.
    ///
    /// Uses the paper's C2R/R2C heuristic via [`crate::transpose`]. After
    /// the call, `rows` and `cols` are swapped and `get(i, j)` returns what
    /// `get(j, i)` returned before.
    pub fn transpose_in_place(&mut self, scratch: &mut Scratch<T>) {
        crate::transpose(&mut self.data, self.rows, self.cols, self.layout, scratch);
        core::mem::swap(&mut self.rows, &mut self.cols);
    }

    /// Out-of-place transpose (allocates), for reference and comparison.
    pub fn transposed(&self) -> Matrix<T> {
        Matrix::from_fn(self.cols, self.rows, self.layout, |i, j| self.get(j, i))
    }

    /// Reinterpret the same buffer in the opposite storage order, which is
    /// a zero-cost logical transpose (shape swaps, bytes stay put).
    pub fn reinterpret_transposed(self) -> Matrix<T> {
        Matrix {
            data: self.data,
            rows: self.cols,
            cols: self.rows,
            layout: self.layout.flipped(),
        }
    }

    /// Build a row-major matrix from an iterator of rows.
    ///
    /// # Panics
    ///
    /// Panics if rows have differing lengths or no rows are given.
    pub fn from_rows<R>(rows: impl IntoIterator<Item = R>) -> Matrix<T>
    where
        R: AsRef<[T]>,
    {
        let mut data = Vec::new();
        let mut cols = None;
        let mut count = 0usize;
        for row in rows {
            let row = row.as_ref();
            match cols {
                None => cols = Some(row.len()),
                Some(c) => assert_eq!(c, row.len(), "ragged rows"),
            }
            data.extend_from_slice(row);
            count += 1;
        }
        let cols = cols.expect("at least one row");
        Matrix::from_vec(data, count, cols, Layout::RowMajor)
    }

    /// Iterate over rows as slices (row-major matrices only: column-major
    /// rows are not contiguous).
    ///
    /// # Panics
    ///
    /// Panics on a column-major matrix.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[T]> {
        assert_eq!(
            self.layout,
            Layout::RowMajor,
            "rows_iter requires row-major storage"
        );
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Elementwise map, preserving shape and layout.
    pub fn map<U: Copy>(&self, mut f: impl FnMut(T) -> U) -> Matrix<U> {
        Matrix {
            data: self.data.iter().map(|&v| f(v)).collect(),
            rows: self.rows,
            cols: self.cols,
            layout: self.layout,
        }
    }
}

impl<T: Copy> core::ops::Index<(usize, usize)> for Matrix<T> {
    type Output = T;

    fn index(&self, (i, j): (usize, usize)) -> &T {
        assert!(i < self.rows && j < self.cols, "({i}, {j}) out of bounds");
        &self.data[self.layout.linearize(i, j, self.rows, self.cols)]
    }
}

impl<T: Copy> core::ops::IndexMut<(usize, usize)> for Matrix<T> {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut T {
        assert!(i < self.rows && j < self.cols, "({i}, {j}) out of bounds");
        let l = self.layout.linearize(i, j, self.rows, self.cols);
        &mut self.data[l]
    }
}

/// A borrowed mutable matrix view over a flat buffer.
#[derive(Debug)]
pub struct MatrixMut<'a, T> {
    data: &'a mut [T],
    rows: usize,
    cols: usize,
    layout: Layout,
}

impl<'a, T: Copy> MatrixMut<'a, T> {
    /// Wrap a flat buffer. `data.len()` must equal `rows * cols`.
    ///
    /// # Panics
    ///
    /// Panics on a length mismatch.
    pub fn new(data: &'a mut [T], rows: usize, cols: usize, layout: Layout) -> MatrixMut<'a, T> {
        assert_eq!(data.len(), shape_len(rows, cols), "buffer/shape mismatch");
        MatrixMut {
            data,
            rows,
            cols,
            layout,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Storage order.
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// Element `(i, j)`.
    pub fn get(&self, i: usize, j: usize) -> T {
        assert!(i < self.rows && j < self.cols, "({i}, {j}) out of bounds");
        self.data[self.layout.linearize(i, j, self.rows, self.cols)]
    }

    /// Overwrite element `(i, j)`.
    pub fn set(&mut self, i: usize, j: usize, v: T) {
        assert!(i < self.rows && j < self.cols, "({i}, {j}) out of bounds");
        let l = self.layout.linearize(i, j, self.rows, self.cols);
        self.data[l] = v;
    }

    /// Transpose the viewed buffer in place. The *view* keeps borrowing the
    /// buffer but its shape swaps, mirroring [`Matrix::transpose_in_place`].
    pub fn transpose_in_place(&mut self, scratch: &mut Scratch<T>) {
        crate::transpose(self.data, self.rows, self.cols, self.layout, scratch);
        core::mem::swap(&mut self.rows, &mut self.cols);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_fn_and_get_agree_across_layouts() {
        for layout in [Layout::RowMajor, Layout::ColMajor] {
            let m = Matrix::from_fn(3, 4, layout, |i, j| (10 * i + j) as u32);
            for i in 0..3 {
                for j in 0..4 {
                    assert_eq!(m.get(i, j), (10 * i + j) as u32);
                }
            }
        }
    }

    #[test]
    fn owned_transpose_in_place_matches_reference() {
        for layout in [Layout::RowMajor, Layout::ColMajor] {
            for (r, c) in [(3usize, 8usize), (8, 3), (5, 5), (1, 6), (7, 2)] {
                let mut m = Matrix::from_fn(r, c, layout, |i, j| (i * 131 + j) as u64);
                let want = m.transposed();
                let mut s = Scratch::new();
                m.transpose_in_place(&mut s);
                assert_eq!(m.rows(), c);
                assert_eq!(m.cols(), r);
                for i in 0..c {
                    for j in 0..r {
                        assert_eq!(m.get(i, j), want.get(i, j), "{r}x{c} {layout:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn double_transpose_is_identity() {
        let orig = Matrix::from_fn(6, 10, Layout::RowMajor, |i, j| (i, j));
        let mut m = orig.clone();
        let mut s = Scratch::new();
        m.transpose_in_place(&mut s);
        m.transpose_in_place(&mut s);
        assert_eq!(m, orig);
    }

    #[test]
    fn reinterpret_transposed_is_zero_cost_transpose() {
        let m = Matrix::from_fn(3, 5, Layout::RowMajor, |i, j| (i * 5 + j) as u16);
        let before: Vec<u16> = m.as_slice().to_vec();
        let t = m.reinterpret_transposed();
        assert_eq!(t.as_slice(), &before[..], "bytes unchanged");
        assert_eq!((t.rows(), t.cols()), (5, 3));
        assert_eq!(t.layout(), Layout::ColMajor);
        for i in 0..5 {
            for j in 0..3 {
                assert_eq!(t.get(i, j), (j * 5 + i) as u16);
            }
        }
    }

    #[test]
    fn view_transpose_updates_shape() {
        let mut buf = vec![1u8, 2, 3, 4, 5, 6];
        let mut v = MatrixMut::new(&mut buf, 2, 3, Layout::RowMajor);
        v.transpose_in_place(&mut Scratch::new());
        assert_eq!((v.rows(), v.cols()), (3, 2));
        assert_eq!(v.get(0, 1), 4);
        assert_eq!(buf, [1, 4, 2, 5, 3, 6]);
    }

    #[test]
    fn from_rows_and_rows_iter_round_trip() {
        let m = Matrix::from_rows([[1u8, 2, 3], [4, 5, 6]]);
        assert_eq!((m.rows(), m.cols()), (2, 3));
        let back: Vec<Vec<u8>> = m.rows_iter().map(|r| r.to_vec()).collect();
        assert_eq!(back, [[1, 2, 3], [4, 5, 6]]);
    }

    #[test]
    fn index_and_index_mut() {
        let mut m = Matrix::from_fn(3, 4, Layout::ColMajor, |i, j| (i * 10 + j) as u32);
        assert_eq!(m[(2, 3)], 23);
        m[(2, 3)] = 99;
        assert_eq!(m.get(2, 3), 99);
    }

    #[test]
    fn map_preserves_shape() {
        let m = Matrix::from_fn(2, 5, Layout::RowMajor, |i, j| (i + j) as u16);
        let d = m.map(|v| v as f64 * 0.5);
        assert_eq!((d.rows(), d.cols()), (2, 5));
        assert_eq!(d.get(1, 4), 2.5);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn from_rows_rejects_ragged() {
        let _ = Matrix::from_rows([vec![1u8, 2], vec![3]]);
    }

    #[test]
    #[should_panic(expected = "row-major")]
    fn rows_iter_rejects_col_major() {
        let m = Matrix::from_fn(2, 2, Layout::ColMajor, |_, _| 0u8);
        let _ = m.rows_iter().count();
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        let m = Matrix::from_fn(2, 2, Layout::RowMajor, |_, _| 0u8);
        m.get(2, 0);
    }
}
