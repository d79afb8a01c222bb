//! Bit-packed linear algebra over GF(2): the scalar rank oracle.
//!
//! Production homology ranks sparse boundary rows in [`crate::chain`].
//! This dense matrix is the independent reference those ranks are checked
//! against: [`crate::homology::reduced_betti_numbers_seq`] assembles each
//! boundary operator with [`Gf2Matrix::set`] and reduces it with plain
//! scalar Gaussian elimination ([`Gf2Matrix::rank_seq`]).

/// A dense matrix over GF(2), rows bit-packed into `u64` words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gf2Matrix {
    rows: usize,
    cols: usize,
    words_per_row: usize,
    data: Vec<u64>,
}

impl Gf2Matrix {
    /// An all-zero `rows × cols` matrix.
    pub fn zero(rows: usize, cols: usize) -> Self {
        let words_per_row = cols.div_ceil(64).max(1);
        Gf2Matrix {
            rows,
            cols,
            words_per_row,
            data: vec![0; rows * words_per_row],
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

    /// Sets entry `(r, c)` to 1.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn set(&mut self, r: usize, c: usize) {
        assert!(r < self.rows && c < self.cols);
        self.data[r * self.words_per_row + c / 64] |= 1u64 << (c % 64);
    }

    /// Reads entry `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get(&self, r: usize, c: usize) -> bool {
        assert!(r < self.rows && c < self.cols);
        (self.data[r * self.words_per_row + c / 64] >> (c % 64)) & 1 == 1
    }

    /// The rank over GF(2) by plain scalar Gaussian elimination on a
    /// copy, on the calling thread.
    ///
    /// # Examples
    ///
    /// ```
    /// use ksa_topology::gf2::Gf2Matrix;
    ///
    /// let mut m = Gf2Matrix::zero(2, 3);
    /// m.set(0, 0);
    /// m.set(1, 0); // dependent rows
    /// assert_eq!(m.rank_seq(), 1);
    /// ```
    pub fn rank_seq(&self) -> usize {
        let mut m = self.clone();
        ksa_obs::count(ksa_obs::Counter::RanksComputed, 1);
        m.rank_destructive_seq()
    }

    fn xor_row_into(&mut self, src: usize, dst: usize) {
        let (a, b) = if src < dst {
            let (lo, hi) = self.data.split_at_mut(dst * self.words_per_row);
            (
                &lo[src * self.words_per_row..(src + 1) * self.words_per_row],
                &mut hi[..self.words_per_row],
            )
        } else {
            let (lo, hi) = self.data.split_at_mut(src * self.words_per_row);
            (
                &hi[..self.words_per_row],
                &mut lo[dst * self.words_per_row..(dst + 1) * self.words_per_row],
            )
        };
        for (d, s) in b.iter_mut().zip(a) {
            *d ^= s;
        }
    }

    fn rank_destructive_seq(&mut self) -> usize {
        let mut rank = 0;
        let mut pivot_row = 0;
        for col in 0..self.cols {
            let word = col / 64;
            let bit = 1u64 << (col % 64);
            // Find a row at or below pivot_row with a 1 in this column.
            let mut found = None;
            for r in pivot_row..self.rows {
                if self.data[r * self.words_per_row + word] & bit != 0 {
                    found = Some(r);
                    break;
                }
            }
            let Some(r) = found else { continue };
            self.data.swap_chunks(pivot_row, r, self.words_per_row);
            // Eliminate this column from every other row below.
            for rr in pivot_row + 1..self.rows {
                if self.data[rr * self.words_per_row + word] & bit != 0 {
                    self.xor_row_into(pivot_row, rr);
                }
            }
            rank += 1;
            pivot_row += 1;
            if pivot_row == self.rows {
                break;
            }
        }
        rank
    }
}

trait SwapChunks {
    fn swap_chunks(&mut self, a: usize, b: usize, chunk: usize);
}

impl SwapChunks for Vec<u64> {
    fn swap_chunks(&mut self, a: usize, b: usize, chunk: usize) {
        if a == b {
            return;
        }
        let (a, b) = (a.min(b), a.max(b));
        let (lo, hi) = self.split_at_mut(b * chunk);
        lo[a * chunk..(a + 1) * chunk].swap_with_slice(&mut hi[..chunk]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_matrix_rank() {
        assert_eq!(Gf2Matrix::zero(3, 5).rank_seq(), 0);
        assert_eq!(Gf2Matrix::zero(0, 0).rank_seq(), 0);
    }

    #[test]
    fn identity_rank() {
        let mut m = Gf2Matrix::zero(4, 4);
        for i in 0..4 {
            m.set(i, i);
        }
        assert_eq!(m.rank_seq(), 4);
    }

    #[test]
    fn dependent_rows() {
        // r2 = r0 + r1.
        let mut m = Gf2Matrix::zero(3, 3);
        m.set(0, 0);
        m.set(0, 1);
        m.set(1, 1);
        m.set(1, 2);
        m.set(2, 0);
        m.set(2, 2);
        assert_eq!(m.rank_seq(), 2);
    }

    #[test]
    fn get_set_roundtrip() {
        let mut m = Gf2Matrix::zero(2, 130); // crosses word boundaries
        m.set(1, 129);
        m.set(0, 64);
        assert!(m.get(1, 129));
        assert!(m.get(0, 64));
        assert!(!m.get(0, 63));
        assert_eq!(m.rank_seq(), 2);
    }

    #[test]
    fn wide_matrix_rank() {
        // Two identical wide rows: rank 1.
        let mut m = Gf2Matrix::zero(2, 200);
        for c in (0..200).step_by(3) {
            m.set(0, c);
            m.set(1, c);
        }
        assert_eq!(m.rank_seq(), 1);
    }

    #[test]
    fn rank_is_nondestructive() {
        let mut m = Gf2Matrix::zero(2, 2);
        m.set(0, 0);
        m.set(1, 1);
        let before = m.clone();
        assert_eq!(m.rank_seq(), 2);
        assert_eq!(m, before);
    }

    #[test]
    fn boundary_of_triangle_rank() {
        // ∂1 of a triangle: 3 edges over 3 vertices; rank 2.
        let mut m = Gf2Matrix::zero(3, 3);
        // edge 01 -> v0+v1; edge 02 -> v0+v2; edge 12 -> v1+v2
        m.set(0, 0);
        m.set(0, 1);
        m.set(1, 0);
        m.set(1, 2);
        m.set(2, 1);
        m.set(2, 2);
        assert_eq!(m.rank_seq(), 2);
    }
}
