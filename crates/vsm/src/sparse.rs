//! Sorted sparse vector.

/// A sparse vector with strictly increasing indices.
///
/// This is the feature representation for the SVM stack: a bigram
/// supervector over a 64-phone set has 4,160 nominal dimensions but an
/// utterance only touches a few hundred of them.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SparseVec {
    indices: Vec<u32>,
    values: Vec<f32>,
}

impl SparseVec {
    pub fn new() -> SparseVec {
        SparseVec::default()
    }

    /// Build from parallel arrays; panics unless indices are strictly
    /// increasing.
    pub fn from_parts(indices: Vec<u32>, values: Vec<f32>) -> SparseVec {
        assert_eq!(indices.len(), values.len());
        for w in indices.windows(2) {
            assert!(w[0] < w[1], "indices must be strictly increasing");
        }
        SparseVec { indices, values }
    }

    /// Build from unsorted `(index, value)` pairs, combining duplicates.
    pub fn from_pairs(mut pairs: Vec<(u32, f32)>) -> SparseVec {
        pairs.sort_unstable_by_key(|&(i, _)| i);
        let mut indices = Vec::with_capacity(pairs.len());
        let mut values = Vec::with_capacity(pairs.len());
        for (i, v) in pairs {
            if indices.last() == Some(&i) {
                *values.last_mut().unwrap() += v;
            } else {
                indices.push(i);
                values.push(v);
            }
        }
        SparseVec { indices, values }
    }

    /// Number of stored (non-zero) entries.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Iterate `(index, value)`.
    pub fn iter(&self) -> impl Iterator<Item = (u32, f32)> + '_ {
        self.indices
            .iter()
            .copied()
            .zip(self.values.iter().copied())
    }

    /// Value at `index` (zero if absent) — O(log nnz).
    pub fn get(&self, index: u32) -> f32 {
        match self.indices.binary_search(&index) {
            Ok(pos) => self.values[pos],
            Err(_) => 0.0,
        }
    }

    /// Dot product with a dense weight slice.
    #[inline]
    pub fn dot_dense(&self, dense: &[f32]) -> f32 {
        let mut acc = 0.0f32;
        for (i, v) in self.iter() {
            acc += v * dense[i as usize];
        }
        acc
    }

    /// `dense += alpha * self`.
    #[inline]
    pub fn axpy_into(&self, alpha: f32, dense: &mut [f32]) {
        for (i, v) in self.iter() {
            dense[i as usize] += alpha * v;
        }
    }

    /// Sparse-sparse dot product (merge join).
    pub fn dot_sparse(&self, other: &SparseVec) -> f32 {
        let (mut a, mut b) = (0usize, 0usize);
        let mut acc = 0.0f32;
        while a < self.nnz() && b < other.nnz() {
            match self.indices[a].cmp(&other.indices[b]) {
                std::cmp::Ordering::Less => a += 1,
                std::cmp::Ordering::Greater => b += 1,
                std::cmp::Ordering::Equal => {
                    acc += self.values[a] * other.values[b];
                    a += 1;
                    b += 1;
                }
            }
        }
        acc
    }

    /// Squared Euclidean norm.
    pub fn norm_sq(&self) -> f32 {
        self.values.iter().map(|v| v * v).sum()
    }

    /// Scale all values in place.
    pub fn scale(&mut self, alpha: f32) {
        for v in &mut self.values {
            *v *= alpha;
        }
    }

    /// Apply a per-dimension multiplier from a dense table.
    pub fn scale_by_table(&mut self, table: &[f32]) {
        for (i, v) in self.indices.iter().zip(&mut self.values) {
            *v *= table[*i as usize];
        }
    }

    /// Largest index + 1, or 0 when empty.
    pub fn max_dim(&self) -> usize {
        self.indices.last().map_or(0, |&i| i as usize + 1)
    }

    /// Length of the sealed `SPVC` container, without sealing it: header,
    /// the two length-prefixed slices, CRC trailer.
    pub fn sealed_len(&self) -> usize {
        use lre_artifact::{HEADER_LEN, TRAILER_LEN};
        HEADER_LEN + 2 * 4 + self.nnz() * (4 + 4) + TRAILER_LEN
    }
}

impl lre_artifact::ArtifactWrite for SparseVec {
    const KIND: [u8; 4] = *b"SPVC";
    const VERSION: u32 = 1;

    fn write_payload(&self, w: &mut lre_artifact::ArtifactWriter) {
        w.put_u32_slice(&self.indices);
        w.put_f32_slice(&self.values);
    }
}

impl lre_artifact::ArtifactRead for SparseVec {
    fn read_payload(
        r: &mut lre_artifact::ArtifactReader,
    ) -> Result<SparseVec, lre_artifact::ArtifactError> {
        use lre_artifact::ArtifactError;
        let indices = r.get_u32_slice()?;
        let values = r.get_f32_slice()?;
        if indices.len() != values.len() {
            return Err(ArtifactError::Corrupt(
                "sparse index/value lengths disagree",
            ));
        }
        // `from_parts` panics on unsorted input; corrupt bytes must not.
        if indices.windows(2).any(|w| w[0] >= w[1]) {
            return Err(ArtifactError::Corrupt(
                "sparse indices not strictly increasing",
            ));
        }
        Ok(SparseVec { indices, values })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(pairs: &[(u32, f32)]) -> SparseVec {
        SparseVec::from_pairs(pairs.to_vec())
    }

    #[test]
    fn sealed_len_is_the_sealed_length() {
        use lre_artifact::ArtifactWrite;
        for s in [
            SparseVec::new(),
            v(&[(3, 1.5)]),
            v(&[(0, 1.0), (9, -2.0), (70, 0.5)]),
        ] {
            assert_eq!(s.sealed_len(), s.to_artifact_bytes().len());
        }
    }

    #[test]
    fn from_pairs_sorts_and_merges() {
        let s = v(&[(5, 1.0), (2, 2.0), (5, 3.0)]);
        assert_eq!(s.indices(), &[2, 5]);
        assert_eq!(s.values(), &[2.0, 4.0]);
    }

    #[test]
    fn get_present_and_absent() {
        let s = v(&[(1, 0.5), (10, 2.5)]);
        assert_eq!(s.get(1), 0.5);
        assert_eq!(s.get(10), 2.5);
        assert_eq!(s.get(3), 0.0);
    }

    #[test]
    fn dot_dense_matches_manual() {
        let s = v(&[(0, 1.0), (2, 3.0)]);
        let dense = [2.0, 100.0, -1.0];
        assert_eq!(s.dot_dense(&dense), 2.0 - 3.0);
    }

    #[test]
    fn axpy_into_updates_dense() {
        let s = v(&[(1, 2.0)]);
        let mut dense = vec![0.0; 3];
        s.axpy_into(0.5, &mut dense);
        assert_eq!(dense, vec![0.0, 1.0, 0.0]);
    }

    #[test]
    fn sparse_sparse_dot() {
        let a = v(&[(0, 1.0), (3, 2.0), (7, 4.0)]);
        let b = v(&[(3, 5.0), (8, 1.0)]);
        assert_eq!(a.dot_sparse(&b), 10.0);
        assert_eq!(b.dot_sparse(&a), 10.0);
        assert_eq!(a.dot_sparse(&SparseVec::new()), 0.0);
    }

    #[test]
    fn norm_and_scale() {
        let mut s = v(&[(0, 3.0), (1, 4.0)]);
        assert_eq!(s.norm_sq(), 25.0);
        s.scale(2.0);
        assert_eq!(s.norm_sq(), 100.0);
    }

    #[test]
    fn scale_by_table() {
        let mut s = v(&[(0, 1.0), (2, 2.0)]);
        s.scale_by_table(&[10.0, 0.0, 0.5]);
        assert_eq!(s.values(), &[10.0, 1.0]);
    }

    #[test]
    #[should_panic]
    fn unsorted_parts_rejected() {
        let _ = SparseVec::from_parts(vec![3, 1], vec![1.0, 1.0]);
    }
}
