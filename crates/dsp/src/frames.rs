//! Flat row-major feature-frame container shared by the whole pipeline.

/// A `T × D` matrix of feature frames stored as one flat `Vec<f32>`.
///
/// Row `t` is frame `t`; `dim` is the feature dimension. The flat layout is
/// the hot-path representation everywhere (acoustic scoring iterates frames
/// sequentially), per the perf-book guidance to avoid nested `Vec`s.
#[derive(Clone, Debug, PartialEq)]
pub struct FrameMatrix {
    dim: usize,
    data: Vec<f32>,
}

impl FrameMatrix {
    /// Empty matrix with the given feature dimension.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "feature dimension must be positive");
        Self {
            dim,
            data: Vec::new(),
        }
    }

    /// Preallocate for `frames` frames.
    pub fn with_capacity(dim: usize, frames: usize) -> Self {
        assert!(dim > 0);
        Self {
            dim,
            data: Vec::with_capacity(dim * frames),
        }
    }

    /// Wrap an existing flat buffer; `data.len()` must be a multiple of `dim`.
    pub fn from_flat(dim: usize, data: Vec<f32>) -> Self {
        assert!(dim > 0);
        assert_eq!(
            data.len() % dim,
            0,
            "flat buffer must be a whole number of frames"
        );
        Self { dim, data }
    }

    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    #[inline]
    pub fn num_frames(&self) -> usize {
        self.data.len() / self.dim
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Frame `t` as a slice.
    #[inline]
    pub fn frame(&self, t: usize) -> &[f32] {
        &self.data[t * self.dim..(t + 1) * self.dim]
    }

    /// Mutable frame `t`.
    #[inline]
    pub fn frame_mut(&mut self, t: usize) -> &mut [f32] {
        &mut self.data[t * self.dim..(t + 1) * self.dim]
    }

    /// Append one frame (length must equal `dim`).
    pub fn push(&mut self, frame: &[f32]) {
        assert_eq!(frame.len(), self.dim);
        self.data.extend_from_slice(frame);
    }

    /// Set the frame count, zero-filling any frames added; keeps the
    /// allocation, so a matrix can be reused across utterances.
    pub fn resize(&mut self, frames: usize) {
        self.data.resize(frames * self.dim, 0.0);
    }

    /// Iterate over frames.
    pub fn iter(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.dim)
    }

    /// The whole flat buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Keep only frames `range.start..range.end` (used to cut nominal
    /// 30 s / 10 s / 3 s segments out of longer material).
    pub fn slice_frames(&self, start: usize, end: usize) -> FrameMatrix {
        assert!(start <= end && end <= self.num_frames());
        FrameMatrix {
            dim: self.dim,
            data: self.data[start * self.dim..end * self.dim].to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_index() {
        let mut m = FrameMatrix::new(3);
        m.push(&[1.0, 2.0, 3.0]);
        m.push(&[4.0, 5.0, 6.0]);
        assert_eq!(m.num_frames(), 2);
        assert_eq!(m.frame(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn slice_frames_subset() {
        let m = FrameMatrix::from_flat(2, vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        let s = m.slice_frames(1, 3);
        assert_eq!(s.num_frames(), 2);
        assert_eq!(s.frame(0), &[2.0, 3.0]);
        assert_eq!(s.frame(1), &[4.0, 5.0]);
    }

    #[test]
    #[should_panic]
    fn wrong_frame_length_panics() {
        let mut m = FrameMatrix::new(3);
        m.push(&[1.0, 2.0]);
    }

    #[test]
    #[should_panic]
    fn ragged_flat_buffer_panics() {
        let _ = FrameMatrix::from_flat(2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn iter_yields_all_frames() {
        let m = FrameMatrix::from_flat(1, vec![7.0, 8.0, 9.0]);
        let collected: Vec<f32> = m.iter().map(|f| f[0]).collect();
        assert_eq!(collected, vec![7.0, 8.0, 9.0]);
    }
}
