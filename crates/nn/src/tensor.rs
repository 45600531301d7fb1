//! Dense row-major `f32` tensor.
//!
//! Kept deliberately small: shape-tracked storage plus the handful of
//! element-wise helpers the layers need. All layout is row-major with the
//! batch dimension first (`[N, D]` for dense inputs, `[N, C, H, W]` for
//! images).

/// A dense row-major tensor of `f32` values.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Vec<usize>,
}

impl Tensor {
    /// Creates a tensor from raw data and a shape.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the product of `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        let expected: usize = shape.iter().product();
        assert_eq!(
            data.len(),
            expected,
            "tensor data length {} does not match shape {:?}",
            data.len(),
            shape
        );
        Self {
            data,
            shape: shape.to_vec(),
        }
    }

    /// All-zeros tensor of the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        Self {
            data: vec![0.0; shape.iter().product()],
            shape: shape.to_vec(),
        }
    }

    /// Tensor shape (row-major, batch first).
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Leading (batch) dimension; 0 for a rank-0 tensor.
    pub fn batch(&self) -> usize {
        self.shape.first().copied().unwrap_or(0)
    }

    /// Immutable view of the underlying data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reshapes the tensor in place to `shape`, growing or shrinking the
    /// data buffer as needed. Existing capacity is reused — after the first
    /// call at a given size this never touches the allocator. Newly exposed
    /// elements are zero; callers that fully overwrite the buffer (the
    /// in-place layer kernels) pay nothing for them.
    pub fn resize_to(&mut self, shape: &[usize]) {
        let len: usize = shape.iter().product();
        self.shape.clear();
        self.shape.extend_from_slice(shape);
        self.data.resize(len, 0.0);
    }

    /// Reshapes in place to `[n, sample_shape...]` (the minibatch layout)
    /// without building an intermediate shape vector.
    pub fn resize_batch(&mut self, n: usize, sample_shape: &[usize]) {
        let per: usize = sample_shape.iter().product();
        self.shape.clear();
        self.shape.push(n);
        self.shape.extend_from_slice(sample_shape);
        self.data.resize(n * per, 0.0);
    }

    /// Makes `self` an exact copy of `other` (shape and data), reusing the
    /// existing buffers.
    pub fn copy_from(&mut self, other: &Tensor) {
        self.resize_to(&other.shape);
        self.data.copy_from_slice(&other.data);
    }

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshaped(mut self, shape: &[usize]) -> Self {
        let expected: usize = shape.iter().product();
        assert_eq!(
            self.data.len(),
            expected,
            "reshape from {:?} to {:?}",
            self.shape,
            shape
        );
        self.shape = shape.to_vec();
        self
    }

    /// The `i`-th row of a rank-2 tensor (`[N, D]`).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or `i` is out of bounds.
    pub fn row(&self, i: usize) -> &[f32] {
        assert_eq!(self.shape.len(), 2, "row() requires a rank-2 tensor");
        let d = self.shape[1];
        &self.data[i * d..(i + 1) * d]
    }

    /// The flattened slice of sample `i` (everything after the batch dim).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is rank 0 or `i` out of bounds.
    pub fn sample(&self, i: usize) -> &[f32] {
        assert!(!self.shape.is_empty(), "sample() requires rank >= 1");
        let stride: usize = self.shape[1..].iter().product();
        &self.data[i * stride..(i + 1) * stride]
    }

    /// Mutable flattened slice of sample `i`.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is rank 0 or `i` out of bounds.
    pub fn sample_mut(&mut self, i: usize) -> &mut [f32] {
        assert!(!self.shape.is_empty(), "sample_mut() requires rank >= 1");
        let stride: usize = self.shape[1..].iter().product();
        &mut self.data[i * stride..(i + 1) * stride]
    }

    /// Matrix product `self · other` of two rank-2 tensors
    /// (`[m, k] · [k, n] → [m, n]`), routed through the cache-blocked
    /// kernel layer ([`crate::kernels::matmul`]).
    ///
    /// # Panics
    ///
    /// Panics if either tensor is not rank 2 or the inner dimensions
    /// disagree.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape.len(), 2, "matmul requires rank-2 lhs");
        assert_eq!(other.shape.len(), 2, "matmul requires rank-2 rhs");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "matmul inner dims {k} vs {k2}");
        let mut out = vec![0.0f32; m * n];
        crate::kernels::matmul(&self.data, &other.data, &mut out, m, k, n);
        Tensor::from_vec(out, &[m, n])
    }

    /// Matrix product `self · otherᵀ` where `other` is stored `[n, k]`
    /// row-major (`[m, k] · [n, k]ᵀ → [m, n]`) — the dense-layer forward
    /// layout, routed through [`crate::kernels::matmul_transb`].
    ///
    /// # Panics
    ///
    /// Panics if either tensor is not rank 2 or the inner dimensions
    /// disagree.
    pub fn matmul_transb(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape.len(), 2, "matmul_transb requires rank-2 lhs");
        assert_eq!(other.shape.len(), 2, "matmul_transb requires rank-2 rhs");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (n, k2) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "matmul_transb inner dims {k} vs {k2}");
        let mut out = vec![0.0f32; m * n];
        crate::kernels::matmul_transb(&self.data, &other.data, &mut out, m, k, n);
        Tensor::from_vec(out, &[m, n])
    }

    /// Stacks equal-shape samples into a batch tensor of shape
    /// `[samples.len(), sample_shape...]`.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or any sample length mismatches
    /// `sample_shape`.
    pub fn stack(samples: &[&[f32]], sample_shape: &[usize]) -> Self {
        assert!(!samples.is_empty(), "stack needs at least one sample");
        let per: usize = sample_shape.iter().product();
        let mut data = Vec::with_capacity(per * samples.len());
        for s in samples {
            assert_eq!(
                s.len(),
                per,
                "stack: sample length {} != shape {:?}",
                s.len(),
                sample_shape
            );
            data.extend_from_slice(s);
        }
        let mut shape = Vec::with_capacity(sample_shape.len() + 1);
        shape.push(samples.len());
        shape.extend_from_slice(sample_shape);
        Self { data, shape }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_shape() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.len(), 6);
        assert_eq!(t.batch(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn construction_rejects_bad_shape() {
        let _ = Tensor::from_vec(vec![1.0; 5], &[2, 3]);
    }

    #[test]
    fn rows_and_samples() {
        let t = Tensor::from_vec((0..12).map(|i| i as f32).collect(), &[2, 2, 3]);
        assert_eq!(t.sample(0), &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(t.sample(1), &[6.0, 7.0, 8.0, 9.0, 10.0, 11.0]);
        let r2 = t.clone().reshaped(&[2, 6]);
        assert_eq!(r2.row(1), t.sample(1));
    }

    #[test]
    fn sample_mut_writes_through() {
        let mut t = Tensor::zeros(&[2, 3]);
        t.sample_mut(1)[0] = 9.0;
        assert_eq!(t.data()[3], 9.0);
    }

    #[test]
    fn stack_builds_batch() {
        let a = [1.0f32, 2.0];
        let b = [3.0f32, 4.0];
        let t = Tensor::stack(&[&a, &b], &[2]);
        assert_eq!(t.shape(), &[2, 2]);
        assert_eq!(t.data(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "reshape")]
    fn reshape_rejects_mismatch() {
        let _ = Tensor::zeros(&[2, 3]).reshaped(&[7]);
    }

    #[test]
    fn matmul_and_transb_agree() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0], &[3, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[4.0, 5.0, 10.0, 11.0]);
        // bt = b transposed, stored [2, 3].
        let bt = Tensor::from_vec(vec![1.0, 0.0, 1.0, 0.0, 1.0, 1.0], &[2, 3]);
        assert_eq!(a.matmul_transb(&bt).data(), c.data());
    }

    #[test]
    #[should_panic(expected = "inner dims")]
    fn matmul_rejects_dim_mismatch() {
        let _ = Tensor::zeros(&[2, 3]).matmul(&Tensor::zeros(&[2, 3]));
    }
}
