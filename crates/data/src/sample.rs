//! Dense dataset container with tensor batching.

use collapois_nn::tensor::Tensor;
use rand::seq::SliceRandom;
use rand::Rng;

/// A labelled dataset stored as contiguous features plus integer labels.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Dataset {
    features: Vec<f32>,
    labels: Vec<usize>,
    sample_shape: Vec<usize>,
    num_classes: usize,
}

impl Dataset {
    /// Creates an empty dataset for samples of the given shape.
    ///
    /// # Panics
    ///
    /// Panics if `sample_shape` is empty or `num_classes == 0`.
    pub fn empty(sample_shape: &[usize], num_classes: usize) -> Self {
        assert!(!sample_shape.is_empty(), "sample shape must be non-empty");
        assert!(num_classes > 0, "num_classes must be positive");
        Self {
            features: Vec::new(),
            labels: Vec::new(),
            sample_shape: sample_shape.to_vec(),
            num_classes,
        }
    }

    /// Creates a dataset from raw parts.
    ///
    /// # Panics
    ///
    /// Panics if lengths are inconsistent or any label is out of range.
    pub fn from_parts(
        features: Vec<f32>,
        labels: Vec<usize>,
        sample_shape: &[usize],
        num_classes: usize,
    ) -> Self {
        let per: usize = sample_shape.iter().product();
        assert_eq!(
            features.len(),
            labels.len() * per,
            "features/labels mismatch"
        );
        assert!(
            labels.iter().all(|&y| y < num_classes),
            "label out of range"
        );
        let mut ds = Self::empty(sample_shape, num_classes);
        ds.features = features;
        ds.labels = labels;
        ds
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Per-sample feature count.
    pub fn feature_len(&self) -> usize {
        self.sample_shape.iter().product()
    }

    /// Shape of a single sample (without the batch dimension).
    pub fn sample_shape(&self) -> &[usize] {
        &self.sample_shape
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Feature slice of sample `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn features_of(&self, i: usize) -> &[f32] {
        let per = self.feature_len();
        &self.features[i * per..(i + 1) * per]
    }

    /// Mutable feature slice of sample `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn features_of_mut(&mut self, i: usize) -> &mut [f32] {
        let per = self.feature_len();
        &mut self.features[i * per..(i + 1) * per]
    }

    /// Label of sample `i`.
    pub fn label_of(&self, i: usize) -> usize {
        self.labels[i]
    }

    /// Sets the label of sample `i`.
    ///
    /// # Panics
    ///
    /// Panics if the label is out of range.
    pub fn set_label(&mut self, i: usize, label: usize) {
        assert!(label < self.num_classes, "label {label} out of range");
        self.labels[i] = label;
    }

    /// All labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Appends one sample.
    ///
    /// # Panics
    ///
    /// Panics if the feature length or label is inconsistent.
    pub fn push(&mut self, features: &[f32], label: usize) {
        assert_eq!(
            features.len(),
            self.feature_len(),
            "feature length mismatch"
        );
        assert!(label < self.num_classes, "label {label} out of range");
        self.features.extend_from_slice(features);
        self.labels.push(label);
    }

    /// Appends every sample of `other`.
    ///
    /// # Panics
    ///
    /// Panics if shapes or class counts differ.
    pub fn extend_from(&mut self, other: &Dataset) {
        assert_eq!(
            self.sample_shape, other.sample_shape,
            "sample shape mismatch"
        );
        assert_eq!(self.num_classes, other.num_classes, "class count mismatch");
        self.features.extend_from_slice(&other.features);
        self.labels.extend_from_slice(&other.labels);
    }

    /// A new dataset containing the given sample indices (cloned), in
    /// buffers sized exactly for them, so [`Dataset::heap_bytes`] counts no
    /// slack.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        let (features, labels) = self.gather(indices);
        Dataset {
            features,
            labels,
            sample_shape: self.sample_shape.clone(),
            num_classes: self.num_classes,
        }
    }

    /// The features and labels of `indices`, in order, in buffers reserved
    /// for exactly `indices.len()` samples.
    fn gather(&self, indices: &[usize]) -> (Vec<f32>, Vec<usize>) {
        let mut features = Vec::with_capacity(indices.len() * self.feature_len());
        let mut labels = Vec::with_capacity(indices.len());
        for &i in indices {
            features.extend_from_slice(self.features_of(i));
            labels.push(self.labels[i]);
        }
        (features, labels)
    }

    /// Batches the whole dataset into a `[N, sample_shape...]` tensor plus
    /// its labels.
    pub fn as_batch(&self) -> (Tensor, Vec<usize>) {
        let mut shape = Vec::with_capacity(self.sample_shape.len() + 1);
        shape.push(self.len());
        shape.extend_from_slice(&self.sample_shape);
        (
            Tensor::from_vec(self.features.clone(), &shape),
            self.labels.clone(),
        )
    }

    /// Batches the given indices into a tensor plus labels.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn batch_of(&self, indices: &[usize]) -> (Tensor, Vec<usize>) {
        let (data, labels) = self.gather(indices);
        let mut shape = Vec::with_capacity(self.sample_shape.len() + 1);
        shape.push(indices.len());
        shape.extend_from_slice(&self.sample_shape);
        (Tensor::from_vec(data, &shape), labels)
    }

    /// Random minibatch of up to `size` samples (without replacement),
    /// written into the caller-owned index, feature and label buffers so
    /// their heap allocations are reused across calls. The full index range
    /// is shuffled, then truncated; `idx` is left holding the drawn
    /// indices.
    pub fn minibatch_into<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        size: usize,
        idx: &mut Vec<usize>,
        x: &mut Tensor,
        y: &mut Vec<usize>,
    ) {
        idx.clear();
        idx.extend(0..self.len());
        idx.shuffle(rng);
        idx.truncate(size.min(self.len()));
        self.batch_into(idx, x, y);
    }

    /// In-place [`Dataset::batch_of`]: writes the selected samples into the
    /// caller-owned tensor and label buffer.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn batch_into(&self, indices: &[usize], x: &mut Tensor, y: &mut Vec<usize>) {
        let per = self.feature_len();
        x.resize_batch(indices.len(), &self.sample_shape);
        let data = x.data_mut();
        y.clear();
        for (row, &i) in indices.iter().enumerate() {
            data[row * per..(row + 1) * per].copy_from_slice(self.features_of(i));
            y.push(self.labels[i]);
        }
    }

    /// Heap bytes held by this dataset's feature, label and shape buffers
    /// (capacity, not length — the number the resident-shard byte budget
    /// accounts against). For a [`Dataset::subset`] or [`Dataset::split`]
    /// output the two are equal.
    pub fn heap_bytes(&self) -> usize {
        self.features.capacity() * std::mem::size_of::<f32>()
            + self.labels.capacity() * std::mem::size_of::<usize>()
            + self.sample_shape.capacity() * std::mem::size_of::<usize>()
    }

    /// Splits into `(train, test, val)` datasets by the given fractions
    /// after a seeded shuffle (the paper uses 70/15/15).
    ///
    /// # Panics
    ///
    /// Panics if the fractions are negative or sum to more than 1.
    pub fn split<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        train_frac: f64,
        test_frac: f64,
    ) -> (Dataset, Dataset, Dataset) {
        assert!(
            train_frac >= 0.0 && test_frac >= 0.0,
            "fractions must be non-negative"
        );
        assert!(
            train_frac + test_frac <= 1.0 + 1e-9,
            "fractions must sum to at most 1"
        );
        let mut idx: Vec<usize> = (0..self.len()).collect();
        idx.shuffle(rng);
        let n_train = (self.len() as f64 * train_frac).round() as usize;
        let n_test = (self.len() as f64 * test_frac).round() as usize;
        let n_train = n_train.min(self.len());
        let n_test = n_test.min(self.len() - n_train);
        let train = self.subset(&idx[..n_train]);
        let test = self.subset(&idx[n_train..n_train + n_test]);
        let val = self.subset(&idx[n_train + n_test..]);
        (train, test, val)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy() -> Dataset {
        let mut ds = Dataset::empty(&[2], 3);
        for i in 0..9 {
            ds.push(&[i as f32, -(i as f32)], i % 3);
        }
        ds
    }

    #[test]
    fn push_and_access() {
        let ds = toy();
        assert_eq!(ds.len(), 9);
        assert_eq!(ds.feature_len(), 2);
        assert_eq!(ds.features_of(4), &[4.0, -4.0]);
        assert_eq!(ds.label_of(4), 1);
    }

    #[test]
    fn subset_preserves_order() {
        let ds = toy();
        let sub = ds.subset(&[8, 0, 3]);
        assert_eq!(sub.len(), 3);
        assert_eq!(sub.features_of(0), &[8.0, -8.0]);
        assert_eq!(sub.label_of(1), 0);
    }

    #[test]
    fn batch_shapes() {
        let ds = toy();
        let (x, y) = ds.as_batch();
        assert_eq!(x.shape(), &[9, 2]);
        assert_eq!(y.len(), 9);
        let (xb, yb) = ds.batch_of(&[1, 2]);
        assert_eq!(xb.shape(), &[2, 2]);
        assert_eq!(yb, vec![1, 2]);
    }

    #[test]
    fn minibatch_without_replacement() {
        let ds = toy();
        let mut rng = StdRng::seed_from_u64(0);
        let (mut idx, mut x, mut y) = (Vec::new(), Tensor::default(), Vec::new());
        ds.minibatch_into(&mut rng, 5, &mut idx, &mut x, &mut y);
        assert_eq!(x.batch(), 5);
        assert_eq!(y.len(), 5);
        let mut distinct = idx.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 5);
        // Requesting more than available returns everything.
        ds.minibatch_into(&mut rng, 100, &mut idx, &mut x, &mut y);
        assert_eq!(x.batch(), 9);
    }

    #[test]
    fn minibatch_into_reuses_buffers_and_matches_batch_of() {
        let ds = toy();
        let mut rng = StdRng::seed_from_u64(7);
        let (mut idx, mut x, mut y) = (Vec::new(), Tensor::default(), Vec::new());
        // Varying sizes exercise buffer reuse (grow and shrink).
        for size in [5usize, 3, 9, 1] {
            ds.minibatch_into(&mut rng, size, &mut idx, &mut x, &mut y);
            let (xb, yb) = ds.batch_of(&idx);
            assert_eq!(x, xb);
            assert_eq!(y, yb);
        }
    }

    #[test]
    fn split_is_a_partition() {
        let ds = toy();
        let mut rng = StdRng::seed_from_u64(1);
        let (tr, te, va) = ds.split(&mut rng, 0.7, 0.15);
        assert_eq!(tr.len() + te.len() + va.len(), ds.len());
        // Union of features matches the original multiset.
        let mut all: Vec<f32> = Vec::new();
        for d in [&tr, &te, &va] {
            for i in 0..d.len() {
                all.push(d.features_of(i)[0]);
            }
        }
        all.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(all, (0..9).map(|i| i as f32).collect::<Vec<_>>());
    }

    #[test]
    fn extend_from_concatenates() {
        let mut a = toy();
        let b = toy();
        a.extend_from(&b);
        assert_eq!(a.len(), 18);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_label() {
        let mut ds = Dataset::empty(&[1], 2);
        ds.push(&[0.0], 2);
    }

    #[test]
    fn set_label_works() {
        let mut ds = toy();
        ds.set_label(0, 2);
        assert_eq!(ds.label_of(0), 2);
    }
}
