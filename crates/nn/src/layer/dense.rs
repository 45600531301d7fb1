//! Fully connected (affine) layer.

use super::Layer;
use crate::init::Init;
use crate::kernels;
use crate::tensor::Tensor;
use rand::Rng;

/// Fully connected layer: `y = x Wᵀ + b`, weights stored `[out, in]`
/// row-major, followed by the bias in the layer's arena range.
#[derive(Debug, Clone)]
pub struct Dense {
    in_dim: usize,
    out_dim: usize,
    /// Initial weights then bias, until the model takes them.
    init: Vec<f32>,
}

impl Dense {
    /// Creates a dense layer with He-normal weights and zero bias.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, in_dim: usize, out_dim: usize) -> Self {
        Self::with_init(rng, in_dim, out_dim, Init::HeNormal)
    }

    /// Creates a dense layer with the given weight initialization.
    pub fn with_init<R: Rng + ?Sized>(
        rng: &mut R,
        in_dim: usize,
        out_dim: usize,
        init: Init,
    ) -> Self {
        assert!(in_dim > 0 && out_dim > 0, "dense dims must be positive");
        let mut params = vec![0.0; in_dim * out_dim + out_dim];
        init.fill(rng, &mut params[..in_dim * out_dim], in_dim, out_dim);
        Self {
            in_dim,
            out_dim,
            init: params,
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// `dW += gᵀ x ; db[o] += Σ_batch g[o]`; returns the batch size.
    fn accumulate_param_grads(
        &self,
        grads: &mut [f32],
        input: &Tensor,
        grad_out: &Tensor,
    ) -> usize {
        let n = input.batch();
        assert_eq!(
            grad_out.len(),
            n * self.out_dim,
            "dense grad shape mismatch"
        );
        let g = grad_out.data();
        let (grad_weight, grad_bias) = grads.split_at_mut(self.in_dim * self.out_dim);
        kernels::matmul_transa_acc(g, input.data(), grad_weight, n, self.out_dim, self.in_dim);
        for gb in g.chunks_exact(self.out_dim) {
            for (db, &go) in grad_bias.iter_mut().zip(gb) {
                *db += go;
            }
        }
        n
    }
}

impl Layer for Dense {
    fn forward_into(&self, params: &[f32], input: &Tensor, out: &mut Tensor) {
        let n = input.batch();
        assert_eq!(
            input.len(),
            n * self.in_dim,
            "dense expected [{n}, {}], got shape {:?}",
            self.in_dim,
            input.shape()
        );
        let (weight, bias) = params.split_at(self.in_dim * self.out_dim);
        // y = x Wᵀ, then add the bias per row. The matmul kernel fully
        // overwrites `out`, so stale contents from a previous minibatch are
        // harmless.
        out.resize_to(&[n, self.out_dim]);
        kernels::matmul_transb(
            input.data(),
            weight,
            out.data_mut(),
            n,
            self.in_dim,
            self.out_dim,
        );
        for oi in out.data_mut().chunks_exact_mut(self.out_dim) {
            for (o, b) in oi.iter_mut().zip(bias) {
                *o += b;
            }
        }
    }

    fn backward_into(
        &self,
        params: &[f32],
        grads: &mut [f32],
        input: &Tensor,
        _output: &Tensor,
        grad_out: &Tensor,
        grad_in: &mut Tensor,
    ) {
        let n = self.accumulate_param_grads(grads, input, grad_out);
        // dX = g W.
        grad_in.resize_to(&[n, self.in_dim]);
        kernels::matmul(
            grad_out.data(),
            &params[..self.in_dim * self.out_dim],
            grad_in.data_mut(),
            n,
            self.out_dim,
            self.in_dim,
        );
    }

    fn backward_head_into(
        &self,
        _params: &[f32],
        grads: &mut [f32],
        input: &Tensor,
        _output: &Tensor,
        grad_out: &Tensor,
        _scratch: &mut Tensor,
    ) {
        // Parameter gradients only — identical ops to `backward_into`; the
        // dX matmul (the single largest matmul of a first-layer backward)
        // is skipped because nothing consumes it.
        self.accumulate_param_grads(grads, input, grad_out);
    }

    fn param_count(&self) -> usize {
        self.in_dim * self.out_dim + self.out_dim
    }

    fn take_init_params(&mut self) -> Vec<f32> {
        std::mem::take(&mut self.init)
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::testing::{backward, forward};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_shape_and_bias() {
        let l = Dense::new(&mut StdRng::seed_from_u64(0), 3, 2);
        // Zero weights, set bias: output must equal the bias per row.
        let mut p = vec![0.0; 8];
        p[6] = 1.5;
        p[7] = -0.5;
        let out = forward(&l, &p, &Tensor::zeros(&[4, 3]));
        assert_eq!(out.shape(), &[4, 2]);
        for i in 0..4 {
            assert_eq!(out.row(i), &[1.5, -0.5]);
        }
    }

    #[test]
    fn backward_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut l = Dense::new(&mut rng, 4, 3);
        let params = l.take_init_params();
        let x = Tensor::from_vec((0..8).map(|i| 0.1 * i as f32).collect(), &[2, 4]);
        // Loss = sum(outputs); dL/dout = 1.
        let ones = Tensor::from_vec(vec![1.0; 6], &[2, 3]);
        let mut grads = vec![0.0; l.param_count()];
        let gx = backward(&l, &params, &mut grads, &x, &ones);

        let sum_at = |p: &[f32], x: &Tensor| -> f32 { forward(&l, p, x).data().iter().sum() };
        let eps = 1e-3;
        for idx in [0usize, 5, 11, 12, 14] {
            let mut p_hi = params.clone();
            p_hi[idx] += eps;
            let mut p_lo = params.clone();
            p_lo[idx] -= eps;
            let fd = (sum_at(&p_hi, &x) - sum_at(&p_lo, &x)) / (2.0 * eps);
            assert!(
                (fd - grads[idx]).abs() < 1e-2,
                "param {idx}: fd={fd} analytic={}",
                grads[idx]
            );
        }
        // Input gradient via finite differences on one coordinate.
        let mut x_hi = x.clone();
        x_hi.data_mut()[2] += eps;
        let mut x_lo = x;
        x_lo.data_mut()[2] -= eps;
        let fd = (sum_at(&params, &x_hi) - sum_at(&params, &x_lo)) / (2.0 * eps);
        assert!((fd - gx.data()[2]).abs() < 1e-2);
    }

    #[test]
    fn init_params_are_taken_once() {
        let mut l = Dense::new(&mut StdRng::seed_from_u64(0), 3, 2);
        assert_eq!(l.take_init_params().len(), l.param_count());
        assert!(l.take_init_params().is_empty());
    }

    #[test]
    fn head_backward_matches_full_backward_param_grads() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut l = Dense::new(&mut rng, 5, 3);
        let params = l.take_init_params();
        let x = Tensor::from_vec((0..10).map(|i| 0.3 * i as f32 - 1.0).collect(), &[2, 5]);
        let g = Tensor::from_vec((0..6).map(|i| 0.1 * i as f32 - 0.2).collect(), &[2, 3]);
        let out = forward(&l, &params, &x);
        let mut gf = vec![0.0; l.param_count()];
        let mut gh = vec![0.0; l.param_count()];
        l.backward_into(&params, &mut gf, &x, &out, &g, &mut Tensor::default());
        l.backward_head_into(&params, &mut gh, &x, &out, &g, &mut Tensor::default());
        assert_eq!(
            gf.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            gh.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "head backward must accumulate bitwise-identical parameter grads"
        );
    }
}
