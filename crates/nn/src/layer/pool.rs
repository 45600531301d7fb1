//! 2-D max pooling.

use super::Layer;
use crate::tensor::Tensor;

/// Max pooling over `[N, C, H, W]` with a square window and equal stride
/// (the LeNet-style `2×2 / stride 2`).
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    size: usize,
}

impl MaxPool2d {
    /// Creates a pooling layer with the given window size (= stride).
    ///
    /// # Panics
    ///
    /// Panics if `size == 0`.
    pub fn new(size: usize) -> Self {
        assert!(size > 0, "pool size must be positive");
        Self { size }
    }

    /// Output shape `[N, C, H / size, W / size]` of `input`.
    fn out_shape(&self, input: &Tensor) -> [usize; 4] {
        let shape = input.shape();
        assert_eq!(shape.len(), 4, "pool expects [N, C, H, W], got {shape:?}");
        let (h, w, s) = (shape[2], shape[3], self.size);
        assert!(
            h >= s && w >= s,
            "pool input {h}x{w} smaller than window {s}"
        );
        [shape[0], shape[1], h / s, w / s]
    }

    /// Calls `visit(o, max, arg)` for every window of `input` in output
    /// order: `o` indexes the output, `arg` the window's (first) maximum in
    /// the input.
    fn for_each_window(&self, input: &Tensor, mut visit: impl FnMut(usize, f32, usize)) {
        let [n, c, oh, ow] = self.out_shape(input);
        let (h, w, s) = (input.shape()[2], input.shape()[3], self.size);
        let x = input.data();
        for bc in 0..n * c {
            let x_plane = &x[bc * h * w..(bc + 1) * h * w];
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = 0usize;
                    for ky in 0..s {
                        for kx in 0..s {
                            let idx = (oy * s + ky) * w + ox * s + kx;
                            if x_plane[idx] > best {
                                best = x_plane[idx];
                                best_idx = bc * h * w + idx;
                            }
                        }
                    }
                    visit(bc * oh * ow + oy * ow + ox, best, best_idx);
                }
            }
        }
    }
}

impl Layer for MaxPool2d {
    fn forward_into(&self, _params: &[f32], input: &Tensor, out: &mut Tensor) {
        out.resize_to(&self.out_shape(input));
        let out = out.data_mut();
        self.for_each_window(input, |o, best, _| out[o] = best);
    }

    fn backward_into(
        &self,
        _params: &[f32],
        _grads: &mut [f32],
        input: &Tensor,
        _output: &Tensor,
        grad_out: &Tensor,
        grad_in: &mut Tensor,
    ) {
        // The gradient routes to each window's argmax, found again from the
        // forward input.
        grad_in.resize_to(input.shape());
        let grad_in = grad_in.data_mut();
        grad_in.fill(0.0);
        let g = grad_out.data();
        self.for_each_window(input, |o, _, arg| grad_in[arg] += g[o]);
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::testing::{backward, forward};

    #[test]
    fn forward_picks_max() {
        let pool = MaxPool2d::new(2);
        #[rustfmt::skip]
        let x = Tensor::from_vec(vec![
            1.0, 2.0, 3.0, 4.0,
            5.0, 6.0, 7.0, 8.0,
            9.0, 1.0, 2.0, 3.0,
            4.0, 5.0, 6.0, 7.0,
        ], &[1, 1, 4, 4]);
        let out = forward(&pool, &[], &x);
        assert_eq!(out.shape(), &[1, 1, 2, 2]);
        assert_eq!(out.data(), &[6.0, 8.0, 9.0, 7.0]);
    }

    #[test]
    fn backward_routes_to_argmax() {
        let pool = MaxPool2d::new(2);
        #[rustfmt::skip]
        let x = Tensor::from_vec(vec![
            1.0, 2.0,
            3.0, 0.5,
        ], &[1, 1, 2, 2]);
        let g = Tensor::from_vec(vec![10.0], &[1, 1, 1, 1]);
        let gx = backward(&pool, &[], &mut [], &x, &g);
        assert_eq!(gx.data(), &[0.0, 0.0, 10.0, 0.0]);
    }

    #[test]
    fn truncates_ragged_edges() {
        let pool = MaxPool2d::new(2);
        let x = Tensor::zeros(&[1, 1, 5, 5]);
        let out = forward(&pool, &[], &x);
        assert_eq!(out.shape(), &[1, 1, 2, 2]);
    }
}
