//! 2-D convolution (valid padding, stride 1) — the LeNet building block.

use super::Layer;
use crate::init::Init;
use crate::tensor::Tensor;
use rand::Rng;

/// 2-D convolution over `[N, C, H, W]` inputs with `valid` padding and
/// stride 1. Weights are stored `[out_c, in_c, kh, kw]` row-major, followed
/// by the bias in the layer's arena range.
#[derive(Debug, Clone)]
pub struct Conv2d {
    in_c: usize,
    out_c: usize,
    kh: usize,
    kw: usize,
    /// Initial weights then bias, until the model takes them.
    init: Vec<f32>,
}

impl Conv2d {
    /// Creates a convolution layer with He-normal weights and zero bias.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, in_c: usize, out_c: usize, kernel: usize) -> Self {
        assert!(
            in_c > 0 && out_c > 0 && kernel > 0,
            "conv dims must be positive"
        );
        let fan_in = in_c * kernel * kernel;
        let mut params = vec![0.0; out_c * fan_in + out_c];
        Init::HeNormal.fill(
            rng,
            &mut params[..out_c * fan_in],
            fan_in,
            out_c * kernel * kernel,
        );
        Self {
            in_c,
            out_c,
            kh: kernel,
            kw: kernel,
            init: params,
        }
    }

    fn weight_len(&self) -> usize {
        self.out_c * self.in_c * self.kh * self.kw
    }

    fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        assert!(
            h >= self.kh && w >= self.kw,
            "conv input {h}x{w} smaller than kernel {}x{}",
            self.kh,
            self.kw
        );
        (h - self.kh + 1, w - self.kw + 1)
    }
}

impl Layer for Conv2d {
    fn forward_into(&self, params: &[f32], input: &Tensor, out: &mut Tensor) {
        let shape = input.shape();
        assert_eq!(shape.len(), 4, "conv expects [N, C, H, W], got {shape:?}");
        let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        assert_eq!(c, self.in_c, "conv channel mismatch");
        let (oh, ow) = self.out_hw(h, w);
        let (weight, bias) = params.split_at(self.weight_len());
        let x = input.data();
        // Every output plane is first filled with its bias, so stale
        // contents from a previous minibatch are harmless.
        out.resize_to(&[n, self.out_c, oh, ow]);
        let out = out.data_mut();
        let in_plane = h * w;
        let out_plane = oh * ow;
        let k_plane = self.kh * self.kw;
        for b in 0..n {
            let xb = &x[b * c * in_plane..(b + 1) * c * in_plane];
            let ob = &mut out[b * self.out_c * out_plane..(b + 1) * self.out_c * out_plane];
            for oc in 0..self.out_c {
                let w_oc = &weight[oc * self.in_c * k_plane..(oc + 1) * self.in_c * k_plane];
                let o_plane = &mut ob[oc * out_plane..(oc + 1) * out_plane];
                o_plane.fill(bias[oc]);
                for ic in 0..self.in_c {
                    let x_plane = &xb[ic * in_plane..(ic + 1) * in_plane];
                    let w_k = &w_oc[ic * k_plane..(ic + 1) * k_plane];
                    for ky in 0..self.kh {
                        for kx in 0..self.kw {
                            let wv = w_k[ky * self.kw + kx];
                            if wv == 0.0 {
                                continue;
                            }
                            for oy in 0..oh {
                                let x_row = &x_plane[(oy + ky) * w + kx..(oy + ky) * w + kx + ow];
                                let o_row = &mut o_plane[oy * ow..(oy + 1) * ow];
                                for (o, &xv) in o_row.iter_mut().zip(x_row) {
                                    *o += wv * xv;
                                }
                            }
                        }
                    }
                }
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
        let shape = input.shape();
        let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        let (oh, ow) = self.out_hw(h, w);
        assert_eq!(
            grad_out.shape(),
            &[n, self.out_c, oh, ow],
            "conv grad shape mismatch"
        );
        let weight = &params[..self.weight_len()];
        let (grad_weight, grad_bias) = grads.split_at_mut(self.weight_len());
        let x = input.data();
        let g = grad_out.data();
        let in_plane = h * w;
        let out_plane = oh * ow;
        let k_plane = self.kh * self.kw;
        grad_in.resize_to(shape);
        let grad_in = grad_in.data_mut();
        grad_in.fill(0.0);
        for b in 0..n {
            let xb = &x[b * c * in_plane..(b + 1) * c * in_plane];
            let gb = &g[b * self.out_c * out_plane..(b + 1) * self.out_c * out_plane];
            let gib = &mut grad_in[b * c * in_plane..(b + 1) * c * in_plane];
            for oc in 0..self.out_c {
                let g_plane = &gb[oc * out_plane..(oc + 1) * out_plane];
                grad_bias[oc] += g_plane.iter().sum::<f32>();
                let w_oc = &weight[oc * self.in_c * k_plane..(oc + 1) * self.in_c * k_plane];
                let gw_oc =
                    &mut grad_weight[oc * self.in_c * k_plane..(oc + 1) * self.in_c * k_plane];
                for ic in 0..self.in_c {
                    let x_plane = &xb[ic * in_plane..(ic + 1) * in_plane];
                    let gi_plane = &mut gib[ic * in_plane..(ic + 1) * in_plane];
                    let w_k = &w_oc[ic * k_plane..(ic + 1) * k_plane];
                    let gw_k = &mut gw_oc[ic * k_plane..(ic + 1) * k_plane];
                    for ky in 0..self.kh {
                        for kx in 0..self.kw {
                            let mut acc = 0.0f32;
                            let wv = w_k[ky * self.kw + kx];
                            for oy in 0..oh {
                                let g_row = &g_plane[oy * ow..(oy + 1) * ow];
                                let x_row = &x_plane[(oy + ky) * w + kx..(oy + ky) * w + kx + ow];
                                let gi_row =
                                    &mut gi_plane[(oy + ky) * w + kx..(oy + ky) * w + kx + ow];
                                for ((&gv, &xv), giv) in g_row.iter().zip(x_row).zip(gi_row) {
                                    acc += gv * xv;
                                    *giv += gv * wv;
                                }
                            }
                            gw_k[ky * self.kw + kx] += acc;
                        }
                    }
                }
            }
        }
    }

    fn param_count(&self) -> usize {
        self.weight_len() + self.out_c
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

    /// Naive reference convolution for cross-checking.
    fn reference_conv(
        x: &[f32],
        w: &[f32],
        bias: &[f32],
        (n, c, h, ww): (usize, usize, usize, usize),
        (oc, k): (usize, usize),
    ) -> Vec<f32> {
        let oh = h - k + 1;
        let ow = ww - k + 1;
        let mut out = vec![0.0f32; n * oc * oh * ow];
        for b in 0..n {
            for o in 0..oc {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = bias[o];
                        for ic in 0..c {
                            for ky in 0..k {
                                for kx in 0..k {
                                    let xv = x[((b * c + ic) * h + oy + ky) * ww + ox + kx];
                                    let wv = w[((o * c + ic) * k + ky) * k + kx];
                                    acc += xv * wv;
                                }
                            }
                        }
                        out[((b * oc + o) * oh + oy) * ow + ox] = acc;
                    }
                }
            }
        }
        out
    }

    #[test]
    fn forward_matches_reference() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(&mut rng, 2, 3, 3);
        let params = conv.take_init_params();
        let x: Vec<f32> = (0..2 * 2 * 6 * 6)
            .map(|i| ((i * 31 % 17) as f32 - 8.0) * 0.1)
            .collect();
        let t = Tensor::from_vec(x.clone(), &[2, 2, 6, 6]);
        let out = forward(&conv, &params, &t);
        let (w, b) = params.split_at(2 * 3 * 9);
        let reference = reference_conv(&x, w, b, (2, 2, 6, 6), (3, 3));
        assert_eq!(out.shape(), &[2, 3, 4, 4]);
        for (a, r) in out.data().iter().zip(&reference) {
            assert!((a - r).abs() < 1e-4, "{a} vs {r}");
        }
    }

    #[test]
    fn backward_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut conv = Conv2d::new(&mut rng, 1, 2, 2);
        let params = conv.take_init_params();
        let x = Tensor::from_vec((0..16).map(|i| 0.05 * i as f32).collect(), &[1, 1, 4, 4]);
        let ones = Tensor::from_vec(vec![1.0; 18], &[1, 2, 3, 3]);
        let mut grads = vec![0.0; conv.param_count()];
        let gx = backward(&conv, &params, &mut grads, &x, &ones);

        let sum_at = |p: &[f32], x: &Tensor| -> f32 { forward(&conv, p, x).data().iter().sum() };
        let eps = 1e-3;
        for idx in 0..conv.param_count() {
            let mut hi = params.clone();
            hi[idx] += eps;
            let mut lo = params.clone();
            lo[idx] -= eps;
            let fd = (sum_at(&hi, &x) - sum_at(&lo, &x)) / (2.0 * eps);
            assert!(
                (fd - grads[idx]).abs() < 1e-2,
                "param {idx}: fd={fd} vs {}",
                grads[idx]
            );
        }
        // Spot-check an input gradient.
        let mut x_hi = x.clone();
        x_hi.data_mut()[5] += eps;
        let mut x_lo = x;
        x_lo.data_mut()[5] -= eps;
        let fd = (sum_at(&params, &x_hi) - sum_at(&params, &x_lo)) / (2.0 * eps);
        assert!((fd - gx.data()[5]).abs() < 1e-2);
    }

    #[test]
    #[should_panic(expected = "smaller than kernel")]
    fn rejects_too_small_input() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut conv = Conv2d::new(&mut rng, 1, 1, 5);
        let params = conv.take_init_params();
        let _ = forward(&conv, &params, &Tensor::zeros(&[1, 1, 3, 3]));
    }
}
