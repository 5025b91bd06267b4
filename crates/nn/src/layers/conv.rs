use std::ops::Range;

use rand::{Rng, SeedableRng};

use super::{dims4_checked, Layer};
use crate::Tensor;

/// A 2-D convolution layer (Eq. 1 of the paper).
///
/// Weights have shape `[out_channels, in_channels, k, k]`; the forward pass
/// computes
///
/// ```text
/// a(n, o, y, x) = b(o) + Σ_c Σ_kh Σ_kw w(o, c, kh, kw) · x(n, c, y·s + kh - p, x·s + kw - p)
/// ```
///
/// with stride `s` and symmetric zero padding `p`. The backward pass
/// implements Eq. 3 (input errors = output errors convolved with the
/// transposed kernel) and Eq. 4 (weight gradients = input convolved with
/// output errors).
#[derive(Debug, Clone)]
pub struct Conv2d {
    in_ch: usize,
    out_ch: usize,
    k: usize,
    stride: usize,
    pad: usize,
    weights: Tensor,
    bias: Tensor,
    grad_w: Tensor,
    grad_b: Tensor,
    cached_input: Option<Tensor>,
}

impl Conv2d {
    /// Creates a convolution layer with He-uniform initialized weights.
    ///
    /// # Panics
    ///
    /// Panics if any of `in_ch`, `out_ch`, `k`, `stride` is zero.
    #[must_use]
    pub fn new(in_ch: usize, out_ch: usize, k: usize, stride: usize, pad: usize, seed: u64) -> Self {
        assert!(in_ch > 0 && out_ch > 0 && k > 0 && stride > 0, "conv dimensions must be positive");
        let fan_in = (in_ch * k * k) as f32;
        let limit = (6.0 / fan_in).sqrt();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let w: Vec<f32> = (0..out_ch * in_ch * k * k).map(|_| rng.gen_range(-limit..limit)).collect();
        Self {
            in_ch,
            out_ch,
            k,
            stride,
            pad,
            weights: Tensor::from_vec(w, &[out_ch, in_ch, k, k]),
            bias: Tensor::zeros(&[out_ch]),
            grad_w: Tensor::zeros(&[out_ch, in_ch, k, k]),
            grad_b: Tensor::zeros(&[out_ch]),
            cached_input: None,
        }
    }

    /// The weight tensor (`[out, in, k, k]`).
    #[must_use]
    pub fn weights(&self) -> &Tensor {
        &self.weights
    }

    /// The bias vector.
    #[must_use]
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }

    /// Mutable bias access.
    pub fn bias_mut(&mut self) -> &mut Tensor {
        &mut self.bias
    }

    /// Mutable weight access (used by tests and quantization).
    pub fn weights_mut(&mut self) -> &mut Tensor {
        &mut self.weights
    }

    /// Output spatial size for an input of `h × w`.
    #[must_use]
    pub fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        ((h + 2 * self.pad - self.k) / self.stride + 1, (w + 2 * self.pad - self.k) / self.stride + 1)
    }
}

/// Channels one register block carries: output channels in the forward
/// pass and the weight gradient, input columns in the input gradient.
/// Lanes are independent accumulators, so the width never changes a result.
const LANES: usize = 8;

/// One register block of accumulators.
type Lanes = [f32; LANES];

/// `acc[l] += a · v[l]` for every lane: a rounded multiply, then a rounded
/// add, exactly as the scalar `acc += w * x` does (Rust never fuses them
/// into an FMA).
#[inline(always)]
fn axpy(acc: &mut Lanes, a: f32, v: &[f32]) {
    for (s, &vl) in acc.iter_mut().zip(&v[..LANES]) {
        *s += a * vl;
    }
}

/// The taps `t` of one axis whose input index `pos·stride + t − pad` lies in
/// `0..len`, for output position `pos`.
fn valid_taps(pos: usize, stride: usize, pad: usize, k: usize, len: usize) -> Range<usize> {
    let origin = pos * stride;
    let lo = pad.saturating_sub(origin).min(k);
    lo..(len + pad).saturating_sub(origin).clamp(lo, k)
}

/// Regroups a row-major `rows × cols` matrix into blocks of [`LANES`] rows:
/// `[b·cols + j][l]` holds row `b·LANES + l`, column `j`, zero past the last
/// row.
fn to_lanes(m: &[f32], cols: usize) -> Vec<Lanes> {
    let mut out = vec![[0.0; LANES]; (m.len() / cols).div_ceil(LANES) * cols];
    for (r, row) in m.chunks_exact(cols).enumerate() {
        for (dst, &v) in out[r / LANES * cols..].iter_mut().zip(row) {
            dst[r % LANES] = v;
        }
    }
    out
}

/// Inverse of [`to_lanes`]: writes the blocks back into the row-major `m`.
fn from_lanes(lanes: &[Lanes], m: &mut [f32], cols: usize) {
    for (r, row) in m.chunks_exact_mut(cols).enumerate() {
        for (v, src) in row.iter_mut().zip(&lanes[r / LANES * cols..]) {
            *v = src[r % LANES];
        }
    }
}

impl Conv2d {
    /// The receptive field of output pixel `(y, xo)` in one `[c, h, w]`
    /// image, as runs `(first tap, first input index)` of `len` consecutive
    /// in-bounds taps, in `(ci, kh, kw)` order. Padding taps are left out.
    fn window(&self, [h, w]: [usize; 2], y: usize, xo: usize, runs: &mut Vec<(usize, usize)>) -> usize {
        let (k, s, p) = (self.k, self.stride, self.pad);
        let (khs, kws) = (valid_taps(y, s, p, k, h), valid_taps(xo, s, p, k, w));
        runs.clear();
        if kws.is_empty() {
            return 0;
        }
        for ci in 0..self.in_ch {
            for kh in khs.clone() {
                let row = (ci * h + y * s + kh - p) * w;
                runs.push(((ci * k + kh) * k + kws.start, row + xo * s + kws.start - p));
            }
        }
        kws.len()
    }
}

impl Layer for Conv2d {
    /// Each output starts at its bias and adds `w · x` over the in-bounds
    /// taps in `(ci, kh, kw)` order, one register block of output channels
    /// at a time (DESIGN.md §6, "Conv2d reduction order").
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let [n, c, h, w] = dims4_checked(x, "Conv2d");
        assert_eq!(c, self.in_ch, "Conv2d expects {} input channels, got {c}", self.in_ch);
        let (oh, ow) = self.output_hw(h, w);
        let (oc, plane, taps) = (self.out_ch, oh * ow, c * self.k * self.k);
        let weights = to_lanes(self.weights.data(), taps);
        let bias = to_lanes(self.bias.data(), 1);
        let mut out = vec![0.0; n * oc * plane];
        let mut runs = Vec::new();
        for (img, out_img) in x.data().chunks_exact(c * h * w).zip(out.chunks_exact_mut(oc * plane)) {
            for px in 0..plane {
                let len = self.window([h, w], px / ow, px % ow, &mut runs);
                for (b, (wb, &b0)) in weights.chunks_exact(taps).zip(&bias).enumerate() {
                    let mut acc = b0;
                    for &(t, i) in &runs {
                        for (wt, &v) in wb[t..t + len].iter().zip(&img[i..i + len]) {
                            axpy(&mut acc, v, wt);
                        }
                    }
                    for (dst, &v) in out_img[b * LANES * plane + px..].iter_mut().step_by(plane).zip(&acc) {
                        *dst = v;
                    }
                }
            }
        }
        self.cached_input = Some(x.clone());
        Tensor::from_vec(out, &[n, oc, oh, ow])
    }

    /// `grad_w` and `grad_b` accumulate over output pixels in `(ni, y, xo)`
    /// order; each input-gradient element sums over `(o, y, xo)`, i.e. `o`
    /// outermost, then taps `(kh, kw)` from the last to the first. Both are
    /// the scalar loop's orders (DESIGN.md §6, "Conv2d reduction order").
    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self.cached_input.as_ref().expect("backward before forward"); // documented Layer contract. lint: allow(panic-path)
        let [n, c, h, w] = x.dims4();
        let [gn, go, oh, ow] = grad_out.dims4();
        assert_eq!(gn, n, "gradient batch mismatch");
        assert_eq!(go, self.out_ch, "gradient channel mismatch");
        let (k, s, p) = (self.k, self.stride, self.pad);
        let (oc, plane, taps) = (self.out_ch, oh * ow, c * k * k);
        let g_images = grad_out.data().chunks_exact(oc * plane);

        for g_img in g_images.clone() {
            for (gb, g_plane) in self.grad_b.data_mut().iter_mut().zip(g_img.chunks_exact(plane)) {
                for &g in g_plane {
                    *gb += g;
                }
            }
        }

        // Weight gradient: lanes over output channels, one outer product
        // per output pixel.
        let mut grad_w = to_lanes(self.grad_w.data(), taps);
        let mut runs = Vec::new();
        for (img, g_img) in x.data().chunks_exact(c * h * w).zip(g_images.clone()) {
            for px in 0..plane {
                let len = self.window([h, w], px / ow, px % ow, &mut runs);
                for (b, gw) in grad_w.chunks_exact_mut(taps).enumerate() {
                    let mut g = [0.0; LANES];
                    for (gl, &v) in g.iter_mut().zip(g_img[b * LANES * plane + px..].iter().step_by(plane)) {
                        *gl = v;
                    }
                    for &(t, i) in &runs {
                        for (acc, &v) in gw[t..t + len].iter_mut().zip(&img[i..i + len]) {
                            axpy(acc, v, &g);
                        }
                    }
                }
            }
        }
        from_lanes(&grad_w, self.grad_w.data_mut(), taps);

        // Input gradient: lanes over input columns, gathering from the
        // output gradient spread onto the input grid. Row `iy + k − 1 − kh`
        // of the spread holds output row `y` with `y·s + kh − p = iy`, and
        // zeros where there is none; columns likewise. Every tap of every
        // lane then reads in bounds.
        let (gh, gw) = (h + k - 1, w.next_multiple_of(LANES) + k - 1);
        let mut spread = vec![0.0; oc * gh * gw];
        let mut grad_in = vec![0.0; n * c * h * w];
        let weights = self.weights.data();
        for (g_img, gi_img) in g_images.zip(grad_in.chunks_exact_mut(c * h * w)) {
            for (dst, g_plane) in spread.chunks_exact_mut(gh * gw).zip(g_img.chunks_exact(plane)) {
                for (y, g_row) in g_plane.chunks_exact(ow).enumerate() {
                    let Some(r) = (y * s + k - 1).checked_sub(p).filter(|&r| r < gh) else { continue };
                    for (xo, &g) in g_row.iter().enumerate() {
                        if let Some(col) = (xo * s + k - 1).checked_sub(p).filter(|&col| col < w + k - 1) {
                            dst[r * gw + col] = g;
                        }
                    }
                }
            }
            for (ci, gi_plane) in gi_img.chunks_exact_mut(h * w).enumerate() {
                for (iy, gi_row) in gi_plane.chunks_exact_mut(w).enumerate() {
                    for (x0, gi_lanes) in (0..w).step_by(LANES).zip(gi_row.chunks_mut(LANES)) {
                        let mut acc = [0.0; LANES];
                        for (o, src) in spread.chunks_exact(gh * gw).enumerate() {
                            let wo = &weights[(o * c + ci) * k * k..][..k * k];
                            for kh in (0..k).rev() {
                                let row = &src[(iy + k - 1 - kh) * gw + x0..];
                                for kw in (0..k).rev() {
                                    axpy(&mut acc, wo[kh * k + kw], &row[k - 1 - kw..]);
                                }
                            }
                        }
                        gi_lanes.copy_from_slice(&acc[..gi_lanes.len()]);
                    }
                }
            }
        }
        Tensor::from_vec(grad_in, &[n, c, h, w])
    }

    fn sgd_step(&mut self, lr: f32) {
        for (w, g) in self.weights.data_mut().iter_mut().zip(self.grad_w.data()) {
            *w -= lr * g;
        }
        for (b, g) in self.bias.data_mut().iter_mut().zip(self.grad_b.data()) {
            *b -= lr * g;
        }
        self.zero_grads();
    }

    fn zero_grads(&mut self) {
        self.grad_w.data_mut().fill(0.0);
        self.grad_b.data_mut().fill(0.0);
    }

    fn param_count(&self) -> usize {
        self.weights.len() + self.bias.len()
    }

    fn map_weights(&mut self, f: &mut dyn FnMut(f32) -> f32) {
        for w in self.weights.data_mut() {
            *w = f(*w);
        }
    }

    fn name(&self) -> &'static str {
        "conv2d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The scalar loops the kernels replaced, kept as the bit-exactness
    /// oracle: same signatures as `forward`/`backward`, same caching.
    impl Conv2d {
        fn forward_reference(&mut self, x: &Tensor) -> Tensor {
            let [n, c, h, w] = dims4_checked(x, "Conv2d");
            assert_eq!(c, self.in_ch, "Conv2d expects {} input channels, got {c}", self.in_ch);
            let (oh, ow) = self.output_hw(h, w);
            let mut out = Tensor::zeros(&[n, self.out_ch, oh, ow]);
            for ni in 0..n {
                for o in 0..self.out_ch {
                    let b = self.bias.data()[o];
                    for y in 0..oh {
                        for xo in 0..ow {
                            let mut acc = b;
                            for ci in 0..self.in_ch {
                                for kh in 0..self.k {
                                    let iy = y * self.stride + kh;
                                    if iy < self.pad || iy - self.pad >= h {
                                        continue;
                                    }
                                    for kw in 0..self.k {
                                        let ix = xo * self.stride + kw;
                                        if ix < self.pad || ix - self.pad >= w {
                                            continue;
                                        }
                                        acc += self.weights.at4(o, ci, kh, kw)
                                            * x.at4(ni, ci, iy - self.pad, ix - self.pad);
                                    }
                                }
                            }
                            *out.at4_mut(ni, o, y, xo) = acc;
                        }
                    }
                }
            }
            self.cached_input = Some(x.clone());
            out
        }

        fn backward_reference(&mut self, grad_out: &Tensor) -> Tensor {
            let x = self.cached_input.as_ref().expect("backward before forward");
            let [n, _, h, w] = x.dims4();
            let [gn, go, oh, ow] = grad_out.dims4();
            assert_eq!(gn, n, "gradient batch mismatch");
            assert_eq!(go, self.out_ch, "gradient channel mismatch");
            let mut grad_in = Tensor::zeros(&[n, self.in_ch, h, w]);
            for ni in 0..n {
                for o in 0..self.out_ch {
                    for y in 0..oh {
                        for xo in 0..ow {
                            let g = grad_out.at4(ni, o, y, xo);
                            if g == 0.0 {
                                continue;
                            }
                            self.grad_b.data_mut()[o] += g;
                            for ci in 0..self.in_ch {
                                for kh in 0..self.k {
                                    let iy = y * self.stride + kh;
                                    if iy < self.pad || iy - self.pad >= h {
                                        continue;
                                    }
                                    for kw in 0..self.k {
                                        let ix = xo * self.stride + kw;
                                        if ix < self.pad || ix - self.pad >= w {
                                            continue;
                                        }
                                        let xi = x.at4(ni, ci, iy - self.pad, ix - self.pad);
                                        *self.grad_w.at4_mut(o, ci, kh, kw) += g * xi;
                                        *grad_in.at4_mut(ni, ci, iy - self.pad, ix - self.pad) +=
                                            g * self.weights.at4(o, ci, kh, kw);
                                    }
                                }
                            }
                        }
                    }
                }
            }
            grad_in
        }
    }

    /// Hand-computed 1-channel 3x3 input, 2x2 kernel, stride 1, no pad.
    #[test]
    fn forward_matches_hand_computation() {
        let mut conv = Conv2d::new(1, 1, 2, 1, 0, 0);
        conv.weights_mut().data_mut().copy_from_slice(&[1.0, 0.0, 0.0, -1.0]);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0], &[1, 1, 3, 3]);
        let y = conv.forward(&x);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        // window tl=1 br=5 -> 1-5=-4; etc.
        assert_eq!(y.data(), &[-4.0, -4.0, -4.0, -4.0]);
    }

    #[test]
    fn padding_preserves_spatial_size() {
        let mut conv = Conv2d::new(1, 2, 3, 1, 1, 1);
        let x = Tensor::zeros(&[2, 1, 5, 5]);
        let y = conv.forward(&x);
        assert_eq!(y.shape(), &[2, 2, 5, 5]);
    }

    #[test]
    fn stride_two_halves_output() {
        let mut conv = Conv2d::new(1, 1, 2, 2, 0, 1);
        let x = Tensor::zeros(&[1, 1, 8, 8]);
        assert_eq!(conv.forward(&x).shape(), &[1, 1, 4, 4]);
    }

    #[test]
    fn gradient_check_weights() {
        gradient_check(|| Conv2d::new(2, 2, 3, 1, 1, 3), &[1, 2, 4, 4]);
    }

    #[test]
    fn gradient_check_strided() {
        gradient_check(|| Conv2d::new(1, 2, 2, 2, 0, 5), &[1, 1, 4, 4]);
    }

    /// Finite-difference gradient check on both weights and inputs.
    fn gradient_check<F: Fn() -> Conv2d>(make: F, x_shape: &[usize]) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let x = Tensor::from_vec(
            (0..x_shape.iter().product::<usize>()).map(|_| rng.gen_range(-1.0..1.0)).collect(),
            x_shape,
        );
        let mut conv = make();
        // Loss = sum(output); dL/dout = 1.
        let y = conv.forward(&x);
        let ones = Tensor::full(y.shape(), 1.0);
        let grad_in = conv.backward(&ones);

        let eps = 1e-3;
        // Check a handful of weight gradients.
        for wi in [0usize, 1, conv.weights.len() / 2, conv.weights.len() - 1] {
            let mut plus = make();
            plus.weights_mut().data_mut()[wi] += eps;
            let mut minus = make();
            minus.weights_mut().data_mut()[wi] -= eps;
            let numeric = (plus.forward(&x).sum() - minus.forward(&x).sum()) / (2.0 * eps);
            let analytic = conv.grad_w.data()[wi];
            assert!(
                (numeric - analytic).abs() < 1e-2 * numeric.abs().max(1.0),
                "weight {wi}: numeric {numeric} vs analytic {analytic}"
            );
        }
        // Check a handful of input gradients.
        for xi in [0usize, x.len() / 3, x.len() - 1] {
            let mut xp = x.clone();
            xp.data_mut()[xi] += eps;
            let mut xm = x.clone();
            xm.data_mut()[xi] -= eps;
            let numeric = (make().forward(&xp).sum() - make().forward(&xm).sum()) / (2.0 * eps);
            let analytic = grad_in.data()[xi];
            assert!(
                (numeric - analytic).abs() < 1e-2 * numeric.abs().max(1.0),
                "input {xi}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn sgd_step_moves_weights_against_gradient() {
        let mut conv = Conv2d::new(1, 1, 2, 1, 0, 2);
        let x = Tensor::full(&[1, 1, 3, 3], 1.0);
        let _ = conv.forward(&x);
        let before = conv.weights().data().to_vec();
        let y_shape = [1, 1, 2, 2];
        conv.backward(&Tensor::full(&y_shape, 1.0));
        conv.sgd_step(0.1);
        // dL/dw = sum of inputs in each window = 4 * 1.0; w -= 0.1*4.
        for (b, a) in before.iter().zip(conv.weights().data()) {
            assert!((b - a - 0.4).abs() < 1e-5);
        }
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn backward_without_forward_panics() {
        let mut conv = Conv2d::new(1, 1, 2, 1, 0, 0);
        let _ = conv.backward(&Tensor::zeros(&[1, 1, 2, 2]));
    }

    #[test]
    fn param_count() {
        let conv = Conv2d::new(3, 8, 3, 1, 1, 0);
        assert_eq!(conv.param_count(), 8 * 3 * 9 + 8);
    }

    /// `len` values in `[-1, 1)`; with `zeros`, about a quarter are `0.0`
    /// and a quarter `-0.0`, as ReLU-masked gradients and activations are.
    fn values(rng: &mut rand::rngs::StdRng, len: usize, zeros: bool) -> Vec<f32> {
        (0..len)
            .map(|_| match rng.gen_range(0..4u32) {
                0 if zeros => 0.0,
                1 if zeros => -0.0,
                _ => rng.gen_range(-1.0..1.0),
            })
            .collect()
    }

    fn assert_same_bits(what: &str, got: &[f32], want: &[f32]) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}[{i}]: kernel {g:e} vs scalar loop {w:e}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The kernels reproduce the scalar loops bit for bit: outputs,
        /// input gradients, and weight/bias gradients accumulated over two
        /// backward passes into non-zero buffers, then the SGD step.
        #[test]
        fn kernels_match_scalar_loops_bit_for_bit(
            n in 1usize..4,
            cin in 1usize..5,
            cout in 1usize..10,
            k in 1usize..6,
            stride in 1usize..4,
            pad in 0usize..6,
            h_half in 0usize..6,
            w_half in 0usize..6,
            seed in any::<u64>(),
        ) {
            let (h, w) = (2 * h_half + 1, 2 * w_half + 1);
            prop_assume!(pad <= k && h + 2 * pad >= k && w + 2 * pad >= k);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut fast = Conv2d::new(cin, cout, k, stride, pad, seed);
            let bias = values(&mut rng, cout, true);
            fast.bias_mut().data_mut().copy_from_slice(&bias);
            let mut scalar = fast.clone();
            let x = Tensor::from_vec(values(&mut rng, n * cin * h * w, true), &[n, cin, h, w]);

            let y = fast.forward(&x);
            assert_same_bits("output", y.data(), scalar.forward_reference(&x).data());
            for pass in 0..2 {
                let g = Tensor::from_vec(values(&mut rng, y.len(), true), y.shape());
                let grad_in = fast.backward(&g);
                assert_same_bits(&format!("grad_in, pass {pass}"), grad_in.data(), scalar.backward_reference(&g).data());
                assert_same_bits(&format!("grad_w, pass {pass}"), fast.grad_w.data(), scalar.grad_w.data());
                assert_same_bits(&format!("grad_b, pass {pass}"), fast.grad_b.data(), scalar.grad_b.data());
            }
            fast.sgd_step(0.1);
            scalar.sgd_step(0.1);
            assert_same_bits("weights after sgd_step", fast.weights().data(), scalar.weights().data());
            assert_same_bits("bias after sgd_step", fast.bias().data(), scalar.bias().data());
        }
    }
}
