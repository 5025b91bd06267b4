use super::{dims4_checked, Layer};
use crate::Tensor;

/// Max pooling. The backward pass restores the pre-pooling dimensions and
/// routes each gradient to the position of the maximum — "the maximum value
/// goes to its original position while other elements are dead as 0"
/// (§II-B2). In INCA hardware this routing is a lookup table (§IV-C).
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    k: usize,
    stride: usize,
    /// Cached input shape + argmax flat indices per output element.
    cache: Option<(Vec<usize>, Vec<usize>)>,
}

impl MaxPool2d {
    /// Creates a `k × k` max pool with the given stride.
    ///
    /// # Panics
    ///
    /// Panics if `k` or `stride` is zero.
    #[must_use]
    pub fn new(k: usize, stride: usize) -> Self {
        assert!(k > 0 && stride > 0, "pool parameters must be positive");
        Self { k, stride, cache: None }
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let [n, c, h, w] = dims4_checked(x, "MaxPool2d");
        let (k, s) = (self.k, self.stride);
        let oh = (h - k) / s + 1;
        let ow = (w - k) / s + 1;
        let mut out = Vec::with_capacity(n * c * oh * ow);
        let (shape, argmax) = self.cache.get_or_insert_with(Default::default);
        shape.clear();
        shape.extend_from_slice(x.shape());
        argmax.clear();
        for (base, plane) in (0..).step_by(h * w).zip(x.data().chunks_exact(h * w)) {
            for y in 0..oh {
                for xo in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = 0;
                    for kh in 0..k {
                        let row = (y * s + kh) * w + xo * s;
                        for (i, &v) in (row..).zip(&plane[row..row + k]) {
                            if v > best {
                                best = v;
                                best_idx = base + i;
                            }
                        }
                    }
                    out.push(best);
                    argmax.push(best_idx);
                }
            }
        }
        Tensor::from_vec(out, &[n, c, oh, ow])
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let (shape, argmax) = self.cache.as_ref().expect("backward before forward"); // documented Layer contract. lint: allow(panic-path)
        assert_eq!(grad_out.len(), argmax.len(), "gradient element count mismatch");
        let mut grad_in = Tensor::zeros(shape);
        let gi = grad_in.data_mut();
        for (g, &idx) in grad_out.data().iter().zip(argmax) {
            gi[idx] += g;
        }
        grad_in
    }

    fn name(&self) -> &'static str {
        "max_pool2d"
    }
}

/// Average pooling — included for networks (ResNet/MobileNet heads) that
/// use global average pooling.
#[derive(Debug, Clone)]
pub struct AvgPool2d {
    k: usize,
    stride: usize,
    cached_shape: Option<Vec<usize>>,
}

impl AvgPool2d {
    /// Creates a `k × k` average pool with the given stride.
    ///
    /// # Panics
    ///
    /// Panics if `k` or `stride` is zero.
    #[must_use]
    pub fn new(k: usize, stride: usize) -> Self {
        assert!(k > 0 && stride > 0, "pool parameters must be positive");
        Self { k, stride, cached_shape: None }
    }
}

impl Layer for AvgPool2d {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let [n, c, h, w] = dims4_checked(x, "AvgPool2d");
        let oh = (h - self.k) / self.stride + 1;
        let ow = (w - self.k) / self.stride + 1;
        let norm = 1.0 / (self.k * self.k) as f32;
        let mut out = Tensor::zeros(&[n, c, oh, ow]);
        for ni in 0..n {
            for ci in 0..c {
                for y in 0..oh {
                    for xo in 0..ow {
                        let mut acc = 0.0;
                        for kh in 0..self.k {
                            for kw in 0..self.k {
                                acc += x.at4(ni, ci, y * self.stride + kh, xo * self.stride + kw);
                            }
                        }
                        *out.at4_mut(ni, ci, y, xo) = acc * norm;
                    }
                }
            }
        }
        self.cached_shape = Some(x.shape().to_vec());
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let shape = self.cached_shape.as_ref().expect("backward before forward"); // documented Layer contract. lint: allow(panic-path)
        let [n, c, h, w] = Tensor::zeros(shape).dims4();
        let [_, _, oh, ow] = grad_out.dims4();
        let norm = 1.0 / (self.k * self.k) as f32;
        let mut grad_in = Tensor::zeros(&[n, c, h, w]);
        for ni in 0..n {
            for ci in 0..c {
                for y in 0..oh {
                    for xo in 0..ow {
                        let g = grad_out.at4(ni, ci, y, xo) * norm;
                        for kh in 0..self.k {
                            for kw in 0..self.k {
                                *grad_in.at4_mut(ni, ci, y * self.stride + kh, xo * self.stride + kw) += g;
                            }
                        }
                    }
                }
            }
        }
        grad_in
    }

    fn name(&self) -> &'static str {
        "avg_pool2d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_pool_selects_maxima() {
        let mut p = MaxPool2d::new(2, 2);
        let x = Tensor::from_vec(
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0],
            &[1, 1, 4, 4],
        );
        let y = p.forward(&x);
        assert_eq!(y.data(), &[6.0, 8.0, 14.0, 16.0]);
    }

    #[test]
    fn max_pool_backward_routes_to_argmax() {
        let mut p = MaxPool2d::new(2, 2);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]);
        let _ = p.forward(&x);
        let g = p.backward(&Tensor::from_vec(vec![5.0], &[1, 1, 1, 1]));
        assert_eq!(g.data(), &[0.0, 0.0, 0.0, 5.0]);
    }

    #[test]
    fn max_pool_gradient_check() {
        let mut rng_data: Vec<f32> = (0..16).map(|i| ((i * 7 + 3) % 13) as f32).collect();
        rng_data[5] += 0.5; // break ties
        let x = Tensor::from_vec(rng_data, &[1, 1, 4, 4]);
        let mut p = MaxPool2d::new(2, 2);
        let y = p.forward(&x);
        let grad_in = p.backward(&Tensor::full(y.shape(), 1.0));
        let eps = 1e-2;
        for xi in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[xi] += eps;
            let mut xm = x.clone();
            xm.data_mut()[xi] -= eps;
            let numeric = (MaxPool2d::new(2, 2).forward(&xp).sum() - MaxPool2d::new(2, 2).forward(&xm).sum())
                / (2.0 * eps);
            assert!((numeric - grad_in.data()[xi]).abs() < 1e-3, "input {xi}");
        }
    }

    #[test]
    fn avg_pool_means() {
        let mut p = AvgPool2d::new(2, 2);
        let x = Tensor::from_vec(vec![1.0, 3.0, 5.0, 7.0], &[1, 1, 2, 2]);
        let y = p.forward(&x);
        assert_eq!(y.data(), &[4.0]);
    }

    #[test]
    fn avg_pool_backward_distributes_uniformly() {
        let mut p = AvgPool2d::new(2, 2);
        let _ = p.forward(&Tensor::zeros(&[1, 1, 2, 2]));
        let g = p.backward(&Tensor::from_vec(vec![8.0], &[1, 1, 1, 1]));
        assert_eq!(g.data(), &[2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn global_avg_pool() {
        let mut p = AvgPool2d::new(4, 4);
        let x = Tensor::from_vec((1..=16).map(|i| i as f32).collect(), &[1, 1, 4, 4]);
        let y = p.forward(&x);
        assert_eq!(y.shape(), &[1, 1, 1, 1]);
        assert_eq!(y.data(), &[8.5]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_kernel_panics() {
        let _ = MaxPool2d::new(0, 2);
    }
}
