use super::Layer;
use crate::Tensor;

/// Rectified linear unit.
///
/// The backward pass multiplies by the local gradient `g'(a)` — in INCA
/// hardware this is the AND-gate trick of §IV-C: "AND can produce the same
/// results as the multiplication with the gradient of ReLU".
#[derive(Debug, Clone, Default)]
pub struct Relu {
    mask: Option<Vec<bool>>,
}

impl Relu {
    /// Creates a ReLU layer.
    #[must_use]
    pub fn new() -> Self {
        Self { mask: None }
    }
}

/// `v` where `alive`, `+0.0` elsewhere.
fn gate(v: &[f32], alive: &[bool]) -> Vec<f32> {
    v.iter().zip(alive).map(|(&v, &alive)| if alive { v } else { 0.0 }).collect()
}

impl Layer for Relu {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let mask = self.mask.get_or_insert_with(Vec::new);
        mask.clear();
        mask.extend(x.data().iter().map(|&v| v > 0.0));
        Tensor::from_vec(gate(x.data(), mask), x.shape())
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mask = self.mask.as_ref().expect("backward before forward"); // documented Layer contract. lint: allow(panic-path)
        assert_eq!(grad_out.len(), mask.len(), "gradient element count mismatch");
        Tensor::from_vec(gate(grad_out.data(), mask), grad_out.shape()) // the AND gate
    }

    fn name(&self) -> &'static str {
        "relu"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_clamps_negatives() {
        let mut r = Relu::new();
        let y = r.forward(&Tensor::from_vec(vec![-2.0, 0.0, 3.0], &[3]));
        assert_eq!(y.data(), &[0.0, 0.0, 3.0]);
    }

    #[test]
    fn backward_is_and_gate() {
        let mut r = Relu::new();
        let _ = r.forward(&Tensor::from_vec(vec![-2.0, 0.5, 3.0], &[3]));
        let g = r.backward(&Tensor::from_vec(vec![10.0, 10.0, 10.0], &[3]));
        assert_eq!(g.data(), &[0.0, 10.0, 10.0]);
    }

    #[test]
    fn zero_input_is_dead() {
        let mut r = Relu::new();
        let _ = r.forward(&Tensor::from_vec(vec![0.0], &[1]));
        let g = r.backward(&Tensor::from_vec(vec![7.0], &[1]));
        assert_eq!(g.data(), &[0.0]);
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn backward_without_forward_panics() {
        let mut r = Relu::new();
        let _ = r.backward(&Tensor::zeros(&[1]));
    }
}

/// Logistic sigmoid activation — one of the nonlinearities §II-B lists.
#[derive(Debug, Clone, Default)]
pub struct Sigmoid {
    cached_output: Option<Tensor>,
}

impl Sigmoid {
    /// Creates a sigmoid layer.
    #[must_use]
    pub fn new() -> Self {
        Self { cached_output: None }
    }
}

impl Layer for Sigmoid {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let mut out = x.clone();
        for v in out.data_mut() {
            *v = 1.0 / (1.0 + (-*v).exp());
        }
        self.cached_output = Some(out.clone());
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let y = self.cached_output.as_ref().expect("backward before forward"); // documented Layer contract. lint: allow(panic-path)
        let mut g = grad_out.clone();
        for (gv, &yv) in g.data_mut().iter_mut().zip(y.data()) {
            *gv *= yv * (1.0 - yv);
        }
        g
    }

    fn name(&self) -> &'static str {
        "sigmoid"
    }
}

/// Hyperbolic-tangent activation — the third §II-B nonlinearity.
#[derive(Debug, Clone, Default)]
pub struct Tanh {
    cached_output: Option<Tensor>,
}

impl Tanh {
    /// Creates a tanh layer.
    #[must_use]
    pub fn new() -> Self {
        Self { cached_output: None }
    }
}

impl Layer for Tanh {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let mut out = x.clone();
        for v in out.data_mut() {
            *v = v.tanh();
        }
        self.cached_output = Some(out.clone());
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let y = self.cached_output.as_ref().expect("backward before forward"); // documented Layer contract. lint: allow(panic-path)
        let mut g = grad_out.clone();
        for (gv, &yv) in g.data_mut().iter_mut().zip(y.data()) {
            *gv *= 1.0 - yv * yv;
        }
        g
    }

    fn name(&self) -> &'static str {
        "tanh"
    }
}

#[cfg(test)]
mod smooth_activation_tests {
    use super::*;

    #[test]
    fn sigmoid_range_and_midpoint() {
        let mut s = Sigmoid::new();
        let y = s.forward(&Tensor::from_vec(vec![-10.0, 0.0, 10.0], &[3]));
        assert!(y.data()[0] < 0.001);
        assert!((y.data()[1] - 0.5).abs() < 1e-6);
        assert!(y.data()[2] > 0.999);
    }

    #[test]
    fn sigmoid_gradient_check() {
        let x = Tensor::from_vec(vec![-1.5, 0.3, 2.0], &[3]);
        let mut s = Sigmoid::new();
        let _ = s.forward(&x);
        let g = s.backward(&Tensor::full(&[3], 1.0));
        let eps = 1e-3;
        for i in 0..3 {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let numeric =
                (Sigmoid::new().forward(&xp).sum() - Sigmoid::new().forward(&xm).sum()) / (2.0 * eps);
            assert!((numeric - g.data()[i]).abs() < 1e-4, "input {i}");
        }
    }

    #[test]
    fn tanh_is_odd_and_bounded() {
        let mut t = Tanh::new();
        let y = t.forward(&Tensor::from_vec(vec![-2.0, 0.0, 2.0], &[3]));
        assert!((y.data()[0] + y.data()[2]).abs() < 1e-6);
        assert_eq!(y.data()[1], 0.0);
        assert!(y.data()[2] < 1.0);
    }

    #[test]
    fn tanh_gradient_check() {
        let x = Tensor::from_vec(vec![-0.7, 0.1, 1.3], &[3]);
        let mut t = Tanh::new();
        let _ = t.forward(&x);
        let g = t.backward(&Tensor::full(&[3], 1.0));
        let eps = 1e-3;
        for i in 0..3 {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let numeric = (Tanh::new().forward(&xp).sum() - Tanh::new().forward(&xm).sum()) / (2.0 * eps);
            assert!((numeric - g.data()[i]).abs() < 1e-4, "input {i}");
        }
    }
}
