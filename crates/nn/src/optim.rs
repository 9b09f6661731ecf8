//! Parameter storage and the Adam optimiser.

use crate::matrix::Matrix;

/// Handle to a parameter in a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParamId(pub usize);

/// Owns model parameters and their accumulated gradients, decoupled from the
/// per-step [`crate::tape::Tape`] (tapes are rebuilt every step; parameters
/// persist).
#[derive(Debug, Default)]
pub struct ParamStore {
    values: Vec<Matrix>,
    grads: Vec<Matrix>,
}

impl ParamStore {
    /// Empty store.
    pub fn new() -> Self {
        ParamStore::default()
    }

    /// Register a parameter.
    pub fn add(&mut self, value: Matrix) -> ParamId {
        self.grads.push(Matrix::zeros(value.rows(), value.cols()));
        self.values.push(value);
        ParamId(self.values.len() - 1)
    }

    /// Number of parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True iff no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total scalar parameter count.
    pub fn num_scalars(&self) -> usize {
        self.values.iter().map(Matrix::len).sum()
    }

    /// Current value of a parameter.
    pub fn value(&self, id: ParamId) -> &Matrix {
        &self.values[id.0]
    }

    /// Mutable value (used by optimiser steps).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Matrix {
        &mut self.values[id.0]
    }

    /// Accumulated gradient of a parameter.
    pub fn grad(&self, id: ParamId) -> &Matrix {
        &self.grads[id.0]
    }

    /// Add `g` into the parameter's gradient accumulator.
    pub fn accumulate_grad(&mut self, id: ParamId, g: &Matrix) {
        self.grads[id.0].add_assign(g);
    }

    /// Zero all gradient accumulators.
    pub fn zero_grads(&mut self) {
        self.grads.iter_mut().for_each(Matrix::clear);
    }

    /// Global L2 norm of the accumulated gradients (0 when empty). Read it
    /// *before* an optimiser step — steps zero the accumulators.
    pub fn grad_norm(&self) -> f32 {
        self.grads.iter().map(Matrix::norm_sq).sum::<f32>().sqrt()
    }
}

/// What scales gradients of global norm `norm` down to norm `clip`, or `1`
/// when they are within it or clipping is off.
fn clip_scale(norm: f32, clip: Option<f32>) -> f32 {
    match clip {
        Some(max_norm) if norm > max_norm => max_norm / norm,
        _ => 1.0,
    }
}

/// Adam (Kingma & Ba) with bias correction and optional global-norm clipping.
#[derive(Debug)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Denominator fuzz.
    pub eps: f32,
    /// Clip the global gradient norm (disabled if `None`).
    pub clip_norm: Option<f32>,
    t: u64,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
}

impl Adam {
    /// Adam with standard betas for the given store layout.
    pub fn new(store: &ParamStore, lr: f32) -> Self {
        let shape = |src: &Vec<Matrix>| -> Vec<Matrix> {
            src.iter()
                .map(|m| Matrix::zeros(m.rows(), m.cols()))
                .collect()
        };
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            clip_norm: Some(5.0),
            t: 0,
            m: shape(&store.values),
            v: shape(&store.values),
        }
    }

    /// The optimiser's mutable state for checkpointing: the step counter
    /// and the first/second moment estimates, in parameter order.
    pub fn export_state(&self) -> (u64, &[Matrix], &[Matrix]) {
        (self.t, &self.m, &self.v)
    }

    /// Restore state captured by [`Adam::export_state`]. Panics if the
    /// moment vectors do not match this optimiser's parameter layout —
    /// a checkpoint from a differently-shaped model is never silently
    /// accepted.
    pub fn import_state(&mut self, t: u64, m: Vec<Matrix>, v: Vec<Matrix>) {
        let shapes_match = |ours: &[Matrix], theirs: &[Matrix]| {
            ours.len() == theirs.len()
                && ours
                    .iter()
                    .zip(theirs)
                    .all(|(a, b)| a.rows() == b.rows() && a.cols() == b.cols())
        };
        assert!(
            shapes_match(&self.m, &m) && shapes_match(&self.v, &v),
            "Adam::import_state: checkpoint moment shapes do not match model"
        );
        self.t = t;
        self.m = m;
        self.v = v;
    }

    /// Apply one Adam step from the accumulated gradients, then zero them.
    /// Returns the gradients' global norm, [`ParamStore::grad_norm`] as read
    /// before the step, which clipping scales by.
    pub fn step(&mut self, store: &mut ParamStore) -> f32 {
        let norm = store.grad_norm();
        let scale = clip_scale(norm, self.clip_norm);
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        for i in 0..store.values.len() {
            let g = &store.grads[i];
            let m = &mut self.m[i];
            let v = &mut self.v[i];
            for ((mi, vi), &gi_raw) in m
                .data_mut()
                .iter_mut()
                .zip(v.data_mut().iter_mut())
                .zip(g.data())
            {
                let gi = gi_raw * scale;
                *mi = self.beta1 * *mi + (1.0 - self.beta1) * gi;
                *vi = self.beta2 * *vi + (1.0 - self.beta2) * gi * gi;
            }
            let value = &mut store.values[i];
            for ((pv, &mi), &vi) in value.data_mut().iter_mut().zip(m.data()).zip(v.data()) {
                let m_hat = mi / b1t;
                let v_hat = vi / b2t;
                *pv -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
            }
        }
        store.zero_grads();
        norm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::Tape;
    use std::rc::Rc;

    /// Minimise mean((w·x − t)²) over w; the optimiser must converge.
    fn converges(mut step: impl FnMut(&mut ParamStore)) -> f32 {
        let mut store = ParamStore::new();
        let w = store.add(Matrix::from_vec(1, 2, vec![0.0, 0.0]));
        let x = Matrix::from_vec(3, 2, vec![1., 0., 0., 1., 1., 1.]);
        let target = Rc::new(vec![2.0f32, -1.0, 1.0]); // solution w = (2, -1)
        let mut last = f32::MAX;
        for _ in 0..500 {
            let mut tape = Tape::new();
            let wv = tape.leaf(store.value(w).clone());
            let xv = tape.leaf(x.clone());
            let zero_bias = tape.leaf(Matrix::zeros(1, 1));
            let y = tape.masked_linear(xv, wv, zero_bias, None);
            let loss = tape.sq_err_mean(y, Rc::clone(&target));
            last = tape.value(loss).get(0, 0);
            tape.backward(loss);
            store.accumulate_grad(w, &tape.grad(wv));
            step(&mut store);
        }
        last
    }

    #[test]
    fn adam_converges_on_least_squares() {
        let mut store_probe = ParamStore::new();
        store_probe.add(Matrix::zeros(1, 2));
        let mut adam = Adam::new(&store_probe, 0.05);
        let loss = converges(|s| {
            adam.step(s);
        });
        assert!(loss < 1e-4, "adam final loss {loss}");
    }

    #[test]
    fn clipping_bounds_update_norm() {
        let mut store = ParamStore::new();
        let w = store.add(Matrix::zeros(1, 1));
        store.accumulate_grad(w, &Matrix::full(1, 1, 1000.0));
        let norm = store.grad_norm();
        // A unit-lr step along the scaled gradient has norm `clip`.
        let step = 1000.0 * clip_scale(norm, Some(1.0));
        assert!((step - 1.0).abs() < 1e-5);
        assert_eq!(clip_scale(norm, Some(2000.0)), 1.0);
        assert_eq!(clip_scale(norm, None), 1.0);
    }

    /// The step as it was before it returned the norm: the caller read
    /// `grad_norm()`, then the step summed the squares again to clip.
    struct TwoPassAdam {
        lr: f32,
        clip_norm: Option<f32>,
        t: u64,
        m: Vec<Matrix>,
        v: Vec<Matrix>,
    }

    impl TwoPassAdam {
        fn step(&mut self, store: &mut ParamStore) {
            let (beta1, beta2, eps) = (0.9f32, 0.999f32, 1e-8f32);
            let scale = match self.clip_norm {
                Some(max_norm) => {
                    let norm = store.grads.iter().map(Matrix::norm_sq).sum::<f32>().sqrt();
                    if norm > max_norm {
                        max_norm / norm
                    } else {
                        1.0
                    }
                }
                None => 1.0,
            };
            self.t += 1;
            let b1t = 1.0 - beta1.powi(self.t as i32);
            let b2t = 1.0 - beta2.powi(self.t as i32);
            for i in 0..store.values.len() {
                let (g, m, v) = (&store.grads[i], &mut self.m[i], &mut self.v[i]);
                for ((mi, vi), &gi_raw) in m
                    .data_mut()
                    .iter_mut()
                    .zip(v.data_mut().iter_mut())
                    .zip(g.data())
                {
                    let gi = gi_raw * scale;
                    *mi = beta1 * *mi + (1.0 - beta1) * gi;
                    *vi = beta2 * *vi + (1.0 - beta2) * gi * gi;
                }
                let value = &mut store.values[i];
                for ((pv, &mi), &vi) in value.data_mut().iter_mut().zip(m.data()).zip(v.data()) {
                    *pv -= self.lr * (mi / b1t) / ((vi / b2t).sqrt() + eps);
                }
            }
            store.zero_grads();
        }
    }

    /// `Adam::step` returns the bits of `grad_norm()` read just before it and
    /// leaves the parameters of the two-pass step, clipping on (a bound the
    /// gradients pass and one they stay under) and off.
    #[test]
    fn step_returns_the_norm_it_clipped_by() {
        let shapes = [(3, 5), (1, 5), (4, 1)];
        for clip in [Some(0.5f32), Some(1e6), None] {
            let (mut store, mut twin) = (ParamStore::new(), ParamStore::new());
            let mut seed = 7u32;
            let mut next = move || {
                seed = seed.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (seed >> 8) as f32 / (1 << 23) as f32 - 1.0
            };
            for &(r, c) in &shapes {
                let value = Matrix::from_fn(r, c, |_, _| next());
                store.add(value.clone());
                twin.add(value);
            }
            let mut adam = Adam::new(&store, 0.01);
            adam.clip_norm = clip;
            let zeros = || shapes.iter().map(|&(r, c)| Matrix::zeros(r, c)).collect();
            let mut two_pass = TwoPassAdam {
                lr: 0.01,
                clip_norm: clip,
                t: 0,
                m: zeros(),
                v: zeros(),
            };
            for step in 0..6 {
                for (k, &(r, c)) in shapes.iter().enumerate() {
                    let g = Matrix::from_fn(r, c, |_, _| 3.0 * next());
                    store.accumulate_grad(ParamId(k), &g);
                    twin.accumulate_grad(ParamId(k), &g);
                }
                let want = store.grad_norm();
                let got = adam.step(&mut store);
                two_pass.step(&mut twin);
                let what = format!("clip {clip:?}, step {step}");
                assert_eq!(got.to_bits(), want.to_bits(), "{what}: norm");
                for k in 0..shapes.len() {
                    let (a, b) = (store.value(ParamId(k)), twin.value(ParamId(k)));
                    let bits =
                        |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(a), bits(b), "{what}: parameter {k}");
                }
            }
        }
    }

    #[test]
    fn zero_grads_resets() {
        let mut store = ParamStore::new();
        let w = store.add(Matrix::zeros(2, 2));
        store.accumulate_grad(w, &Matrix::full(2, 2, 3.0));
        store.zero_grads();
        assert_eq!(store.grad(w).norm_sq(), 0.0);
        assert_eq!(store.num_scalars(), 4);
    }
}
