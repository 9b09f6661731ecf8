//! Gumbel-Softmax sampling (Jang et al. / Maddison et al.), the trick that
//! makes progressive sampling differentiable (paper §4.1, DPS from UAE \[34\]).
//!
//! A relaxed categorical sample from logits `z` is
//! `softmax((z + g) / τ)` with i.i.d. Gumbel noise `g`. Restricting the
//! sample to a query's in-range codes is done by adding a log-mask
//! (`0` in range, `-LARGE` outside) before the softmax. The optional
//! straight-through variant returns a hard one-hot forward value while
//! keeping the soft gradient.

use crate::matrix::Matrix;
use crate::tape::{Tape, Var};
use rand::Rng;
use std::rc::Rc;

/// Effectively `-inf` for masked logits (kept finite for f32 stability).
pub const NEG_LARGE: f32 = -1.0e9;

/// Sample a matrix of i.i.d. Gumbel(0, 1) noise.
pub fn gumbel_noise(rows: usize, cols: usize, rng: &mut impl Rng) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| {
        let u: f32 = rng.gen_range(f32::MIN_POSITIVE..1.0);
        -(-u.ln()).ln()
    })
}

/// A log-mask row vector: `0` at allowed codes, [`NEG_LARGE`] elsewhere.
pub fn log_mask(width: usize, allowed: impl Iterator<Item = usize>) -> Vec<f32> {
    let mut m = vec![NEG_LARGE; width];
    for code in allowed {
        m[code] = 0.0;
    }
    m
}

/// Draw a differentiable (relaxed one-hot) sample per batch row.
///
/// * `logits` — batch × domain logit block on the tape.
/// * `mask_rows` — per-row log-mask (batch × domain) restricting the sample
///   to each row's allowed codes; pass all-zeros for unconstrained sampling.
/// * `temperature` — Gumbel-Softmax temperature (lower = closer to one-hot).
/// * `straight_through` — return a hard one-hot forward value with the soft
///   sample's gradient.
pub fn gumbel_softmax(
    tape: &mut Tape,
    logits: Var,
    mask_rows: Rc<Matrix>,
    temperature: f32,
    straight_through: bool,
    rng: &mut impl Rng,
) -> Var {
    let shape = {
        let v = tape.value(logits);
        (v.rows(), v.cols())
    };
    assert_eq!(
        (mask_rows.rows(), mask_rows.cols()),
        shape,
        "mask must match logits shape"
    );
    let mut noise = gumbel_noise(shape.0, shape.1, rng);
    noise.add_assign(&mask_rows);
    let noisy = tape.add_const(logits, Rc::new(noise));
    let soft = tape.softmax_rows(noisy, temperature);
    if !straight_through {
        return soft;
    }
    // Straight-through: value = onehot(argmax(soft)), gradient = soft's.
    // Implemented as soft + const(onehot - soft_value): the constant shifts
    // the forward value without contributing gradient.
    let soft_value = tape.value(soft);
    let mut shift = Matrix::zeros(shape.0, shape.1);
    for r in 0..shape.0 {
        let row = soft_value.row(r);
        let argmax = row
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0);
        for (c, s) in shift.row_mut(r).iter_mut().enumerate() {
            *s = (if c == argmax { 1.0 } else { 0.0 }) - row[c];
        }
    }
    tape.add_const(soft, Rc::new(shift))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gumbel_noise_has_right_moments() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = gumbel_noise(100, 100, &mut rng);
        let mean = g.data().iter().sum::<f32>() / g.len() as f32;
        // Gumbel(0,1) mean = Euler-Mascheroni ≈ 0.5772, var = π²/6 ≈ 1.645.
        assert!((mean - 0.5772).abs() < 0.05, "mean {mean}");
        let var = g
            .data()
            .iter()
            .map(|x| (x - mean) * (x - mean))
            .sum::<f32>()
            / g.len() as f32;
        assert!((var - 1.645).abs() < 0.15, "var {var}");
    }

    #[test]
    fn argmax_frequencies_match_softmax_probs() {
        // Gumbel-max: P(argmax(z + g) = i) = softmax(z)_i exactly.
        let logits_raw = [1.0f32, 0.0, -1.0];
        let exp: Vec<f32> = logits_raw.iter().map(|x| x.exp()).collect();
        let z: f32 = exp.iter().sum();
        let probs: Vec<f32> = exp.iter().map(|e| e / z).collect();

        let mut rng = StdRng::seed_from_u64(7);
        let trials = 20_000;
        let mut counts = [0usize; 3];
        for _ in 0..trials {
            let g = gumbel_noise(1, 3, &mut rng);
            let scores: Vec<f32> = logits_raw
                .iter()
                .zip(g.row(0))
                .map(|(a, b)| a + b)
                .collect();
            let arg = scores
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .unwrap()
                .0;
            counts[arg] += 1;
        }
        for i in 0..3 {
            let freq = counts[i] as f32 / trials as f32;
            assert!(
                (freq - probs[i]).abs() < 0.02,
                "code {i}: freq {freq} vs prob {}",
                probs[i]
            );
        }
    }

    #[test]
    fn mask_excludes_codes() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut tape = Tape::new();
        let logits = tape.leaf(Matrix::zeros(8, 4));
        let mask_row = log_mask(4, [1usize, 3].into_iter());
        let mask = Rc::new(Matrix::from_fn(8, 4, |_, c| mask_row[c]));
        let y = gumbel_softmax(&mut tape, logits, mask, 0.5, false, &mut rng);
        let v = tape.value(y);
        for r in 0..8 {
            assert!(v.get(r, 0) < 1e-6, "masked code 0 sampled");
            assert!(v.get(r, 2) < 1e-6, "masked code 2 sampled");
            let s: f32 = v.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn straight_through_is_hard_forward() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut tape = Tape::new();
        let logits = tape.leaf(Matrix::zeros(4, 5));
        let mask = Rc::new(Matrix::zeros(4, 5));
        let y = gumbel_softmax(&mut tape, logits, mask, 1.0, true, &mut rng);
        let v = tape.value(y);
        for r in 0..4 {
            let ones = v.row(r).iter().filter(|&&x| (x - 1.0).abs() < 1e-6).count();
            let zeros = v.row(r).iter().filter(|&&x| x.abs() < 1e-6).count();
            assert_eq!(ones, 1);
            assert_eq!(zeros, 4);
        }
    }

    #[test]
    fn straight_through_keeps_gradient() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut tape = Tape::new();
        let logits = tape.leaf(Matrix::zeros(1, 3));
        let mask = Rc::new(Matrix::zeros(1, 3));
        let y = gumbel_softmax(&mut tape, logits, mask, 1.0, true, &mut rng);
        let s = tape.row_dot_const(y, Rc::new(vec![1.0, 2.0, 3.0]));
        let loss = tape.sq_err_mean(s, Rc::new(vec![0.0]));
        tape.backward(loss);
        assert!(
            tape.grad(logits).norm_sq() > 0.0,
            "gradient must flow through the straight-through sample"
        );
    }
}
