//! # sam-nn — neural substrate for the SAM reproduction
//!
//! The thin-ML-ecosystem substitution (see DESIGN.md): a from-scratch `f32`
//! matrix kernel, reverse-mode tape autodiff with exactly the op set
//! Differentiable Progressive Sampling needs (masked linear, ReLU,
//! temperature softmax, add, add-constant, column slice and pad, row-dot
//! with a constant vector or per-row matrix, log, squared-error mean), the
//! (Res)MADE masked autoencoder — the one AR architecture, as in the
//! paper's experiments — with its frozen inference kernel, Gumbel-Softmax
//! sampling, and the Adam optimiser.

#![warn(missing_docs)]

pub mod backend;
pub mod gumbel;
pub mod made;
pub mod matrix;
pub(crate) mod obs_hooks;
pub mod optim;
pub mod tape;

pub use backend::{FrozenLayers, ReferenceF32};
pub use gumbel::{gumbel_noise, gumbel_softmax, log_mask, NEG_LARGE};
#[doc(hidden)]
pub use made::BackendKind;
pub use made::{BoundMade, FrozenMade, Made, MadeConfig};
pub use matrix::Matrix;
pub use optim::{Adam, ParamId, ParamStore};
pub use tape::{Tape, Var};
