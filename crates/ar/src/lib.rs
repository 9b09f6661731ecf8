//! # sam-ar — the autoregressive model over database schemas
//!
//! Everything between the neural substrate and the SAM pipeline: per-column
//! encodings with intervalization (§4.3.2), the model schema mirroring the
//! full-outer-join virtual layout (§4.1), query → sampling-rule translation
//! with fanout scaling, Differentiable Progressive Sampling training from
//! (query, cardinality) pairs, progressive-sampling inference, and batched
//! unconditional tuple sampling (Algorithm 1's inner loop).

#![warn(missing_docs)]

mod batch;
pub mod checkpoint;
pub mod encoding;
pub mod error;
pub mod infer;
pub mod model;
pub mod model_schema;
pub mod persist;
pub mod sample;
pub mod train;
mod trie;

pub use checkpoint::CheckpointConfig;
pub use encoding::ColumnEncoding;
pub use error::ArError;
pub use infer::Estimator;
pub use model::{ArModel, ArModelConfig, FrozenModel};
pub use model_schema::{ArColumn, ArColumnKind, ArSchema, EncodingOptions, StepRule};
pub use persist::{load_model, load_model_file, save_model, save_model_file};
pub use sample::{sample_model_rows, sample_model_rows_range, ModelRow};
pub use train::{train, train_observed, TrainConfig, TrainControl, TrainProgress, TrainReport};

// The benchmark harness under `benchmark/` assembles estimates from these
// parts by hand and builds against these names; everything else estimates
// through `Estimator`.
#[doc(hidden)]
pub use batch::SampleBatch;
#[doc(hidden)]
pub use infer::{estimate_cardinality, estimate_cardinality_batch_with};
#[doc(hidden)]
pub use trie::PrefixTrie;
