//! # sam-core — the SAM pipeline (the paper's contribution)
//!
//! Reproduction of *SAM: Database Generation from Query Workloads with
//! Supervised Autoregressive Models* (SIGMOD 2022):
//!
//! * [`pipeline::Sam::fit`] — learning stage: train a single deep AR model
//!   of the full outer join from (query, cardinality) pairs via
//!   Differentiable Progressive Sampling (§4.1).
//! * [`single::assemble_single_relation`] — Algorithm 1's tuples as a relation.
//! * [`weights`] — inverse probability weighting + scaling (§4.3.1, Alg 2).
//! * [`group_merge`] — Group-and-Merge join-key assignment (§4.3.2, Alg 3),
//!   including the recursive multi-key extension.
//! * [`assemble`] — base-relation emission, with the naive pairwise-view key
//!   assignment as the w/o-Group-and-Merge ablation.

#![warn(missing_docs)]

pub mod assemble;
pub mod error;
pub mod group_merge;
pub mod job;
pub mod pipeline;
pub mod single;
pub mod weights;

pub use assemble::{assemble_database, JoinKeyStrategy};
pub use error::SamError;
pub use group_merge::{assign_keys_group_merge, AssignedKeys, PieceRef, PkTuple};
pub use job::{JobControl, JobStage};
pub use pipeline::{GenerationConfig, GenerationReport, Sam, SamConfig, TrainedSam};
pub use single::assemble_single_relation;
pub use weights::{weigh_samples, WeightedSamples};
