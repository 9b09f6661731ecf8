//! # SAM — Database Generation from Query Workloads (SIGMOD 2022), in Rust
//!
//! A full reproduction of *SAM: Database Generation from Query Workloads
//! with Supervised Autoregressive Models*. Given a query workload — a set
//! of conjunctive queries with their true result cardinalities, collected
//! on a private database — SAM trains a deep autoregressive model of the
//! database's full-outer-join distribution (from the cardinalities alone)
//! and generates a synthetic database that satisfies the constraints and
//! approximates the original: the benchmarking / stress-testing scenario
//! of the paper's introduction.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`storage`] — relations, schemas, join graphs, full outer joins.
//! * [`query`] — predicates, queries, workload generators, exact evaluation.
//! * [`nn`] — matrices, tape autodiff, MADE, Gumbel-Softmax, Adam.
//! * [`ar`] — the AR model over schemas: DPS training, progressive sampling.
//! * [`core`] — the SAM pipeline: weighting, scaling, Group-and-Merge.
//! * [`pgm`] — the PGM baseline (Arasu et al.).
//! * [`datasets`] — synthetic Census / DMV / IMDB stand-ins.
//! * [`engine`] — an in-memory executor for latency experiments.
//! * [`metrics`] — Q-Error, cross entropy, percentile summaries.
//! * [`obs`] — metrics registry, hierarchical spans, Chrome trace export.
//! * [`serve`] — HTTP model serving: estimates, async jobs.
//! * [`router`] — fault-tolerant sharded serving: router + worker pool.
//! * [`workgen`] — workload synthesis, hard-query mining, load generation.
//!
//! ## Quickstart
//!
//! ```
//! use sam::prelude::*;
//!
//! // The "private" database (here: a synthetic Census-like table).
//! let target = sam::datasets::census(500, 7);
//! let stats = DatabaseStats::from_database(&target);
//!
//! // A labelled query workload collected on it.
//! let mut gen = WorkloadGenerator::new(&target, 7);
//! let queries = gen.single_workload("census", 64);
//! let workload = label_workload(&target, queries).unwrap();
//!
//! // Learning stage: train SAM from the cardinality constraints only.
//! let mut config = SamConfig::default();
//! config.train.epochs = 2; // doc-test budget; use more in practice
//! let trained = Sam::fit(target.schema(), &stats, &workload, &config).unwrap();
//!
//! // Generation stage: a synthetic database of the same shape.
//! let (synthetic, _report) = trained.generate(&GenerationConfig::default()).unwrap();
//! assert_eq!(synthetic.tables()[0].num_rows(), 500);
//! ```

pub mod schema_file;
pub mod stats_file;

pub use sam_ar as ar;
pub use sam_core as core;
pub use sam_datasets as datasets;
pub use sam_engine as engine;
pub use sam_fault as fault;
pub use sam_metrics as metrics;
pub use sam_nn as nn;
pub use sam_obs as obs;
pub use sam_pgm as pgm;
pub use sam_query as query;
pub use sam_router as router;
pub use sam_serve as serve;
pub use sam_storage as storage;
pub use sam_workgen as workgen;

/// The most common imports for using SAM end to end.
pub mod prelude {
    pub use sam_ar::{ArModelConfig, EncodingOptions, TrainConfig};
    pub use sam_core::{GenerationConfig, JoinKeyStrategy, Sam, SamConfig, SamError, TrainedSam};
    pub use sam_metrics::{q_error, Percentiles};
    pub use sam_query::{
        evaluate_cardinality, label_workload, parse_query, CompareOp, LabeledQuery, Predicate,
        Query, Workload, WorkloadGenerator,
    };
    pub use sam_storage::{
        ColumnDef, ColumnRole, DataType, Database, DatabaseSchema, DatabaseStats, ForeignKeyEdge,
        Table, TableSchema, Value,
    };
}
