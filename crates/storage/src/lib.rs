//! # sam-storage — relational substrate for the SAM reproduction
//!
//! Dictionary-encoded in-memory relations, schemas with foreign-key join
//! graphs (validated tree structure, paper §2.2), full-outer-join
//! materialisation with indicator/fanout virtual columns (paper §4.1), the
//! Theorem-2 *identifier columns* used by Group-and-Merge, CSV/JSONL I/O,
//! and the
//! metadata summary ([`stats::DatabaseStats`]) that is the only channel
//! through which a workload-driven generator may observe the target database.

#![warn(missing_docs)]

pub mod column;
pub mod csv;
pub mod database;
pub mod domain;
pub mod error;
pub mod foj;
pub mod join_graph;
pub mod jsonl;
pub mod paper_example;
pub mod schema;
pub mod stats;
pub mod table;
pub mod value;

pub use column::Column;
pub use database::Database;
pub use domain::{Domain, NULL_CODE};
pub use error::StorageError;
pub use foj::{foj_size, materialize_foj, Foj, FojColumn, FojColumnKind, FojSchema};
pub use join_graph::JoinGraph;
pub use schema::{ColumnDef, ColumnRole, DatabaseSchema, ForeignKeyEdge, TableSchema};
pub use stats::{ColumnStats, DatabaseStats, TableStats};
pub use table::Table;
pub use value::{DataType, Value};
