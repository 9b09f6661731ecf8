//! # sam-bench — experiment harness for the SAM reproduction
//!
//! One module per table/figure of the paper's §5 (see DESIGN.md's
//! experiment index), the shared harness, and `run_all`, the one binary
//! that runs them (`--only <id>` for a subset).

#![warn(missing_docs)]

pub mod experiments;
pub mod harness;

pub use harness::*;
