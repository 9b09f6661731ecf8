//! # sam-workgen — workload synthesis, hard-query mining, load generation
//!
//! Three layers that close the evaluation loop around the SAM pipeline:
//!
//! 1. **Synthesis** ([`synth`], [`profile`]): a seeded, rule-based query
//!    generator over any schema. A TOML [`SynthProfile`] fixes the mixture
//!    (join sizes, predicate shapes, selectivity / skew / correlation
//!    knobs); a seed fixes the draw. `(profile, seed)` reproduces a
//!    workload byte for byte, streaming millions of distinct queries in the
//!    interchange format `sam-ar` training consumes.
//! 2. **Mining** ([`miner`]): adversarial mutate-and-climb over predicate
//!    bounds, guided by measured Q-Error against a trained model via the
//!    trie-shared estimation path — surfaces the queries a model is worst at.
//! 3. **Load** ([`load`]): an open-loop trace-replaying HTTP client that
//!    drives `sam-serve` at a target offered rate over keep-alive
//!    connections, recording coordinated-omission-free latency into the
//!    `sam-metrics` histogram machinery.

#![warn(missing_docs)]

pub mod error;
pub mod load;
pub mod miner;
pub mod profile;
pub mod rng;
pub mod synth;

pub use error::WorkgenError;
pub use load::{
    run_load, run_load_with_seeds, scrape_server_counters, ClassReport, LoadConfig, LoadReport,
    ServerCounters,
};
pub use miner::{mine_hard_queries, MinedQuery, MinerConfig, MinerReport};
pub use profile::{ColumnKnob, ShapeWeights, SynthProfile};
pub use rng::SplitMix64;
pub use synth::{synthesize, synthesize_into, QueryStream, SynthReport, SynthTarget};
