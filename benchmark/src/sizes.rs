//! Frozen work sizes. Every phase is sized by these counts, never by a
//! wall-clock cutoff, so two commits do identical work and every program
//! counter repeats exactly. Calibrated on the 2-core reference container
//! (see README.md, "Calibration"); `BENCHMARK.json` allows no extra keys, so
//! the counts live here.

/// `run_seconds` of `BENCHMARK.json`: the measured time one run is sized
/// for. `--seconds S` scales every per-round count by `S / RUN_SECONDS`.
pub const RUN_SECONDS: f64 = 20.0;

/// Seed of the IMDB stand-in. The database is the benchmark's fixed data
/// set; `--seed` drives the query workloads and every RNG seed handed to
/// the program.
pub const DATA_SEED: u64 = 0;

/// `samples` and `seed` of every `/estimate` request.
pub const ESTIMATE_SAMPLES: usize = 64;
pub const ESTIMATE_SEED: u64 = 0;

/// Served answers checked bit for bit against in-process
/// `estimate_cardinality` (≈ 25 ms each: it shares nothing between calls).
/// They are the first queries of the pool, so the warm-up pass of every
/// serving workload covers them.
pub const VERIFIED: usize = 64;

#[derive(Debug, Clone)]
pub struct Sizes {
    /// `pipeline_join`: titles of the IMDB stand-in (≈ 13 tuples per title).
    pub pipeline_titles: usize,
    /// Training queries per epoch.
    pub pipeline_queries: usize,
    /// Epochs; the first is a warm-up and is not measured.
    pub pipeline_epochs: usize,
    /// Same-seed generations, each one measured round.
    pub generate_rounds: usize,
    /// Full-outer-join samples per generation.
    pub foj_samples: usize,
    /// Input constraints evaluated on the generated database.
    pub constraints: usize,

    /// Serving workloads: titles of the served model's database.
    pub serve_titles: usize,
    /// Training set of the served model (trained in set-up).
    pub serve_train_queries: usize,
    pub serve_train_epochs: usize,
    /// Measured rounds of every serving phase.
    pub serve_rounds: usize,
    /// Connections (= client threads) of `serve_distinct`: closed loop, one
    /// request in flight each, one per core — an optimizer waiting for its
    /// estimate, and a batch size of one.
    pub miss_connections: usize,
    /// Connections of the two cache-hit workloads: two per core. A hit costs
    /// tens of microseconds, so with one request per core in flight the
    /// result depends on where the scheduler wakes each side of the
    /// ping-pong (runs of identical code differ by 20 %); with two the cores
    /// stay busy and the numbers measure CPU cost (runs differ by 4–7 %).
    pub hit_connections: usize,
    /// `serve_distinct`: requests per round, every query distinct.
    pub distinct_per_round: usize,
    /// Distinct warm-up requests before the first measured round.
    pub distinct_warmup: usize,
    /// `serve_repeat` / `router_repeat`: size of the hot query set.
    pub hot_set: usize,
    /// `serve_repeat`: requests per round.
    pub repeat_per_round: usize,
    /// `router_repeat`: requests per round through the router.
    pub router_per_round: usize,
    /// `router_repeat`: requests of the one direct-to-worker round.
    pub router_direct: usize,
}

impl Sizes {
    /// The frozen counts at `RUN_SECONDS`.
    pub fn frozen() -> Sizes {
        Sizes {
            pipeline_titles: 8000,
            pipeline_queries: 2400,
            pipeline_epochs: 7,
            generate_rounds: 5,
            foj_samples: 10_000,
            constraints: 1000,

            serve_titles: 2000,
            serve_train_queries: 1200,
            serve_train_epochs: 4,
            serve_rounds: 8,
            miss_connections: 2,
            hit_connections: 4,
            distinct_per_round: 160,
            distinct_warmup: 64,
            hot_set: 256,
            repeat_per_round: 48_000,
            router_per_round: 24_000,
            router_direct: 4000,
        }
    }

    /// Counts for a run of `seconds`: per-round sizes scale, round counts
    /// and the data sets do not (medians need their rounds at any length).
    pub fn for_seconds(seconds: f64) -> Sizes {
        let f = seconds / RUN_SECONDS;
        let scale = |n: usize, floor: usize| (((n as f64) * f).round() as usize).max(floor);
        let base = Sizes::frozen();
        Sizes {
            pipeline_queries: scale(base.pipeline_queries, 64),
            foj_samples: scale(base.foj_samples, 256),
            constraints: scale(base.constraints, 64),
            distinct_per_round: scale(base.distinct_per_round, 2 * base.miss_connections),
            repeat_per_round: scale(base.repeat_per_round, 2 * base.hot_set),
            router_per_round: scale(base.router_per_round, 2 * base.hot_set),
            router_direct: scale(base.router_direct, 2 * base.hot_set),
            ..base
        }
    }
}
