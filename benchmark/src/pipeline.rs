//! `pipeline_join`: the paper's two axes, in process. `Sam::fit_observed`
//! (Fig 5, workload processing time) then `TrainedSam::generate` (Fig 6,
//! generation time) on the IMDB stand-in, then the input constraints are
//! evaluated on the generated database. The only workload where `nn::tape`,
//! `ar::train`, `ar::sample` and `core` do the work.

use crate::inputs::corpus;
use crate::layers;
use crate::procs::own_peak_rss_mb;
use crate::report::Outcome;
use crate::stats::{median, percentile, q_error, span_cost_share, spread};
use crate::Ctx;
use sam::ar::{TrainControl, TrainProgress};
use sam::prelude::*;
use serde_json::json;
use std::time::Instant;

/// FNV-1a over the CSV rendering of every table, in schema order.
fn database_hash(db: &Database) -> u64 {
    struct Fnv(u64);
    impl std::io::Write for Fnv {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            for &b in buf {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
            }
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let mut hash = Fnv(0xCBF2_9CE4_8422_2325);
    for table in db.tables() {
        sam::storage::csv::write_csv(table, &mut hash).expect("hashing cannot fail");
    }
    hash.0
}

pub fn run(ctx: &mut Ctx) -> Result<Outcome, String> {
    let sizes = ctx.sizes.clone();
    let mut out = Outcome::default();

    // ---- set-up: data set, statistics, exact labels.
    let corpus = corpus(sizes.pipeline_titles, sizes.pipeline_queries, ctx.seed);
    let target_rows: Vec<usize> = corpus.db.tables().iter().map(Table::num_rows).collect();
    let mut config = SamConfig::default();
    config.train.epochs = sizes.pipeline_epochs;
    config.train.seed = ctx.seed;
    config.model.seed = ctx.seed;
    out.set("setup_s", ctx.process_start.elapsed().as_secs_f64());

    // ---- timed phase 1: training. Epoch boundaries come from the callback;
    // the first epoch also pays for schema building and cold caches and is
    // not measured.
    let fit_start = Instant::now();
    let mut boundaries = vec![fit_start];
    ctx.tracer.begin("core.fit", 0);
    let trained = Sam::fit_observed(
        corpus.db.schema(),
        &corpus.stats,
        &corpus.workload,
        &config,
        &mut |_: TrainProgress| {
            boundaries.push(Instant::now());
            TrainControl::Continue
        },
    )
    .map_err(|e| format!("fit: {e}"))?;
    for (i, pair) in boundaries.windows(2).enumerate() {
        ctx.tracer
            .record("ar.train_epoch", i as u64, pair[0], pair[1]);
    }
    ctx.tracer.end();
    let epoch_s: Vec<f64> = boundaries
        .windows(2)
        .skip(1)
        .map(|w| (w[1] - w[0]).as_secs_f64())
        .collect();
    if epoch_s.is_empty() {
        return Err("training needs at least two epochs".into());
    }
    out.attempted += sizes.pipeline_epochs as u64;
    out.failed += trained
        .report
        .epoch_losses
        .iter()
        .filter(|l| !l.is_finite())
        .count() as u64;
    out.set(
        "throughput_per_s",
        sizes.pipeline_queries as f64 / median(&epoch_s),
    );

    // ---- timed phase 2: same-seed generations, one per round. A traced run
    // alternates spans off / on so the two halves give the span cost.
    let generation = GenerationConfig {
        foj_samples: sizes.foj_samples,
        batch: 256,
        seed: ctx.seed,
        strategy: JoinKeyStrategy::GroupAndMerge,
    };
    let mut generate_s = Vec::new();
    let mut traced_round = Vec::new();
    let mut hashes = Vec::new();
    let mut generated = None;
    for round in 0..sizes.generate_rounds {
        let spans_on = ctx.traced && round % 2 == 1;
        let t = Instant::now();
        if spans_on {
            ctx.tracer.begin("core.generate", round as u64);
        }
        let result = trained.generate(&generation);
        if spans_on {
            ctx.tracer.end();
        }
        generate_s.push(t.elapsed().as_secs_f64());
        traced_round.push(spans_on);
        out.attempted += 1;
        match result {
            Ok((db, _)) => {
                hashes.push(database_hash(&db));
                generated = Some(db);
            }
            Err(e) => {
                eprintln!("generate round {round}: {e}");
                out.failed += 1;
            }
        }
    }
    let generated = generated.ok_or("no generation succeeded")?;
    let tuples: usize = generated.tables().iter().map(Table::num_rows).sum();
    let generate_ms: Vec<f64> = generate_s.iter().map(|s| s * 1e3).collect();
    out.set("latency_p50_ms", median(&generate_ms));
    out.set("latency_p95_ms", percentile(&generate_ms, 95.0));

    // ---- verification: the input constraints on the generated database.
    let constraints = sizes.constraints.min(corpus.workload.len());
    let eval_start = Instant::now();
    let mut qerrors = Vec::with_capacity(constraints);
    for lq in corpus.workload.iter().take(constraints) {
        out.attempted += 1;
        match evaluate_cardinality(&generated, &lq.query) {
            Ok(got) => qerrors.push(q_error(got as f64, lq.cardinality as f64)),
            Err(e) => {
                eprintln!("constraint failed to evaluate: {e}");
                out.failed += 1;
            }
        }
    }
    let eval_s = eval_start.elapsed().as_secs_f64();
    if qerrors.is_empty() {
        return Err("no constraint evaluated".into());
    }
    let qerror_p50 = percentile(&qerrors, 50.0);
    out.set("qerror_p50", qerror_p50);
    out.set("peak_rss_mb", own_peak_rss_mb());

    // ---- output checks.
    out.check(
        "same-seed generations hash identically",
        hashes.len() == sizes.generate_rounds && hashes.windows(2).all(|w| w[0] == w[1]),
    );
    // Scaling fixes each table's weight sum at its target size; rounding in
    // Group-and-Merge moves the row count by about 1 % at these sizes.
    let sizes_ok = generated
        .tables()
        .iter()
        .zip(&target_rows)
        .all(|(t, &want)| t.num_rows().abs_diff(want) * 20 <= want);
    out.check("generated table sizes within 5 % of the targets", sizes_ok);
    out.check("constraint Q-Error p50 at most 2", qerror_p50 <= 2.0);

    out.fact("titles", json!(sizes.pipeline_titles));
    out.fact("reference_tuples", json!(target_rows.iter().sum::<usize>()));
    out.fact("generated_tuples", json!(tuples));
    out.fact("train_queries", json!(sizes.pipeline_queries));
    out.fact("epochs", json!(sizes.pipeline_epochs));
    out.fact("foj_samples", json!(sizes.foj_samples));
    out.fact("generate_rounds", json!(sizes.generate_rounds));
    out.fact("constraints", json!(constraints));
    out.fact("generation_hash", json!(format!("{:016x}", hashes[0])));
    out.fact("epoch_s", json!(epoch_s.clone()));
    out.fact("generate_s", json!(generate_s.clone()));

    if ctx.traced {
        let times = corpus.times;
        out.set("datasets.synthesize_s", times.datasets_synthesize_s);
        out.set("storage.stats_s", times.storage_stats_s);
        out.set("query.label_queries_per_s", times.query_label_queries_per_s);
        out.set("ar.train_epoch_ms", median(&epoch_s) * 1e3);
        out.set("ar.train_epoch_spread", spread(&epoch_s));
        out.set(
            "core.generate_tuples_per_s",
            tuples as f64 / median(&generate_s),
        );
        out.set("query.eval_queries_per_s", qerrors.len() as f64 / eval_s);
        out.set("quality.qerror_p90", percentile(&qerrors, 90.0));
        out.set(
            "bench.round_spread",
            spread(&epoch_s).max(spread(&generate_s)),
        );
        if let Some(cost) = span_cost_share(&generate_s, &traced_round) {
            out.set("bench.span_cost_share", cost);
        }
        layers::training(ctx, &corpus, &config, &epoch_s, &mut out)?;
        layers::generation(ctx, &trained, &generation, &generate_s, &mut out)?;
    }
    Ok(out)
}
