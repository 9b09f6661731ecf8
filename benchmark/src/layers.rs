//! Per-layer measurements of the traced run: each layer's public calls are
//! timed from outside, at the workload's own model shape and inputs. Layers
//! are named after the crate modules they live in.

use crate::inputs::Corpus;
use crate::report::Outcome;
use crate::sizes::{Sizes, ESTIMATE_SAMPLES, ESTIMATE_SEED};
use crate::stats::median;
use crate::Ctx;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sam::ar::{
    estimate_cardinality_batch_with, sample_model_rows, ArModel, ArSchema, FrozenModel, PrefixTrie,
    SampleBatch,
};
use sam::core::{assemble_database, assign_keys_group_merge, weigh_samples};
use sam::nn::{Adam, BackendKind, Matrix, Tape};
use sam::prelude::*;
use std::hint::black_box;
use std::net::SocketAddr;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Median seconds per call of `f` over `samples` timings of `inner` calls.
fn time_per_call(samples: usize, inner: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm caches and lazy set-up
    let per_call: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..inner {
                f();
            }
            t.elapsed().as_secs_f64() / inner as f64
        })
        .collect();
    median(&per_call)
}

/// Training layers at the workload's model shape: one batch-32 step built
/// the way `ar::train` builds it (one tape forward per column).
pub fn training(
    ctx: &mut Ctx,
    corpus: &Corpus,
    config: &SamConfig,
    epoch_s: &[f64],
    out: &mut Outcome,
) -> Result<(), String> {
    let queries: Vec<Query> = corpus.workload.iter().map(|lq| lq.query.clone()).collect();
    let build = || {
        ArSchema::build(
            corpus.db.schema(),
            &corpus.stats,
            &queries,
            &config.encoding,
        )
        .map_err(|e| format!("schema build: {e}"))
    };
    ctx.tracer.begin("ar.schema_build", 0);
    let schema = build()?;
    ctx.tracer.end();
    out.set(
        "ar.schema_build_ms",
        time_per_call(3, 1, || {
            black_box(build().ok());
        }) * 1e3,
    );

    let rows = config.train.batch_size;
    let mut model = ArModel::new(schema, &config.model);
    let (_, net, store) = model.split_mut();
    let n_cols = net.num_columns();
    let width = net.total_width();
    let mut adam = Adam::new(store, config.train.lr);
    let (mut forward_s, mut backward_s, mut adam_s) = (Vec::new(), Vec::new(), Vec::new());
    for step in 0..6 {
        ctx.tracer.begin("nn.tape_step", step);
        let mut tape = Tape::new();
        let bound = net.bind(&mut tape, store);
        let mut input = tape.leaf(Matrix::zeros(rows, width));
        let mut last = None;
        for i in 0..n_cols {
            let t = Instant::now();
            let logits = bound.forward(&mut tape, input);
            forward_s.push(t.elapsed().as_secs_f64());
            let block = bound.logits_of(&mut tape, logits, i);
            let y = tape.softmax_rows(block, 1.0);
            let padded = tape.pad_cols(y, net.offset(i), width);
            input = tape.add(input, padded);
            last = Some((y, net.domain_size(i)));
        }
        let (y, d) = last.ok_or("model has no columns")?;
        let mass = tape.row_dot_rows(y, Rc::new(Matrix::full(rows, d, 1.0)));
        let log_mass = tape.log(mass, config.train.eps);
        let loss = tape.sq_err_mean(log_mass, Rc::new(vec![0.0; rows]));
        let t = Instant::now();
        tape.backward(loss);
        backward_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        bound.apply_grads(&tape, store);
        adam.step(store);
        adam_s.push(t.elapsed().as_secs_f64());
        ctx.tracer.end();
    }
    // The first step pays for cold caches.
    let (forward, backward, adam_step) = (
        median(&forward_s[n_cols..]),
        median(&backward_s[1..]),
        median(&adam_s[1..]),
    );
    out.set("nn.tape_forward_ms", forward * 1e3);
    out.set("nn.tape_backward_ms", backward * 1e3);
    out.set("nn.adam_step_ms", adam_step * 1e3);
    // What is left of an epoch after the tape and the optimiser is DPS
    // bookkeeping: rule masks, Gumbel sampling, shuffling. Approximate.
    let steps = corpus.workload.len().div_ceil(rows) as f64;
    let tape_s = steps * (n_cols as f64 * forward + backward + adam_step);
    out.set("ar.train_dps_share", 1.0 - tape_s / median(epoch_s));
    // Every measured epoch is `ar::train` driving `nn::tape`, whole.
    out.set("share.train", 1.0);
    Ok(())
}

/// Generation layers: the stages `TrainedSam::generate` runs, called one by
/// one with the workload's own configuration.
pub fn generation(
    ctx: &mut Ctx,
    trained: &TrainedSam,
    config: &GenerationConfig,
    generate_s: &[f64],
    out: &mut Outcome,
) -> Result<(), String> {
    let model = trained.model();
    let tracer = &mut ctx.tracer;

    let mut sample_s = Vec::new();
    let mut rows = Vec::new();
    for round in 0..3 {
        let t = Instant::now();
        rows = tracer.span("ar.sample", round, |_| {
            sample_model_rows(model, config.foj_samples, config.batch, config.seed)
        });
        sample_s.push(t.elapsed().as_secs_f64());
    }
    let sample = median(&sample_s);

    let t = Instant::now();
    let weights = tracer.span("core.weigh", 0, |_| weigh_samples(&model.schema, &rows));
    let weigh = t.elapsed().as_secs_f64();
    let t = Instant::now();
    tracer.span("core.group_merge", 0, |_| {
        black_box(assign_keys_group_merge(&model.schema, &rows, &weights));
    });
    let group_merge = t.elapsed().as_secs_f64();
    let t = Instant::now();
    tracer
        .span("core.assemble_database", 0, |_| {
            assemble_database(
                trained.db_schema(),
                &model.schema,
                &rows,
                config.strategy,
                config.seed,
            )
        })
        .map_err(|e| format!("assemble: {e}"))?;
    let assemble_all = t.elapsed().as_secs_f64();

    out.set("ar.sample_ms", sample * 1e3);
    out.set("ar.sample_rows_per_s", rows.len() as f64 / sample);
    out.set("core.weigh_ms", weigh * 1e3);
    out.set("core.group_merge_ms", group_merge * 1e3);
    // `assemble_database` weighs and merges itself; what is left is its own.
    out.set(
        "core.assemble_ms",
        (assemble_all - weigh - group_merge).max(0.0) * 1e3,
    );
    let sample_share = (sample / median(generate_s)).min(1.0);
    out.set("core.sample_share", sample_share);
    out.set("share.sample", sample_share);

    // The forward kernel the way sampling drives it: unconditional, every
    // row live, one batch.
    let width = model.net.total_width();
    let input = Matrix::zeros(config.batch, width);
    let mut logits = Matrix::zeros(config.batch, width);
    let full = time_per_call(15, 8, || {
        model
            .net
            .forward_batch_into(black_box(&input), None, &mut logits);
    });
    out.set("nn.forward_batch_ms.f32_full", full * 1e3);
    Ok(())
}

/// Estimation layers: the forward kernel the way `ar::infer` drives it
/// (batch 128, 30 % of rows live) on each backend, and the batched
/// estimator on two distinct requests with a fresh and a persistent trie.
pub fn inference(model: &FrozenModel, sqls: &[&str], out: &mut Outcome) -> Result<(), String> {
    let width = model.net.total_width();
    let batch = 128;
    let live: Vec<bool> = (0..batch).map(|r| r % 10 < 3).collect();
    let input = Matrix::zeros(batch, width);
    for kind in BackendKind::ALL {
        let name = match kind.name() {
            "f32" => "nn.forward_batch_ms.f32",
            "f16" => "nn.forward_batch_ms.f16",
            "int8" => "nn.forward_batch_ms.int8",
            _ => continue,
        };
        let net = model.net.clone().with_backend(kind);
        let mut logits = Matrix::zeros(batch, width);
        let per_call = time_per_call(15, 16, || {
            net.forward_batch_into(black_box(&input), Some(&live), &mut logits);
        });
        out.set(name, per_call * 1e3);
    }
    // Dense multiply-adds of one forwarded row, from the layer sizes.
    if let Some(made) = model.net.as_made() {
        let flops: usize = made
            .layers()
            .iter()
            .map(|(w, _)| 2 * w.rows() * w.cols())
            .sum();
        out.set("nn.forward_flops", flops as f64);
    }

    let queries: Vec<Query> = sqls
        .iter()
        .map(|sql| parse_query(sql).map_err(|e| format!("parse {sql:?}: {e}")))
        .collect::<Result<_, _>>()?;
    let pairs: Vec<[(&Query, usize); 2]> = queries
        .chunks_exact(2)
        .map(|p| [(&p[0], ESTIMATE_SAMPLES), (&p[1], ESTIMATE_SAMPLES)])
        .collect();
    if pairs.is_empty() {
        return Err("inference layers need at least two queries".into());
    }
    let rngs = || {
        [
            StdRng::seed_from_u64(ESTIMATE_SEED),
            StdRng::seed_from_u64(ESTIMATE_SEED),
        ]
    };
    let counter = |name: &str| sam::obs::counter(name).get() as f64;
    let counters = || {
        [
            counter("sam_forward_total"),
            counter("sam_estimate_requests_total"),
            counter("sam_estimate_batch_rows_total"),
            counter("sam_trie_hits_total"),
            counter("sam_dedup_hits_total"),
        ]
    };

    // Cold: nothing shared between calls.
    let cold: Vec<f64> = pairs
        .iter()
        .map(|pair| {
            let t = Instant::now();
            black_box(estimate_cardinality_batch_with(
                model,
                pair,
                &mut rngs(),
                &mut PrefixTrie::new(),
                &mut SampleBatch::new(),
            ));
            t.elapsed().as_secs_f64()
        })
        .collect();
    // Served: one trie and one batch persist across calls, as on a model
    // version's registry entry. The counters repeat exactly.
    let mut trie = PrefixTrie::new();
    let mut scratch = SampleBatch::new();
    let before = counters();
    for pair in &pairs {
        black_box(estimate_cardinality_batch_with(
            model,
            pair,
            &mut rngs(),
            &mut trie,
            &mut scratch,
        ));
    }
    let after = counters();
    let d = |i: usize| after[i] - before[i];
    // Warm: the same calls again, every prefix already in the trie.
    let warm: Vec<f64> = pairs
        .iter()
        .map(|pair| {
            let t = Instant::now();
            black_box(estimate_cardinality_batch_with(
                model,
                pair,
                &mut rngs(),
                &mut trie,
                &mut scratch,
            ));
            t.elapsed().as_secs_f64()
        })
        .collect();
    out.set("ar.estimate_batch_ms.cold", median(&cold) * 1e3);
    out.set("ar.estimate_batch_ms.warm", median(&warm) * 1e3);
    // Hits are counted per (sample row, column) step.
    let steps = (d(2) * model.net.num_columns() as f64).max(1.0);
    out.set("ar.forwards_per_request", d(0) / d(1).max(1.0));
    out.set("ar.trie_hit_share", d(3) / steps);
    out.set("ar.dedup_hit_share", d(4) / steps);
    Ok(())
}

/// Wire-path layers on the bytes the workload sends: what a cache hit costs
/// the server besides the sockets.
pub fn wire(raw_request: &[u8], sql: &str, out: &mut Outcome) -> Result<(), String> {
    use sam::serve::http::{read_request, write_json_response};
    use sam::serve::{EstimateCache, EstimateKey};

    let query = parse_query(sql).map_err(|e| format!("parse {sql:?}: {e}"))?;
    let parse = time_per_call(15, 200, || {
        let q = parse_query(black_box(sql)).expect("parsed above");
        black_box(q.canonical_string());
    });
    out.set("query.sql_parse_us", parse * 1e6);

    read_request(&mut &raw_request[..]).map_err(|e| format!("http parse: {e}"))?;
    let http_parse = time_per_call(15, 200, || {
        black_box(read_request(&mut black_box(raw_request)).ok());
    });
    out.set("serve.http_parse_us", http_parse * 1e6);

    // A cache-hit reply as the server renders it.
    let body = "{\"model\":\"imdb_a\",\"model_version\":1,\"estimate\":1234.5678901234567,\"samples\":64,\"batch_size\":0,\"cached\":true,\"latency_ms\":0.0123456,\"trace_id\":123456}";
    let mut sink = Vec::with_capacity(512);
    let http_write = time_per_call(15, 200, || {
        sink.clear();
        write_json_response(&mut sink, 200, black_box(body), true).expect("write to a Vec");
    });
    out.set("serve.http_write_us", http_write * 1e6);

    // The shipped cache size with the hot set resident.
    let cache = EstimateCache::new(1024);
    let key = |i: usize| EstimateKey {
        model: "imdb_a".to_string(),
        version: 1,
        query: format!("{} /*{i}*/", query.canonical_string()),
        samples: ESTIMATE_SAMPLES,
        seed: ESTIMATE_SEED,
    };
    for i in 0..Sizes::frozen().hot_set {
        cache.insert(key(i), i as f64);
    }
    let probe = key(7);
    let cache_get = time_per_call(15, 200, || {
        black_box(cache.get(black_box(&probe)));
    });
    out.set("serve.cache_get_us", cache_get * 1e6);
    Ok(())
}

/// Router layers: one pooled upstream exchange against a live worker (an
/// LRU hit there) and one ring lookup.
pub fn router(worker: SocketAddr, raw_request: &[u8], out: &mut Outcome) -> Result<(), String> {
    use sam::router::proxy::ConnPool;
    use sam::router::HashRing;

    let pool = ConnPool::new(
        worker.to_string(),
        Duration::from_secs(5),
        Duration::from_secs(30),
    );
    let status = pool
        .exchange(raw_request)
        .map_err(|e| format!("ConnPool::exchange: {e}"))?
        .status;
    if status != 200 {
        return Err(format!("ConnPool::exchange: status {status}"));
    }
    let exchange = time_per_call(15, 50, || {
        black_box(pool.exchange(black_box(raw_request)).ok());
    });
    out.set("router.exchange_us", exchange * 1e6);

    let mut ring = HashRing::new();
    ring.add_slot(0);
    ring.add_slot(1);
    let lookup = time_per_call(15, 1000, || {
        black_box(ring.slot_for(black_box("imdb_a")));
    });
    out.set("router.ring_lookup_ns", lookup * 1e9);
    Ok(())
}
