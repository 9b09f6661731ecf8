//! `sam-cli` — drive the SAM pipeline from the command line.
//!
//! ```text
//! sam-cli demo     --dataset census|dmv|imdb [--rows N] [--queries N] [--epochs N] [--seed N]
//! sam-cli export   --dataset census|dmv|imdb --out DIR [--rows N] [--seed N]
//! sam-cli train    --schema schema.json --data DIR --model-out model.json
//!                  [--queries N | --workload FILE] [--epochs N] [--seed N]
//!                  [--checkpoint-dir DIR] [--checkpoint-every N]
//! sam-cli train    --addr HOST:PORT --workload FILE [--model NAME]
//!                  [--epochs N] [--batch N] [--lr F] [--seed N]
//!                  [--hidden W1,W2] [--holdout F] [--eval-samples N]
//!                  [--eval-seed N] [--checkpoint-every N] [--max-qerror Q]
//!                  [--data DIR] [--follow true] [--poll-ms N] [--retries N]
//! sam-cli generate --schema schema.json (--data DIR | --stats stats.json) --out DIR
//!                  [--model model.json] [--queries N | --workload FILE]
//!                  [--epochs N] [--foj-samples N] [--seed N] [--backend f32|f16|int8]
//! sam-cli evaluate --schema schema.json --original DIR --generated DIR
//!                  [--queries N | --workload FILE] [--seed N]
//! sam-cli estimate --schema schema.json --data DIR [--queries N] [--epochs N] [--seed N]
//!                  [--backend f32|f16|int8]  (then one SQL query per stdin line)
//! sam-cli serve    [--addr HOST:PORT] [--models name=model.json[=datadir],...]
//!                  [--workers N] [--queue N] [--max-batch N]
//!                  [--samples N] [--timeout-ms N] [--cache N]
//!                  [--backend f32|f16|int8] [--journal-dir DIR]
//!                  [--journal-compact-bytes N] [--idle-timeout-ms N]
//!                  [--conn-requests N] [--quality-sample F]
//!                  [--quality-window N] [--quality-alert-qerror Q]
//!                  [--quality-audit FILE] [--flight-capacity N]
//!                  [--slow-ms N] [--promote-max-qerror Q] [--job-id-base N]
//! sam-cli router   [--addr HOST:PORT] [--workers N]
//!                  [--models name[@slot]=model.json[=datadir],...]
//!                  [--store-root DIR] [--worker-cmd CMD] [--worker-flags F]
//!                  [--health-interval-ms N] [--probe-timeout-ms N]
//!                  [--proxy-timeout-ms N] [--restart-backoff-ms N]
//!                  [--restart-backoff-cap-ms N] [--retry-wait-ms N]
//! sam-cli journal  compact DIR
//! sam-cli workgen  synth [--profile FILE] [--seed N] [--count N] [--out FILE]
//!                  [--label true] (--schema schema.json --data DIR |
//!                  --dataset census|dmv|imdb [--rows N] [--data-seed N])
//! sam-cli workgen  mine  [--seeds FILE | --profile FILE --count N]
//!                  [--model model.json] [--top-k N] [--rounds N] [--pool N]
//!                  [--mutants N] [--samples N] [--seed N] [--out FILE]
//!                  [--epochs N] (data flags as for synth)
//! sam-cli workgen  load  --addr HOST:PORT --model NAME [--rate R]
//!                  [--connections N] [--duration-ms N] [--samples N]
//!                  [--timeout-ms N] [--workload FILE | data flags + --count N]
//!                  [--seeds FILE]
//! ```
//!
//! `router` fronts a pool of `sam-cli serve` worker processes with a
//! consistent-hash shard per worker: pass-through routing by model, health
//! probes with bounded-backoff restarts of dead workers, and draining
//! rebalance on join/leave. See `docs/SHARDING.md`.
//!
//! `--backend` picks the frozen-inference backend: `f32` (the exact
//! reference kernel, default), `f16` (blocked column-major kernel over
//! half-precision weights — faster, ~1e-2 relative error), or `int8`
//! (blocked kernel over per-block-quantised 8-bit weights — fastest,
//! ~1e-1 relative logit error, Q-Error parity in practice). An unknown
//! value is rejected up front — `serve` refuses to start — with the valid
//! kernel list in the error. For `serve` the flag applies to every model
//! loaded into the registry; for `generate` / `estimate` it retargets the
//! trained or loaded model before inference.
//!
//! `serve --journal-dir DIR` makes generation jobs restart-safe: every job
//! is journaled to `DIR/journal.jsonl` (CRC-framed records; torn tails and
//! corrupt lines are recovered on open), completed results are persisted as
//! CSV under `DIR/jobs/<id>/`, and on startup the journal is replayed —
//! completed jobs are re-servable (status + `GET /jobs/{id}/export`),
//! interrupted ones re-run from their recorded RNG seed. When the replayed
//! log exceeds `--journal-compact-bytes` (default 4 MiB; 0 disables) it is
//! folded into `snapshot.jsonl`; `sam-cli journal compact DIR` does the
//! same offline. `train --checkpoint-dir DIR` snapshots training state
//! every `--checkpoint-every` epochs; rerunning with identical flags
//! resumes bit-for-bit. See `docs/SERVING.md` for the full operator guide.
//!
//! With `--addr`, `train` instead submits the workload to a running
//! server's `POST /train` (train-as-a-service): the server trains a
//! candidate on a background thread, shadow-evaluates it against the
//! incumbent on a held-out slice, and hot-swaps the winner into the
//! registry if it clears the `--promote-max-qerror` gate. `--follow true`
//! polls the job to its terminal state. See `docs/TRAINING.md`.
//!
//! `serve` shadow-scores `--quality-sample` of answered estimates against
//! the truth (exact when a model was loaded as `name=path=datadir`, f32
//! backend parity otherwise) and serves drift stats at `GET /quality`;
//! estimates whose Q-Error crosses `--quality-alert-qerror` are appended to
//! `--quality-audit` as JSONL, which `workgen mine --seeds FILE` accepts
//! directly. A `--flight-capacity`-event ring of recent requests backs
//! `GET /debug/flight` and is dumped to stderr on a worker panic. See
//! `docs/OBSERVABILITY.md`.
//!
//! The pipeline subcommands (`demo`, `train`, `generate`, `serve`) also
//! accept `--log-level {silent,info,debug}` (structured span lines on
//! stderr) and `--trace-out PATH` (Chrome trace-event JSON, loadable in
//! `chrome://tracing` / Perfetto; `serve` rewrites the file every 30 s).
//!
//! Data directories hold one `<table>.csv` per schema table (header row,
//! `NULL` for SQL NULL). Workload files hold one `SELECT COUNT(*) …` query
//! per line (blank lines and `--` comments ignored), optionally suffixed
//! with its true cardinality as `-- card=N`; unlabelled queries are
//! labelled against `--data`. With `--stats` plus a fully labelled
//! workload, `generate` needs **no data at all** — the paper's scenario.

use sam::prelude::*;
use sam::schema_file::SchemaFile;
use sam::stats_file::StatsFile;
use sam::storage::csv::{read_csv, write_csv};
use std::collections::HashMap;
use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Minimal flag parser: `--key value` pairs after the subcommand, plus bare
/// positional words (e.g. `journal compact DIR`) collected in order.
struct Args {
    command: String,
    flags: HashMap<String, String>,
    positional: Vec<String>,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let command = argv.first().cloned().ok_or_else(usage)?;
        let mut flags = HashMap::new();
        let mut positional = Vec::new();
        let mut i = 1;
        while i < argv.len() {
            let Some(key) = argv[i].strip_prefix("--") else {
                positional.push(argv[i].clone());
                i += 1;
                continue;
            };
            // `--help` is the one valueless flag: it short-circuits into the
            // subcommand's flag table, so it must parse without a value.
            if key == "help" {
                flags.insert("help".to_string(), "true".to_string());
                i += 1;
                continue;
            }
            let value = argv
                .get(i + 1)
                .cloned()
                .ok_or_else(|| format!("--{key} needs a value"))?;
            flags.insert(key.to_string(), value);
            i += 2;
        }
        Ok(Args {
            command,
            flags,
            positional,
        })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    fn required(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("--{key} is required"))
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            Some(v) => v.parse().map_err(|_| format!("--{key}: bad number {v:?}")),
            None => Ok(default),
        }
    }
}

fn usage() -> String {
    "usage: sam-cli <demo|export|train|generate|evaluate|estimate|serve|router|journal|workgen> [--flags]\n\
     run with a subcommand; `sam-cli <serve|router|train|workgen> --help` prints the flag table"
        .into()
}

/// `sam-cli serve --help`. `tests/docs_check.rs` asserts every flag listed
/// here also appears in `docs/SERVING.md` (and the training flags in
/// `docs/TRAINING.md`), so additions must land in both places.
fn serve_help() {
    println!(
        "usage: sam-cli serve [--flags]\n\n\
         listener:\n  \
           --addr HOST:PORT            listen address (default 127.0.0.1:8080)\n  \
           --models SPEC,SPEC          preload models: name=model.json or name=model.json=datadir\n  \
           --workers N                 estimate worker threads (default 2)\n  \
           --queue N                   batcher queue capacity; full queue = 429 (default 64)\n  \
           --max-batch N               max estimates fused per batch (default 16)\n  \
           --samples N                 default progressive-sampling count (default 200)\n  \
           --timeout-ms N              per-request deadline (default 10000)\n  \
           --cache N                   estimate cache entries (default 1024)\n  \
           --backend KIND              inference backend: f32 | f16 | int8 (default: checkpoint's)\n  \
           --idle-timeout-ms N         keep-alive idle connection timeout (default 30000)\n  \
           --conn-requests N           max requests per connection (default 1000)\n\n\
         durability:\n  \
           --journal-dir DIR           journal jobs + training runs for crash recovery\n  \
           --journal-compact-bytes N   auto-compact threshold on replay; 0 disables (default 4194304)\n  \
           --job-id-base N             start job ids after N (sharded workers: see docs/SHARDING.md)\n\n\
         training (POST /train):\n  \
           --promote-max-qerror Q      promotion gate: candidate holdout p95 Q-Error ceiling\n                              \
                                       (default 1000; per-job override via max_qerror)\n\n\
         quality + debug:\n  \
           --quality-sample F          fraction of estimates shadow-scored (default 0.01)\n  \
           --quality-window N          per-model sliding window size (default 256)\n  \
           --quality-alert-qerror Q    audit-log threshold (default 100)\n  \
           --quality-audit FILE        JSONL audit sink for threshold breaches\n  \
           --flight-capacity N         request flight-recorder ring size (default 512)\n  \
           --slow-ms N                 slow-request log threshold (default 250)\n\n\
         observability:\n  \
           --log-level LEVEL           silent | info | debug span lines on stderr\n  \
           --trace-out PATH            Chrome trace JSON, rewritten every 30 s\n\n\
         See docs/SERVING.md and docs/TRAINING.md for the operator guides."
    );
}

/// `sam-cli train --help` — local training plus the remote
/// train-as-a-service client mode (`--addr`).
fn train_help() {
    println!(
        "usage: sam-cli train --schema schema.json --data DIR --model-out model.json [--flags]\n       \
                sam-cli train --addr HOST:PORT --workload FILE [--flags]   (remote mode)\n\n\
         local mode (train in-process, save the model):\n  \
           --schema FILE               schema.json for the target database\n  \
           --data DIR                  directory of {{table}}.csv reference data\n  \
           --model-out FILE            where to save the trained model JSON\n  \
           --queries N                 synthesize a workload of N queries (default 2000)\n  \
           --workload FILE             use this workload file instead of synthesizing\n  \
           --epochs N                  training epochs (default 10)\n  \
           --seed N                    RNG seed for workload + training (default 0)\n  \
           --checkpoint-dir DIR        atomic training snapshots for bit-for-bit resume\n  \
           --checkpoint-every N        snapshot every N epochs (default 1)\n  \
           --log-level LEVEL           silent | info | debug span lines on stderr\n  \
           --trace-out PATH            Chrome trace JSON\n\n\
         remote mode (submit to a running sam-cli serve — see docs/TRAINING.md):\n  \
           --addr HOST:PORT            the server; presence of this flag selects remote mode\n  \
           --workload FILE             labelled workload to upload (SQL `-- card=N` or JSONL)\n  \
           --model NAME                registry name to retrain (default \"default\")\n  \
           --epochs N                  candidate training epochs (default 20)\n  \
           --batch N                   minibatch size (default 32)\n  \
           --lr F                      learning rate (default 0.005)\n  \
           --seed N                    training seed (default 0)\n  \
           --hidden W1,W2              candidate hidden widths (default 16)\n  \
           --holdout F                 held-out fraction for shadow eval (default 0.2)\n  \
           --eval-samples N            progressive samples per holdout estimate (default 200)\n  \
           --eval-seed N               shadow-eval RNG seed (default 0)\n  \
           --checkpoint-every N        journaled checkpoint cadence (default 1)\n  \
           --max-qerror Q              per-job promotion gate override\n  \
           --data DIR                  server-side reference data dir for statistics\n  \
           --follow true               poll GET /jobs/{{id}} until the job is terminal\n  \
           --poll-ms N                 polling interval with --follow (default 500)\n  \
           --retries N                 retries for transient connection failures, with\n                              \
                                       jittered exponential backoff (default 3)"
    );
}

/// `sam-cli router --help`. Like the other help tables, `tests/docs_check.rs`
/// asserts every flag listed here also appears in `docs/SHARDING.md`.
fn router_help() {
    println!(
        "usage: sam-cli router [--flags]\n\n\
         topology:\n  \
           --addr HOST:PORT            router listen address (default 127.0.0.1:8080)\n  \
           --workers N                 worker processes / shards to spawn (default 2)\n  \
           --models SPEC,SPEC          preload models: name[@slot]=model.json[=datadir]\n                              \
                                       (@slot pins the model to a shard; else hashed)\n  \
           --store-root DIR            per-shard job stores: DIR/shard-N (default sam-shards)\n  \
           --worker-cmd CMD            worker command (default: this binary + `serve`)\n  \
           --worker-flags FLAGS        extra flags appended to every worker command line\n\n\
         supervision:\n  \
           --health-interval-ms N      health-probe period (default 200)\n  \
           --probe-timeout-ms N        per-probe socket timeout (default 1000)\n  \
           --proxy-timeout-ms N        proxied request timeout (default 120000)\n  \
           --restart-backoff-ms N      restart backoff base after a worker death (default 100)\n  \
           --restart-backoff-cap-ms N  restart backoff ceiling (default 5000)\n  \
           --retry-wait-ms N           max wait for a shard to recover before retrying an\n                              \
                                       idempotent request against it (default 2000)\n\n\
         observability:\n  \
           --log-level LEVEL           silent | info | debug span lines on stderr\n  \
           --trace-out PATH            Chrome trace JSON, rewritten every 30 s\n\n\
         See docs/SHARDING.md for the operator guide."
    );
}

/// `sam-cli workgen --help` — flag table across `synth`, `mine`, `load`.
fn workgen_help() {
    println!(
        "usage: sam-cli workgen <synth|mine|load> [--flags]\n\n\
         target database (synth + mine, and load without --workload):\n  \
           --schema FILE               schema.json (with --data)\n  \
           --data DIR                  directory of {{table}}.csv files\n  \
           --dataset NAME              census | dmv | imdb synthetic fallback (default census)\n  \
           --rows N                    synthetic dataset size (default 2000)\n  \
           --data-seed N               synthetic dataset seed (default 0)\n\n\
         synth (deterministic query synthesis):\n  \
           --profile FILE              TOML synthesis profile\n  \
           --seed N                    synthesis RNG seed (default 0)\n  \
           --count N                   queries to emit (default: profile's)\n  \
           --label true                label each query with its true cardinality\n  \
           --out FILE                  write workload here instead of stdout\n\n\
         mine (adversarial hard-query mining):\n  \
           --model FILE                trained model to attack (else trains one: --epochs)\n  \
           --seeds FILE                seed queries (else synthesized: --profile --count)\n  \
           --top-k N                   hard queries to keep (default 10)\n  \
           --rounds N                  mutation rounds (default 8)\n  \
           --pool N                    survivor pool size (default 16)\n  \
           --mutants N                 mutants per survivor per round (default 4)\n  \
           --samples N                 estimation samples per score (default 64)\n  \
           --epochs N                  epochs when training the attack target (default 10)\n\n\
         load (open-loop replay against a live server):\n  \
           --addr HOST:PORT            the server (default 127.0.0.1:8080)\n  \
           --model NAME                registry model name (default \"default\")\n  \
           --rate R                    request rate per second (default 100)\n  \
           --connections N             concurrent connections (default 4)\n  \
           --duration-ms N             run length (default 10000)\n  \
           --timeout-ms N              per-request timeout (default 10000)\n  \
           --workload FILE             replay this trace instead of synthesizing\n  \
           --seeds FILE                also replay this mined hard-query set, interleaved\n                              \
                                       with the trace; reports per-class latency\n\n\
         See docs/WORKGEN.md for the operator guide."
    );
}

fn run() -> Result<(), String> {
    let args = Args::parse()?;
    match args.command.as_str() {
        "demo" => demo(&args),
        "export" => export(&args),
        "train" => train_cmd(&args),
        "generate" => generate(&args),
        "evaluate" => evaluate(&args),
        "estimate" => estimate(&args),
        "serve" => serve(&args),
        "router" => router_cmd(&args),
        "journal" => journal_cmd(&args),
        "workgen" => workgen_cmd(&args),
        other => Err(format!("unknown subcommand {other:?}\n{}", usage())),
    }
}

// ---------------------------------------------------------------- datasets

fn synthetic(dataset: &str, rows: usize, seed: u64) -> Result<Database, String> {
    match dataset {
        "census" => Ok(sam::datasets::census(rows, seed)),
        "dmv" => Ok(sam::datasets::dmv(rows, seed)),
        "imdb" => Ok(sam::datasets::imdb(&sam::datasets::ImdbConfig {
            titles: rows / 10,
            seed,
            ..Default::default()
        })),
        other => Err(format!("unknown dataset {other:?} (census|dmv|imdb)")),
    }
}

// ---------------------------------------------------------------- file I/O

fn load_database(schema_path: &str, data_dir: &str) -> Result<Database, String> {
    let text = fs::read_to_string(schema_path).map_err(|e| format!("read {schema_path}: {e}"))?;
    let schema = SchemaFile::from_json(&text)?.to_schema()?;
    let mut tables = Vec::new();
    for t in schema.tables() {
        let path = Path::new(data_dir).join(format!("{}.csv", t.name));
        let file = fs::File::open(&path).map_err(|e| format!("open {path:?}: {e}"))?;
        let table =
            read_csv(t.clone(), BufReader::new(file)).map_err(|e| format!("{path:?}: {e}"))?;
        tables.push(table);
    }
    Database::new(schema, tables, true).map_err(|e| e.to_string())
}

fn save_database(db: &Database, out_dir: &str) -> Result<Vec<PathBuf>, String> {
    fs::create_dir_all(out_dir).map_err(|e| format!("mkdir {out_dir}: {e}"))?;
    let schema_path = Path::new(out_dir).join("schema.json");
    fs::write(&schema_path, SchemaFile::from_schema(db.schema()).to_json())
        .map_err(|e| format!("write {schema_path:?}: {e}"))?;
    let mut written = vec![schema_path];
    for t in db.tables() {
        let path = Path::new(out_dir).join(format!("{}.csv", t.name()));
        let mut file = fs::File::create(&path).map_err(|e| format!("create {path:?}: {e}"))?;
        write_csv(t, &mut file).map_err(|e| format!("write {path:?}: {e}"))?;
        file.flush().map_err(|e| e.to_string())?;
        written.push(path);
    }
    Ok(written)
}

fn load_workload_queries(path: &str) -> Result<Vec<Query>, String> {
    let file = fs::File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    sam::query::read_queries(BufReader::new(file)).map_err(|e| format!("{path}: {e}"))
}

/// Load a *fully labelled* workload file (every line must carry `-- card=`).
fn load_labelled_workload(path: &str) -> Result<Workload, String> {
    let file = fs::File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    sam::query::read_labeled_workload(BufReader::new(file)).map_err(|e| format!("{path}: {e}"))
}

fn build_workload(db: &Database, args: &Args, default_n: usize) -> Result<Workload, String> {
    let queries = match args.get("workload") {
        Some(path) => load_workload_queries(path)?,
        None => {
            let n: usize = args.num("queries", default_n)?;
            let seed: u64 = args.num("seed", 0)?;
            let mut gen = WorkloadGenerator::new(db, seed);
            if db.tables().len() == 1 {
                gen.single_workload(db.tables()[0].name(), n)
            } else {
                gen.multi_workload(n, 2)
            }
        }
    };
    label_workload(db, queries).map_err(|e| e.to_string())
}

// ---------------------------------------------------------- observability

/// Apply the global observability flags shared by every subcommand:
/// `--log-level {silent,info,debug}` routes span lines to stderr, and
/// `--trace-out PATH` turns on Chrome trace collection. Returns the trace
/// path, if any; pass it to [`write_trace`] once the work is done.
fn setup_obs(args: &Args) -> Result<Option<String>, String> {
    if let Some(level) = args.get("log-level") {
        let level: sam::obs::LogLevel = level.parse()?;
        sam::obs::set_log_level(level);
        sam::obs::set_sink(sam::obs::Sink::Stderr);
    }
    match args.get("trace-out") {
        Some(path) => {
            sam::obs::enable_tracing();
            Ok(Some(path.to_string()))
        }
        None => Ok(None),
    }
}

fn write_trace(trace_out: &Option<String>) -> Result<(), String> {
    if let Some(path) = trace_out {
        sam::obs::write_chrome_trace(Path::new(path))
            .map_err(|e| format!("write trace {path}: {e}"))?;
        println!(
            "chrome trace written to {path} ({} events)",
            sam::obs::event_count()
        );
    }
    Ok(())
}

/// Parse the optional `--backend {f32,f16,int8}` flag shared by the
/// inference subcommands. `None` means "leave the model on whatever backend
/// it was frozen or loaded with".
fn backend_arg(args: &Args) -> Result<Option<sam::nn::BackendKind>, String> {
    match args.get("backend") {
        Some(v) => v.parse::<sam::nn::BackendKind>().map(Some),
        None => Ok(None),
    }
}

fn sam_config(args: &Args) -> Result<SamConfig, String> {
    let mut config = SamConfig::default();
    config.train.epochs = args.num("epochs", 10usize)?;
    config.train.seed = args.num("seed", 0u64)?;
    config.model.seed = config.train.seed;
    // `--checkpoint-dir DIR [--checkpoint-every N]`: atomic training
    // snapshots every N epochs; an interrupted run restarted with the same
    // flags auto-resumes bit-for-bit.
    if let Some(dir) = args.get("checkpoint-dir") {
        let every: usize = args.num("checkpoint-every", 1usize)?;
        config.train.checkpoint = Some(sam::ar::CheckpointConfig::new(Path::new(dir), every));
    }
    Ok(config)
}

fn fidelity_report(generated: &Database, workload: &Workload, label: &str) {
    let qe: Vec<f64> = workload
        .iter()
        .take(1000)
        .map(|lq| {
            let got = evaluate_cardinality(generated, &lq.query).unwrap_or(0) as f64;
            q_error(got, lq.cardinality as f64)
        })
        .collect();
    let p = Percentiles::from_values(&qe);
    println!(
        "{label}: Q-Error median {:.2}  75th {:.2}  90th {:.2}  mean {:.2}  max {:.1}  ({} queries)",
        p.median, p.p75, p.p90, p.mean, p.max, p.count
    );
}

// ------------------------------------------------------------- subcommands

fn demo(args: &Args) -> Result<(), String> {
    let trace_out = setup_obs(args)?;
    let dataset = args.get("dataset").unwrap_or("census");
    let rows: usize = args.num("rows", 8_000)?;
    let seed: u64 = args.num("seed", 0)?;
    let db = synthetic(dataset, rows, seed)?;
    let stats = DatabaseStats::from_database(&db);
    println!(
        "dataset {dataset}: {} tables, {} total rows",
        db.tables().len(),
        db.total_rows()
    );

    let workload = build_workload(&db, args, 1_500)?;
    println!("workload: {} labelled queries", workload.len());
    let config = sam_config(args)?;
    let trained = Sam::fit(db.schema(), &stats, &workload, &config).map_err(|e| e.to_string())?;
    println!("trained in {:.1}s", trained.report.wall_seconds);

    let (generated, report) = trained
        .generate(&GenerationConfig {
            seed,
            ..Default::default()
        })
        .map_err(|e| e.to_string())?;
    println!("generated in {:.1}s", report.wall_seconds);
    fidelity_report(&generated, &workload, "input constraints");
    write_trace(&trace_out)?;
    Ok(())
}

fn export(args: &Args) -> Result<(), String> {
    let dataset = args.required("dataset")?;
    let out = args.required("out")?;
    let rows: usize = args.num("rows", 8_000)?;
    let seed: u64 = args.num("seed", 0)?;
    let db = synthetic(dataset, rows, seed)?;
    let mut files = save_database(&db, out)?;

    // The no-data-access bundle: stats.json + a labelled workload sample.
    let stats = DatabaseStats::from_database(&db);
    let stats_path = Path::new(out).join("stats.json");
    fs::write(&stats_path, StatsFile::from_stats(&stats).to_json())
        .map_err(|e| format!("write {stats_path:?}: {e}"))?;
    files.push(stats_path);
    let workload = build_workload(&db, args, 1_000)?;
    let wl_path = Path::new(out).join("workload.sql");
    fs::write(&wl_path, sam::query::format_workload(&workload))
        .map_err(|e| format!("write {wl_path:?}: {e}"))?;
    files.push(wl_path);

    println!("wrote {} files to {out}/:", files.len());
    for f in files {
        println!("  {}", f.display());
    }
    Ok(())
}

fn train_cmd(args: &Args) -> Result<(), String> {
    if args.get("help").is_some() {
        train_help();
        return Ok(());
    }
    // `--addr` selects remote mode: submit the workload to a running
    // `sam-cli serve` as a train-as-a-service job instead of training here.
    if args.get("addr").is_some() {
        return train_remote(args);
    }
    let trace_out = setup_obs(args)?;
    let schema_path = args.required("schema")?;
    let data_dir = args.required("data")?;
    let model_out = args.required("model-out")?;
    let db = load_database(schema_path, data_dir)?;
    let stats = DatabaseStats::from_database(&db);
    let workload = build_workload(&db, args, 2_000)?;
    println!(
        "loaded {} tables; workload of {} queries",
        db.tables().len(),
        workload.len()
    );
    let config = sam_config(args)?;
    let trained = Sam::fit(db.schema(), &stats, &workload, &config).map_err(|e| e.to_string())?;
    println!("trained in {:.1}s", trained.report.wall_seconds);
    let json = sam::ar::save_model(trained.model(), db.schema());
    fs::write(model_out, json).map_err(|e| format!("write {model_out}: {e}"))?;
    println!("model saved to {model_out}");
    write_trace(&trace_out)?;
    Ok(())
}

// ------------------------------------------------- remote training client

/// One request on a fresh connection of the shared client
/// ([`sam::serve::http::Conn`]), with bounded retries for *transient
/// transport failures* — what a worker restart or a router failover window
/// looks like from outside. Which failures are retried is decided by
/// `io::ErrorKind`, never by message text:
///
/// * a connect that never reached the server is retried for any request;
/// * a failure after the request went out (reset, EOF or timeout
///   mid-response) is retried only for `GET` — the `--follow` polls are
///   idempotent, but a `POST /train` whose body was sent may already have
///   been accepted, and resubmitting would train twice;
/// * malformed responses and unusable addresses are never retried.
///
/// Each retry backs off exponentially with jitter (equal-jitter: delay in
/// `[base/2, base]`, base doubling from 100 ms, capped at 5 s). Anything the
/// server actually answered — including rejections — is returned as-is, so
/// terminal HTTP errors keep their non-zero exit and are never resubmitted.
fn http_request_with_retry(
    addr: &str,
    method: &str,
    path: &str,
    body: &[u8],
    retries: u32,
) -> Result<(u16, String), String> {
    use sam::serve::http::{build_request, Conn};
    use std::io::ErrorKind;
    use std::time::Duration;
    let request = build_request(method, path, &[("Connection", "close")], body);
    let mut attempt = 0u32;
    loop {
        let mut conn = Conn::new(addr, Duration::from_secs(10), Duration::from_secs(60));
        let (err, sent) = match conn.connect() {
            Err(e) => (e, false),
            Ok(()) => match conn.exchange(&request) {
                Ok(response) => return Ok((response.status, response.text())),
                Err(e) => (e, true),
            },
        };
        let transient = !matches!(err.kind(), ErrorKind::InvalidData | ErrorKind::InvalidInput)
            && (!sent || method == "GET");
        if !transient || attempt >= retries {
            return Err(format!("{method} {path} on {addr}: {err}"));
        }
        let base = 100u64.saturating_mul(1u64 << attempt.min(6)).min(5_000);
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| u64::from(d.subsec_nanos()))
            .unwrap_or(0);
        let delay = base / 2 + nanos % (base / 2 + 1);
        attempt += 1;
        eprintln!("transient transport failure ({err}); retry {attempt}/{retries} in {delay} ms");
        std::thread::sleep(Duration::from_millis(delay));
    }
}

/// `sam-cli train --addr HOST:PORT --workload FILE [--follow true]` — the
/// train-as-a-service client. Uploads the workload to `POST /train`, prints
/// the job id, and with `--follow true` polls `GET /jobs/{id}` until the job
/// reaches a terminal state (promoted / rejected / failed / cancelled).
/// Transient transport failures (server restarting, failover window) are
/// retried up to `--retries` times with jittered exponential backoff; see
/// [`http_request_with_retry`] for which ones.
fn train_remote(args: &Args) -> Result<(), String> {
    let addr = args.required("addr")?;
    let retries: u32 = args.num("retries", 3u32)?;
    let workload_path = args.required("workload").map_err(|_| {
        "remote mode needs --workload FILE (a labelled workload to upload)".to_string()
    })?;
    let body = fs::read(workload_path).map_err(|e| format!("read {workload_path}: {e}"))?;

    // Assemble the /train query string from flags; only explicit flags are
    // forwarded so the server's defaults stay authoritative.
    let model = args.get("model").unwrap_or("default");
    let mut query = format!("model={model}");
    for (flag, param) in [
        ("epochs", "epochs"),
        ("batch", "batch"),
        ("lr", "lr"),
        ("seed", "seed"),
        ("hidden", "hidden"),
        ("holdout", "holdout"),
        ("eval-samples", "eval_samples"),
        ("eval-seed", "eval_seed"),
        ("checkpoint-every", "checkpoint_every"),
        ("max-qerror", "max_qerror"),
        ("data", "data"),
    ] {
        if let Some(v) = args.get(flag) {
            query.push_str(&format!("&{param}={v}"));
        }
    }

    let (status, response) =
        http_request_with_retry(addr, "POST", &format!("/train?{query}"), &body, retries)?;
    if status != 202 {
        return Err(format!(
            "POST /train returned {status}: {}",
            response.trim()
        ));
    }
    let doc =
        serde_json::parse_value(&response).map_err(|e| format!("bad /train response: {e}"))?;
    let job_id = doc
        .get("job_id")
        .and_then(serde_json::Value::as_u64)
        .ok_or("no job_id in /train response")?;
    println!(
        "training job {job_id} accepted (model {model:?}, {} workload bytes)",
        body.len()
    );

    let follow: bool = args.num("follow", false)?;
    if !follow {
        println!("poll GET http://{addr}/jobs/{job_id} for progress, or rerun with --follow true");
        return Ok(());
    }

    let poll = std::time::Duration::from_millis(args.num("poll-ms", 500u64)?.max(10));
    let mut last_line = String::new();
    loop {
        let (status, response) =
            http_request_with_retry(addr, "GET", &format!("/jobs/{job_id}"), b"", retries)?;
        if status != 200 {
            return Err(format!(
                "GET /jobs/{job_id} returned {status}: {}",
                response.trim()
            ));
        }
        let doc =
            serde_json::parse_value(&response).map_err(|e| format!("bad /jobs response: {e}"))?;
        let state = doc
            .get("state")
            .and_then(serde_json::Value::as_str)
            .unwrap_or("?");
        let stage = doc
            .get("stage")
            .and_then(serde_json::Value::as_str)
            .unwrap_or("?");
        let line = match doc.get("training") {
            Some(t) => {
                let epoch = t
                    .get("epoch")
                    .and_then(serde_json::Value::as_u64)
                    .unwrap_or(0);
                let total = t
                    .get("total_epochs")
                    .and_then(serde_json::Value::as_u64)
                    .unwrap_or(0);
                match t.get("loss").and_then(serde_json::Value::as_f64) {
                    Some(loss) => format!("{state} [{stage}] epoch {epoch}/{total} loss {loss:.4}"),
                    None => format!("{state} [{stage}] epoch {epoch}/{total}"),
                }
            }
            None => format!("{state} [{stage}]"),
        };
        if line != last_line {
            println!("job {job_id}: {line}");
            last_line = line;
        }
        match state {
            "promoted" => {
                let version = doc.get("model_version").and_then(serde_json::Value::as_u64);
                match version {
                    Some(v) => println!("candidate promoted: model {model:?} now v{v}"),
                    None => println!("candidate promoted"),
                }
                return Ok(());
            }
            "rejected" => {
                return Err(format!(
                    "candidate rejected by the promotion gate: {}",
                    doc.get("result")
                        .map(serde_json::Value::to_string)
                        .unwrap_or_default()
                ));
            }
            "failed" => {
                return Err(format!(
                    "training job failed: {}",
                    doc.get("error")
                        .and_then(serde_json::Value::as_str)
                        .unwrap_or("unknown")
                ));
            }
            "cancelled" => return Err("training job was cancelled".into()),
            _ => std::thread::sleep(poll),
        }
    }
}

fn generate(args: &Args) -> Result<(), String> {
    let trace_out = setup_obs(args)?;
    let schema_path = args.required("schema")?;
    let out = args.required("out")?;
    let seed: u64 = args.num("seed", 0)?;

    let schema_text =
        fs::read_to_string(schema_path).map_err(|e| format!("read {schema_path}: {e}"))?;
    let file_schema = SchemaFile::from_json(&schema_text)?.to_schema()?;

    // Two modes: with --data (stats + labels derived from the original), or
    // data-free with --stats plus a fully labelled --workload — the paper's
    // actual deployment scenario, where no row of the data is available.
    let (db_schema, stats, workload) = match (args.get("data"), args.get("stats")) {
        (Some(data_dir), _) => {
            let db = load_database(schema_path, data_dir)?;
            let stats = DatabaseStats::from_database(&db);
            let workload = build_workload(&db, args, 2_000)?;
            (db.schema().clone(), stats, workload)
        }
        (None, Some(stats_path)) => {
            let stats_text =
                fs::read_to_string(stats_path).map_err(|e| format!("read {stats_path}: {e}"))?;
            let stats = StatsFile::from_json(&stats_text)?.to_stats(&file_schema)?;
            let wl_path = args.required("workload").map_err(|_| {
                "data-free mode needs --workload with `-- card=N` labels".to_string()
            })?;
            let workload = load_labelled_workload(wl_path)?;
            (file_schema, stats, workload)
        }
        (None, None) => return Err("provide --data DIR or --stats stats.json".into()),
    };
    println!(
        "schema of {} tables; workload of {} queries",
        db_schema.tables().len(),
        workload.len()
    );

    let trained = match args.get("model") {
        Some(model_path) => {
            let json =
                fs::read_to_string(model_path).map_err(|e| format!("read {model_path}: {e}"))?;
            let (model, model_schema) = sam::ar::load_model(&json).map_err(|e| e.to_string())?;
            if model_schema != db_schema {
                return Err("model schema does not match --schema".into());
            }
            println!("loaded trained model from {model_path}");
            Sam::from_frozen(
                model_schema,
                model,
                sam::ar::TrainReport {
                    epoch_losses: vec![],
                    constraints_processed: 0,
                    wall_seconds: 0.0,
                },
            )
        }
        None => {
            let config = sam_config(args)?;
            let trained =
                Sam::fit(&db_schema, &stats, &workload, &config).map_err(|e| e.to_string())?;
            println!("trained in {:.1}s", trained.report.wall_seconds);
            trained
        }
    };
    let trained = match backend_arg(args)? {
        Some(kind) => {
            println!("inference backend: {kind}");
            trained.with_backend(kind)
        }
        None => trained,
    };

    let (generated, report) = trained
        .generate(&GenerationConfig {
            foj_samples: args.num("foj-samples", 20_000usize)?,
            seed,
            ..Default::default()
        })
        .map_err(|e| e.to_string())?;
    println!("generated in {:.1}s", report.wall_seconds);
    fidelity_report(&generated, &workload, "input constraints");
    save_database(&generated, out)?;
    println!("synthetic database written to {out}/");
    write_trace(&trace_out)?;
    Ok(())
}

fn evaluate(args: &Args) -> Result<(), String> {
    let schema_path = args.required("schema")?;
    let original = load_database(schema_path, args.required("original")?)?;
    let generated = load_database(schema_path, args.required("generated")?)?;
    let workload = build_workload(&original, args, 500)?;
    fidelity_report(&generated, &workload, "workload");

    let queries: Vec<Query> = workload
        .iter()
        .take(100)
        .map(|lq| lq.query.clone())
        .collect();
    let dev = sam::engine::performance_deviation(&original, &generated, &queries, 5)
        .map_err(|e| e.to_string())?;
    let p = Percentiles::from_values(&dev.iter().map(|d| d * 1e3).collect::<Vec<_>>());
    println!(
        "performance deviation: median {:.1} µs  90th {:.1} µs  mean {:.1} µs",
        p.median, p.p90, p.mean
    );
    Ok(())
}

fn estimate(args: &Args) -> Result<(), String> {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let schema_path = args.required("schema")?;
    let db = load_database(schema_path, args.required("data")?)?;
    let stats = DatabaseStats::from_database(&db);
    let workload = build_workload(&db, args, 1_500)?;
    let config = sam_config(args)?;
    let trained = Sam::fit(db.schema(), &stats, &workload, &config).map_err(|e| e.to_string())?;
    let trained = match backend_arg(args)? {
        Some(kind) => {
            println!("inference backend: {kind}");
            trained.with_backend(kind)
        }
        None => trained,
    };
    println!("model trained; enter one SQL query per line (Ctrl-D to end):");

    let mut rng = StdRng::seed_from_u64(args.num("seed", 0u64)?);
    let mut estimator = sam::ar::Estimator::new(trained.model().clone());
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| e.to_string())?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match parse_query(line) {
            Ok(q) => match estimator.estimate(&q, 512, &mut rng) {
                Ok(est) => {
                    let truth = evaluate_cardinality(&db, &q).map_err(|e| e.to_string())?;
                    println!("estimate {est:.1}  (true {truth})");
                }
                Err(e) => eprintln!("cannot estimate: {e}"),
            },
            Err(e) => eprintln!("parse error: {e}"),
        }
    }
    Ok(())
}

fn serve(args: &Args) -> Result<(), String> {
    if args.get("help").is_some() {
        serve_help();
        return Ok(());
    }
    let trace_out = setup_obs(args)?;
    let config = sam::serve::ServeConfig {
        addr: args.get("addr").unwrap_or("127.0.0.1:8080").to_string(),
        workers: args.num("workers", 2usize)?,
        queue_capacity: args.num("queue", 64usize)?,
        max_batch: args.num("max-batch", 16usize)?,
        default_samples: args.num("samples", 200usize)?,
        default_timeout_ms: args.num("timeout-ms", 10_000u64)?,
        cache_capacity: args.num("cache", 1024usize)?,
        backend: backend_arg(args)?,
        idle_timeout_ms: args.num("idle-timeout-ms", 30_000u64)?,
        max_conn_requests: args.num("conn-requests", 1_000usize)?,
        journal_dir: args.get("journal-dir").map(PathBuf::from),
        journal_compact_bytes: match args.num("journal-compact-bytes", 4 * 1024 * 1024u64)? {
            0 => None, // 0 disables replay-time auto-compaction
            n => Some(n),
        },
        quality_sample: args.num("quality-sample", 0.01f64)?,
        quality_window: args.num("quality-window", 256usize)?,
        quality_alert_qerror: args.num("quality-alert-qerror", 100.0f64)?,
        quality_audit: args.get("quality-audit").map(PathBuf::from),
        flight_capacity: args.num("flight-capacity", 512usize)?,
        slow_query_ms: args.num("slow-ms", 250u64)?,
        promote_max_qerror: args.num("promote-max-qerror", 1000.0f64)?,
        job_id_base: args.num("job-id-base", 0u64)?,
    };
    let journalled = config.journal_dir.is_some();
    let server = sam::serve::Server::start(config).map_err(|e| e.to_string())?;
    if let Some(models) = args.get("models") {
        for spec in models.split(',') {
            // name=path loads the model alone; name=path=datadir also
            // attaches the reference relations ({table}.csv under datadir)
            // so the quality monitor scores in exact mode.
            let mut parts = spec.splitn(3, '=');
            let name = parts.next().unwrap_or_default().trim();
            let path = parts.next().map(str::trim);
            let data = parts.next().map(str::trim);
            let Some(path) = path.filter(|p| !name.is_empty() && !p.is_empty()) else {
                return Err(format!(
                    "--models entries are name=path or name=path=datadir, got {spec:?}"
                ));
            };
            let version = server
                .registry()
                .load_file_with_data(name, path, data)
                .map_err(|e| e.to_string())?;
            match data {
                Some(dir) => {
                    println!("loaded model {name} v{version} from {path} (reference data: {dir})")
                }
                None => println!("loaded model {name} v{version} from {path}"),
            }
        }
    }
    // Replay after model loading: interrupted jobs re-bind to the model
    // registered under their recorded name.
    if journalled {
        let replay = server.replay_journal().map_err(|e| e.to_string())?;
        println!(
            "journal replay: {} completed reloaded, {} interrupted resumed, {} failed/terminal",
            replay.completed, replay.resumed, replay.failed
        );
    }
    println!(
        "sam-serve listening on http://{} ({} models loaded; POST /models to add more)",
        server.addr(),
        server.registry().len()
    );
    // Serve until the process is terminated; all work happens on the
    // server's own threads. Embedders use `Server::shutdown` to drain.
    // With --trace-out the collected trace is re-exported periodically
    // (the collector is non-draining, so each write is the full trace).
    let interval = if trace_out.is_some() { 30 } else { 3600 };
    loop {
        std::thread::sleep(std::time::Duration::from_secs(interval));
        write_trace(&trace_out)?;
    }
}

/// `sam-cli router` — fault-tolerant sharded serving: spawn and supervise a
/// pool of `sam-cli serve` worker processes, each owning a consistent-hash
/// partition of the model namespace, and front them on one address speaking
/// the plain `sam-serve` HTTP surface. See `docs/SHARDING.md`.
fn router_cmd(args: &Args) -> Result<(), String> {
    if args.get("help").is_some() {
        router_help();
        return Ok(());
    }
    let trace_out = setup_obs(args)?;
    let mut config = sam::router::RouterConfig {
        addr: args.get("addr").unwrap_or("127.0.0.1:8080").to_string(),
        workers: args.num("workers", 2usize)?,
        store_root: PathBuf::from(args.get("store-root").unwrap_or("sam-shards")),
        health_interval_ms: args.num("health-interval-ms", 200u64)?,
        probe_timeout_ms: args.num("probe-timeout-ms", 1_000u64)?,
        proxy_timeout_ms: args.num("proxy-timeout-ms", 120_000u64)?,
        restart_backoff_ms: args.num("restart-backoff-ms", 100u64)?,
        restart_backoff_cap_ms: args.num("restart-backoff-cap-ms", 5_000u64)?,
        retry_wait_ms: args.num("retry-wait-ms", 2_000u64)?,
        ..Default::default()
    };
    // Workers default to this very binary's `serve` subcommand; an explicit
    // `--worker-cmd` swaps in anything speaking the same surface.
    config.worker_cmd = match args.get("worker-cmd") {
        Some(cmd) => cmd.split_whitespace().map(str::to_string).collect(),
        None => {
            let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
            vec![exe.display().to_string(), "serve".to_string()]
        }
    };
    if let Some(flags) = args.get("worker-flags") {
        config.worker_flags = flags.split_whitespace().map(str::to_string).collect();
    }
    if let Some(models) = args.get("models") {
        for spec in models.split(',') {
            config.models.push(sam::router::ModelSpec::parse(spec)?);
        }
    }
    let router = sam::router::Router::start(config).map_err(|e| e.to_string())?;
    let workers = router.workers();
    for worker in &workers {
        println!(
            "shard {}: worker at {} ({})",
            worker.slot,
            worker.addr(),
            worker.health().label()
        );
    }
    println!(
        "sam-router listening on http://{} ({} shards, {} models placed)",
        router.addr(),
        workers.len(),
        router.placement().len()
    );
    // Serve until terminated, like `serve`: supervision, routing, and
    // rebalance all run on the router's own threads.
    let interval = if trace_out.is_some() { 30 } else { 3600 };
    loop {
        std::thread::sleep(std::time::Duration::from_secs(interval));
        write_trace(&trace_out)?;
    }
}

/// `sam-cli journal compact DIR` — offline journal maintenance: replay the
/// job log (recovery runs first: torn tails truncated, corrupt records
/// quarantined), fold it into `snapshot.jsonl`, and truncate the log. Safe
/// to run only while no server is serving the directory.
fn journal_cmd(args: &Args) -> Result<(), String> {
    let (action, dir) = match args.positional.as_slice() {
        [action, dir] => (action.as_str(), dir),
        _ => return Err("usage: sam-cli journal compact DIR".into()),
    };
    if action != "compact" {
        return Err(format!(
            "unknown journal action {action:?} (expected \"compact\")"
        ));
    }
    let journal = sam::serve::Journal::open(
        Path::new(dir),
        sam::obs::counter("sam_journal_events_total"),
    )
    .map_err(|e| e.to_string())?;
    let before = journal.log_len();
    let jobs = journal.compact().map_err(|e| e.to_string())?;
    println!(
        "compacted {dir}: {jobs} jobs in snapshot, log {before} -> {} bytes",
        journal.log_len()
    );
    Ok(())
}

// ----------------------------------------------------------------- workgen

/// `sam-cli workgen <synth|mine|load>` — workload tooling built on
/// `sam-workgen`: deterministic query synthesis from a TOML profile,
/// adversarial hard-query mining against a trained model, and open-loop
/// load replay against a live `sam-cli serve`. See `docs/WORKGEN.md`.
fn workgen_cmd(args: &Args) -> Result<(), String> {
    if args.get("help").is_some() {
        workgen_help();
        return Ok(());
    }
    match args.positional.first().map(String::as_str) {
        Some("synth") => workgen_synth(args),
        Some("mine") => workgen_mine(args),
        Some("load") => workgen_load(args),
        _ => Err("usage: sam-cli workgen <synth|mine|load> [--flags]".into()),
    }
}

/// The database every workgen action runs against: `--schema` + `--data`
/// CSVs, or a synthetic `--dataset` (sized by `--rows`, seeded separately
/// from the synthesis `--seed` so workload and data vary independently).
fn workgen_database(args: &Args) -> Result<Database, String> {
    match (args.get("schema"), args.get("data")) {
        (Some(schema), Some(data)) => load_database(schema, data),
        (None, None) => {
            let dataset = args.get("dataset").unwrap_or("census");
            let rows: usize = args.num("rows", 2_000)?;
            let seed: u64 = args.num("data-seed", 0)?;
            synthetic(dataset, rows, seed)
        }
        _ => Err("provide both --schema and --data, or neither for --dataset".into()),
    }
}

fn workgen_profile(args: &Args) -> Result<sam::workgen::SynthProfile, String> {
    match args.get("profile") {
        Some(path) => {
            let text = fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
            sam::workgen::SynthProfile::from_toml(&text).map_err(|e| e.to_string())
        }
        None => Ok(sam::workgen::SynthProfile::default()),
    }
}

fn workgen_synth(args: &Args) -> Result<(), String> {
    let profile = workgen_profile(args)?;
    let db = workgen_database(args)?;
    let seed: u64 = args.num("seed", 0)?;
    let count: u64 = args.num("count", profile.queries)?;
    let label: bool = args.num("label", false)?;
    let target =
        sam::workgen::SynthTarget::from_database(&db, &profile).map_err(|e| e.to_string())?;
    let label_db = if label { Some(&db) } else { None };

    let report = match args.get("out") {
        Some(path) => {
            let file = fs::File::create(path).map_err(|e| format!("create {path}: {e}"))?;
            let mut out = std::io::BufWriter::new(file);
            let report =
                sam::workgen::synthesize_into(&target, &profile, seed, count, label_db, &mut out)
                    .map_err(|e| e.to_string())?;
            out.flush().map_err(|e| e.to_string())?;
            report
        }
        None => {
            let stdout = std::io::stdout();
            let mut out = std::io::BufWriter::new(stdout.lock());
            let report =
                sam::workgen::synthesize_into(&target, &profile, seed, count, label_db, &mut out)
                    .map_err(|e| e.to_string())?;
            out.flush().map_err(|e| e.to_string())?;
            report
        }
    };
    // Summary on stderr so `synth` pipes cleanly into files and tools.
    eprintln!(
        "profile {:?} seed {seed}: {} of {} distinct queries ({} attempts, {} duplicates, {} bytes{})",
        profile.name,
        report.emitted,
        report.requested,
        report.attempts,
        report.duplicates,
        report.bytes,
        if report.labeled { ", labelled" } else { "" }
    );
    Ok(())
}

fn workgen_mine(args: &Args) -> Result<(), String> {
    let db = workgen_database(args)?;
    let stats = DatabaseStats::from_database(&db);

    // A model to attack: load one, or train a fresh one on a generated
    // workload (the usual quick path for synthetic datasets).
    let trained = match args.get("model") {
        Some(path) => {
            let json = fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
            let (model, model_schema) = sam::ar::load_model(&json).map_err(|e| e.to_string())?;
            if &model_schema != db.schema() {
                return Err("model schema does not match the target database".into());
            }
            println!("loaded trained model from {path}");
            Sam::from_frozen(
                model_schema,
                model,
                sam::ar::TrainReport {
                    epoch_losses: vec![],
                    constraints_processed: 0,
                    wall_seconds: 0.0,
                },
            )
        }
        None => {
            let workload = build_workload(&db, args, 500)?;
            let config = sam_config(args)?;
            let trained =
                Sam::fit(db.schema(), &stats, &workload, &config).map_err(|e| e.to_string())?;
            println!(
                "trained attack target in {:.1}s",
                trained.report.wall_seconds
            );
            trained
        }
    };

    // Seed queries: an explicit file, or a synthesized baseline batch.
    let seed: u64 = args.num("seed", 0)?;
    let seeds = match args.get("seeds") {
        Some(path) => load_workload_queries(path)?,
        None => {
            let profile = workgen_profile(args)?;
            let target = sam::workgen::SynthTarget::from_database(&db, &profile)
                .map_err(|e| e.to_string())?;
            sam::workgen::synthesize(&target, &profile, seed, args.num("count", 64u64)?)
        }
    };

    let config = sam::workgen::MinerConfig {
        top_k: args.num("top-k", 10usize)?,
        rounds: args.num("rounds", 8usize)?,
        pool: args.num("pool", 16usize)?,
        mutants: args.num("mutants", 4usize)?,
        samples: args.num("samples", 64usize)?,
        seed,
    };
    let report = sam::workgen::mine_hard_queries(trained.model(), &db, &seeds, &config)
        .map_err(|e| e.to_string())?;

    println!(
        "baseline over {} seeds: mean Q-Error {:.2}, max {:.2}",
        seeds.len(),
        report.baseline_mean,
        report.baseline_max
    );
    println!(
        "mined {} hard queries ({} scored, {} rounds; worst climbed {:.2} -> {:.2}):",
        report.worst.len(),
        report.evaluated,
        report.rounds_run,
        report.worst_trail.first().copied().unwrap_or(f64::NAN),
        report.worst_trail.last().copied().unwrap_or(f64::NAN),
    );
    for m in &report.worst {
        println!(
            "  q-error {:10.2}  est {:12.1}  true {:10}  {}",
            m.q_error, m.estimate, m.truth, m.query
        );
    }

    // `--out` persists the worst set as a labelled workload file, ready to
    // feed back into training or `workgen load`.
    if let Some(path) = args.get("out") {
        let mut text = String::new();
        for m in &report.worst {
            text.push_str(&format!("{} -- card={}\n", m.query, m.truth));
        }
        fs::write(path, text).map_err(|e| format!("write {path}: {e}"))?;
        println!("worst set written to {path}");
    }
    Ok(())
}

fn workgen_load(args: &Args) -> Result<(), String> {
    let trace = match args.get("workload") {
        Some(path) => load_workload_queries(path)?,
        None => {
            let db = workgen_database(args)?;
            let profile = workgen_profile(args)?;
            let target = sam::workgen::SynthTarget::from_database(&db, &profile)
                .map_err(|e| e.to_string())?;
            let seed: u64 = args.num("seed", 0)?;
            sam::workgen::synthesize(&target, &profile, seed, args.num("count", 256u64)?)
        }
    };
    // `--seeds FILE` replays a mined hard-query set (e.g. `workgen mine
    // --out`) interleaved with the trace; the report then carries per-class
    // latency percentiles for mined vs synthetic queries.
    let mined = match args.get("seeds") {
        Some(path) => load_workload_queries(path)?,
        None => Vec::new(),
    };

    let config = sam::workgen::LoadConfig {
        addr: args.get("addr").unwrap_or("127.0.0.1:8080").to_string(),
        model: args.get("model").unwrap_or("default").to_string(),
        rate: args.num("rate", 100.0f64)?,
        connections: args.num("connections", 4usize)?,
        duration: std::time::Duration::from_millis(args.num("duration-ms", 10_000u64)?),
        samples: args.num("samples", 64u64)?,
        timeout_ms: args.num("timeout-ms", 10_000u64)?,
    };
    eprintln!(
        "replaying {} trace queries{} at {} req/s over {} connections for {:.1}s against http://{}",
        trace.len(),
        if mined.is_empty() {
            String::new()
        } else {
            format!(" + {} mined seeds", mined.len())
        },
        config.rate,
        config.connections,
        config.duration.as_secs_f64(),
        config.addr
    );
    // Bracket the run with server-side /metrics scrapes: the delta shows
    // what the server saw (cache hits, panics, quality alerts) next to the
    // client-side numbers. A failed scrape never fails the run.
    let scrape_timeout = std::time::Duration::from_millis(config.timeout_ms.max(1));
    let before = sam::workgen::scrape_server_counters(&config.addr, scrape_timeout);
    let report =
        sam::workgen::run_load_with_seeds(&trace, &mined, &config).map_err(|e| e.to_string())?;
    let after = sam::workgen::scrape_server_counters(&config.addr, scrape_timeout);
    println!("{}", sam::workgen::LoadReport::markdown_header());
    println!("{}", report.markdown_row());
    if let Some(section) = report.markdown_class_section() {
        println!();
        println!("{section}");
    }
    match (before, after) {
        (Some(before), Some(after)) => {
            println!();
            println!("{}", after.delta(&before).markdown_section());
        }
        _ => eprintln!("note: /metrics scrape failed; no server-side delta section"),
    }
    eprintln!(
        "completed {} of {} scheduled ({} socket errors; {} 2xx / {} 4xx / {} 5xx) in {:.2}s",
        report.completed,
        report.scheduled,
        report.errors,
        report.status_2xx,
        report.status_4xx,
        report.status_5xx,
        report.elapsed_secs
    );
    Ok(())
}
