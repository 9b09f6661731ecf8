//! `sam-cli` — drive the SAM pipeline from the command line.
//!
//! Run `sam-cli <cmd> --help` for a command's flags. Each subcommand
//! declares them once, in its table in `COMMANDS`: `--help` prints it, the
//! parser refuses any flag it lacks (and any stray word) before work
//! starts, and defaults are read from it.
//!
//! `router` fronts a pool of `sam-cli serve` worker processes with a
//! consistent-hash shard per worker: pass-through routing by model, health
//! probes with bounded-backoff restarts of dead workers, and draining
//! rebalance on join/leave. See `docs/SHARDING.md`.
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
//! `serve` shadow-scores `--quality-sample` of answered estimates of every
//! model loaded as `name=path=datadir` against the exact cardinality (a
//! model without a data dir is not scored) and serves drift stats at
//! `GET /quality`;
//! estimates whose Q-Error crosses `--quality-alert-qerror` are appended to
//! `--quality-audit` as JSONL, which `workgen mine --seeds FILE` accepts
//! directly. A `--flight-capacity`-event ring of recent requests backs
//! `GET /debug/flight` and is dumped to stderr on a worker panic. See
//! `docs/OBSERVABILITY.md`.
//!
//! `demo`, `train`, `generate`, `serve` and `router` also accept
//! `--log-level {silent,info,debug}` (structured span lines on stderr) and
//! `--trace-out PATH` (Chrome trace-event JSON, loadable in
//! `chrome://tracing` / Perfetto; `serve` and `router` rewrite the file
//! every 30 s).
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

/// One row of a flag table: `Flag(name, value placeholder, default, help
/// line)`. An empty default means none: the flag is optional, or the
/// command requires it.
struct Flag(&'static str, &'static str, &'static str, &'static str);

impl Flag {
    /// This row with `default`, for a flag whose default differs by command.
    const fn or(self, default: &'static str) -> Flag {
        Flag(self.0, self.1, default, self.3)
    }
}

/// A titled group of rows. Shared groups are included where they are read.
type Group = (&'static str, &'static [Flag]);

type Run = fn(&Args) -> Result<(), String>;

/// One command's flag table: the words that name it (`train --addr` is
/// remote training, picked by the presence of `--addr`), its synopsis, how
/// many operand words follow the name, its handler and its flags.
struct Command {
    name: &'static str,
    usage: &'static str,
    operands: usize,
    run: Run,
    groups: &'static [Group],
}

/// A command that takes no operand words.
#[rustfmt::skip]
const fn cmd(name: &'static str, usage: &'static str, run: Run, groups: &'static [Group]) -> Command {
    Command { name, usage, operands: 0, run, groups }
}

impl Command {
    fn flag(&self, name: &str) -> Option<&'static Flag> {
        let mut rows = self.groups.iter().flat_map(|(_, rows)| rows.iter());
        rows.find(|row| row.0 == name)
    }

    fn print(&self) {
        println!("usage: sam-cli {} {}", self.name, self.usage);
        for (title, rows) in self.groups {
            println!("\n{title}:");
            for &Flag(name, value, default, help) in *rows {
                let arg = format!("--{name} {value}");
                match default {
                    "" => println!("  {arg:<27} {help}"),
                    _ => println!("  {arg:<27} {help} (default {default})"),
                }
            }
        }
        println!();
    }
}

// ------------------------------------------------------------ flag tables
//
// The tables are exempt from rustfmt so that each row stays on one line.

#[rustfmt::skip]
const OBS: Group = ("observability", &[
    Flag("log-level", "LEVEL", "", "silent | info | debug span lines on stderr"),
    Flag("trace-out", "PATH", "", "Chrome trace JSON (serve and router rewrite it every 30 s)"),
]);
/// Read by `fit` wherever a model is trained in process.
#[rustfmt::skip]
const FIT: Group = ("training", &[
    Flag("epochs", "N", "10", "training epochs"),
    Flag("checkpoint-dir", "DIR", "", "atomic training snapshots for bit-for-bit resume"),
    Flag("checkpoint-every", "N", "1", "snapshot every N epochs"),
]);
const SEED: Flag = Flag("seed", "N", "0", "RNG seed");
const QUERIES: Flag = Flag("queries", "N", "", "synthesize N labelled queries");
const WORKLOAD: Flag = Flag("workload", "FILE", "", "read the workload from FILE");
const DATASET: Flag = Flag("dataset", "NAME", "", "census | dmv | imdb");
const ROWS: Flag = Flag("rows", "N", "", "synthetic dataset rows");
const ADDR: Flag = Flag("addr", "HOST:PORT", "127.0.0.1:8080", "listen address");
const PROFILE: Flag = Flag("profile", "FILE", "", "TOML synthesis profile");
const COUNT: Flag = Flag("count", "N", "", "queries to synthesize");
/// The database every workgen action runs against.
#[rustfmt::skip]
const TARGET: Group = ("target database (--schema with --data, or a synthetic --dataset)", &[
    Flag("schema", "FILE", "", "schema.json (with --data)"),
    Flag("data", "DIR", "", "directory of {table}.csv files"),
    DATASET.or("census"),
    ROWS.or("2000"),
    Flag("data-seed", "N", "0", "synthetic dataset seed"),
]);
/// Remote training's `POST /train` parameters (`-` becomes `_`); only the
/// ones given are sent, so the server's defaults hold.
#[rustfmt::skip]
const TRAIN_PARAMS: Group = ("sent to POST /train when given (else the server's default)", &[
    Flag("epochs", "N", "", "candidate training epochs (server: 20)"),
    Flag("batch", "N", "", "minibatch size (server: 32)"),
    Flag("lr", "F", "", "learning rate (server: 0.005)"),
    Flag("seed", "N", "", "training seed (server: 0)"),
    Flag("hidden", "W1,W2", "", "candidate hidden widths (server: 16)"),
    Flag("holdout", "F", "", "held-out fraction for shadow eval (server: 0.2)"),
    Flag("eval-samples", "N", "", "progressive samples per holdout estimate (server: 200)"),
    Flag("eval-seed", "N", "", "shadow-eval RNG seed (server: 0)"),
    Flag("checkpoint-every", "N", "", "journaled checkpoint cadence (server: 1)"),
    Flag("max-qerror", "Q", "", "per-job promotion gate (server: --promote-max-qerror)"),
    Flag("data", "DIR", "", "server-side reference data dir for statistics"),
]);

/// Every command's flags, declared once: `--help` prints them, the parser
/// refuses any flag a table lacks, and `Args` reads defaults from them.
#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    cmd("demo", "[--flags]", demo, &[
        ("dataset", &[DATASET.or("census"), ROWS.or("8000")]),
        ("workload", &[QUERIES.or("1500"), WORKLOAD, SEED]),
        FIT, OBS,
    ]),
    cmd("export", "--dataset NAME --out DIR [--flags]", export, &[
        ("dataset", &[
            DATASET,
            ROWS.or("8000"),
            Flag("out", "DIR", "", "write schema.json, {table}.csv, stats.json, workload.sql here"),
        ]),
        ("workload", &[QUERIES.or("1000"), WORKLOAD, SEED]),
    ]),
    cmd("train", "--schema FILE --data DIR --model-out FILE [--flags]", train_local, &[
        ("local training", &[
            Flag("schema", "FILE", "", "schema.json of the target database"),
            Flag("data", "DIR", "", "directory of {table}.csv reference data"),
            Flag("model-out", "FILE", "", "where to save the trained model JSON"),
        ]),
        ("workload", &[QUERIES.or("2000"), WORKLOAD, SEED]),
        FIT, OBS,
    ]),
    cmd("train --addr", "HOST:PORT --workload FILE [--flags]", train_remote, &[
        ("remote training on a running sam-cli serve (docs/TRAINING.md)", &[
            Flag("addr", "HOST:PORT", "", "the server; this flag selects remote mode"),
            Flag("workload", "FILE", "", "labelled workload to upload (SQL `-- card=N` or JSONL)"),
            Flag("model", "NAME", "default", "registry name to retrain"),
            Flag("follow", "BOOL", "false", "true: poll GET /jobs/{id} until the job is terminal"),
            Flag("poll-ms", "N", "500", "polling interval with --follow"),
            Flag("retries", "N", "3", "retries of transient transport failures, jittered backoff"),
        ]),
        TRAIN_PARAMS,
    ]),
    cmd("generate", "--schema FILE (--data DIR | --stats FILE) --out DIR [--flags]", generate, &[
        ("input and output", &[
            Flag("schema", "FILE", "", "schema.json of the target database"),
            Flag("data", "DIR", "", "reference data: statistics and labels come from it"),
            Flag("stats", "FILE", "", "stats.json for data-free mode (with a labelled --workload)"),
            Flag("model", "FILE", "", "trained model to generate from (else trains one)"),
            Flag("out", "DIR", "", "where to write the generated {table}.csv files"),
            Flag("foj-samples", "N", "20000", "full-outer-join samples to draw"),
        ]),
        ("workload", &[QUERIES.or("2000"), WORKLOAD, SEED]),
        FIT, OBS,
    ]),
    cmd("evaluate", "--schema FILE --original DIR --generated DIR [--flags]", evaluate, &[
        ("databases", &[
            Flag("schema", "FILE", "", "schema.json of both databases"),
            Flag("original", "DIR", "", "the original database's {table}.csv files"),
            Flag("generated", "DIR", "", "the generated database's {table}.csv files"),
        ]),
        ("workload", &[QUERIES.or("500"), WORKLOAD, SEED]),
    ]),
    cmd("estimate", "--schema FILE --data DIR [--flags], then one SQL query per stdin line", estimate, &[
        ("database", &[
            Flag("schema", "FILE", "", "schema.json of the database"),
            Flag("data", "DIR", "", "directory of {table}.csv files"),
        ]),
        ("workload", &[QUERIES.or("1500"), WORKLOAD, SEED]),
        FIT,
    ]),
    cmd("serve", "[--flags]   (docs/SERVING.md, docs/TRAINING.md)", serve, &[
        ("listener", &[
            ADDR,
            Flag("models", "SPEC,SPEC", "", "preload models: name=model.json or name=model.json=datadir"),
            Flag("queue", "N", "64", "estimates waiting or computing at once; one more answers 429"),
            Flag("samples", "N", "200", "default progressive-sampling count"),
            Flag("timeout-ms", "N", "10000", "per-request deadline"),
            Flag("cache", "N", "1024", "estimate cache entries"),
            Flag("idle-timeout-ms", "N", "30000", "keep-alive idle connection timeout"),
            Flag("conn-requests", "N", "1000", "max requests per connection"),
        ]),
        ("durability", &[
            Flag("journal-dir", "DIR", "", "journal jobs and training runs for crash recovery"),
            Flag("journal-compact-bytes", "N", "4194304", "auto-compact threshold on replay; 0 disables"),
            Flag("job-id-base", "N", "0", "start job ids after N; the router sets it per shard"),
        ]),
        ("training (POST /train)", &[
            Flag("promote-max-qerror", "Q", "1000", "promotion gate: candidate holdout p95 Q-Error ceiling"),
        ]),
        ("quality + debug", &[
            Flag("quality-sample", "F", "0.01", "fraction of estimates shadow-scored"),
            Flag("quality-window", "N", "256", "per-model sliding window size"),
            Flag("quality-alert-qerror", "Q", "100", "audit-log threshold"),
            Flag("quality-audit", "FILE", "", "JSONL audit sink for threshold breaches"),
            Flag("flight-capacity", "N", "512", "request flight-recorder ring size"),
            Flag("slow-ms", "N", "250", "slow-request log threshold"),
        ]),
        OBS,
    ]),
    cmd("router", "[--flags]   (docs/SHARDING.md)", router_cmd, &[
        ("topology", &[
            ADDR,
            Flag("workers", "N", "2", "worker processes (shards) to spawn"),
            Flag("models", "SPEC,SPEC", "", "preload models: name[@slot]=model.json[=datadir]"),
            Flag("store-root", "DIR", "sam-shards", "per-shard job stores: DIR/shard-N"),
            Flag("worker-cmd", "CMD", "", "worker command (else this binary's serve)"),
            Flag("worker-flags", "FLAGS", "", "extra flags appended to every worker command line"),
        ]),
        ("supervision", &[
            Flag("health-interval-ms", "N", "200", "health-probe period"),
            Flag("probe-timeout-ms", "N", "1000", "per-probe socket timeout"),
            Flag("proxy-timeout-ms", "N", "120000", "proxied request timeout"),
            Flag("restart-backoff-ms", "N", "100", "restart backoff base after a worker death"),
            Flag("restart-backoff-cap-ms", "N", "5000", "restart backoff ceiling"),
            Flag("retry-wait-ms", "N", "2000", "wait for a shard before retrying an idempotent request"),
        ]),
        OBS,
    ]),
    Command { operands: 1, ..cmd("journal compact", "DIR", journal_compact, &[]) },
    cmd("workgen synth", "[--flags]   (docs/WORKGEN.md)", workgen_synth, &[
        ("synthesis", &[
            PROFILE,
            SEED,
            Flag("count", "N", "", "queries to emit (else the profile's count)"),
            Flag("label", "BOOL", "false", "true: label each query with its true cardinality"),
            Flag("out", "FILE", "", "write the workload here instead of stdout"),
        ]),
        TARGET,
    ]),
    cmd("workgen mine", "[--flags]   (docs/WORKGEN.md)", workgen_mine, &[
        ("adversarial hard-query mining", &[
            Flag("model", "FILE", "", "trained model to attack (else trains one)"),
            Flag("seeds", "FILE", "", "seed queries (else synthesized: --profile, --count)"),
            PROFILE,
            COUNT.or("64"),
            Flag("top-k", "N", "10", "hard queries to keep"),
            Flag("rounds", "N", "8", "mutation rounds"),
            Flag("pool", "N", "16", "survivor pool size"),
            Flag("mutants", "N", "4", "mutants per survivor per round"),
            Flag("samples", "N", "64", "estimation samples per score"),
            SEED,
            Flag("out", "FILE", "", "write the worst set here as a labelled workload"),
        ]),
        ("attack target workload (without --model)", &[QUERIES.or("500"), WORKLOAD]),
        FIT,
        TARGET,
    ]),
    cmd("workgen load", "[--flags]   (docs/WORKGEN.md)", workgen_load, &[
        ("open-loop replay against a live server", &[
            Flag("addr", "HOST:PORT", "127.0.0.1:8080", "the server"),
            Flag("model", "NAME", "default", "registry model name"),
            Flag("rate", "R", "100", "requests per second"),
            Flag("connections", "N", "4", "concurrent connections"),
            Flag("duration-ms", "N", "10000", "run length"),
            Flag("samples", "N", "64", "progressive samples per estimate"),
            Flag("timeout-ms", "N", "10000", "per-request timeout"),
            Flag("workload", "FILE", "", "replay this trace (else one is synthesized)"),
            Flag("seeds", "FILE", "", "also replay this mined set, interleaved; per-class latency"),
        ]),
        ("trace synthesis (without --workload)", &[PROFILE, SEED, COUNT.or("256")]),
        TARGET,
    ]),
];

/// A command line checked against its command's flag table.
struct Args {
    cmd: &'static Command,
    /// `--key value` pairs in command-line order, each key once.
    flags: Vec<(String, String)>,
    operands: Vec<String>,
}

impl Args {
    /// Split `argv` (after the program name) into words and `--key value`
    /// pairs, pick the table the words name, and refuse a repeated flag,
    /// any flag the table lacks and any stray word. `Ok(None)`: `--help`
    /// was given and printed.
    fn parse(argv: &[String]) -> Result<Option<Args>, String> {
        let (mut words, mut flags, mut help) = (Vec::new(), Vec::new(), false);
        let mut argv = argv.iter();
        while let Some(arg) = argv.next() {
            match arg.strip_prefix("--") {
                // The one valueless flag.
                Some("help") => help = true,
                Some(key) if flags.iter().any(|(k, _)| k == key) => {
                    return Err(format!("--{key} is given twice"));
                }
                Some(key) => match argv.next() {
                    Some(value) => flags.push((key.to_string(), value.clone())),
                    None => return Err(format!("--{key} needs a value")),
                },
                None => words.push(arg.as_str()),
            }
        }
        let two = words.iter().take(2).copied().collect::<Vec<_>>().join(" ");
        let (name, rest) = match words.as_slice() {
            [] => return Err(usage()),
            ["train", rest @ ..] if flags.iter().any(|(k, _)| k == "addr") => {
                ("train --addr".to_string(), rest)
            }
            [_, _, rest @ ..] if COMMANDS.iter().any(|c| c.name == two) => (two, rest),
            [one, rest @ ..] => (one.to_string(), rest),
        };
        let prefix = format!("{name} ");
        let family = COMMANDS
            .iter()
            .filter(|c| c.name == name || c.name.starts_with(&prefix));
        if help && family.clone().count() > 0 {
            family.for_each(Command::print);
            return Ok(None);
        }
        let Some(cmd) = COMMANDS.iter().find(|c| c.name == name) else {
            let actions: Vec<&str> = family.map(|c| &c.name[prefix.len()..]).collect();
            return Err(match actions.as_slice() {
                [] => format!("unknown subcommand {name:?}\n{}", usage()),
                _ => format!("usage: sam-cli {name} <{}> [--flags]", actions.join("|")),
            });
        };
        // `--addr` would take `--help` as its value: point at `train --help`.
        let help_at = cmd.name.split(" --").next().unwrap_or(cmd.name);
        let refuse = |what| format!("{what} for `sam-cli {name}`; see `sam-cli {help_at} --help`");
        if let Some((key, _)) = flags.iter().find(|(k, _)| cmd.flag(k).is_none()) {
            return Err(refuse(format!("unknown flag --{key}")));
        }
        match rest.get(cmd.operands) {
            Some(word) => Err(refuse(format!("unexpected argument {word:?}"))),
            None if rest.len() < cmd.operands => {
                Err(format!("usage: sam-cli {} {}", cmd.name, cmd.usage))
            }
            None => {
                let operands = rest.iter().map(|w| w.to_string()).collect();
                Ok(Some(Args {
                    cmd,
                    flags,
                    operands,
                }))
            }
        }
    }

    /// `--key`'s value, else its table default. Panics in every build when
    /// the command's table has no row for `key`, so a missing row fails
    /// the first test that reaches it instead of defaulting silently.
    fn get(&self, key: &str) -> Option<&str> {
        let name = self.cmd.name;
        let Some(&Flag(.., default, _)) = self.cmd.flag(key) else {
            panic!("`sam-cli {name}` reads --{key}, which its flag table lacks");
        };
        let given = self.flags.iter().find(|(k, _)| k == key);
        given
            .map(|(_, v)| v.as_str())
            .or(Some(default).filter(|d| !d.is_empty()))
    }

    fn required(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("--{key} is required"))
    }

    /// `--key`'s value or default, parsed; `None` when it has neither.
    fn opt<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        let parse = |v: &str| v.parse().map_err(|_| format!("--{key}: bad value {v:?}"));
        self.get(key).map(parse).transpose()
    }

    fn num<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.opt(key)?.ok_or_else(|| format!("--{key} is required"))
    }
}

fn usage() -> String {
    let mut names: Vec<&str> = COMMANDS
        .iter()
        .filter_map(|c| c.name.split(' ').next())
        .collect();
    names.dedup();
    let names = names.join("|");
    format!("usage: sam-cli <{names}> [--flags]\n`sam-cli <cmd> --help` prints a command's flags")
}

fn run() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match Args::parse(&argv)? {
        Some(args) => (args.cmd.run)(&args),
        None => Ok(()),
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

fn build_workload(db: &Database, args: &Args) -> Result<Workload, String> {
    let queries = match args.get("workload") {
        Some(path) => load_workload_queries(path)?,
        None => {
            let n: usize = args.num("queries")?;
            let seed: u64 = args.num("seed")?;
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

/// Fit a model in process with the training flags. `--checkpoint-dir DIR
/// [--checkpoint-every N]`: atomic training snapshots every N epochs; an
/// interrupted run restarted with the same flags auto-resumes bit-for-bit.
fn fit(
    schema: &DatabaseSchema,
    stats: &DatabaseStats,
    workload: &Workload,
    args: &Args,
) -> Result<TrainedSam, String> {
    let mut config = SamConfig::default();
    config.train.epochs = args.num("epochs")?;
    config.train.seed = args.num("seed")?;
    config.model.seed = config.train.seed;
    if let Some(dir) = args.get("checkpoint-dir") {
        let every: usize = args.num("checkpoint-every")?;
        config.train.checkpoint = Some(sam::ar::CheckpointConfig::new(Path::new(dir), every));
    }
    Sam::fit(schema, stats, workload, &config).map_err(|e| e.to_string())
}

/// A saved model for `schema`, frozen as trained (with an empty report).
fn load_trained(path: &str, schema: &DatabaseSchema) -> Result<TrainedSam, String> {
    let json = fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let (model, model_schema) = sam::ar::load_model(&json).map_err(|e| e.to_string())?;
    if &model_schema != schema {
        return Err(format!("{path}: its schema is not the target database's"));
    }
    println!("loaded trained model from {path}");
    let report = sam::ar::TrainReport {
        epoch_losses: vec![],
        constraints_processed: 0,
        wall_seconds: 0.0,
    };
    Ok(Sam::from_frozen(model_schema, model, report))
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
    let dataset = args.required("dataset")?;
    let rows: usize = args.num("rows")?;
    let seed: u64 = args.num("seed")?;
    let db = synthetic(dataset, rows, seed)?;
    let stats = DatabaseStats::from_database(&db);
    println!(
        "dataset {dataset}: {} tables, {} total rows",
        db.tables().len(),
        db.total_rows()
    );

    let workload = build_workload(&db, args)?;
    println!("workload: {} labelled queries", workload.len());
    let trained = fit(db.schema(), &stats, &workload, args)?;
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
    let rows: usize = args.num("rows")?;
    let seed: u64 = args.num("seed")?;
    let db = synthetic(dataset, rows, seed)?;
    let mut files = save_database(&db, out)?;

    // The no-data-access bundle: stats.json + a labelled workload sample.
    let stats = DatabaseStats::from_database(&db);
    let stats_path = Path::new(out).join("stats.json");
    fs::write(&stats_path, StatsFile::from_stats(&stats).to_json())
        .map_err(|e| format!("write {stats_path:?}: {e}"))?;
    files.push(stats_path);
    let workload = build_workload(&db, args)?;
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

fn train_local(args: &Args) -> Result<(), String> {
    let trace_out = setup_obs(args)?;
    let schema_path = args.required("schema")?;
    let data_dir = args.required("data")?;
    let model_out = args.required("model-out")?;
    let db = load_database(schema_path, data_dir)?;
    let stats = DatabaseStats::from_database(&db);
    let workload = build_workload(&db, args)?;
    println!(
        "loaded {} tables; workload of {} queries",
        db.tables().len(),
        workload.len()
    );
    let trained = fit(db.schema(), &stats, &workload, args)?;
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
    let retries: u32 = args.num("retries")?;
    let workload_path = args.required("workload").map_err(|_| {
        "remote mode needs --workload FILE (a labelled workload to upload)".to_string()
    })?;
    let body = fs::read(workload_path).map_err(|e| format!("read {workload_path}: {e}"))?;

    // Assemble the /train query string from flags; only explicit flags are
    // forwarded so the server's defaults stay authoritative.
    let model = args.required("model")?;
    let mut query = format!("model={model}");
    for &Flag(name, ..) in TRAIN_PARAMS.1 {
        if let Some(v) = args.get(name) {
            query.push_str(&format!("&{}={v}", name.replace('-', "_")));
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

    let follow: bool = args.num("follow")?;
    if !follow {
        println!("poll GET http://{addr}/jobs/{job_id} for progress, or rerun with --follow true");
        return Ok(());
    }

    let poll = std::time::Duration::from_millis(args.num::<u64>("poll-ms")?.max(10));
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
    let seed: u64 = args.num("seed")?;

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
            let workload = build_workload(&db, args)?;
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
        Some(path) => load_trained(path, &db_schema)?,
        None => {
            let trained = fit(&db_schema, &stats, &workload, args)?;
            println!("trained in {:.1}s", trained.report.wall_seconds);
            trained
        }
    };

    let (generated, report) = trained
        .generate(&GenerationConfig {
            foj_samples: args.num("foj-samples")?,
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
    let workload = build_workload(&original, args)?;
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
    let workload = build_workload(&db, args)?;
    let trained = fit(db.schema(), &stats, &workload, args)?;
    println!("model trained; enter one SQL query per line (Ctrl-D to end):");

    let mut rng = StdRng::seed_from_u64(args.num("seed")?);
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
    let trace_out = setup_obs(args)?;
    // name=path loads the model alone; name=path=datadir also attaches the
    // reference relations ({table}.csv under datadir) so the quality
    // monitor scores in exact mode. Every spec is checked before the port
    // is bound.
    let models = model_specs(args)?;
    if let Some(pinned) = models.iter().find(|m| m.pin.is_some()) {
        return Err(format!(
            "--models: {} is pinned to a shard (@slot), which only `sam-cli router` has",
            pinned.name
        ));
    }
    let config = sam::serve::ServeConfig {
        addr: args.required("addr")?.to_string(),
        queue_capacity: args.num("queue")?,
        default_samples: args.num("samples")?,
        default_timeout_ms: args.num("timeout-ms")?,
        cache_capacity: args.num("cache")?,
        idle_timeout_ms: args.num("idle-timeout-ms")?,
        max_conn_requests: args.num("conn-requests")?,
        journal_dir: args.get("journal-dir").map(PathBuf::from),
        journal_compact_bytes: match args.num::<u64>("journal-compact-bytes")? {
            0 => None, // 0 disables replay-time auto-compaction
            n => Some(n),
        },
        quality_sample: args.num("quality-sample")?,
        quality_window: args.num("quality-window")?,
        quality_alert_qerror: args.num("quality-alert-qerror")?,
        quality_audit: args.get("quality-audit").map(PathBuf::from),
        flight_capacity: args.num("flight-capacity")?,
        slow_query_ms: args.num("slow-ms")?,
        promote_max_qerror: args.num("promote-max-qerror")?,
        job_id_base: args.num("job-id-base")?,
    };
    let journalled = config.journal_dir.is_some();
    let server = sam::serve::Server::start(config).map_err(|e| e.to_string())?;
    for spec in &models {
        let data = spec.data.as_deref();
        let registry = server.registry();
        let version = registry.load_file_with_data(&spec.name, &spec.path, data);
        let version = version.map_err(|e| e.to_string())?;
        let with = data
            .map(|d| format!(" (reference data: {d})"))
            .unwrap_or_default();
        println!(
            "loaded model {} v{version} from {}{with}",
            spec.name, spec.path
        );
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
    // Embedders use `Server::shutdown` to drain.
    serve_until_killed(&trace_out)
}

/// `--models`: comma-separated `name[@slot]=path[=datadir]` specs, parsed
/// by the router's grammar for both `serve` and `router`.
fn model_specs(args: &Args) -> Result<Vec<sam::router::ModelSpec>, String> {
    let specs = args.get("models").into_iter().flat_map(|m| m.split(','));
    specs.map(sam::router::ModelSpec::parse).collect()
}

/// Serve until the process is terminated; all work happens on the server's
/// or router's own threads. With --trace-out the collected trace is
/// re-exported every 30 s (the collector is non-draining, so each write is
/// the full trace).
fn serve_until_killed(trace_out: &Option<String>) -> Result<(), String> {
    let interval = if trace_out.is_some() { 30 } else { 3600 };
    loop {
        std::thread::sleep(std::time::Duration::from_secs(interval));
        write_trace(trace_out)?;
    }
}

/// `sam-cli router` — fault-tolerant sharded serving: spawn and supervise a
/// pool of `sam-cli serve` worker processes, each owning a consistent-hash
/// partition of the model namespace, and front them on one address speaking
/// the plain `sam-serve` HTTP surface. See `docs/SHARDING.md`.
fn router_cmd(args: &Args) -> Result<(), String> {
    let trace_out = setup_obs(args)?;
    let mut config = sam::router::RouterConfig {
        addr: args.required("addr")?.to_string(),
        workers: args.num("workers")?,
        store_root: PathBuf::from(args.required("store-root")?),
        health_interval_ms: args.num("health-interval-ms")?,
        probe_timeout_ms: args.num("probe-timeout-ms")?,
        proxy_timeout_ms: args.num("proxy-timeout-ms")?,
        restart_backoff_ms: args.num("restart-backoff-ms")?,
        restart_backoff_cap_ms: args.num("restart-backoff-cap-ms")?,
        retry_wait_ms: args.num("retry-wait-ms")?,
        ..Default::default()
    };
    if let Some(flags) = args.get("worker-flags") {
        config.worker_flags = flags.split_whitespace().map(str::to_string).collect();
    }
    // Workers default to this very binary's `serve` subcommand, whose table
    // checks the worker flags here, before any worker is spawned; an
    // explicit `--worker-cmd` swaps in anything speaking the same surface.
    config.worker_cmd = match args.get("worker-cmd") {
        Some(cmd) => cmd.split_whitespace().map(str::to_string).collect(),
        None => {
            let refuse = |what: String| format!("--worker-flags: {what}");
            let argv = [&["serve".to_string()], config.worker_flags.as_slice()].concat();
            let worker = Args::parse(&argv).map_err(refuse)?;
            let worker = worker.ok_or_else(|| refuse("--help is not a worker flag".into()))?;
            // The router gives each worker these itself (its `worker_args`).
            let own = ["addr", "journal-dir", "job-id-base", "models"];
            if let Some((key, _)) = worker.flags.iter().find(|(k, _)| own.contains(&k.as_str())) {
                return Err(refuse(format!(
                    "--{key} is set by the router for each worker"
                )));
            }
            let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
            vec![exe.display().to_string(), "serve".to_string()]
        }
    };
    config.models = model_specs(args)?;
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
    // Supervision, routing, and rebalance all run on the router's threads.
    serve_until_killed(&trace_out)
}

/// `sam-cli journal compact DIR` — offline journal maintenance: replay the
/// job log (recovery runs first: torn tails truncated, corrupt records
/// quarantined), fold it into `snapshot.jsonl`, and truncate the log. Safe
/// to run only while no server is serving the directory.
fn journal_compact(args: &Args) -> Result<(), String> {
    let dir = &args.operands[0];
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

// `sam-cli workgen <synth|mine|load>` — workload tooling built on
// `sam-workgen`: deterministic query synthesis from a TOML profile,
// adversarial hard-query mining against a trained model, and open-loop load
// replay against a live `sam-cli serve`. See `docs/WORKGEN.md`.

/// The database every workgen action runs against: `--schema` + `--data`
/// CSVs, or a synthetic `--dataset` (sized by `--rows`, seeded separately
/// from the synthesis `--seed` so workload and data vary independently).
fn workgen_database(args: &Args) -> Result<Database, String> {
    match (args.get("schema"), args.get("data")) {
        (Some(schema), Some(data)) => load_database(schema, data),
        (None, None) => {
            let dataset = args.required("dataset")?;
            let rows: usize = args.num("rows")?;
            let seed: u64 = args.num("data-seed")?;
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
    let seed: u64 = args.num("seed")?;
    let count: u64 = args.opt("count")?.unwrap_or(profile.queries);
    let label: bool = args.num("label")?;
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
        Some(path) => load_trained(path, db.schema())?,
        None => {
            let workload = build_workload(&db, args)?;
            let trained = fit(db.schema(), &stats, &workload, args)?;
            println!(
                "trained attack target in {:.1}s",
                trained.report.wall_seconds
            );
            trained
        }
    };

    // Seed queries: an explicit file, or a synthesized baseline batch.
    let seed: u64 = args.num("seed")?;
    let seeds = match args.get("seeds") {
        Some(path) => load_workload_queries(path)?,
        None => {
            let profile = workgen_profile(args)?;
            let target = sam::workgen::SynthTarget::from_database(&db, &profile)
                .map_err(|e| e.to_string())?;
            sam::workgen::synthesize(&target, &profile, seed, args.num("count")?)
        }
    };

    let config = sam::workgen::MinerConfig {
        top_k: args.num("top-k")?,
        rounds: args.num("rounds")?,
        pool: args.num("pool")?,
        mutants: args.num("mutants")?,
        samples: args.num("samples")?,
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
            let seed: u64 = args.num("seed")?;
            sam::workgen::synthesize(&target, &profile, seed, args.num("count")?)
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
        addr: args.required("addr")?.to_string(),
        model: args.required("model")?.to_string(),
        rate: args.num("rate")?,
        connections: args.num("connections")?,
        duration: std::time::Duration::from_millis(args.num("duration-ms")?),
        samples: args.num("samples")?,
        timeout_ms: args.num("timeout-ms")?,
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
