//! `sam-benchmark`: one command runs one workload from one seed, prints
//! every metric by name and unit, checks the outputs, and ends with the
//! result object the benchmark contract asks for. See README.md.

mod calibrate;
mod client;
mod inputs;
mod layers;
mod pipeline;
mod procs;
mod report;
mod serving;
mod sizes;
mod stats;
mod trace;

use report::{Outcome, WORKLOADS};
use serde_json::{json, Value};
use sizes::Sizes;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// Everything a workload needs to run once.
pub struct Ctx {
    pub seed: u64,
    pub sizes: Sizes,
    pub traced: bool,
    /// When this process started: the origin of `setup_s`.
    pub process_start: Instant,
    /// The `sam-cli` binary serving workloads spawn.
    pub sam_cli: PathBuf,
    /// Scratch directory of this run, under the output directory.
    pub run_dir: PathBuf,
    pub tracer: Tracer,
}

const USAGE: &str = "usage:
  sam-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--sam-cli PATH] [--out-dir DIR]
  sam-benchmark --calibrate [--sets N] [--runs N] [--seconds S] [--out-dir DIR]
  sam-benchmark --compare A.json B.json
workloads: pipeline_join serve_distinct serve_repeat router_repeat";

pub struct Args {
    flags: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut flags = Vec::new();
        let mut positional = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            match argv[i].strip_prefix("--") {
                Some("calibrate") => flags.push(("calibrate".to_string(), String::new())),
                Some("compare") => flags.push(("compare".to_string(), String::new())),
                Some(key) => {
                    let value = argv.get(i + 1).ok_or(format!("--{key} needs a value"))?;
                    flags.push((key.to_string(), value.clone()));
                    i += 1;
                }
                None => positional.push(argv[i].clone()),
            }
            i += 1;
        }
        Ok(Args { flags, positional })
    }

    pub fn get(&self, key: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    pub fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            Some(v) => v.parse().map_err(|_| format!("--{key}: bad value {v:?}")),
            None => Ok(default),
        }
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = Args::parse(&argv).and_then(|args| {
        if args.get("calibrate").is_some() {
            calibrate::calibrate(&args)
        } else if args.get("compare").is_some() {
            calibrate::compare(&args.positional)
        } else {
            run_workload(&args, process_start)
        }
    });
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("sam-benchmark: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

pub fn out_dir(args: &Args) -> PathBuf {
    PathBuf::from(args.get("out-dir").unwrap_or("benchmark/out"))
}

fn run_workload(args: &Args, process_start: Instant) -> Result<ExitCode, String> {
    let workload = args
        .get("workload")
        .ok_or("--workload is required")?
        .to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed: u64 = args.num("seed", 0)?;
    let seconds: f64 = args.num("seconds", sizes::RUN_SECONDS)?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is out of range"));
    }
    let traced = match args.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
    };
    let sam_cli = match args.get("sam-cli") {
        Some(path) => PathBuf::from(path),
        // Built into the same target directory by run.sh.
        None => std::env::current_exe()
            .map_err(|e| format!("current_exe: {e}"))?
            .with_file_name("sam-cli"),
    };
    if workload != "pipeline_join" && !sam_cli.is_file() {
        return Err(format!("sam-cli not found at {}", sam_cli.display()));
    }

    let out_dir = out_dir(args);
    let run_dir = out_dir.join(format!("run-{workload}-{seed}-{}", std::process::id()));
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("create {}: {e}", run_dir.display()))?;
    // Children resolve the model path from their own working directory.
    let run_dir = run_dir
        .canonicalize()
        .map_err(|e| format!("canonicalize {}: {e}", run_dir.display()))?;

    let mut ctx = Ctx {
        seed,
        sizes: Sizes::for_seconds(seconds),
        traced,
        process_start,
        sam_cli,
        run_dir: run_dir.clone(),
        tracer: Tracer::new(traced),
    };
    let cpu_before = procs::own_cpu_seconds();
    let outcome = match workload.as_str() {
        "pipeline_join" => pipeline::run(&mut ctx),
        "serve_distinct" => serving::run(&mut ctx, serving::Kind::Distinct),
        "serve_repeat" => serving::run(&mut ctx, serving::Kind::Repeat),
        _ => serving::run(&mut ctx, serving::Kind::Router),
    };
    let mut outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("{workload}: {e} (logs kept in {})", run_dir.display());
            return Ok(ExitCode::from(1));
        }
    };
    if traced {
        outcome.set("bench.cpu_s", procs::own_cpu_seconds() - cpu_before);
        let path = out_dir.join(format!("trace-{workload}.json"));
        ctx.tracer
            .write_chrome(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("{} spans written to {}", ctx.tracer.len(), path.display());
        println!(
            "{:<28} {:>8} {:>14} {:>14}",
            "span", "count", "total_ms", "self_ms"
        );
        for (name, row) in ctx.tracer.self_times() {
            println!(
                "{name:<28} {:>8} {:>14.3} {:>14.3}",
                row.count, row.total_ms, row.self_ms
            );
        }
    }

    outcome.print_table(traced);
    let result = outcome.result_json(traced);
    write_bench_json(
        &out_dir, &workload, seed, seconds, traced, &outcome, &result,
    )?;
    if outcome.correct() {
        let _ = std::fs::remove_dir_all(&run_dir);
    } else {
        eprintln!(
            "{workload}: checks failed (logs kept in {})",
            run_dir.display()
        );
    }
    println!(
        "{}",
        serde_json::to_string(&result).expect("a JSON tree serialises")
    );
    Ok(ExitCode::SUCCESS)
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// `BENCH.json`: the run with what is needed to reproduce and compare it.
fn write_bench_json(
    out_dir: &Path,
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    outcome: &Outcome,
    result: &Value,
) -> Result<(), String> {
    let checks: Vec<Value> = outcome
        .checks
        .iter()
        .map(|(name, ok)| json!({"name": name.clone(), "ok": *ok}))
        .collect();
    let doc = json!({
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "traced": traced,
        "git_sha": command_line("git", &["rev-parse", "HEAD"]),
        "rustc": command_line("rustc", &["--version"]),
        "nproc": std::thread::available_parallelism().map_or(0, usize::from),
        "rayon_num_threads": std::env::var("RAYON_NUM_THREADS").unwrap_or_else(|_| "unset".to_string()),
        "sizes": Value::Object(outcome.facts.clone()),
        "checks": Value::Array(checks),
        "result": result.clone(),
    });
    let path = out_dir.join("BENCH.json");
    let text = serde_json::to_string_pretty(&doc).expect("a JSON tree serialises");
    std::fs::write(&path, text + "\n").map_err(|e| format!("write {}: {e}", path.display()))
}
