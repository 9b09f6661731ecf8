//! `sam-cli`'s flag tables: an unknown or repeated flag or a stray word is
//! refused before any work starts (no port bound, no file written, no connection
//! opened), `--help` prints each table with its defaults, and every
//! pipeline subcommand runs at smoke size with the flags `README.md` shows
//! for it, so a flag the code reads but its table lacks fails here.

use std::io::ErrorKind;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sam_cli_flags_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run `sam-cli args` in `dir` with empty stdin. A process still running
/// after 20 s (a server that accepted its command line) is killed.
fn sam_cli(dir: &Path, args: &[&str]) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_sam-cli"))
        .args(args)
        .current_dir(dir)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn sam-cli");
    let deadline = Instant::now() + Duration::from_secs(20);
    while child.try_wait().expect("poll sam-cli").is_none() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    let _ = child.kill();
    child.wait_with_output().expect("collect sam-cli output")
}

/// `sam-cli args` exits 1 at once with an error naming `word`, before it
/// announces a listener.
fn assert_refused(dir: &Path, args: &[&str], word: &str) {
    assert_refused_with(&sam_cli(dir, args), args, word);
}

fn assert_refused_with(out: &Output, args: &[&str], word: &str) {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(1),
        "`sam-cli {}` was not refused; stdout: {stdout} stderr: {stderr}",
        args.join(" ")
    );
    assert!(
        stderr.contains(word),
        "`sam-cli {}`: the error does not name {word}: {stderr}",
        args.join(" ")
    );
    assert!(
        !stdout.contains("listening on"),
        "it served first: {stdout}"
    );
}

fn help(args: &[&str]) -> String {
    let out = sam_cli(&std::env::temp_dir(), args);
    assert!(out.status.success(), "`sam-cli {}` failed", args.join(" "));
    String::from_utf8(out.stdout).expect("utf-8 help")
}

/// `line` split at whitespace, as a shell would split it unquoted.
fn words(line: &str) -> Vec<&str> {
    line.split_whitespace().collect()
}

#[test]
fn a_misspelled_serve_flag_is_refused_before_the_port_is_bound() {
    let dir = scratch("serve");
    for (flags, named) in [
        ("--max_batch 4", "--max_batch"),
        ("--workers 2", "--workers"),
        ("--max-batch 16", "--max-batch"),
    ] {
        let line = format!("serve --addr 127.0.0.1:0 {flags}");
        assert_refused(&dir, &words(&line), named);
    }
}

#[test]
fn a_misspelled_synth_flag_writes_no_workload() {
    let dir = scratch("synth");
    let args = words("workgen synth --dataset census --rows 300 --cuont 5 --out F");
    assert_refused(&dir, &args, "--cuont");
    assert!(!dir.join("F").exists(), "the workload file was written");
}

#[test]
fn a_local_flag_in_remote_training_is_refused_before_connecting() {
    let dir = scratch("remote");
    std::fs::write(dir.join("F"), "SELECT COUNT(*) FROM A -- card=1\n").unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    listener.set_nonblocking(true).unwrap();
    let addr = listener.local_addr().unwrap();
    let line = format!("train --addr {addr} --workload F --model-out m.json");
    assert_refused(&dir, &words(&line), "--model-out");
    match listener.accept() {
        Err(e) if e.kind() == ErrorKind::WouldBlock => {}
        other => panic!("sam-cli connected before refusing its flags: {other:?}"),
    }
}

/// Pids of live processes whose command line mentions `needle`; each one
/// found is killed so a failing run leaves nothing behind.
fn kill_processes_naming(needle: &str) -> Vec<u32> {
    let mut found = Vec::new();
    for entry in std::fs::read_dir("/proc").expect("read /proc").flatten() {
        let Ok(pid) = entry.file_name().to_string_lossy().parse::<u32>() else {
            continue;
        };
        let cmdline = std::fs::read(entry.path().join("cmdline")).unwrap_or_default();
        if String::from_utf8_lossy(&cmdline).contains(needle) && pid != std::process::id() {
            let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
            found.push(pid);
        }
    }
    found
}

/// A flag `serve` lacks, `--help` (a worker would print help and exit), a
/// repeated flag, and a flag the router sets for each worker itself.
#[test]
fn a_bad_worker_flag_stops_the_router_before_any_worker_starts() {
    let dir = scratch("router");
    for (i, (flags, named)) in [
        ("--max_batch 4", "--max_batch"),
        ("--help", "--help is not a worker flag"),
        ("--cache 4 --cache 8", "--cache is given twice"),
        ("--addr 127.0.0.1:9", "--addr is set by the router"),
        ("--models m=m.json", "--models is set by the router"),
    ]
    .into_iter()
    .enumerate()
    {
        let store = dir.join(format!("shards{i}")).display().to_string();
        let line = format!("router --addr 127.0.0.1:0 --workers 1 --store-root {store}");
        let mut args = words(&line);
        args.extend(["--worker-flags", flags]);
        let out = sam_cli(&dir, &args);
        let left = kill_processes_naming(&store);
        assert_refused_with(&out, &args, named);
        assert!(left.is_empty(), "worker processes left running: {left:?}");
    }
}

#[test]
fn a_repeated_flag_is_refused() {
    let dir = scratch("twice");
    let args = words("workgen synth --dataset census --rows 300 --count 5 --count 7 --out F");
    assert_refused(&dir, &args, "--count is given twice");
    assert!(!dir.join("F").exists(), "the workload file was written");
    let args = words("serve --addr 127.0.0.1:0 --addr 127.0.0.1:0");
    assert_refused(&dir, &args, "--addr is given twice");
}

#[test]
fn stray_words_are_refused() {
    let dir = scratch("stray");
    let demo = words("demo stray --rows 300 --queries 8 --epochs 1");
    assert_refused(&dir, &demo, "\"stray\"");
    assert_refused(&dir, &["serve", "8080"], "\"8080\"");
    assert_refused(&dir, &words("journal compact a b"), "\"b\"");
    assert_refused(&dir, &["workgen", "nope"], "synth|mine|load");
}

#[test]
fn a_pinned_model_is_refused_on_serve() {
    let dir = scratch("pin");
    let args = words("serve --addr 127.0.0.1:0 --models a@1=x");
    assert_refused(&dir, &args, "router");
}

/// A help line for `--flag` that ends with `(default value)`.
fn shows_default(help: &str, flag: &str, value: &str) -> bool {
    let default = format!("(default {value})");
    help.lines()
        .any(|l| l.trim_start().starts_with(flag) && l.ends_with(&default))
}

#[test]
fn help_prints_each_table_with_its_defaults() {
    let mine = help(&["workgen", "mine", "--help"]);
    assert!(shows_default(&mine, "--count N", "64"), "{mine}");
    assert!(
        !mine.contains("--rate"),
        "mine's help shows load's flags: {mine}"
    );
    let load = help(&["workgen", "load", "--help"]);
    assert!(shows_default(&load, "--samples N", "64"), "{load}");
    assert!(shows_default(&load, "--count N", "256"), "{load}");
    let train = help(&["train", "--help"]);
    assert!(
        train.contains("--model-out") && train.contains("--follow"),
        "{train}"
    );
    for cmd in words("demo export generate evaluate estimate serve router journal") {
        let text = help(&[cmd, "--help"]);
        assert!(text.starts_with(&format!("usage: sam-cli {cmd}")), "{text}");
    }
}

fn assert_runs(dir: &Path, line: &str) -> String {
    let out = sam_cli(dir, &words(line));
    assert!(
        out.status.success(),
        "`sam-cli {line}` failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// The README's CLI walk-through at smoke size: a command that reads a
/// flag its table lacks panics here.
#[test]
fn every_pipeline_subcommand_runs_with_its_documented_flags() {
    let dir = scratch("pipeline");
    let small = "--queries 24 --epochs 1 --seed 3";
    assert_runs(
        &dir,
        "export --dataset census --rows 300 --queries 24 --seed 3 --out orig",
    );
    let schema = "--schema orig/schema.json";
    assert_runs(
        &dir,
        &format!("train {schema} --data orig --model-out m.json {small}"),
    );
    let out = assert_runs(
        &dir,
        &format!(
            "generate {schema} --data orig --model m.json --foj-samples 400 --out gen {small}"
        ),
    );
    assert!(out.contains("loaded trained model"), "{out}");
    assert_runs(
        &dir,
        &format!(
            "generate {schema} --stats orig/stats.json --workload orig/workload.sql \
             --epochs 1 --foj-samples 400 --out free"
        ),
    );
    assert!(
        dir.join("free/census.csv").exists(),
        "data-free mode wrote nothing"
    );
    let line = format!("evaluate {schema} --original orig --generated gen --queries 24");
    assert!(assert_runs(&dir, &line).contains("performance deviation"));
    assert_runs(&dir, &format!("estimate {schema} --data orig {small}"));
    assert_runs(&dir, &format!("demo --dataset census --rows 300 {small}"));
    let data = format!("{schema} --data orig");
    assert_runs(
        &dir,
        &format!("workgen synth {data} --count 16 --label true --out wl.sql"),
    );
    let line = format!("workgen mine {data} --model m.json --seeds wl.sql --rounds 1 --samples 16");
    assert!(assert_runs(&dir, &line).contains("mined"));
}

#[test]
fn no_table_declares_a_flag_twice() {
    for cmd in words("demo export train generate evaluate estimate serve router journal workgen") {
        for table in help(&[cmd, "--help"]).split("usage: ").skip(1) {
            let mut seen = std::collections::HashSet::new();
            for row in table
                .lines()
                .filter_map(|l| l.trim_start().strip_prefix("--"))
            {
                let name = row.split_whitespace().next().unwrap_or_default();
                assert!(seen.insert(name), "--{name} is declared twice:\n{table}");
            }
        }
    }
}
