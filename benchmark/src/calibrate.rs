//! `--calibrate`: run sets of fresh-process runs of one commit against
//! itself (A/A) and hold every end-to-end metric to its bound.
//! `--compare A.json B.json`: judge two such sets, one per commit.

use crate::report::{EndToEnd, END_TO_END, WORKLOADS};
use crate::stats::{iqr_share, median, quartiles};
use crate::Args;
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

/// One run's end-to-end metrics.
struct Run {
    workload: String,
    seed: u64,
    metrics: BTreeMap<String, f64>,
}

/// Values of one (workload, metric) pair, in seed order.
type Series = BTreeMap<(String, String), Vec<(u64, f64)>>;

fn series(runs: &[Run]) -> Series {
    let mut table = Series::new();
    for run in runs {
        for (name, value) in &run.metrics {
            table
                .entry((run.workload.clone(), name.clone()))
                .or_default()
                .push((run.seed, *value));
        }
    }
    for values in table.values_mut() {
        values.sort_by_key(|(seed, _)| *seed);
    }
    table
}

fn values(points: &[(u64, f64)]) -> Vec<f64> {
    points.iter().map(|(_, v)| *v).collect()
}

/// Run one workload in a fresh process, as the driver does, and parse the
/// result object from the last line of its output.
fn run_once(args: &Args, workload: &str, seed: u64, seconds: f64) -> Result<Run, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .stderr(Stdio::inherit());
    for key in ["sam-cli", "out-dir"] {
        if let Some(value) = args.get(key) {
            command.arg(format!("--{key}")).arg(value);
        }
    }
    let output = command.output().map_err(|e| format!("spawn run: {e}"))?;
    if !output.status.success() {
        return Err(format!("{workload} seed {seed}: exit {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().ok_or("run printed nothing")?;
    let doc = serde_json::parse_value(last).map_err(|e| format!("result line: {e}"))?;
    if doc.get("correct").and_then(Value::as_bool) != Some(true)
        || doc.get("failed").and_then(Value::as_u64) != Some(0)
    {
        return Err(format!("{workload} seed {seed}: incorrect run: {last}"));
    }
    let Some(Value::Object(fields)) = doc.get("metrics") else {
        return Err("result line has no metrics".into());
    };
    let metrics = fields
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok(Run {
        workload: workload.to_string(),
        seed,
        metrics,
    })
}

fn write_set(path: &Path, runs: &[Run]) -> Result<(), String> {
    let rows: Vec<Value> = runs
        .iter()
        .map(|r| {
            let metrics: Vec<(String, Value)> =
                r.metrics.iter().map(|(k, v)| (k.clone(), json!(*v))).collect();
            json!({"workload": r.workload.clone(), "seed": r.seed, "metrics": Value::Object(metrics)})
        })
        .collect();
    let text = serde_json::to_string_pretty(&json!({"runs": Value::Array(rows)}))
        .expect("a JSON tree serialises");
    std::fs::write(path, text + "\n").map_err(|e| format!("write {}: {e}", path.display()))
}

fn read_set(path: &str) -> Result<Vec<Run>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let doc = serde_json::parse_value(&text).map_err(|e| format!("{path}: {e}"))?;
    let rows = doc
        .get("runs")
        .and_then(Value::as_array)
        .ok_or(format!("{path}: no \"runs\" array"))?;
    rows.iter()
        .map(|row| {
            let Some(Value::Object(fields)) = row.get("metrics") else {
                return Err(format!("{path}: run without metrics"));
            };
            Ok(Run {
                workload: row
                    .get("workload")
                    .and_then(Value::as_str)
                    .ok_or(format!("{path}: run without workload"))?
                    .to_string(),
                seed: row.get("seed").and_then(Value::as_u64).unwrap_or(0),
                metrics: fields
                    .iter()
                    .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                    .collect(),
            })
        })
        .collect()
}

pub fn calibrate(args: &Args) -> Result<ExitCode, String> {
    let sets: usize = args.num("sets", 3)?;
    let runs: u64 = args.num("runs", 10)?;
    let seconds: f64 = args.num("seconds", crate::sizes::RUN_SECONDS)?;
    let workloads: Vec<&str> = match args.get("workloads") {
        Some(list) => list.split(',').collect(),
        None => WORKLOADS.to_vec(),
    };
    if sets == 0 || runs < 2 {
        return Err("--calibrate needs at least one set of two runs".into());
    }
    let out_dir = crate::out_dir(args);
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;

    let mut per_set: Vec<Series> = Vec::new();
    for set in 0..sets {
        let mut done = Vec::new();
        // Seeds repeat across sets, so deterministic metrics must too;
        // workloads interleave so slow drift of the machine hits all alike.
        for seed in 1..=runs {
            for workload in &workloads {
                let run = run_once(args, workload, seed, seconds)?;
                eprintln!("set {set} {workload} seed {seed} done");
                done.push(run);
            }
        }
        let path = out_dir.join(format!("calibrate-set{set}.json"));
        write_set(&path, &done)?;
        eprintln!("set {set} written to {}", path.display());
        per_set.push(series(&done));
    }

    println!(
        "| workload | metric | {} | gap | spread | bound | verdict |",
        (0..sets)
            .map(|s| format!("median {s}"))
            .collect::<Vec<_>>()
            .join(" | ")
    );
    println!("|---|---|{}---|---|---|---|", "---|".repeat(sets));
    let mut failed = false;
    for workload in &workloads {
        for m in END_TO_END {
            let key = (workload.to_string(), m.name.to_string());
            let per: Vec<Vec<f64>> = per_set
                .iter()
                .map(|s| s.get(&key).map(|p| values(p)).unwrap_or_default())
                .collect();
            if per.iter().any(|v| v.len() < 2) {
                return Err(format!("{workload} did not report {}", m.name));
            }
            let medians: Vec<f64> = per.iter().map(|v| median(v)).collect();
            let (lo, hi) = medians
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            // Largest pairwise gap between set medians, as a share of the
            // smaller one; largest inter-quartile spread of any set.
            let gap = (hi - lo) / lo.abs();
            let spread = per.iter().map(|v| iqr_share(v)).fold(0.0, f64::max);
            let verdict = if gap > m.bound / 2.0 || (m.name != "setup_s" && spread > m.bound) {
                failed = true;
                "FAIL"
            } else if m.name != "setup_s" && spread > m.bound / 3.0 {
                "loose"
            } else {
                "ok"
            };
            println!(
                "| {workload} | {} | {} | {:.4} | {:.4} | {} | {verdict} |",
                m.name,
                medians
                    .iter()
                    .map(|v| format!("{v:.4}"))
                    .collect::<Vec<_>>()
                    .join(" | "),
                gap,
                spread,
                m.bound
            );
        }
    }
    Ok(if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

/// The verdict for one (workload, metric) pair, parent `a` against change
/// `b`, by the rule of the choosing-metrics guide (§6, §8).
fn verdict(m: &EndToEnd, a: &[(u64, f64)], b: &[(u64, f64)]) -> &'static str {
    let sign = if m.better == "higher" { -1.0 } else { 1.0 };
    let (va, vb) = (values(a), values(b));
    let (ma, mb) = (median(&va), median(&vb));
    // Positive = worse, as a share of the parent's median.
    let worsening = sign * (mb - ma) / ma.abs();
    let every_b_better = vb.iter().all(|&y| va.iter().all(|&x| sign * (y - x) < 0.0));
    let (q1, q3) = quartiles(&va);
    let parent_iqr = q3 - q1;
    if parent_iqr / ma.abs() > m.bound && !every_b_better {
        return "unresolved";
    }
    if worsening > m.bound {
        return "worse";
    }
    // Pairs are runs of the same seed; ties count for neither side.
    let pairs: Vec<(f64, f64)> = a
        .iter()
        .filter_map(|(seed, x)| b.iter().find(|(s, _)| s == seed).map(|(_, y)| (*x, *y)))
        .collect();
    let wins = pairs.iter().filter(|(x, y)| sign * (y - x) < 0.0).count();
    if !pairs.is_empty() && wins * 10 >= pairs.len() * 9 && (mb - ma).abs() > parent_iqr {
        "better"
    } else {
        "within"
    }
}

pub fn compare(files: &[String]) -> Result<ExitCode, String> {
    let [a, b] = files else {
        return Err("--compare takes two run-set files".into());
    };
    let (sa, sb) = (series(&read_set(a)?), series(&read_set(b)?));
    println!(
        "| workload | metric | A median [q1, q3] | B median [q1, q3] | change | bound | verdict |"
    );
    println!("|---|---|---|---|---|---|---|");
    let mut worse = false;
    for workload in WORKLOADS {
        for m in END_TO_END {
            let key = (workload.to_string(), m.name.to_string());
            let (Some(pa), Some(pb)) = (sa.get(&key), sb.get(&key)) else {
                continue;
            };
            if pa.len() < 2 || pb.len() < 2 {
                return Err(format!("{workload} {}: fewer than two runs", m.name));
            }
            let cell = |p: &[(u64, f64)]| {
                let v = values(p);
                let (q1, q3) = quartiles(&v);
                format!("{:.4} [{:.4}, {:.4}]", median(&v), q1, q3)
            };
            let change = median(&values(pb)) / median(&values(pa)) - 1.0;
            let v = verdict(m, pa, pb);
            worse |= v == "worse";
            println!(
                "| {workload} | {} ({} is better) | {} | {} | {:+.2} % | {} | {v} |",
                m.name,
                m.better,
                cell(pa),
                cell(pb),
                change * 100.0,
                m.bound
            );
        }
    }
    Ok(if worse {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: EndToEnd = EndToEnd {
        name: "latency",
        unit: "ms",
        better: "lower",
        bound: 0.10,
    };
    const HIGHER: EndToEnd = EndToEnd {
        name: "rate",
        unit: "1/s",
        better: "higher",
        bound: 0.10,
    };

    fn runs(values: &[f64]) -> Vec<(u64, f64)> {
        values
            .iter()
            .enumerate()
            .map(|(i, v)| (i as u64, *v))
            .collect()
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let parent = runs(&[
            100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0,
        ]);
        let same = runs(&[
            100.1, 100.9, 99.2, 100.4, 99.6, 100.0, 99.9, 100.2, 99.7, 100.1,
        ]);
        let slower: Vec<(u64, f64)> = parent.iter().map(|(s, v)| (*s, v * 1.2)).collect();
        let faster: Vec<(u64, f64)> = parent.iter().map(|(s, v)| (*s, v * 0.95)).collect();
        assert_eq!(verdict(&LOWER, &parent, &same), "within");
        assert_eq!(verdict(&LOWER, &parent, &slower), "worse");
        assert_eq!(verdict(&LOWER, &parent, &faster), "better");
        // For a rate the same numbers read the other way round.
        assert_eq!(verdict(&HIGHER, &parent, &slower), "better");
        assert_eq!(verdict(&HIGHER, &parent, &faster), "within");
        let much_lower: Vec<(u64, f64)> = parent.iter().map(|(s, v)| (*s, v * 0.8)).collect();
        assert_eq!(verdict(&HIGHER, &parent, &much_lower), "worse");
    }

    #[test]
    fn a_noisy_parent_is_unresolved_unless_every_run_is_better() {
        let noisy = runs(&[
            80.0, 120.0, 90.0, 110.0, 85.0, 115.0, 95.0, 105.0, 100.0, 100.0,
        ]);
        let shifted: Vec<(u64, f64)> = noisy.iter().map(|(s, v)| (*s, v * 1.05)).collect();
        assert_eq!(verdict(&LOWER, &noisy, &shifted), "unresolved");
        let far_better = runs(&[50.0; 10]);
        assert_eq!(verdict(&LOWER, &noisy, &far_better), "better");
    }
}
