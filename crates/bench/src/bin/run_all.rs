//! Run the experiments in DESIGN.md's index (all of them, or the ids given
//! to `--only`), print their tables, and write `exp_results.json`
//! (consumed when updating EXPERIMENTS.md).

use sam_bench::experiments::*;
use sam_bench::{parse_args, ExpContext, USAGE};

/// One experiment suite: its `--only` id (the module name) plus runner.
type Suite = (&'static str, fn(ExpContext) -> Vec<ExperimentResult>);

/// Every suite, in run order.
const SUITES: &[Suite] = &[
    ("fig5", fig5::run),
    ("table1", table1::run),
    ("table2", table2::run),
    ("table34", table34::run),
    ("table5", table5::run),
    ("table6", table6::run),
    ("table7", table7::run),
    ("table89", table89::run),
    ("fig6", fig6::run),
    ("fig7", fig7::run),
    ("fig8", fig8::run),
    ("gen_single", gen_single::run),
    ("ablations", ablations::run),
    ("seeds", seeds::run),
];

fn main() {
    let ids: Vec<&str> = SUITES.iter().map(|(id, _)| *id).collect();
    let (ctx, only) = parse_args(std::env::args().skip(1), &ids).unwrap_or_else(|err| {
        eprintln!("run_all: {err}\n{USAGE}");
        std::process::exit(2);
    });
    let what = if only.len() == SUITES.len() {
        "all experiments".to_string()
    } else {
        only.join(", ")
    };
    println!(
        "Running {what} at {:?} scale (seed {})",
        ctx.scale, ctx.seed
    );
    let mut all = Vec::new();
    for (name, f) in SUITES.iter().filter(|(id, _)| only.contains(id)) {
        eprintln!("--- running {name} ---");
        let start = std::time::Instant::now();
        for r in f(ctx) {
            r.print();
            all.push(r);
        }
        eprintln!(
            "--- {name} done in {:.1}s ---",
            start.elapsed().as_secs_f64()
        );
    }
    let json = serde_json::json!({
        "scale": format!("{:?}", ctx.scale),
        "seed": ctx.seed,
        "experiments": all,
    });
    std::fs::write(
        "exp_results.json",
        serde_json::to_string_pretty(&json).expect("serialisable"),
    )
    .expect("writable cwd");
    println!("\nWrote exp_results.json");
}
