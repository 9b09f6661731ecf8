//! Design-choice ablations (DESIGN.md): straight-through vs. soft
//! Gumbel-Softmax, progressive samples per query, and intervalization
//! on/off — each measured by training loss and input-query fidelity on the
//! Census workload.

use super::ExperimentResult;
use crate::harness::*;
use sam_ar::TrainConfig;
use sam_core::{JoinKeyStrategy, Sam, SamConfig};
use sam_metrics::Percentiles;
use serde_json::json;

struct Variant {
    name: &'static str,
    mutate: fn(&mut SamConfig),
}

fn run_variant(
    bundle: &Bundle,
    workload: &sam_query::Workload,
    ctx: ExpContext,
    v: &Variant,
) -> (f32, Percentiles, f64) {
    let mut config = sam_config(ctx.scale, ctx.seed);
    (v.mutate)(&mut config);
    let (trained, secs) = timed(|| {
        Sam::fit(bundle.db.schema(), &bundle.stats, workload, &config).expect("training succeeds")
    });
    let last_loss = *trained.report.epoch_losses.last().unwrap_or(&f32::NAN);
    let (db, _) = trained
        .generate(&generation_config(
            ctx.scale,
            ctx.seed,
            JoinKeyStrategy::GroupAndMerge,
        ))
        .expect("generation succeeds");
    let qe = q_errors_on(&db, &workload.queries[..workload.len().min(500)]);
    (last_loss, Percentiles::from_values(&qe), secs)
}

/// Run the ablation sweep.
pub fn run(ctx: ExpContext) -> Vec<ExperimentResult> {
    let bundle = census_bundle(ctx.scale, ctx.seed);
    let (train_n, _, _) = workload_sizes(ctx.scale);
    let workload = single_workload(&bundle, (train_n / 2).max(200), ctx.seed);

    let variants: Vec<Variant> = vec![
        Variant {
            name: "baseline (ST gumbel, S=1, intervalized)",
            mutate: |_| {},
        },
        Variant {
            name: "soft gumbel (no straight-through)",
            mutate: |c| c.train.straight_through = false,
        },
        Variant {
            name: "high temperature (tau=2)",
            mutate: |c| c.train.temperature = 2.0,
        },
        Variant {
            name: "4 progressive samples per query",
            mutate: |c| c.train.samples_per_query = 4,
        },
        Variant {
            name: "no intervalization (raw numeric domains)",
            mutate: |c| c.encoding.intervalize_threshold = usize::MAX,
        },
        Variant {
            name: "ResMADE (residual blocks)",
            mutate: |c| c.model.residual = true,
        },
        Variant {
            name: "half epochs",
            mutate: |c: &mut SamConfig| {
                c.train = TrainConfig {
                    epochs: (c.train.epochs / 2).max(1),
                    ..c.train.clone()
                }
            },
        },
    ];

    let mut text = String::from("Census — training/fidelity ablations\n");
    text.push_str(&format!(
        "{:<46} {:>10} {:>9} {:>9} {:>9} {:>9}\n",
        "variant", "loss", "med Q", "p90 Q", "mean Q", "train s"
    ));
    let mut results = Vec::new();
    for v in &variants {
        let (loss, p, secs) = run_variant(&bundle, &workload, ctx, v);
        text.push_str(&format!(
            "{:<46} {:>10.4} {:>9.2} {:>9.2} {:>9.2} {:>9.1}\n",
            v.name, loss, p.median, p.p90, p.mean, secs
        ));
        results.push(json!({
            "variant": v.name, "final_loss": loss, "median_qerror": p.median,
            "p90_qerror": p.p90, "mean_qerror": p.mean, "train_seconds": secs,
        }));
    }

    vec![ExperimentResult {
        id: "ablations".into(),
        title: "Design-choice ablations (DESIGN.md)".into(),
        text,
        json: json!({ "variants": results }),
    }]
}
