//! Metric catalogue and run output. `BENCHMARK.json` mirrors the two
//! tables below; `tests::benchmark_json_matches_the_catalogue` keeps them
//! in step.

use serde_json::{json, Value};
use std::collections::BTreeMap;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Every workload reports every end-to-end metric for its own timed work;
/// README.md says what each name means on each workload.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.20,
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p95_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "qerror_p50",
        unit: "ratio",
        better: "lower",
        bound: 0.20,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.15,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    /// Mirrored into `BENCHMARK.json`; only the catalogue test reads it.
    #[allow(dead_code)]
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Per-layer metrics of the traced run. A workload that does not exercise a
/// layer reports 0 for it.
pub const PER_LAYER: &[PerLayer] = &[
    // Set-up layers (every workload).
    layer("datasets.synthesize_s", "s", "lower"),
    layer("storage.stats_s", "s", "lower"),
    layer("query.label_queries_per_s", "1/s", "higher"),
    layer("workgen.synthesize_queries_per_s", "1/s", "higher"),
    // Training (pipeline_join).
    layer("ar.schema_build_ms", "ms", "lower"),
    layer("ar.train_epoch_ms", "ms", "lower"),
    layer("ar.train_epoch_spread", "ratio", "lower"),
    layer("nn.tape_forward_ms", "ms", "lower"),
    layer("nn.tape_backward_ms", "ms", "lower"),
    layer("nn.adam_step_ms", "ms", "lower"),
    layer("ar.train_dps_share", "ratio", "lower"),
    // Generation (pipeline_join).
    layer("core.generate_tuples_per_s", "1/s", "higher"),
    layer("ar.sample_ms", "ms", "lower"),
    layer("ar.sample_rows_per_s", "1/s", "higher"),
    layer("core.sample_share", "ratio", "lower"),
    layer("core.weigh_ms", "ms", "lower"),
    layer("core.group_merge_ms", "ms", "lower"),
    layer("core.assemble_ms", "ms", "lower"),
    layer("nn.forward_batch_ms.f32_full", "ms", "lower"),
    layer("query.eval_queries_per_s", "1/s", "higher"),
    // Estimation kernel and inference (serve_distinct).
    layer("nn.forward_batch_ms.f32", "ms", "lower"),
    layer("nn.forward_batch_ms.f16", "ms", "lower"),
    layer("nn.forward_batch_ms.int8", "ms", "lower"),
    layer("nn.forward_flops", "count", "lower"),
    layer("ar.estimate_batch_ms.cold", "ms", "lower"),
    layer("ar.estimate_batch_ms.warm", "ms", "lower"),
    layer("ar.forwards_per_request", "count", "lower"),
    layer("ar.trie_hit_share", "ratio", "higher"),
    layer("ar.dedup_hit_share", "ratio", "higher"),
    // Wire path (serve_repeat, router_repeat).
    layer("query.sql_parse_us", "us", "lower"),
    layer("serve.http_parse_us", "us", "lower"),
    layer("serve.http_write_us", "us", "lower"),
    layer("serve.cache_get_us", "us", "lower"),
    // Server counters (serving workloads; /metrics delta over the timed phase).
    layer("serve.cache_hit_share", "ratio", "higher"),
    layer("serve.mean_batch_size", "count", "higher"),
    layer("serve.server_latency_mean_ms", "ms", "lower"),
    layer("serve.wire_overhead_ms", "ms", "lower"),
    layer("serve.rejected_overload", "count", "lower"),
    layer("serve.deadline_exceeded", "count", "lower"),
    layer("serve.quality_samples", "count", "lower"),
    layer("serve.quality_dropped", "count", "lower"),
    layer("serve.startup_s", "s", "lower"),
    // Router (router_repeat).
    layer("router.hop_p50_ms", "ms", "lower"),
    layer("router.exchange_us", "us", "lower"),
    layer("router.ring_lookup_ns", "ns", "lower"),
    layer("router.proxied_ok", "count", "higher"),
    layer("router.retries", "count", "lower"),
    layer("router.upstream_errors", "count", "lower"),
    layer("router.unavailable", "count", "lower"),
    layer("router.startup_s", "s", "lower"),
    // Accuracy tail (deterministic per seed; too seed-sensitive to gate).
    layer("quality.qerror_p90", "ratio", "lower"),
    // Share of the timed phase each layer group accounts for.
    layer("share.train", "ratio", "lower"),
    layer("share.sample", "ratio", "lower"),
    layer("share.infer", "ratio", "lower"),
    layer("share.http_cache", "ratio", "lower"),
    layer("share.router_hop", "ratio", "lower"),
    // Instrument health.
    layer("bench.cpu_s", "s", "lower"),
    layer("bench.round_spread", "ratio", "lower"),
    layer("bench.span_cost_share", "ratio", "lower"),
    layer("bench.estimate_p99_ms", "ms", "lower"),
    layer("bench.estimate_max_ms", "ms", "lower"),
];

pub const WORKLOADS: &[&str] = &[
    "pipeline_join",
    "serve_distinct",
    "serve_repeat",
    "router_repeat",
];

/// What one workload run measured.
#[derive(Default)]
pub struct Outcome {
    pub metrics: BTreeMap<&'static str, f64>,
    /// Operations of the timed phases and the output checks.
    pub attempted: u64,
    pub failed: u64,
    /// Output checks by name; the run is correct when all hold and no
    /// operation failed.
    pub checks: Vec<(String, bool)>,
    /// Sizes and other facts for `BENCH.json`.
    pub facts: Vec<(String, Value)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    pub fn fact(&mut self, name: &str, value: Value) {
        self.facts.push((name.to_string(), value));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, ok)| *ok)
    }

    /// The contract's result object: every end-to-end metric of an untraced
    /// run, every per-layer metric of a traced one.
    pub fn result_json(&self, traced: bool) -> Value {
        let mut metrics: Vec<(String, Value)> = Vec::new();
        if traced {
            for m in PER_LAYER {
                let value = self.metrics.get(m.name).copied().unwrap_or(0.0);
                metrics.push((m.name.to_string(), json!({"value": value, "unit": m.unit})));
            }
        } else {
            for m in END_TO_END {
                let value = *self
                    .metrics
                    .get(m.name)
                    .unwrap_or_else(|| panic!("workload did not measure {}", m.name));
                metrics.push((m.name.to_string(), json!({"value": value, "unit": m.unit})));
            }
        }
        json!({
            "correct": self.correct(),
            "attempted": self.attempted.max(1),
            "failed": self.failed,
            "metrics": Value::Object(metrics),
        })
    }

    /// Human-readable table of everything measured, printed above the
    /// result object.
    pub fn print_table(&self, traced: bool) {
        let unit_of = |name: &str| {
            END_TO_END
                .iter()
                .map(|m| (m.name, m.unit))
                .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
                .find(|(n, _)| *n == name)
                .map_or("", |(_, u)| u)
        };
        println!("{:<36} {:>16}  unit", "metric", "value");
        for (name, value) in &self.metrics {
            let is_layer = PER_LAYER.iter().any(|m| m.name == *name);
            if is_layer && !traced {
                continue;
            }
            println!("{name:<36} {value:>16.4}  {}", unit_of(name));
        }
        for (name, ok) in &self.checks {
            println!("check {name}: {}", if *ok { "ok" } else { "FAILED" });
        }
        println!(
            "attempted {} failed {} correct {}",
            self.attempted,
            self.failed,
            self.correct()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is the contract; the catalogue above is what the
    /// harness emits. They must name the same metrics, units and bounds.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = serde_json::parse_value(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| doc.get(key).and_then(Value::as_array).expect(key).clone();
        let field =
            |v: &Value, key: &str| v.get(key).and_then(Value::as_str).expect(key).to_string();

        let workloads: Vec<String> = list("workloads").iter().map(|w| field(w, "name")).collect();
        assert_eq!(workloads, WORKLOADS);

        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (got, want) in e2e.iter().zip(END_TO_END) {
            assert_eq!(field(got, "name"), want.name);
            assert_eq!(field(got, "unit"), want.unit);
            assert_eq!(field(got, "better"), want.better);
            assert_eq!(got.get("bound").and_then(Value::as_f64), Some(want.bound));
        }

        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (got, want) in layers.iter().zip(PER_LAYER) {
            assert_eq!(field(got, "name"), want.name);
            assert_eq!(field(got, "unit"), want.unit);
            assert_eq!(field(got, "better"), want.better);
        }

        let seconds = doc.get("run_seconds").and_then(Value::as_f64);
        assert_eq!(seconds, Some(crate::sizes::RUN_SECONDS));
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(WORKLOADS);
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        for name in &names {
            assert!(name.len() <= 64 && name.chars().all(ok), "{name}");
            assert!(
                name.chars().next().unwrap().is_ascii_alphanumeric(),
                "{name}"
            );
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }
}
