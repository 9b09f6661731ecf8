//! The end-to-end SAM pipeline (paper §3.2, Figure 1).
//!
//! **Learning stage**: build the model schema from metadata + the workload's
//! predicate constants, then train a single deep AR model of the full outer
//! join from the (query, cardinality) pairs with DPS.
//!
//! **Generation stage**: sample FOJ tuples from the model, apply inverse
//! probability weighting and scaling for unbiased base-relation samples, and
//! assign join keys with Group-and-Merge.

use crate::assemble::{assemble_database, JoinKeyStrategy};
use crate::error::SamError;
use crate::job::{JobControl, JobStage};
use crate::single::assemble_single_relation;
use sam_ar::{
    sample_model_rows_range, train_observed, ArModel, ArModelConfig, ArSchema, EncodingOptions,
    FrozenModel, TrainConfig, TrainReport,
};
use sam_query::Workload;
use sam_storage::{Database, DatabaseSchema, DatabaseStats};
use std::time::Instant;

/// Pipeline hyperparameters.
#[derive(Debug, Clone, Default)]
pub struct SamConfig {
    /// AR model architecture.
    pub model: ArModelConfig,
    /// DPS training parameters.
    pub train: TrainConfig,
    /// Encoding / intervalization policy.
    pub encoding: EncodingOptions,
}

/// Generation-stage parameters.
#[derive(Debug, Clone)]
pub struct GenerationConfig {
    /// FOJ samples to draw for multi-relation databases (`k` of Alg 2).
    /// Ignored for single relations (which sample exactly `|T|`).
    pub foj_samples: usize,
    /// Sampling batch size (one forward pass per batch).
    pub batch: usize,
    /// Sampling / decoding seed.
    pub seed: u64,
    /// Join-key assignment strategy.
    pub strategy: JoinKeyStrategy,
}

impl Default for GenerationConfig {
    fn default() -> Self {
        GenerationConfig {
            foj_samples: 10_000,
            batch: 256,
            seed: 0,
            strategy: JoinKeyStrategy::GroupAndMerge,
        }
    }
}

/// A trained SAM ready to generate databases.
#[derive(Clone)]
pub struct TrainedSam {
    db_schema: DatabaseSchema,
    model: FrozenModel,
    /// Training summary (losses, wall time).
    pub report: TrainReport,
}

/// The SAM entry point.
pub struct Sam;

impl Sam {
    /// Learning stage: fit an AR model of the database's joint distribution
    /// from a labelled query workload. `stats` is the metadata summary (table
    /// sizes, domains, fanout caps) — the only data-side input.
    pub fn fit(
        db_schema: &DatabaseSchema,
        stats: &DatabaseStats,
        workload: &Workload,
        config: &SamConfig,
    ) -> Result<TrainedSam, SamError> {
        Sam::fit_observed(db_schema, stats, workload, config, &mut |_| {
            sam_ar::TrainControl::Continue
        })
    }

    /// [`fit`](Sam::fit), reporting per-epoch progress through `observe` and
    /// honouring its [`sam_ar::TrainControl`] verdict — the entry point for
    /// supervised training services that journal epoch events and support
    /// cooperative cancellation.
    pub fn fit_observed(
        db_schema: &DatabaseSchema,
        stats: &DatabaseStats,
        workload: &Workload,
        config: &SamConfig,
        observe: &mut dyn FnMut(sam_ar::TrainProgress) -> sam_ar::TrainControl,
    ) -> Result<TrainedSam, SamError> {
        let queries: Vec<sam_query::Query> = workload.iter().map(|lq| lq.query.clone()).collect();
        let ar_schema = ArSchema::build(db_schema, stats, &queries, &config.encoding)?;
        let mut model = ArModel::new(ar_schema, &config.model);
        let report = train_observed(&mut model, workload, &config.train, observe)?;
        Ok(TrainedSam {
            db_schema: db_schema.clone(),
            model: model.freeze(),
            report,
        })
    }

    /// Wrap an externally trained model (used by experiments that train
    /// incrementally or reuse models).
    pub fn from_frozen(
        db_schema: DatabaseSchema,
        model: FrozenModel,
        report: TrainReport,
    ) -> TrainedSam {
        TrainedSam {
            db_schema,
            model,
            report,
        }
    }
}

/// Summary of one generation run.
#[derive(Debug, Clone)]
pub struct GenerationReport {
    /// FOJ samples drawn (0 for single-relation generation).
    pub foj_samples: usize,
    /// Wall-clock seconds of the generation stage.
    pub wall_seconds: f64,
}

impl TrainedSam {
    /// The frozen AR model.
    pub fn model(&self) -> &FrozenModel {
        &self.model
    }

    /// Re-target the frozen model onto another inference backend (weights
    /// shared, kernel swapped): `f32` is the bit-exact reference, `f16` the
    /// blocked half-precision kernel for throughput-bound generation.
    pub fn with_backend(self, kind: sam_nn::BackendKind) -> TrainedSam {
        TrainedSam {
            db_schema: self.db_schema,
            model: self.model.with_backend(kind),
            report: self.report,
        }
    }

    /// The target database schema.
    pub fn db_schema(&self) -> &DatabaseSchema {
        &self.db_schema
    }

    /// Generation stage: produce a synthetic database instance.
    pub fn generate(
        &self,
        config: &GenerationConfig,
    ) -> Result<(Database, GenerationReport), SamError> {
        self.generate_controlled(config, &JobControl::new())
    }

    /// [`generate`](Self::generate) with cooperative cancellation and
    /// progress reporting through `control`.
    ///
    /// Sampling — the FOJ sample of a join, or the `|T|` tuples of a single
    /// relation — runs in chunks (via [`sam_ar::sample_model_rows_range`],
    /// which reproduces the one-shot sampler bit-for-bit and keeps one
    /// reusable sample batch per worker so the batch-major forward buffers
    /// persist across batches), checking `control` between chunks, so a
    /// cancelled job returns [`SamError::Cancelled`] within one chunk. The
    /// generated database is identical to a plain `generate` call with the
    /// same config.
    pub fn generate_controlled(
        &self,
        config: &GenerationConfig,
        control: &JobControl,
    ) -> Result<(Database, GenerationReport), SamError> {
        /// Batches sampled between two cancellation / progress checks.
        const CHUNK_BATCHES: usize = 8;

        let start = Instant::now();
        if control.is_cancelled() {
            return Err(SamError::Cancelled);
        }
        let graph = self.model.schema.graph();
        let single = graph.len() == 1;
        let mut gen_span = sam_obs::span!(
            "generate",
            tables = graph.len(),
            foj_samples = config.foj_samples,
            batch = config.batch
        );
        let count = if single {
            self.model.schema.table_size(0) as usize
        } else {
            config.foj_samples
        };
        control.set_stage(JobStage::Sampling);
        let batch = config.batch.max(1);
        let n_batches = count.div_ceil(batch);
        let mut rows = Vec::with_capacity(count);
        let sample_span = sam_obs::span!("sample", rows = count, batch = batch);
        let mut next = 0usize;
        while next < n_batches {
            if control.is_cancelled() {
                return Err(SamError::Cancelled);
            }
            let upto = (next + CHUNK_BATCHES).min(n_batches);
            rows.extend(sample_model_rows_range(
                &self.model,
                count,
                batch,
                config.seed,
                next..upto,
            ));
            next = upto;
            control.set_progress(rows.len(), count);
        }
        drop(sample_span);
        if control.is_cancelled() {
            return Err(SamError::Cancelled);
        }
        control.set_stage(JobStage::Assembling);
        let db = if single {
            let _span = sam_obs::span!("assemble", strategy = "single");
            let table_schema = self
                .db_schema
                .table(&graph.tables()[0])
                .expect("single table present");
            assemble_single_relation(table_schema, &self.model.schema, &rows, config.seed)?
        } else {
            assemble_database(
                &self.db_schema,
                &self.model.schema,
                &rows,
                config.strategy,
                config.seed,
            )?
        };
        let generated_tuples: usize = db.tables().iter().map(|t| t.num_rows()).sum();
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed > 0.0 {
            sam_obs::gauge("sam_generate_tuples_per_sec").set(generated_tuples as f64 / elapsed);
        }
        gen_span.record("tuples", generated_tuples);
        drop(gen_span);
        control.set_progress(1, 1);
        control.set_stage(JobStage::Finished);
        let report = GenerationReport {
            foj_samples: if graph.len() == 1 {
                0
            } else {
                config.foj_samples
            },
            wall_seconds: start.elapsed().as_secs_f64(),
        };
        Ok((db, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sam_query::{evaluate_cardinality, label_workload, WorkloadGenerator};
    use sam_storage::paper_example;

    /// End-to-end single relation: train on workload, generate, check the
    /// generated relation satisfies the trained constraints roughly.
    #[test]
    fn end_to_end_single_relation() {
        let db = paper_example::figure3_database();
        let single = Database::single(db.table_by_name("A").unwrap().clone());
        let stats = DatabaseStats::from_database(&single);
        let mut gen = WorkloadGenerator::new(&single, 3);
        let workload = label_workload(&single, gen.single_workload("A", 48)).unwrap();

        let config = SamConfig {
            model: sam_ar::ArModelConfig {
                hidden: vec![16],
                seed: 1,
                residual: false,
            },
            train: sam_ar::TrainConfig {
                epochs: 40,
                batch_size: 16,
                lr: 2e-2,
                ..Default::default()
            },
            ..Default::default()
        };
        let trained = Sam::fit(single.schema(), &stats, &workload, &config).unwrap();
        let (generated, report) = trained.generate(&GenerationConfig::default()).unwrap();
        assert!(report.wall_seconds >= 0.0);
        let t = generated.table_by_name("A").unwrap();
        assert_eq!(t.num_rows(), 4);

        // The generated relation should satisfy most input constraints
        // reasonably (tiny data, so allow slack).
        let mut close = 0;
        for lq in workload.iter() {
            let got = evaluate_cardinality(&generated, &lq.query).unwrap();
            let (a, b) = (got.max(1) as f64, lq.cardinality.max(1) as f64);
            if (a / b).max(b / a) <= 2.0 {
                close += 1;
            }
        }
        assert!(
            close * 2 >= workload.len(),
            "only {close}/{} constraints within 2x",
            workload.len()
        );
    }

    /// Controlled generation is deterministic, reports terminal state, and
    /// honours pre-cancellation.
    #[test]
    fn controlled_generation_matches_plain_and_cancels() {
        let db = paper_example::figure3_database();
        let stats = DatabaseStats::from_database(&db);
        let mut gen = WorkloadGenerator::new(&db, 4);
        let workload = label_workload(&db, gen.multi_workload(16, 2)).unwrap();
        let config = SamConfig {
            model: sam_ar::ArModelConfig {
                hidden: vec![12],
                seed: 4,
                residual: false,
            },
            train: sam_ar::TrainConfig {
                epochs: 4,
                batch_size: 8,
                ..Default::default()
            },
            ..Default::default()
        };
        let trained = Sam::fit(db.schema(), &stats, &workload, &config).unwrap();
        let gen_config = GenerationConfig {
            foj_samples: 300,
            batch: 32, // 10 batches → several chunk boundaries
            seed: 6,
            strategy: JoinKeyStrategy::GroupAndMerge,
        };

        let control = crate::job::JobControl::new();
        let (a, _) = trained.generate_controlled(&gen_config, &control).unwrap();
        assert_eq!(control.stage(), crate::job::JobStage::Finished);
        assert_eq!(control.progress(), 1.0);

        let (b, _) = trained.generate(&gen_config).unwrap();
        for (ta, tb) in a.tables().iter().zip(b.tables()) {
            assert_eq!(ta.num_rows(), tb.num_rows());
            for r in 0..ta.num_rows() {
                assert_eq!(ta.row(r), tb.row(r), "row {r} of {}", ta.name());
            }
        }

        let cancelled = crate::job::JobControl::new();
        cancelled.cancel();
        match trained.generate_controlled(&gen_config, &cancelled) {
            Err(SamError::Cancelled) => {}
            other => panic!("expected Cancelled, got {:?}", other.map(|_| "db")),
        }
    }

    /// A single relation samples in chunks too: a census generation run on
    /// another thread reports progress while it samples and stops with
    /// `Cancelled` when cancelled part-way.
    #[test]
    fn single_relation_generation_reports_progress_and_cancels() {
        let db = sam_datasets::census(2_000, 8);
        let stats = DatabaseStats::from_database(&db);
        let mut gen = WorkloadGenerator::new(&db, 8);
        let workload = label_workload(&db, gen.single_workload("census", 32)).unwrap();
        let config = SamConfig {
            model: sam_ar::ArModelConfig {
                hidden: vec![16],
                seed: 8,
                residual: false,
            },
            train: sam_ar::TrainConfig {
                epochs: 1,
                batch_size: 16,
                ..Default::default()
            },
            ..Default::default()
        };
        let trained = Sam::fit(db.schema(), &stats, &workload, &config).unwrap();
        // 2 000 rows at batch 4: 500 batches, 63 chunks.
        let gen_config = GenerationConfig {
            batch: 4,
            ..Default::default()
        };
        // The poller may miss the sampling window on a busy machine, in
        // which case the run completes and is tried again.
        for _ in 0..20 {
            let control = crate::job::JobControl::new();
            let result = std::thread::scope(|scope| {
                let worker = scope.spawn(|| trained.generate_controlled(&gen_config, &control));
                while !worker.is_finished() {
                    let p = control.progress();
                    if p > 0.0 && p < 1.0 {
                        control.cancel();
                        break;
                    }
                    std::thread::yield_now();
                }
                worker.join().unwrap()
            });
            match result {
                Err(SamError::Cancelled) => return,
                Ok((db, _)) if !control.is_cancelled() => {
                    assert_eq!(db.tables()[0].num_rows(), 2_000);
                }
                other => panic!("expected Cancelled, got {:?}", other.map(|_| "db")),
            }
        }
        panic!("never observed the sampling stage part-way");
    }

    /// End-to-end multi-relation on the Figure-3 database.
    #[test]
    fn end_to_end_multi_relation() {
        let db = paper_example::figure3_database();
        let stats = DatabaseStats::from_database(&db);
        let mut gen = WorkloadGenerator::new(&db, 5);
        let workload = label_workload(&db, gen.multi_workload(64, 2)).unwrap();

        let config = SamConfig {
            model: sam_ar::ArModelConfig {
                hidden: vec![24],
                seed: 2,
                residual: false,
            },
            train: sam_ar::TrainConfig {
                epochs: 30,
                batch_size: 16,
                lr: 1e-2,
                ..Default::default()
            },
            ..Default::default()
        };
        let trained = Sam::fit(db.schema(), &stats, &workload, &config).unwrap();
        let (generated, _) = trained
            .generate(&GenerationConfig {
                foj_samples: 512,
                batch: 64,
                seed: 9,
                strategy: JoinKeyStrategy::GroupAndMerge,
            })
            .unwrap();
        // Sizes are within ±2 of the targets (carving can drop tails).
        for name in ["A", "B", "C"] {
            let want = db.table_by_name(name).unwrap().num_rows() as i64;
            let got = generated.table_by_name(name).unwrap().num_rows() as i64;
            assert!((got - want).abs() <= 2, "{name}: wanted ~{want}, got {got}");
        }
    }
}
