//! Differentiable Progressive Sampling training (paper §4.1, UAE \[34\]).
//!
//! Each training step replays progressive sampling on the tape: column by
//! column in autoregressive order, the model predicts `P(X_i | x_{<i})`, the
//! step's factor (in-range mass, forced indicator, or sampled inverse
//! fanout) is multiplied into the running selectivity estimate, and a
//! Gumbel-Softmax sample of the column is fed back as input for the next
//! column. Because the samples are relaxed (straight-through by default),
//! gradients flow from the cardinality loss through every sampled step.
//! The loss is the squared error of log-cardinalities — the smooth surrogate
//! of Q-Error used by learned estimators.

#![allow(clippy::needless_range_loop)]
use crate::checkpoint::{self, CheckpointConfig};
use crate::error::ArError;
use crate::model::ArModel;
use crate::model_schema::StepRule;
use rand::prelude::*;
use rand::rngs::StdRng;
use sam_fault::{crash_point, sweep_tmp_files};
use sam_nn::{gumbel_softmax, Adam, Matrix, ParamId, ParamStore, Tape, NEG_LARGE};
use sam_query::Workload;
use std::rc::Rc;
use std::time::Instant;

/// Training hyperparameters.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Passes over the workload.
    pub epochs: usize,
    /// Queries per gradient step.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Gumbel-Softmax temperature.
    pub temperature: f32,
    /// Hard forward samples with soft gradients.
    pub straight_through: bool,
    /// Progressive samples drawn per query per step (each becomes a row).
    pub samples_per_query: usize,
    /// Log-domain fuzz.
    pub eps: f32,
    /// Shuffling / noise seed.
    pub seed: u64,
    /// Crash-safe checkpointing: where and how often to snapshot the full
    /// training state (weights, optimiser, RNG, epoch). `None` disables
    /// checkpointing. When set and a valid checkpoint for the same
    /// fingerprint exists, training auto-resumes from it, bit-for-bit
    /// identical to an uninterrupted run.
    pub checkpoint: Option<CheckpointConfig>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 20,
            batch_size: 32,
            lr: 5e-3,
            temperature: 1.0,
            straight_through: true,
            samples_per_query: 1,
            eps: 1e-6,
            seed: 0,
            checkpoint: None,
        }
    }
}

/// Summary of one training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Mean loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Constraints processed by this run (queries × epochs it ran; epochs
    /// restored from a checkpoint are not counted).
    pub constraints_processed: usize,
    /// Wall-clock seconds spent in training.
    pub wall_seconds: f64,
}

/// Per-epoch progress snapshot handed to a [`train_observed`] observer.
#[derive(Debug, Clone, Copy)]
pub struct TrainProgress {
    /// Epochs completed so far (1-based: the first callback reports 1, or
    /// more when the run auto-resumed from a checkpoint).
    pub epoch: usize,
    /// Total epochs the run will perform.
    pub total_epochs: usize,
    /// Mean loss of the epoch that just finished.
    pub loss: f32,
    /// Epochs restored from a checkpoint before this run started (0 for a
    /// fresh run). Restored epochs do not produce callbacks.
    pub resumed_from: usize,
}

/// Observer verdict after each epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrainControl {
    /// Keep training.
    Continue,
    /// Stop cooperatively: [`train_observed`] returns an
    /// [`ArError::Invalid`] whose message contains `"cancelled"`. Any
    /// checkpoint written for the finished epochs stays valid, so a later
    /// run with the same config resumes where the stop happened.
    Stop,
}

/// Train `model` on a labelled workload with DPS.
pub fn train(
    model: &mut ArModel,
    workload: &Workload,
    config: &TrainConfig,
) -> Result<TrainReport, ArError> {
    train_observed(model, workload, config, &mut |_| TrainControl::Continue)
}

/// [`train`], reporting progress after every epoch through `observe` and
/// honouring its [`TrainControl`] verdict. The callback fires *after* the
/// epoch's checkpoint (if due) is committed, so an external controller —
/// e.g. a serving tier journalling training lifecycle events — sees only
/// epochs that are safe to resume from.
pub fn train_observed(
    model: &mut ArModel,
    workload: &Workload,
    config: &TrainConfig,
    observe: &mut dyn FnMut(TrainProgress) -> TrainControl,
) -> Result<TrainReport, ArError> {
    if workload.is_empty() {
        return Err(ArError::Invalid("empty workload".into()));
    }
    if config.batch_size == 0 {
        return Err(ArError::Invalid("batch_size must be at least 1".into()));
    }
    for (name, value) in [("lr", config.lr), ("temperature", config.temperature)] {
        if !(value.is_finite() && value > 0.0) {
            return Err(ArError::Invalid(format!(
                "{name} must be finite and > 0, got {value}"
            )));
        }
    }
    let start = Instant::now();
    let (schema, net, store) = model.split_mut();
    let n_cols = schema.num_columns();
    let total_width = net.total_width();
    let normalizer = schema.normalizer();
    let log_norm = normalizer.max(1.0).ln() as f32;

    // Pre-translate every query once.
    let rules: Vec<Vec<StepRule>> = workload
        .iter()
        .map(|lq| schema.query_rules(&lq.query))
        .collect::<Result<_, _>>()?;
    let targets: Vec<f32> = workload
        .iter()
        .map(|lq| (lq.cardinality.max(1) as f32).ln() - log_norm)
        .collect();

    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut order: Vec<usize> = (0..workload.len()).collect();
    let mut adam = Adam::new(store, config.lr);
    let mut epoch_losses = Vec::with_capacity(config.epochs);

    // Crash-safe checkpointing: sweep orphaned tmp files, then resume from
    // a committed snapshot if one exists for this exact training setup.
    let fingerprint = checkpoint::Fingerprint {
        seed: config.seed,
        batch_size: config.batch_size,
        lr_bits: config.lr.to_bits(),
        temperature_bits: config.temperature.to_bits(),
        eps_bits: config.eps.to_bits(),
        straight_through: config.straight_through,
        samples_per_query: config.samples_per_query,
        workload_len: workload.len(),
        num_scalars: store.num_scalars(),
    };
    let mut start_epoch = 0usize;
    if let Some(ckpt) = &config.checkpoint {
        ckpt.fs.create_dir_all(&ckpt.dir)?;
        sweep_tmp_files(&*ckpt.fs, &ckpt.dir)?;
        if let Some(saved) = checkpoint::load(ckpt)? {
            if saved.fingerprint != fingerprint {
                return Err(ArError::Invalid(format!(
                    "checkpoint in {} was written by a different training setup; \
                     refusing to resume (delete it to start fresh)",
                    ckpt.dir.display()
                )));
            }
            restore_params(store, &saved.params)?;
            let m = restore_matrices(&saved.adam_m)?;
            let v = restore_matrices(&saved.adam_v)?;
            adam.import_state(saved.adam_t, m, v);
            rng = StdRng::from_state([
                saved.rng_state[0],
                saved.rng_state[1],
                saved.rng_state[2],
                saved.rng_state[3],
            ]);
            if saved.order.len() != order.len() {
                return Err(ArError::Invalid(
                    "checkpoint visit order does not match workload size".into(),
                ));
            }
            order = saved.order.iter().map(|&i| i as usize).collect();
            epoch_losses = saved
                .epoch_loss_bits
                .iter()
                .map(|&b| f32::from_bits(b))
                .collect();
            start_epoch = saved.epochs_done;
            crash_point("train.ckpt.resumed");
        }
    }

    // Observability: one span per training run and per epoch, with the
    // epoch's mean loss / last grad norm / constraint throughput exported
    // as gauges on the global registry.
    let mut train_span = sam_obs::span!(
        "train",
        epochs = config.epochs,
        queries = workload.len(),
        params = store.num_scalars()
    );
    let loss_gauge = sam_obs::gauge("sam_train_loss");
    let grad_gauge = sam_obs::gauge("sam_train_grad_norm");
    let throughput_gauge = sam_obs::gauge("sam_train_constraints_per_sec");
    let epochs_counter = sam_obs::counter("sam_train_epochs_total");

    for epoch in start_epoch..config.epochs {
        let mut epoch_span = sam_obs::span!("epoch", epoch = epoch);
        let mut last_grad_norm = 0.0f32;
        order.shuffle(&mut rng);
        let mut epoch_loss = 0.0f64;
        let mut steps = 0usize;
        for chunk in order.chunks(config.batch_size) {
            let s = config.samples_per_query.max(1);
            let rows = chunk.len() * s;
            // Row r corresponds to query chunk[r / s].
            let row_query: Vec<usize> = chunk
                .iter()
                .flat_map(|&q| std::iter::repeat_n(q, s))
                .collect();
            let batch_targets: Rc<Vec<f32>> =
                Rc::new(row_query.iter().map(|&q| targets[q]).collect());

            let mut tape = Tape::new();
            let bound = net.bind(&mut tape, store);
            let mut input = tape.leaf(Matrix::zeros(rows, total_width));
            let mut logp: Option<sam_nn::Var> = None;

            for i in 0..n_cols {
                let d = net.domain_size(i);
                let offset = net.offset(i);
                let block = bound.forward_column(&mut tape, input, i);

                // Assemble the per-row mask and factor weights.
                let mut mask = Matrix::zeros(rows, d);
                let mut w_prob: Option<Matrix> = None;
                let mut w_samp: Option<Matrix> = None;
                for (r, &q) in row_query.iter().enumerate() {
                    match &rules[q][i] {
                        StepRule::Free => {}
                        StepRule::InRange(frac) => {
                            let wp = w_prob.get_or_insert_with(|| Matrix::full(rows, d, 1.0));
                            for (c, &f) in frac.iter().enumerate() {
                                wp.set(r, c, f);
                                if f <= 0.0 {
                                    mask.set(r, c, NEG_LARGE);
                                }
                            }
                        }
                        StepRule::WeightBySampled(w) => {
                            let ws = w_samp.get_or_insert_with(|| Matrix::full(rows, d, 1.0));
                            for (c, &f) in w.iter().enumerate() {
                                ws.set(r, c, f);
                            }
                        }
                    }
                }

                if let Some(wp) = w_prob {
                    let probs = tape.softmax_rows(block, 1.0);
                    let f = tape.row_dot_rows(probs, Rc::new(wp));
                    let lf = tape.log(f, config.eps);
                    logp = Some(match logp {
                        Some(acc) => tape.add(acc, lf),
                        None => lf,
                    });
                }

                let y = gumbel_softmax(
                    &mut tape,
                    block,
                    Rc::new(mask),
                    config.temperature,
                    config.straight_through,
                    &mut rng,
                );
                if let Some(ws) = w_samp {
                    let f = tape.row_dot_rows(y, Rc::new(ws));
                    let lf = tape.log(f, config.eps);
                    logp = Some(match logp {
                        Some(acc) => tape.add(acc, lf),
                        None => lf,
                    });
                }

                input = tape.add_cols(input, y, offset);
            }

            let logp = match logp {
                Some(v) => v,
                // Degenerate workload (no constrained column anywhere):
                // nothing to learn from this batch.
                None => continue,
            };
            let loss = tape.sq_err_mean(logp, batch_targets);
            epoch_loss += tape.value(loss).get(0, 0) as f64;
            steps += 1;
            tape.backward(loss);
            bound.apply_grads(&tape, store);
            last_grad_norm = adam.step(store);
        }
        let mean_loss = if steps > 0 {
            (epoch_loss / steps as f64) as f32
        } else {
            f32::NAN
        };
        epoch_losses.push(mean_loss);
        // A diverged run must not hand back (or checkpoint) a model whose
        // every forward is NaN: sampling would then emit code 0 for every
        // column, and the kernels' bit-identity assumes finite weights.
        if let Some(i) = (0..store.len()).find(|&i| {
            store
                .value(ParamId(i))
                .data()
                .iter()
                .any(|v| !v.is_finite())
        }) {
            return Err(ArError::Invalid(format!(
                "training diverged: epoch {} left parameter tensor {i} non-finite (lr {})",
                epoch + 1,
                config.lr
            )));
        }

        epochs_counter.inc();
        loss_gauge.set(mean_loss as f64);
        grad_gauge.set(last_grad_norm as f64);
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed > 0.0 {
            // `elapsed` is this process's: epochs restored from a checkpoint
            // were not run in it.
            throughput_gauge.set(((epoch + 1 - start_epoch) * workload.len()) as f64 / elapsed);
        }
        epoch_span.record("loss", mean_loss);
        epoch_span.record("grad_norm", last_grad_norm);

        if let Some(ckpt) = &config.checkpoint {
            let done = epoch + 1;
            if done % ckpt.every == 0 || done == config.epochs {
                let (t, m, v) = adam.export_state();
                let state = checkpoint::CheckpointState {
                    version: 1,
                    fingerprint: fingerprint.clone(),
                    epochs_done: done,
                    epoch_loss_bits: epoch_losses.iter().map(|l| l.to_bits()).collect(),
                    rng_state: rng.state().to_vec(),
                    order: order.iter().map(|&i| i as u64).collect(),
                    adam_t: t,
                    params: (0..store.len())
                        .map(|i| checkpoint::MatrixBits::from_matrix(store.value(ParamId(i))))
                        .collect(),
                    adam_m: m.iter().map(checkpoint::MatrixBits::from_matrix).collect(),
                    adam_v: v.iter().map(checkpoint::MatrixBits::from_matrix).collect(),
                };
                checkpoint::save(ckpt, &state)?;
            }
        }

        let verdict = observe(TrainProgress {
            epoch: epoch + 1,
            total_epochs: config.epochs,
            loss: mean_loss,
            resumed_from: start_epoch,
        });
        if verdict == TrainControl::Stop {
            return Err(ArError::Invalid(format!(
                "training cancelled by observer after epoch {} of {}",
                epoch + 1,
                config.epochs
            )));
        }
    }
    train_span.record(
        "wall_seconds",
        format!("{:.3}", start.elapsed().as_secs_f64()),
    );

    Ok(TrainReport {
        epoch_losses,
        constraints_processed: workload.len() * config.epochs.saturating_sub(start_epoch),
        wall_seconds: start.elapsed().as_secs_f64(),
    })
}

/// Overwrite every parameter in `store` with checkpointed bit patterns.
fn restore_params(
    store: &mut ParamStore,
    saved: &[crate::checkpoint::MatrixBits],
) -> Result<(), ArError> {
    if saved.len() != store.len() {
        return Err(ArError::Invalid(format!(
            "checkpoint has {} parameter tensors, model has {}",
            saved.len(),
            store.len()
        )));
    }
    for (i, bits) in saved.iter().enumerate() {
        let m = bits.to_matrix()?;
        let current = store.value(ParamId(i));
        if m.rows() != current.rows() || m.cols() != current.cols() {
            return Err(ArError::Invalid(format!(
                "checkpoint tensor {i} is {}x{}, model expects {}x{}",
                m.rows(),
                m.cols(),
                current.rows(),
                current.cols()
            )));
        }
        *store.value_mut(ParamId(i)) = m;
    }
    Ok(())
}

fn restore_matrices(saved: &[crate::checkpoint::MatrixBits]) -> Result<Vec<Matrix>, ArError> {
    saved.iter().map(|b| b.to_matrix()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer::Estimator;
    use crate::model::{ArModel, ArModelConfig};
    use crate::model_schema::{ArSchema, EncodingOptions};
    use sam_query::{label_workload, WorkloadGenerator};
    use sam_storage::{paper_example, DatabaseStats};

    /// Train on the Figure-3 single relation A and check that the model's
    /// estimates move toward the workload cardinalities.
    #[test]
    fn training_reduces_loss_and_fits_cardinalities() {
        let db = paper_example::figure3_database();
        let single = sam_storage::Database::single(db.table_by_name("A").unwrap().clone());
        let stats = DatabaseStats::from_database(&single);

        let mut gen = WorkloadGenerator::new(&single, 1);
        let queries = gen.single_workload("A", 64);
        let workload = label_workload(&single, queries).unwrap();

        let schema = ArSchema::build(
            single.schema(),
            &stats,
            &workload
                .queries
                .iter()
                .map(|q| q.query.clone())
                .collect::<Vec<_>>(),
            &EncodingOptions::default(),
        )
        .unwrap();
        let mut model = ArModel::new(
            schema,
            &ArModelConfig {
                hidden: vec![16],
                seed: 7,
                residual: false,
            },
        );
        let report = train(
            &mut model,
            &workload,
            &TrainConfig {
                epochs: 40,
                batch_size: 16,
                lr: 2e-2,
                ..TrainConfig::default()
            },
        )
        .unwrap();

        let first = report.epoch_losses[0];
        let last = *report.epoch_losses.last().unwrap();
        assert!(
            last < first * 0.5,
            "loss should drop substantially: {first} -> {last}"
        );

        // Estimates should be in the right ballpark for the trained queries.
        let mut estimator = Estimator::new(model.freeze());
        let mut rng = StdRng::seed_from_u64(3);
        let mut ok = 0;
        for lq in workload.iter().take(16) {
            let est = estimator.estimate(&lq.query, 128, &mut rng).unwrap();
            let truth = lq.cardinality.max(1) as f64;
            let q_err = (est.max(1.0) / truth).max(truth / est.max(1.0));
            if q_err < 3.0 {
                ok += 1;
            }
        }
        assert!(ok >= 12, "only {ok}/16 estimates within 3x");
    }

    /// The checkpoint acceptance bar: a run interrupted at a checkpoint
    /// boundary and resumed must produce a final model and final
    /// checkpoint file *byte-identical* to the uninterrupted run.
    #[test]
    fn checkpoint_resume_is_bit_for_bit_identical() {
        let db = paper_example::figure3_database();
        let single = sam_storage::Database::single(db.table_by_name("A").unwrap().clone());
        let stats = DatabaseStats::from_database(&single);
        let mut gen = WorkloadGenerator::new(&single, 5);
        let workload = label_workload(&single, gen.single_workload("A", 24)).unwrap();
        let schema = ArSchema::build(
            single.schema(),
            &stats,
            &workload
                .queries
                .iter()
                .map(|q| q.query.clone())
                .collect::<Vec<_>>(),
            &EncodingOptions::default(),
        )
        .unwrap();
        let model_cfg = ArModelConfig {
            hidden: vec![8],
            seed: 11,
            residual: false,
        };
        let base = std::env::temp_dir().join(format!("sam_train_ckpt_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let dir_a = base.join("uninterrupted");
        let dir_b = base.join("interrupted");
        let cfg = |dir: &std::path::Path, epochs: usize| TrainConfig {
            epochs,
            batch_size: 8,
            lr: 1e-2,
            seed: 21,
            checkpoint: Some(crate::checkpoint::CheckpointConfig::new(dir, 2)),
            ..TrainConfig::default()
        };

        // Run A: 5 epochs straight through.
        let mut model_a = ArModel::new(schema.clone(), &model_cfg);
        let report_a = train(&mut model_a, &workload, &cfg(&dir_a, 5)).unwrap();

        // Run B: killed after 2 epochs (simulated by a short first run),
        // then restarted with the full epoch budget — auto-resumes.
        let mut model_b1 = ArModel::new(schema.clone(), &model_cfg);
        train(&mut model_b1, &workload, &cfg(&dir_b, 2)).unwrap();
        let mut model_b2 = ArModel::new(schema, &model_cfg);
        let report_b = train(&mut model_b2, &workload, &cfg(&dir_b, 5)).unwrap();

        assert_eq!(
            report_a
                .epoch_losses
                .iter()
                .map(|l| l.to_bits())
                .collect::<Vec<_>>(),
            report_b
                .epoch_losses
                .iter()
                .map(|l| l.to_bits())
                .collect::<Vec<_>>(),
            "per-epoch losses must match to the bit"
        );
        let json_a = crate::persist::save_model(&model_a.freeze(), single.schema());
        let json_b = crate::persist::save_model(&model_b2.freeze(), single.schema());
        assert_eq!(json_a, json_b, "final saved models must be byte-identical");
        let ckpt_a = std::fs::read(dir_a.join(crate::checkpoint::CHECKPOINT_FILE)).unwrap();
        let ckpt_b = std::fs::read(dir_b.join(crate::checkpoint::CHECKPOINT_FILE)).unwrap();
        assert_eq!(ckpt_a, ckpt_b, "final checkpoints must be byte-identical");
        let _ = std::fs::remove_dir_all(&base);
    }

    /// Relation A of Figure 3 as a database, a fresh model over it and a
    /// small labelled workload.
    fn figure3_a(queries: usize) -> (ArModel, Workload, sam_storage::Database) {
        let db = paper_example::figure3_database();
        let single = sam_storage::Database::single(db.table_by_name("A").unwrap().clone());
        let stats = DatabaseStats::from_database(&single);
        let mut gen = WorkloadGenerator::new(&single, 5);
        let workload = label_workload(&single, gen.single_workload("A", queries)).unwrap();
        let asked: Vec<_> = workload.queries.iter().map(|q| q.query.clone()).collect();
        let schema =
            ArSchema::build(single.schema(), &stats, &asked, &EncodingOptions::default()).unwrap();
        let model = ArModel::new(
            schema,
            &ArModelConfig {
                hidden: vec![8],
                seed: 11,
                residual: false,
            },
        );
        (model, workload, single)
    }

    /// A resumed run reports the work it did: the epochs restored from the
    /// checkpoint were processed by an earlier process.
    #[test]
    fn resumed_run_counts_only_the_epochs_it_ran() {
        let (_, workload, _) = figure3_a(24);
        let dir = std::env::temp_dir().join(format!("sam_train_rate_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = |epochs: usize| TrainConfig {
            epochs,
            batch_size: 8,
            seed: 21,
            checkpoint: Some(crate::checkpoint::CheckpointConfig::new(&dir, 2)),
            ..TrainConfig::default()
        };
        let first = train(&mut figure3_a(24).0, &workload, &cfg(2)).unwrap();
        assert_eq!(first.constraints_processed, 2 * workload.len());
        let resumed = train(&mut figure3_a(24).0, &workload, &cfg(5)).unwrap();
        assert_eq!(resumed.epoch_losses.len(), 5, "the run did resume");
        assert_eq!(resumed.constraints_processed, 3 * workload.len());
        // Nothing left to do: nothing processed.
        let again = train(&mut figure3_a(24).0, &workload, &cfg(5)).unwrap();
        assert_eq!(again.constraints_processed, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Values that cannot train are refused before the model is touched:
    /// `chunks(0)` panics, a zero temperature divides by zero, and a NaN
    /// learning rate turns every weight into NaN.
    #[test]
    fn unusable_hyperparameters_are_invalid() {
        let (mut model, workload, db) = figure3_a(8);
        let before = crate::persist::save_model(&model.freeze(), db.schema());
        let base = TrainConfig {
            epochs: 1,
            ..TrainConfig::default()
        };
        let bad = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -1e-3];
        let mut configs = vec![(
            "batch_size",
            TrainConfig {
                batch_size: 0,
                ..base.clone()
            },
        )];
        for v in bad {
            configs.push((
                "lr",
                TrainConfig {
                    lr: v,
                    ..base.clone()
                },
            ));
            configs.push((
                "temperature",
                TrainConfig {
                    temperature: v,
                    ..base.clone()
                },
            ));
        }
        for (name, config) in configs {
            match train(&mut model, &workload, &config) {
                Err(ArError::Invalid(message)) => assert!(message.contains(name), "{message}"),
                other => panic!("{name} in {config:?}: {other:?}"),
            }
        }
        let after = crate::persist::save_model(&model.freeze(), db.schema());
        assert_eq!(before, after, "a refused run must not touch the model");
    }

    /// A learning rate that overflows the weights is refused at the first
    /// epoch that leaves a non-finite parameter, not returned as a model.
    #[test]
    fn diverged_training_is_invalid() {
        let (mut model, workload, _) = figure3_a(8);
        let config = TrainConfig {
            epochs: 5,
            lr: f32::MAX,
            ..TrainConfig::default()
        };
        let mut epochs_seen = 0;
        let result = train_observed(&mut model, &workload, &config, &mut |p| {
            epochs_seen = p.epoch;
            TrainControl::Continue
        });
        match result {
            Err(ArError::Invalid(message)) => {
                assert!(message.contains("non-finite"), "{message}")
            }
            other => panic!("a diverged run returned {other:?}"),
        }
        assert!(
            epochs_seen < config.epochs,
            "the run stopped at the bad epoch"
        );
    }

    /// A checkpoint from a different training setup must be refused, not
    /// silently (and wrongly) resumed.
    #[test]
    fn checkpoint_fingerprint_mismatch_is_refused() {
        let db = paper_example::figure3_database();
        let single = sam_storage::Database::single(db.table_by_name("A").unwrap().clone());
        let stats = DatabaseStats::from_database(&single);
        let mut gen = WorkloadGenerator::new(&single, 6);
        let workload = label_workload(&single, gen.single_workload("A", 8)).unwrap();
        let schema = ArSchema::build(
            single.schema(),
            &stats,
            &workload
                .queries
                .iter()
                .map(|q| q.query.clone())
                .collect::<Vec<_>>(),
            &EncodingOptions::default(),
        )
        .unwrap();
        let dir = std::env::temp_dir().join(format!("sam_train_fpr_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mk = || ArModel::new(schema.clone(), &ArModelConfig::default());
        let cfg = |seed| TrainConfig {
            epochs: 1,
            batch_size: 4,
            seed,
            checkpoint: Some(crate::checkpoint::CheckpointConfig::new(&dir, 1)),
            ..TrainConfig::default()
        };
        train(&mut mk(), &workload, &cfg(1)).unwrap();
        let err = train(&mut mk(), &workload, &cfg(2)).unwrap_err();
        assert!(matches!(err, ArError::Invalid(m) if m.contains("different training setup")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_workload_is_rejected() {
        let db = paper_example::figure3_database();
        let stats = DatabaseStats::from_database(&db);
        let schema =
            ArSchema::build(db.schema(), &stats, &[], &EncodingOptions::default()).unwrap();
        let mut model = ArModel::new(schema, &ArModelConfig::default());
        let err = train(&mut model, &Workload::default(), &TrainConfig::default());
        assert!(err.is_err());
    }
}
