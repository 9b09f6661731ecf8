//! Train-as-a-service: background training jobs with checkpointed resume,
//! shadow evaluation on a held-out slice, and gated auto-promotion.
//!
//! `POST /train?model=M&...` accepts a streamed labelled workload body
//! (interchange format, optionally gzip/deflate content-coded — see
//! [`crate::http`]), splits off a holdout slice, and trains a candidate
//! model for `M` on a background thread. Every epoch end is journaled (and
//! checkpointed via [`sam_ar::CheckpointConfig`]), so a server killed
//! mid-train resumes the job bit-for-bit from the last checkpoint on the
//! next [`Server::replay_journal`]. When training completes, the candidate
//! is **shadow-evaluated**: candidate and incumbent both estimate every
//! holdout query with the same sample budget and seed, and the candidate is
//! promoted only if its p95 Q-Error passes the absolute gate
//! ([`ServeConfig::promote_max_qerror`], overridable per request with
//! `max_qerror=`) *and* does not regress the incumbent (ties promote — a
//! fresh model with equal quality wins). Promotion persists the candidate
//! weights in the job directory *before* the journal's `promoted` commit
//! event, then hot-swaps it into the [`ModelRegistry`] as a new version;
//! the superseded version stays available for `POST /models/{name}/rollback`.
//!
//! [`Server::replay_journal`]: crate::server::Server::replay_journal
//! [`ServeConfig::promote_max_qerror`]: crate::server::ServeConfig::promote_max_qerror

use crate::error::ServeError;
use crate::http::query_param;
use crate::jobs::{JobRecord, JobRegistry, JobState, TrainProgress};
use crate::journal::Journal;
use crate::registry::{ModelEntry, ModelRegistry};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sam_ar::{save_model, CheckpointConfig, Estimator, FrozenModel, TrainControl};
use sam_core::{Sam, SamConfig, TrainedSam};
use sam_metrics::q_error;
use sam_query::{format_workload, read_labeled_workload, Workload};
use sam_storage::DatabaseStats;
use serde_json::{json, Value};
use std::sync::Arc;

/// Hard cap on training epochs per job.
const MAX_EPOCHS: usize = 10_000;
/// Hard cap on progressive-sampling paths per holdout evaluation.
const MAX_EVAL_SAMPLES: usize = 100_000;

/// Everything a `POST /train` request pins down, parsed from its query
/// string. The workload itself travels in the request body. The spec
/// round-trips through the journal's `train_accepted` record
/// ([`to_value`](TrainSpec::to_value) / [`from_value`](TrainSpec::from_value))
/// so an interrupted job resumes under exactly the parameters it was
/// accepted with.
#[derive(Debug, Clone)]
pub struct TrainSpec {
    /// Registry name to retrain; must already be registered (the incumbent
    /// supplies the target schema and competes in shadow evaluation).
    pub model: String,
    /// Training epochs (`epochs=`, default 20).
    pub epochs: usize,
    /// Queries per gradient step (`batch=`, default 32).
    pub batch: usize,
    /// Adam learning rate (`lr=`, default 5e-3).
    pub lr: f32,
    /// Weight-init / shuffle seed (`seed=`, default 0) — with the spec and
    /// workload fixed, training is deterministic in this seed.
    pub seed: u64,
    /// Hidden layer widths, comma-separated (`hidden=24,16`, default `16`).
    pub hidden: Vec<usize>,
    /// Auto-split holdout fraction (`holdout=`, default 0.2). Ignored when
    /// any body line carries an explicit `"holdout":true` field.
    pub holdout: f64,
    /// Progressive-sampling paths per holdout estimate (`eval_samples=`,
    /// default 200).
    pub eval_samples: usize,
    /// RNG seed for holdout estimates (`eval_seed=`, default 0); candidate
    /// and incumbent are scored with identical seeds.
    pub eval_seed: u64,
    /// Checkpoint every N epochs (`checkpoint_every=`, default 1).
    pub checkpoint_every: usize,
    /// Per-request override of the server's absolute promotion gate
    /// (`max_qerror=`).
    pub max_qerror: Option<f64>,
    /// Directory of `{table}.csv` reference relations to derive training
    /// statistics from (`data=`); defaults to the incumbent's attached
    /// reference database.
    pub data: Option<String>,
}

impl TrainSpec {
    /// Parse a spec from a `POST /train` query string.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] for a missing `model`, an unparsable
    /// number, or an out-of-range value.
    pub fn from_query(query: &str) -> Result<TrainSpec, ServeError> {
        let param = |key: &str| query_param(query, key);
        let model = param("model")
            .filter(|m| !m.is_empty())
            .ok_or_else(|| ServeError::BadRequest("missing query parameter 'model'".to_string()))?
            .to_string();
        let num = |key: &str, default: u64| -> Result<u64, ServeError> {
            match param(key) {
                None => Ok(default),
                Some(v) => v.parse::<u64>().map_err(|_| {
                    ServeError::BadRequest(format!(
                        "parameter '{key}' must be an integer, got {v:?}"
                    ))
                }),
            }
        };
        let float = |key: &str| -> Result<Option<f64>, ServeError> {
            match param(key) {
                None => Ok(None),
                Some(v) => v.parse::<f64>().map(Some).map_err(|_| {
                    ServeError::BadRequest(format!("parameter '{key}' must be a number, got {v:?}"))
                }),
            }
        };
        // `str::parse::<f64>` takes `nan`, `inf` and negatives; none of them
        // may start a job.
        let positive = |key: &str, v: f64| -> Result<(), ServeError> {
            if v.is_finite() && v > 0.0 {
                return Ok(());
            }
            Err(ServeError::BadRequest(format!(
                "parameter '{key}' must be finite and > 0, got {v}"
            )))
        };
        let epochs = num("epochs", 20)?.clamp(1, MAX_EPOCHS as u64) as usize;
        let batch = num("batch", 32)?.max(1) as usize;
        // Checked at the width it trains at: 1e300 is `inf` and 1e-300 is 0.
        let lr = float("lr")?.unwrap_or(5e-3) as f32;
        positive("lr", f64::from(lr))?;
        let max_qerror = float("max_qerror")?;
        if let Some(q) = max_qerror {
            positive("max_qerror", q)?;
        }
        let holdout = float("holdout")?.unwrap_or(0.2);
        if !(0.0..1.0).contains(&holdout) {
            return Err(ServeError::BadRequest(format!(
                "parameter 'holdout' must be in [0, 1), got {holdout}"
            )));
        }
        let hidden = match param("hidden") {
            None => vec![16],
            Some(text) => text
                .split(',')
                .map(|w| {
                    w.parse::<usize>()
                        .ok()
                        .filter(|w| (1..=4096).contains(w))
                        .ok_or_else(|| {
                            ServeError::BadRequest(format!(
                                "parameter 'hidden' must be comma-separated widths, got {text:?}"
                            ))
                        })
                })
                .collect::<Result<Vec<_>, _>>()?,
        };
        Ok(TrainSpec {
            model,
            epochs,
            batch,
            lr,
            seed: num("seed", 0)?,
            hidden,
            holdout,
            eval_samples: num("eval_samples", 200)?.clamp(1, MAX_EVAL_SAMPLES as u64) as usize,
            eval_seed: num("eval_seed", 0)?,
            checkpoint_every: num("checkpoint_every", 1)?.max(1) as usize,
            max_qerror,
            data: param("data").map(str::to_string),
        })
    }

    /// The journal representation recorded with `train_accepted`.
    pub fn to_value(&self) -> Value {
        let hidden: Vec<Value> = self.hidden.iter().map(|w| json!(*w as u64)).collect();
        json!({
            "model": self.model.clone(),
            "epochs": self.epochs as u64,
            "batch": self.batch as u64,
            "lr": f64::from(self.lr),
            "seed": self.seed,
            "hidden": Value::Array(hidden),
            "holdout": self.holdout,
            "eval_samples": self.eval_samples as u64,
            "eval_seed": self.eval_seed,
            "checkpoint_every": self.checkpoint_every as u64,
            "max_qerror": self.max_qerror.map_or(Value::Null, |q| json!(q)),
            "data": self.data.clone().map_or(Value::Null, Value::String),
        })
    }

    /// Rebuild a spec from its journal representation (replay of an
    /// interrupted job).
    ///
    /// # Errors
    ///
    /// [`ServeError::Internal`] when required fields are missing — a journal
    /// record this code did not write.
    pub fn from_value(doc: &Value) -> Result<TrainSpec, ServeError> {
        let model = doc
            .get("model")
            .and_then(Value::as_str)
            .ok_or_else(|| ServeError::Internal("train spec record has no model".to_string()))?
            .to_string();
        let num = |key: &str, default: u64| doc.get(key).and_then(Value::as_u64).unwrap_or(default);
        let float = |key: &str| doc.get(key).and_then(Value::as_f64);
        let hidden = doc
            .get("hidden")
            .and_then(Value::as_array)
            .map(|ws| {
                ws.iter()
                    .filter_map(Value::as_u64)
                    .map(|w| w as usize)
                    .collect()
            })
            .filter(|ws: &Vec<usize>| !ws.is_empty())
            .unwrap_or_else(|| vec![16]);
        Ok(TrainSpec {
            model,
            epochs: num("epochs", 20).clamp(1, MAX_EPOCHS as u64) as usize,
            batch: num("batch", 32).max(1) as usize,
            lr: float("lr").unwrap_or(5e-3) as f32,
            seed: num("seed", 0),
            hidden,
            holdout: float("holdout").unwrap_or(0.2),
            eval_samples: num("eval_samples", 200).clamp(1, MAX_EVAL_SAMPLES as u64) as usize,
            eval_seed: num("eval_seed", 0),
            checkpoint_every: num("checkpoint_every", 1).max(1) as usize,
            max_qerror: float("max_qerror"),
            data: doc.get("data").and_then(Value::as_str).map(str::to_string),
        })
    }
}

/// A workload body partitioned into its training and holdout slices.
pub struct SplitWorkload {
    /// Queries the candidate trains on.
    pub train: Workload,
    /// Held-out queries reserved for shadow evaluation.
    pub holdout: Workload,
}

/// Split a labelled workload body into training and holdout slices.
///
/// Routing is explicit when any JSONL line carries `"holdout": true` (those
/// lines — and only those — are held out); otherwise a deterministic
/// `fraction` of lines is held out, keyed on line index and `seed`, with at
/// least one line held out whenever `fraction > 0`.
///
/// # Errors
///
/// [`ServeError::BadRequest`] when the body fails to parse, a line lacks a
/// cardinality label, or either slice ends up empty.
pub fn split_workload(body: &str, fraction: f64, seed: u64) -> Result<SplitWorkload, ServeError> {
    let mut lines: Vec<(&str, bool)> = Vec::new();
    let mut explicit = false;
    for line in body.lines() {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with("--") {
            continue;
        }
        let flagged = trimmed.starts_with('{')
            && serde_json::parse_value(trimmed)
                .ok()
                .and_then(|doc| doc.get("holdout").and_then(Value::as_bool))
                == Some(true);
        explicit |= flagged;
        lines.push((trimmed, flagged));
    }
    if lines.is_empty() {
        return Err(ServeError::BadRequest(
            "empty workload body: send one labelled query per line".to_string(),
        ));
    }
    let mut held: Vec<bool> = if explicit {
        lines.iter().map(|(_, flagged)| *flagged).collect()
    } else {
        // Deterministic per-line hash split; stable across identical
        // requests so retries land the same partition.
        lines
            .iter()
            .enumerate()
            .map(|(i, _)| {
                let h = (i as u64)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(seed.wrapping_mul(0xD1B5_4A32_D192_ED03))
                    .rotate_left(29);
                (h % 10_000) < (fraction * 10_000.0) as u64
            })
            .collect()
    };
    if !explicit && fraction > 0.0 && held.iter().all(|h| !h) {
        // Tiny workloads can hash entirely into the training slice; the
        // evaluation stage still needs something to score.
        *held.last_mut().expect("non-empty") = true;
    }
    let bucket = |want: bool| -> Result<Workload, ServeError> {
        let text: String = lines
            .iter()
            .zip(&held)
            .filter(|(_, h)| **h == want)
            .map(|((line, _), _)| format!("{line}\n"))
            .collect();
        read_labeled_workload(text.as_bytes())
            .map_err(|e| ServeError::BadRequest(format!("invalid workload: {e}")))
    };
    let train = bucket(false)?;
    let holdout = bucket(true)?;
    if train.is_empty() {
        return Err(ServeError::BadRequest(
            "training slice is empty: lower 'holdout' or unflag some lines".to_string(),
        ));
    }
    if holdout.is_empty() {
        return Err(ServeError::BadRequest(
            "holdout slice is empty: raise 'holdout' or flag lines with \"holdout\": true"
                .to_string(),
        ));
    }
    Ok(SplitWorkload { train, holdout })
}

/// Persist both slices of an accepted job's workload under its journal job
/// directory (`workload.sql` + `holdout.sql`, interchange format). Runs
/// **before** the `train_accepted` journal event, so an accepted record
/// implies the workload it promises is on disk — which is what makes an
/// interrupted job resumable with the exact same split.
///
/// # Errors
///
/// [`ServeError::Internal`] when the directory or files cannot be written.
pub fn persist_workload(
    journal: &Journal,
    id: u64,
    split: &SplitWorkload,
) -> Result<(), ServeError> {
    let dir = journal.job_dir(id);
    std::fs::create_dir_all(&dir)
        .map_err(|e| ServeError::Internal(format!("create {dir:?}: {e}")))?;
    for (name, workload) in [
        ("workload.sql", &split.train),
        ("holdout.sql", &split.holdout),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, format_workload(workload))
            .map_err(|e| ServeError::Internal(format!("write {path:?}: {e}")))?;
    }
    Ok(())
}

/// Reload the persisted slices of a journaled job (replay of an interrupted
/// train).
///
/// # Errors
///
/// [`ServeError::Internal`] when either file is missing or unparsable.
pub fn load_persisted_workload(journal: &Journal, id: u64) -> Result<SplitWorkload, ServeError> {
    let dir = journal.job_dir(id);
    let read = |name: &str| -> Result<Workload, ServeError> {
        let path = dir.join(name);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| ServeError::Internal(format!("read {path:?}: {e}")))?;
        read_labeled_workload(text.as_bytes())
            .map_err(|e| ServeError::Internal(format!("parse {path:?}: {e}")))
    };
    Ok(SplitWorkload {
        train: read("workload.sql")?,
        holdout: read("holdout.sql")?,
    })
}

/// Everything a training job needs, bundled for [`spawn`].
pub struct TrainJob {
    /// Pre-allocated job id (already journaled as accepted/resumed).
    pub id: u64,
    /// Accepted request parameters.
    pub spec: TrainSpec,
    /// The incumbent entry: supplies the target schema, competes in shadow
    /// evaluation, and donates its reference database to the winner.
    pub incumbent: Arc<ModelEntry>,
    /// Training and holdout slices.
    pub split: SplitWorkload,
    /// Metadata statistics for model-schema construction.
    pub stats: DatabaseStats,
    /// Registry the winner is promoted into.
    pub registry: Arc<ModelRegistry>,
    /// Absolute p95 Q-Error promotion gate (the server's
    /// `--promote-max-qerror`, unless the spec overrides it).
    pub promote_max_qerror: f64,
}

/// Start a training job on its own thread under its pre-allocated id, in
/// the shared job table (`JobRegistry::start` wraps the run in the
/// lifecycle every background job gets).
pub fn spawn(jobs: &JobRegistry, job: TrainJob) {
    let progress = TrainProgress::new(0, job.spec.epochs as u64, "accepted");
    let (model, version) = (&job.spec.model, job.incumbent.version);
    let record = JobRecord::new(job.id, model, version, Some(progress));
    jobs.start(record, move |record, journal| {
        run_train_job(&job, journal, record)
    });
}

/// Nearest-rank p95 over per-query Q-Errors of `model` on `holdout`, every
/// estimate drawn with the same `samples` and `seed` — the scoring both
/// sides of a shadow evaluation get. One estimator serves the whole holdout,
/// one query per call, so later queries reuse earlier prefixes while the
/// sample buffers stay one query's size.
fn p95_qerror(model: &FrozenModel, holdout: &Workload, samples: usize, seed: u64) -> f64 {
    let mut estimator = Estimator::new(model.clone());
    let mut errors: Vec<f64> = holdout
        .iter()
        .map(|lq| {
            let mut rng = StdRng::seed_from_u64(seed);
            let estimate = estimator
                .estimate(&lq.query, samples, &mut rng)
                .unwrap_or(f64::INFINITY);
            q_error(estimate, lq.cardinality as f64)
        })
        .collect();
    errors.sort_by(f64::total_cmp);
    let rank = ((errors.len() as f64 * 0.95).ceil() as usize).clamp(1, errors.len());
    errors[rank - 1]
}

/// The training work: fit the candidate (checkpointed when journalled),
/// then hand it to [`evaluate_and_promote`].
fn run_train_job(job: &TrainJob, journal: Option<&Journal>, record: &JobRecord) -> JobState {
    let progress = record
        .training
        .as_ref()
        .expect("training jobs carry training progress");
    progress.lock().stage = "training";
    let config = SamConfig {
        model: sam_ar::ArModelConfig {
            hidden: job.spec.hidden.clone(),
            seed: job.spec.seed,
            residual: false,
        },
        train: sam_ar::TrainConfig {
            epochs: job.spec.epochs,
            batch_size: job.spec.batch,
            lr: job.spec.lr,
            seed: job.spec.seed,
            checkpoint: journal.map(|j| {
                CheckpointConfig::new(j.job_dir(job.id).join("ckpt"), job.spec.checkpoint_every)
            }),
            ..Default::default()
        },
        encoding: Default::default(),
    };
    let schema = job.incumbent.trained.db_schema().clone();
    let fitted = Sam::fit_observed(&schema, &job.stats, &job.split.train, &config, &mut |p| {
        *progress.lock() = TrainProgress {
            loss: f64::from(p.loss),
            ..TrainProgress::new(p.epoch as u64, p.total_epochs as u64, "training")
        };
        if let Some(journal) = journal {
            journal.epoch(job.id, p.epoch, p.total_epochs, p.loss);
        }
        if record.control.is_cancelled() {
            TrainControl::Stop
        } else {
            TrainControl::Continue
        }
    });
    match fitted {
        Err(_) if record.control.is_cancelled() => JobState::Cancelled,
        Err(e) => JobState::Failed(e.to_string()),
        Ok(trained) => {
            progress.lock().stage = "evaluating";
            evaluate_and_promote(job, journal, trained)
        }
    }
}

/// The shadow-evaluation + promotion stage: score candidate and incumbent
/// on the holdout slice, gate, and either hot-swap the winner into the
/// registry (persisting its weights first — persist-then-commit, so a
/// `promoted` journal event implies the weights it promises exist) or keep
/// the incumbent.
fn evaluate_and_promote(
    job: &TrainJob,
    journal: Option<&Journal>,
    trained: TrainedSam,
) -> JobState {
    if let Some(journal) = journal {
        journal.evaluating(job.id);
    }
    let mut span = sam_obs::span!(
        "shadow_eval",
        job = job.id,
        holdout = job.split.holdout.len()
    );
    let candidate = Arc::new(trained);
    let samples = job.spec.eval_samples;
    let seed = job.spec.eval_seed;
    let candidate_p95 = p95_qerror(candidate.model(), &job.split.holdout, samples, seed);
    let incumbent_p95 = p95_qerror(
        job.incumbent.trained.model(),
        &job.split.holdout,
        samples,
        seed,
    );
    let gate = job.spec.max_qerror.unwrap_or(job.promote_max_qerror);
    // Ties promote: an equal candidate trained on fresher data wins.
    let promote = candidate_p95 <= gate && candidate_p95 <= incumbent_p95;
    span.record("candidate_p95", candidate_p95);
    span.record("promote", promote);
    let summary = json!({
        "candidate_p95": candidate_p95,
        "incumbent_p95": incumbent_p95,
        "incumbent_version": job.incumbent.version,
        "max_qerror": gate,
        "holdout_queries": job.split.holdout.len() as u64,
        "eval_samples": samples as u64,
        "epochs": job.spec.epochs as u64,
        "wall_seconds": candidate.report.wall_seconds,
    });
    if !promote {
        if let Some(journal) = journal {
            journal.rejected(job.id, &summary);
        }
        return JobState::Rejected { summary };
    }
    if let Some(journal) = journal {
        let path = journal.job_dir(job.id).join("model.json");
        let text = save_model(candidate.model(), candidate.db_schema());
        if let Err(e) = std::fs::write(&path, text) {
            return JobState::Failed(format!("persist candidate {path:?}: {e}"));
        }
    }
    let version = job.registry.promote(
        &job.spec.model,
        Arc::clone(&candidate),
        job.incumbent.reference.clone(),
    );
    if let Some(journal) = journal {
        journal.promoted(job.id, version, &summary);
    }
    JobState::Promoted { version, summary }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips_through_journal_value() {
        let spec = TrainSpec::from_query(
            "model=census&epochs=7&batch=4&lr=0.01&seed=9&hidden=24,12&holdout=0.3\
             &eval_samples=50&eval_seed=3&checkpoint_every=2&max_qerror=8.5&data=/tmp/d",
        )
        .unwrap();
        let back = TrainSpec::from_value(&spec.to_value()).unwrap();
        assert_eq!(back.model, "census");
        assert_eq!(back.epochs, 7);
        assert_eq!(back.batch, 4);
        assert_eq!(back.hidden, vec![24, 12]);
        assert_eq!(back.seed, 9);
        assert_eq!(back.eval_samples, 50);
        assert_eq!(back.eval_seed, 3);
        assert_eq!(back.checkpoint_every, 2);
        assert_eq!(back.max_qerror, Some(8.5));
        assert_eq!(back.data.as_deref(), Some("/tmp/d"));
        assert!((back.holdout - 0.3).abs() < 1e-9);
        assert!((f64::from(back.lr) - 0.01).abs() < 1e-9);
    }

    #[test]
    fn spec_rejects_bad_parameters() {
        assert!(TrainSpec::from_query("").is_err());
        assert!(TrainSpec::from_query("model=m&epochs=abc").is_err());
        assert!(TrainSpec::from_query("model=m&holdout=1.5").is_err());
        assert!(TrainSpec::from_query("model=m&hidden=12,zero").is_err());
        for key in ["lr", "max_qerror"] {
            for bad in ["nan", "inf", "-inf", "0", "-0.01"] {
                let Err(ServeError::BadRequest(message)) =
                    TrainSpec::from_query(&format!("model=m&{key}={bad}"))
                else {
                    panic!("{key}={bad} was accepted");
                };
                assert!(message.contains(&format!("'{key}'")), "{message}");
            }
        }
        // `lr` trains as an f32, where these are `inf` and `0`.
        assert!(TrainSpec::from_query("model=m&lr=1e300").is_err());
        assert!(TrainSpec::from_query("model=m&lr=1e-300").is_err());
        assert!(TrainSpec::from_query("model=m&lr=0.02&max_qerror=0.99").is_ok());
    }

    #[test]
    fn fraction_split_is_deterministic_and_nonempty() {
        let body: String = (0..20)
            .map(|i| format!("SELECT COUNT(*) FROM A WHERE A.x = {i} -- card={}\n", i + 1))
            .collect();
        let a = split_workload(&body, 0.25, 7).unwrap();
        let b = split_workload(&body, 0.25, 7).unwrap();
        assert_eq!(a.train.len(), b.train.len());
        assert_eq!(a.holdout.len(), b.holdout.len());
        assert_eq!(a.train.len() + a.holdout.len(), 20);
        assert!(!a.holdout.is_empty());

        // Tiny workloads still hold something out.
        let tiny = "SELECT COUNT(*) FROM A WHERE A.x = 1 -- card=1\n\
                    SELECT COUNT(*) FROM A WHERE A.x = 2 -- card=2\n";
        let s = split_workload(tiny, 0.01, 0).unwrap();
        assert_eq!(s.holdout.len(), 1);
        assert_eq!(s.train.len(), 1);
    }

    #[test]
    fn explicit_holdout_flags_override_fraction() {
        let body = r#"{"sql": "SELECT COUNT(*) FROM A WHERE A.x = 1", "card": 3}
{"sql": "SELECT COUNT(*) FROM A WHERE A.x = 2", "card": 4, "holdout": true}
SELECT COUNT(*) FROM A WHERE A.x = 3 -- card=5
"#;
        let s = split_workload(body, 0.9, 0).unwrap();
        assert_eq!(s.holdout.len(), 1);
        assert_eq!(s.holdout.queries[0].cardinality, 4);
        assert_eq!(s.train.len(), 2);
    }

    #[test]
    fn empty_slices_are_rejected() {
        assert!(split_workload("", 0.2, 0).is_err());
        let one = "SELECT COUNT(*) FROM A WHERE A.x = 1 -- card=1\n";
        // One line cannot fill both slices.
        assert!(split_workload(one, 0.5, 0).is_err());
        let all_held =
            r#"{"sql": "SELECT COUNT(*) FROM A WHERE A.x = 1", "card": 1, "holdout": true}"#;
        assert!(split_workload(all_held, 0.2, 0).is_err());
    }
}
