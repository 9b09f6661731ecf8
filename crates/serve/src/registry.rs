//! Versioned model registry with lock-light reads and hot swap.
//!
//! Each named slot holds an [`Arc<ModelEntry>`]; readers clone the `Arc` and
//! release the lock, so in-flight estimates keep using the model version they
//! resolved even while a reload swaps the slot underneath them. Versions are
//! per-name and bump on every swap, letting clients detect reloads. Every
//! entry owns one [`Estimator`] built from its own model, and its clones
//! share its prefix trie, so a swap is the only invalidation that trie ever
//! needs.

use crate::error::ServeError;
use crate::sync::{Lock, RwLock};
use sam_ar::{Estimator, TrainReport};
use sam_core::{Sam, TrainedSam};
use sam_storage::{csv::read_csv, Database, Table};
use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, OnceLock};

/// One registered model version.
pub struct ModelEntry {
    /// Registry name the model is addressed by.
    pub name: String,
    /// Monotone per-name version, starting at 1.
    pub version: u64,
    /// The trained pipeline (shared with in-flight requests and jobs).
    pub trained: Arc<TrainedSam>,
    /// The estimator for this exact model version. Each `/estimate` runs
    /// on its own connection thread through a clone of it
    /// ([`estimator_for_pass`](Self::estimator_for_pass)), so requests run
    /// side by side, reuse conditionals cached by every earlier one, and in
    /// steady state allocate no activation matrices. Living on the entry
    /// means a hot swap starts a fresh estimator.
    estimator: Estimator,
    /// Clones of `estimator` between passes, at most one per core.
    idle: Lock<Vec<Estimator>>,
    /// The relations this model was trained to represent, when the
    /// operator attached them (the `data` field of `POST /models`, or the
    /// third part of a `--models name=path=datadir` spec). Only a model
    /// with reference data is quality-scored: the monitor scores its
    /// sampled estimates against exact cardinalities.
    pub reference: Option<Arc<Database>>,
}

impl ModelEntry {
    /// A registered version, with a fresh estimator over its own model.
    fn new(
        name: &str,
        version: u64,
        trained: Arc<TrainedSam>,
        reference: Option<Arc<Database>>,
    ) -> Arc<ModelEntry> {
        Arc::new(ModelEntry {
            name: name.to_string(),
            version,
            estimator: Estimator::new(trained.model().clone()),
            idle: Lock::default(),
            trained,
            reference,
        })
    }

    /// A clone of the estimator for one pass: an idle one, or a new one
    /// when every clone is running. Never waits.
    pub(crate) fn estimator_for_pass(&self) -> Estimator {
        let idle = self.idle.lock().pop();
        idle.unwrap_or_else(|| self.estimator.clone())
    }

    /// Hand back a clone after its pass, keeping at most one per core.
    pub(crate) fn return_estimator(&self, estimator: Estimator) {
        static CORES: OnceLock<usize> = OnceLock::new();
        let cores =
            *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        let mut idle = self.idle.lock();
        if idle.len() < cores {
            idle.push(estimator);
        }
    }

    /// Table names of the model's target schema.
    pub fn table_names(&self) -> Vec<String> {
        self.trained
            .db_schema()
            .tables()
            .iter()
            .map(|t| t.name.clone())
            .collect()
    }
}

/// How many superseded versions each name retains for rollback.
pub const HISTORY_CAP: usize = 4;

/// One named slot: the live version, the retained prior versions, and the
/// name's version counter. The counter lives on the slot — never derived
/// from the current entry — so versions stay unique and monotone even after
/// a rollback re-registers an older model, and so two concurrent loads
/// (e.g. `POST /models` racing journal replay) can never mint the same id:
/// assignment happens entirely under the registry write lock.
struct ModelSlot {
    current: Arc<ModelEntry>,
    /// Superseded versions, oldest first, at most [`HISTORY_CAP`].
    history: Vec<Arc<ModelEntry>>,
    /// Next version to mint for this name; starts at 2 once v1 exists.
    next_version: u64,
}

/// Concurrent name → model map. All methods take `&self`.
#[derive(Default)]
pub struct ModelRegistry {
    inner: RwLock<HashMap<String, ModelSlot>>,
}

impl ModelRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or hot-swap) `trained` under `name`; returns the new version.
    pub fn insert(&self, name: &str, trained: TrainedSam) -> u64 {
        self.insert_entry(name, trained, None)
    }

    /// Register (or hot-swap) `trained` under `name` with its reference
    /// relations attached, enabling exact-mode quality scoring.
    pub fn insert_with_reference(
        &self,
        name: &str,
        trained: TrainedSam,
        reference: Arc<Database>,
    ) -> u64 {
        self.insert_entry(name, trained, Some(reference))
    }

    fn insert_entry(
        &self,
        name: &str,
        trained: TrainedSam,
        reference: Option<Arc<Database>>,
    ) -> u64 {
        self.swap_in(name, Arc::new(trained), reference)
    }

    /// Swap `trained` in as the new current version of `name`, retiring the
    /// incumbent into the rollback history. The whole operation — version
    /// assignment included — runs under one write lock.
    fn swap_in(
        &self,
        name: &str,
        trained: Arc<TrainedSam>,
        reference: Option<Arc<Database>>,
    ) -> u64 {
        let mut map = self.inner.write();
        match map.get_mut(name) {
            Some(slot) => {
                let version = slot.next_version;
                slot.next_version += 1;
                let entry = ModelEntry::new(name, version, trained, reference);
                let old = std::mem::replace(&mut slot.current, entry);
                slot.history.push(old);
                if slot.history.len() > HISTORY_CAP {
                    slot.history.remove(0);
                }
                version
            }
            None => {
                let entry = ModelEntry::new(name, 1, trained, reference);
                map.insert(
                    name.to_string(),
                    ModelSlot {
                        current: entry,
                        history: Vec::new(),
                        next_version: 2,
                    },
                );
                1
            }
        }
    }

    /// Promote an already-shared trained model (a training job's candidate)
    /// as the new current version of `name`. Returns the minted version.
    pub fn promote(
        &self,
        name: &str,
        trained: Arc<TrainedSam>,
        reference: Option<Arc<Database>>,
    ) -> u64 {
        self.swap_in(name, trained, reference)
    }

    /// Re-promote a persisted candidate (a training job's `model.json`)
    /// under `name`, preserving the slot's current reference database — journal replay's path for
    /// re-applying a recorded promotion.
    pub(crate) fn promote_from_file(&self, name: &str, path: &Path) -> Result<u64, ServeError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| ServeError::Internal(format!("cannot read candidate {path:?}: {e}")))?;
        let (model, db_schema) = sam_ar::load_model(&text)
            .map_err(|e| ServeError::Internal(format!("cannot load candidate {path:?}: {e}")))?;
        let reference = self.get(name).and_then(|e| e.reference.clone());
        let report = TrainReport {
            epoch_losses: Vec::new(),
            constraints_processed: 0,
            wall_seconds: 0.0,
        };
        Ok(self.swap_in(
            name,
            Arc::new(Sam::from_frozen(db_schema, model, report)),
            reference,
        ))
    }

    /// Roll `name` back to its most recently superseded version. The
    /// restored model is re-registered under a **new** monotone version (so
    /// version-keyed caches invalidate correctly and it gets a fresh
    /// estimator) but serves the prior version's weights bit-for-bit. The
    /// rolled-back current is dropped from the slot — repeated rollbacks
    /// walk further back through the history rather than toggling. Returns
    /// `(new_version, restored_from_version)`.
    pub fn rollback(&self, name: &str) -> Result<(u64, u64), ServeError> {
        let mut map = self.inner.write();
        let slot = map
            .get_mut(name)
            .ok_or_else(|| ServeError::NotFound(format!("no model named {name:?}")))?;
        let prior = slot.history.pop().ok_or_else(|| {
            ServeError::Conflict(format!(
                "model {name:?} has no prior version to roll back to"
            ))
        })?;
        let version = slot.next_version;
        slot.next_version += 1;
        let restored_from = prior.version;
        slot.current = ModelEntry::new(
            name,
            version,
            prior.trained.clone(),
            prior.reference.clone(),
        );
        Ok((version, restored_from))
    }

    /// Load a persisted model (the `sam_ar::save_model` JSON format) from
    /// `path` and register it under `name`. A load of an already-registered
    /// name is a hot swap: the version bumps and new requests see the new
    /// model while in-flight ones finish on the old `Arc`.
    pub fn load_file(&self, name: &str, path: &str) -> Result<u64, ServeError> {
        self.load_file_with_data(name, path, None)
    }

    /// [`load_file`](Self::load_file), optionally also loading the model's
    /// reference relations from a directory of `{table}.csv` files (one per
    /// table of the model's target schema) so the quality monitor can score
    /// in exact mode.
    pub fn load_file_with_data(
        &self,
        name: &str,
        path: &str,
        data_dir: Option<&str>,
    ) -> Result<u64, ServeError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| ServeError::BadRequest(format!("cannot read model file {path}: {e}")))?;
        let (model, db_schema) = sam_ar::load_model(&text)
            .map_err(|e| ServeError::BadRequest(format!("cannot load model {path}: {e}")))?;
        let reference = match data_dir {
            Some(dir) => Some(Arc::new(load_reference_database(&db_schema, dir.as_ref())?)),
            None => None,
        };
        // Persisted models carry no training telemetry; serve with an empty report.
        let report = TrainReport {
            epoch_losses: Vec::new(),
            constraints_processed: 0,
            wall_seconds: 0.0,
        };
        Ok(self.insert_entry(name, Sam::from_frozen(db_schema, model, report), reference))
    }

    /// Resolve a model by name.
    pub fn get(&self, name: &str) -> Option<Arc<ModelEntry>> {
        self.inner.read().get(name).map(|s| s.current.clone())
    }

    /// Versions retained for rollback under `name`, oldest first.
    pub fn history_versions(&self, name: &str) -> Vec<u64> {
        self.inner
            .read()
            .get(name)
            .map(|s| s.history.iter().map(|e| e.version).collect())
            .unwrap_or_default()
    }

    /// All registered models, sorted by name.
    pub fn list(&self) -> Vec<Arc<ModelEntry>> {
        let mut entries: Vec<_> = self
            .inner
            .read()
            .values()
            .map(|s| s.current.clone())
            .collect();
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        entries
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.inner.read().len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Read `{table}.csv` for every table of `schema` from `dir` and assemble
/// the reference [`Database`] (with integrity checking — this is
/// operator-supplied data, not bytes we persisted ourselves).
pub(crate) fn load_reference_database(
    schema: &sam_storage::DatabaseSchema,
    dir: &Path,
) -> Result<Database, ServeError> {
    let mut tables: Vec<Table> = Vec::new();
    for table_schema in schema.tables() {
        let path = dir.join(format!("{}.csv", table_schema.name));
        let file = std::fs::File::open(&path).map_err(|e| {
            ServeError::BadRequest(format!("cannot open reference data {path:?}: {e}"))
        })?;
        let table = read_csv(table_schema.clone(), std::io::BufReader::new(file))
            .map_err(|e| ServeError::BadRequest(format!("cannot parse {path:?}: {e}")))?;
        tables.push(table);
    }
    Database::new(schema.clone(), tables, true)
        .map_err(|e| ServeError::BadRequest(format!("reference data inconsistent: {e}")))
}
