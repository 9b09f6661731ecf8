//! The AR model: a (Res)MADE backbone bound to an [`ArSchema`]. Paper §4.1
//! allows "any learning-based AR architecture"; its experiments, and this
//! repo's, use MADE, so the backbone is a concrete type, not a choice.

use crate::model_schema::ArSchema;
use sam_nn::{FrozenMade, Made, MadeConfig, ParamStore};

/// Model hyperparameters.
#[derive(Debug, Clone)]
pub struct ArModelConfig {
    /// Hidden layer widths of the MADE backbone.
    pub hidden: Vec<usize>,
    /// Weight-init / mask seed.
    pub seed: u64,
    /// Use ResMADE residual blocks between equal-width hidden layers.
    pub residual: bool,
}

impl Default for ArModelConfig {
    fn default() -> Self {
        ArModelConfig {
            hidden: vec![64, 64],
            seed: 0,
            residual: false,
        }
    }
}

/// A trainable AR model of a database's (full-outer-join) distribution.
pub struct ArModel {
    schema: ArSchema,
    net: Made,
    store: ParamStore,
}

impl ArModel {
    /// Instantiate with freshly initialised weights.
    pub fn new(schema: ArSchema, config: &ArModelConfig) -> Self {
        let mut store = ParamStore::new();
        let net = Made::new(
            MadeConfig {
                domain_sizes: schema.domain_sizes(),
                hidden: config.hidden.clone(),
                seed: config.seed,
                residual: config.residual,
            },
            &mut store,
        );
        ArModel { schema, net, store }
    }

    /// The model schema.
    pub fn schema(&self) -> &ArSchema {
        &self.schema
    }

    /// The backbone network (training needs direct access).
    pub fn net(&self) -> &Made {
        &self.net
    }

    /// The parameter store.
    pub fn store(&self) -> &ParamStore {
        &self.store
    }

    /// Mutable parameter store (optimiser steps).
    pub fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    /// Disjoint borrows of the schema, network, and mutable parameter store
    /// (the training loop needs the store mutably while the network is
    /// borrowed).
    pub fn split_mut(&mut self) -> (&ArSchema, &Made, &mut ParamStore) {
        (&self.schema, &self.net, &mut self.store)
    }

    /// Total scalar parameter count.
    pub fn num_parameters(&self) -> usize {
        self.store.num_scalars()
    }

    /// Snapshot for inference and sampling (`Send + Sync`).
    pub fn freeze(&self) -> FrozenModel {
        FrozenModel {
            schema: self.schema.clone(),
            net: self.net.freeze(&self.store),
        }
    }
}

/// An immutable trained model: the sampling/estimation interface handed to
/// the generation stage.
#[derive(Clone)]
pub struct FrozenModel {
    /// The model schema (column order, encodings, normaliser).
    pub schema: ArSchema,
    /// The frozen backbone.
    pub net: FrozenMade,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model_schema::EncodingOptions;
    use sam_storage::{paper_example, DatabaseStats};

    fn schema() -> ArSchema {
        let db = paper_example::figure3_database();
        let stats = DatabaseStats::from_database(&db);
        ArSchema::build(db.schema(), &stats, &[], &EncodingOptions::default()).unwrap()
    }

    #[test]
    fn made_model_shapes_follow_schema() {
        let schema = schema();
        let total: usize = schema.domain_sizes().iter().sum();
        let model = ArModel::new(schema, &ArModelConfig::default());
        assert_eq!(model.net().total_width(), total);
        assert!(model.num_parameters() > 0);
        let frozen = model.freeze();
        assert_eq!(frozen.net.num_columns(), 7);
    }
}
