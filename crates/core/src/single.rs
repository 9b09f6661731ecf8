//! Single-relation generation (paper §4.2, Algorithm 1).
//!
//! `|T|` tuples are sampled from the AR model (batched, embarrassingly
//! parallel; [`TrainedSam::generate_controlled`] samples them in cancellable
//! chunks), then each model bin is decoded to a concrete value — uniform
//! within intervalized bins (§4.3.2). Primary keys, if declared, are
//! sequential.
//!
//! [`TrainedSam::generate_controlled`]: crate::pipeline::TrainedSam::generate_controlled

use crate::assemble::TableEmitter;
use crate::error::SamError;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sam_ar::{ArSchema, ModelRow};
use sam_storage::{Database, TableSchema};

/// Emit the single-relation database of the sampled `rows`, one tuple per
/// row, decoding with an RNG derived from `seed`.
pub fn assemble_single_relation(
    table_schema: &TableSchema,
    ar: &ArSchema,
    rows: &[ModelRow],
    seed: u64,
) -> Result<Database, SamError> {
    if ar.graph().len() != 1 {
        return Err(SamError::Invalid(
            "single-relation generation requires a single-table model".into(),
        ));
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0xDECAF);
    let mut emitter = TableEmitter::new(ar, 0, table_schema.clone());
    for row in rows {
        emitter.push(row, None, None, &mut rng);
    }
    Ok(Database::single(emitter.finish()?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sam_ar::{sample_model_rows, ArModel, ArModelConfig, EncodingOptions};
    use sam_storage::{paper_example, DatabaseStats, Value};

    #[test]
    fn emits_one_tuple_per_sampled_row() {
        let db = paper_example::figure3_database();
        let single = Database::single(db.table_by_name("A").unwrap().clone());
        let stats = DatabaseStats::from_database(&single);
        let ar =
            ArSchema::build(single.schema(), &stats, &[], &EncodingOptions::default()).unwrap();
        let model = ArModel::new(ar, &ArModelConfig::default()).freeze();
        let schema = single.schema().table("A").unwrap().clone();
        let rows = sample_model_rows(&model, 37, 8, 5);
        let gen = assemble_single_relation(&schema, &model.schema, &rows, 5).unwrap();
        let t = gen.table_by_name("A").unwrap();
        assert_eq!(t.num_rows(), 37);
        // Sequential pks.
        assert_eq!(t.value(0, 0), Value::Int(1));
        assert_eq!(t.value(36, 0), Value::Int(37));
        // Content values stay inside the known domain.
        for v in t.column_by_name("a").unwrap().iter() {
            assert!(v == Value::str("m") || v == Value::str("n"));
        }
    }

    #[test]
    fn rejects_multi_table_model() {
        let db = paper_example::figure3_database();
        let stats = DatabaseStats::from_database(&db);
        let ar = ArSchema::build(db.schema(), &stats, &[], &EncodingOptions::default()).unwrap();
        let schema = db.schema().table("A").unwrap().clone();
        assert!(assemble_single_relation(&schema, &ar, &[], 1).is_err());
    }
}
