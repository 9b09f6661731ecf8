//! Regenerates the persistence-format compatibility fixture under
//! `tests/fixtures/`. Run manually when a *new* format version is
//! introduced; committed fixtures for old versions must never be
//! regenerated (they lock the backward-compatibility contract).
//!
//! ```sh
//! cargo run -p sam-ar --example gen_persist_fixture > crates/ar/tests/fixtures/model_vN.json
//! ```

use sam_ar::{save_model, ArModel, ArModelConfig, ArSchema, EncodingOptions};
use sam_storage::{paper_example, DatabaseStats};

fn main() {
    let db = paper_example::figure3_database();
    let stats = DatabaseStats::from_database(&db);
    let schema = ArSchema::build(db.schema(), &stats, &[], &EncodingOptions::default()).unwrap();
    let model = ArModel::new(
        schema,
        &ArModelConfig {
            hidden: vec![16],
            seed: 4,
            residual: false,
        },
    )
    .freeze();
    println!("{}", save_model(&model, db.schema()));
}
