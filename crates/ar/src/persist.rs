//! Model persistence: save a trained [`FrozenModel`] to JSON and load it
//! back — train once, generate many times (or ship the model instead of
//! the workload).
//!
//! The file carries everything generation needs: the database schema (for
//! the join graph), the model columns with their base domains and interval
//! bins, table sizes, the normaliser, and the MADE's *effective* (masked)
//! weights.

use crate::encoding::ColumnEncoding;
use crate::error::ArError;
use crate::model::FrozenModel;
use crate::model_schema::{ArColumn, ArColumnKind, ArSchema};
use sam_fault::FaultFs;
use sam_nn::{FrozenMade, Matrix};
use sam_storage::{
    ColumnDef, ColumnRole, DataType, DatabaseSchema, Domain, ForeignKeyEdge, TableSchema, Value,
};
use serde::{Deserialize, Serialize};

/// Current format version. Version 2 added the [`LayoutDto`] weight-layout
/// section; files from every version in [`MIN_VERSION`]`..=VERSION` load.
const VERSION: u32 = 2;
/// Oldest format version [`load_model`] still accepts.
const MIN_VERSION: u32 = 1;
/// Kernel tags a v2 file may carry. Only `"f32"` is written; the other two
/// name retired quantised kernels and load onto the f32 one.
const LOADABLE_BACKENDS: [&str; 3] = ["f32", "f16", "int8"];

#[derive(Debug, Serialize, Deserialize)]
enum ValueDto {
    #[serde(rename = "null")]
    Null,
    #[serde(rename = "i")]
    Int(i64),
    #[serde(rename = "f")]
    Float(f64),
    #[serde(rename = "s")]
    Str(String),
}

impl From<&Value> for ValueDto {
    fn from(v: &Value) -> Self {
        match v {
            Value::Null => ValueDto::Null,
            Value::Int(x) => ValueDto::Int(*x),
            Value::Float(x) => ValueDto::Float(*x),
            Value::Str(s) => ValueDto::Str(s.to_string()),
        }
    }
}

impl From<&ValueDto> for Value {
    fn from(v: &ValueDto) -> Self {
        match v {
            ValueDto::Null => Value::Null,
            ValueDto::Int(x) => Value::Int(*x),
            ValueDto::Float(x) => Value::Float(*x),
            ValueDto::Str(s) => Value::str(s),
        }
    }
}

#[derive(Debug, Serialize, Deserialize)]
struct ColumnDefDto {
    name: String,
    dtype: String,
    role: String,
    references: Option<String>,
}

#[derive(Debug, Serialize, Deserialize)]
struct TableDto {
    name: String,
    columns: Vec<ColumnDefDto>,
}

#[derive(Debug, Serialize, Deserialize)]
struct EdgeDto {
    pk_table: String,
    fk_table: String,
    fk_column: String,
}

#[derive(Debug, Serialize, Deserialize)]
struct ArColumnDto {
    /// `content` / `indicator` / `fanout`.
    kind: String,
    table: usize,
    column: usize,
    name: String,
    base_values: Vec<ValueDto>,
    /// Bin start codes (ends implied by the next start / domain length).
    bin_starts: Vec<u32>,
}

#[derive(Debug, Serialize, Deserialize)]
struct MatrixDto {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

/// Weight-layout section (format v2+). On-disk weights are always the
/// canonical row-major `f32` layout, so checkpoints stay lossless and
/// portable. `backend` once named the kernel a model ran on when saved;
/// `"f32"` is the only value written, and files tagged with one of the
/// retired quantised kernels (`"f16"`, `"int8"`) load onto the f32 kernel,
/// as v1 files do.
#[derive(Debug, Serialize, Deserialize)]
struct LayoutDto {
    /// On-disk weight element encoding; `"f32"` is the only value written.
    weights: String,
    /// Inference kernel tag: `"f32"` is written; [`LOADABLE_BACKENDS`]
    /// are read.
    backend: String,
}

#[derive(Debug, Serialize, Deserialize)]
struct ModelFile {
    version: u32,
    tables: Vec<TableDto>,
    edges: Vec<EdgeDto>,
    columns: Vec<ArColumnDto>,
    table_sizes: Vec<u64>,
    normalizer: f64,
    domain_sizes: Vec<usize>,
    /// (effective weights, bias) per layer.
    layers: Vec<(MatrixDto, MatrixDto)>,
    /// Per-layer ResMADE residual flags (absent in plain MADE files).
    #[serde(default)]
    residual: Vec<bool>,
    /// Weight layout + kernel tag (absent in v1 files).
    #[serde(default)]
    layout: Option<LayoutDto>,
}

fn schema_to_dto(schema: &DatabaseSchema) -> (Vec<TableDto>, Vec<EdgeDto>) {
    let tables = schema
        .tables()
        .iter()
        .map(|t| TableDto {
            name: t.name.clone(),
            columns: t
                .columns
                .iter()
                .map(|c| {
                    let (role, references) = match &c.role {
                        ColumnRole::Content => ("content", None),
                        ColumnRole::PrimaryKey => ("pk", None),
                        ColumnRole::ForeignKey { references } => ("fk", Some(references.clone())),
                    };
                    ColumnDefDto {
                        name: c.name.clone(),
                        dtype: match c.dtype {
                            DataType::Int => "int".into(),
                            DataType::Float => "float".into(),
                            DataType::Str => "text".into(),
                        },
                        role: role.into(),
                        references,
                    }
                })
                .collect(),
        })
        .collect();
    let edges = schema
        .edges()
        .iter()
        .map(|e| EdgeDto {
            pk_table: e.pk_table.clone(),
            fk_table: e.fk_table.clone(),
            fk_column: e.fk_column.clone(),
        })
        .collect();
    (tables, edges)
}

fn schema_from_dto(tables: &[TableDto], edges: &[EdgeDto]) -> Result<DatabaseSchema, ArError> {
    let tables = tables
        .iter()
        .map(|t| {
            let columns = t
                .columns
                .iter()
                .map(|c| {
                    let dtype = match c.dtype.as_str() {
                        "int" => DataType::Int,
                        "float" => DataType::Float,
                        _ => DataType::Str,
                    };
                    let role = match c.role.as_str() {
                        "pk" => ColumnRole::PrimaryKey,
                        "fk" => ColumnRole::ForeignKey {
                            references: c.references.clone().unwrap_or_default(),
                        },
                        _ => ColumnRole::Content,
                    };
                    ColumnDef {
                        name: c.name.clone(),
                        dtype,
                        role,
                    }
                })
                .collect();
            TableSchema::new(t.name.clone(), columns)
        })
        .collect();
    let edges = edges
        .iter()
        .map(|e| ForeignKeyEdge {
            pk_table: e.pk_table.clone(),
            fk_table: e.fk_table.clone(),
            fk_column: e.fk_column.clone(),
        })
        .collect();
    DatabaseSchema::new(tables, edges).map_err(ArError::Storage)
}

/// Serialise a trained model to JSON.
pub fn save_model(model: &FrozenModel, db_schema: &DatabaseSchema) -> String {
    let (tables, edges) = schema_to_dto(db_schema);
    let columns = model
        .schema
        .columns()
        .iter()
        .map(|c| {
            let (kind, table, column) = match c.kind {
                ArColumnKind::Content { table, column } => ("content", table, column),
                ArColumnKind::Indicator { table } => ("indicator", table, 0),
                ArColumnKind::Fanout { table } => ("fanout", table, 0),
            };
            ArColumnDto {
                kind: kind.into(),
                table,
                column,
                name: c.name.clone(),
                base_values: c
                    .encoding
                    .base_domain()
                    .values()
                    .iter()
                    .map(ValueDto::from)
                    .collect(),
                bin_starts: (0..c.encoding.num_bins())
                    .map(|b| c.encoding.bin(b).start)
                    .collect(),
            }
        })
        .collect();
    let made = &model.net;
    let layers = made
        .layers()
        .iter()
        .map(|(w, b)| {
            (
                MatrixDto {
                    rows: w.rows(),
                    cols: w.cols(),
                    data: w.data().to_vec(),
                },
                MatrixDto {
                    rows: b.rows(),
                    cols: b.cols(),
                    data: b.data().to_vec(),
                },
            )
        })
        .collect();
    let file = ModelFile {
        version: VERSION,
        tables,
        edges,
        columns,
        table_sizes: (0..model.schema.graph().len())
            .map(|t| model.schema.table_size(t))
            .collect(),
        normalizer: model.schema.normalizer(),
        domain_sizes: model.schema.domain_sizes(),
        layers,
        residual: made.residual_flags().to_vec(),
        layout: Some(LayoutDto {
            weights: "f32".into(),
            backend: "f32".into(),
        }),
    };
    serde_json::to_string(&file).expect("model serialises")
}

/// Durably write a trained model to `path` through a [`FaultFs`], using the
/// tmp+fsync+rename commit protocol: a crash at any instant leaves either
/// the previous file (or nothing) or the complete new model — never a torn
/// JSON. Crash points: `model.save.pre_write` plus the generic
/// `atomic.tmp_written` / `atomic.pre_rename` inside the commit.
pub fn save_model_file(
    model: &FrozenModel,
    db_schema: &DatabaseSchema,
    path: &std::path::Path,
    fs: &dyn FaultFs,
) -> Result<(), ArError> {
    let json = save_model(model, db_schema);
    sam_fault::crash_point("model.save.pre_write");
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        fs.create_dir_all(parent)?;
    }
    sam_fault::write_atomic(fs, path, json.as_bytes())?;
    Ok(())
}

/// Load a model from `path` through a [`FaultFs`].
pub fn load_model_file(
    path: &std::path::Path,
    fs: &dyn FaultFs,
) -> Result<(FrozenModel, DatabaseSchema), ArError> {
    let bytes = fs.read(path)?;
    let json = std::str::from_utf8(&bytes)
        .map_err(|_| ArError::Invalid(format!("model file {} is not UTF-8", path.display())))?;
    load_model(json)
}

/// Load a model saved by [`save_model`], returning it with its schema.
///
/// Accepts every format version in `MIN_VERSION..=VERSION`. Every model runs
/// on the f32 kernel: v1 files (pre-layout) and v2 files tagged `f32`, `f16`
/// or `int8` load onto it; any other tag is refused.
pub fn load_model(json: &str) -> Result<(FrozenModel, DatabaseSchema), ArError> {
    let file: ModelFile =
        serde_json::from_str(json).map_err(|e| ArError::Invalid(format!("model JSON: {e}")))?;
    if !(MIN_VERSION..=VERSION).contains(&file.version) {
        return Err(ArError::Invalid(format!(
            "unsupported model version {} (supported: {MIN_VERSION}..={VERSION})",
            file.version
        )));
    }
    if let Some(layout) = &file.layout {
        if layout.weights != "f32" {
            return Err(ArError::Invalid(format!(
                "unsupported on-disk weight layout {:?} (expected \"f32\")",
                layout.weights
            )));
        }
        if !LOADABLE_BACKENDS.contains(&layout.backend.as_str()) {
            return Err(ArError::Invalid(format!(
                "unknown backend {:?} (model files name f32, f16 or int8)",
                layout.backend
            )));
        }
    }
    let db_schema = schema_from_dto(&file.tables, &file.edges)?;

    let columns = file
        .columns
        .iter()
        .map(|c| {
            let base = Domain::new(c.base_values.iter().map(Value::from).collect()).shared();
            let encoding = ColumnEncoding::intervalized(base, c.bin_starts.clone());
            let kind = match c.kind.as_str() {
                "content" => ArColumnKind::Content {
                    table: c.table,
                    column: c.column,
                },
                "indicator" => ArColumnKind::Indicator { table: c.table },
                "fanout" => ArColumnKind::Fanout { table: c.table },
                other => return Err(ArError::Invalid(format!("bad column kind {other:?}"))),
            };
            Ok(ArColumn {
                kind,
                name: c.name.clone(),
                encoding,
            })
        })
        .collect::<Result<Vec<_>, ArError>>()?;

    let schema = ArSchema::from_parts(&db_schema, columns, file.table_sizes, file.normalizer)?;
    if schema.domain_sizes() != file.domain_sizes {
        return Err(ArError::Invalid(
            "encoding bins do not match recorded domain sizes".into(),
        ));
    }
    let layers = file
        .layers
        .into_iter()
        .map(|(w, b)| Ok((matrix_from_dto(w)?, matrix_from_dto(b)?)))
        .collect::<Result<Vec<_>, ArError>>()?;
    // Plain-MADE files omit the flags.
    let residual = if file.residual.is_empty() {
        vec![false; layers.len()]
    } else {
        file.residual
    };
    let net = FrozenMade::from_parts(layers, residual, file.domain_sizes)
        .map_err(|e| ArError::Invalid(format!("model layers: {e}")))?;
    Ok((FrozenModel { schema, net }, db_schema))
}

/// A file-supplied matrix, checked before [`Matrix::from_vec`] would assert.
/// Every value must be finite: the JSON reader turns a number past `f32`'s
/// range (`1e39`) into `±inf`, and the forward kernels agree to the bit only
/// on finite weights (`0 · inf` is NaN in a dot product, while the axpy
/// forward skips the zero input).
fn matrix_from_dto(m: MatrixDto) -> Result<Matrix, ArError> {
    if m.rows.checked_mul(m.cols) != Some(m.data.len()) {
        return Err(ArError::Invalid(format!(
            "matrix declared {}x{} holds {} values",
            m.rows,
            m.cols,
            m.data.len()
        )));
    }
    if let Some(at) = m.data.iter().position(|v| !v.is_finite()) {
        return Err(ArError::Invalid(format!(
            "matrix value {at} is not a finite f32 ({})",
            m.data[at]
        )));
    }
    Ok(Matrix::from_vec(m.rows, m.cols, m.data))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer::Estimator;
    use crate::model::{ArModel, ArModelConfig};
    use crate::model_schema::EncodingOptions;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sam_query::Query;
    use sam_storage::{paper_example, DatabaseStats};

    #[test]
    fn save_load_round_trip_preserves_estimates_and_samples() {
        let db = paper_example::figure3_database();
        let stats = DatabaseStats::from_database(&db);
        // Plain MADE, then a ResMADE whose middle layer carries a skip.
        for (hidden, residual) in [(vec![16], false), (vec![16, 16], true)] {
            let schema =
                ArSchema::build(db.schema(), &stats, &[], &EncodingOptions::default()).unwrap();
            let model = ArModel::new(
                schema,
                &ArModelConfig {
                    hidden,
                    seed: 4,
                    residual,
                },
            )
            .freeze();
            assert_eq!(model.net.residual_flags().contains(&true), residual);

            let json = save_model(&model, db.schema());
            let (loaded, loaded_schema) = load_model(&json).unwrap();
            assert_eq!(&loaded_schema, db.schema());
            assert_eq!(loaded.schema.domain_sizes(), model.schema.domain_sizes());
            assert_eq!(loaded.schema.normalizer(), model.schema.normalizer());
            assert_eq!(loaded.net.residual_flags(), model.net.residual_flags());

            // Identical estimates under the same RNG stream.
            let q = Query::join(vec!["A".into(), "B".into()], vec![]);
            let a = Estimator::new(model.clone())
                .estimate(&q, 64, &mut StdRng::seed_from_u64(1))
                .unwrap();
            let b = Estimator::new(loaded.clone())
                .estimate(&q, 64, &mut StdRng::seed_from_u64(1))
                .unwrap();
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");

            // Identical samples under the same seed.
            let s1 = crate::sample::sample_model_rows(&model, 32, 8, 9);
            let s2 = crate::sample::sample_model_rows(&loaded, 32, 8, 9);
            assert_eq!(s1, s2);
        }
    }

    #[test]
    fn rejects_bad_version_and_garbage() {
        assert!(load_model("not json").is_err());
        let db = paper_example::figure3_database();
        let stats = DatabaseStats::from_database(&db);
        let schema =
            ArSchema::build(db.schema(), &stats, &[], &EncodingOptions::default()).unwrap();
        let model = ArModel::new(schema, &ArModelConfig::default()).freeze();
        let json = save_model(&model, db.schema());
        let bad = json.replace("\"version\":2", "\"version\":99");
        assert!(load_model(&bad).is_err());
        let bad_layout = json.replace("\"weights\":\"f32\"", "\"weights\":\"f64\"");
        assert!(load_model(&bad_layout).is_err());
    }

    /// A value past `f32`'s range reads as `±inf`; the matrix is refused
    /// rather than handed to a kernel.
    #[test]
    fn rejects_values_that_overflow_f32() {
        let read = |data: &str| {
            let text = format!(r#"{{"rows":1,"cols":3,"data":[0.5,{data},-0.25]}}"#);
            matrix_from_dto(serde_json::from_str(&text).expect("well-formed DTO"))
        };
        assert!(read("3e38").is_ok(), "the largest finite range still loads");
        for value in ["1e39", "-1e39"] {
            match read(value) {
                Err(ArError::Invalid(msg)) => assert!(msg.contains("finite"), "{msg}"),
                other => panic!("{value}: {other:?}"),
            }
        }
    }

    /// A file tagged with a retired quantised kernel loads onto the f32
    /// kernel with the same estimate bits as the untouched file, an unknown
    /// tag is refused by name, and re-saving gives the original bytes.
    #[test]
    fn quantised_backend_tags_load_onto_f32() {
        let db = paper_example::figure3_database();
        let stats = DatabaseStats::from_database(&db);
        let schema =
            ArSchema::build(db.schema(), &stats, &[], &EncodingOptions::default()).unwrap();
        let model = ArModel::new(schema, &ArModelConfig::default()).freeze();
        let json = save_model(&model, db.schema());
        assert_eq!(json.matches("\"backend\":\"f32\"").count(), 1);
        let q = Query::join(vec!["A".into(), "B".into()], vec![]);
        let estimate = |model| {
            Estimator::new(model)
                .estimate(&q, 32, &mut StdRng::seed_from_u64(3))
                .unwrap()
                .to_bits()
        };
        let (untouched, _) = load_model(&json).unwrap();
        let want = estimate(untouched);
        for tag in ["f16", "int8"] {
            let tagged = json.replace("\"backend\":\"f32\"", &format!("\"backend\":\"{tag}\""));
            let (loaded, loaded_schema) = load_model(&tagged).unwrap();
            assert_eq!(
                save_model(&loaded, &loaded_schema),
                json,
                "{tag} re-saves as f32"
            );
            assert_eq!(estimate(loaded), want, "{tag} estimates on f32");
        }
        let bf16 = json.replace("\"backend\":\"f32\"", "\"backend\":\"bf16\"");
        match load_model(&bf16) {
            Err(ArError::Invalid(msg)) => assert!(msg.contains("bf16"), "{msg}"),
            other => panic!("bf16 tag loaded: {:?}", other.map(|_| ())),
        }
    }
}
