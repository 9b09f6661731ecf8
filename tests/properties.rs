//! Cross-crate property-based tests (proptest): join algebra, weighting,
//! and evaluator invariants on randomly generated small databases: a star,
//! the star with NULL fks or wide dictionaries, and a three-level chain.

use proptest::prelude::*;
use sam::ar::{ArSchema, EncodingOptions};
use sam::core::weigh_samples;
use sam::prelude::*;
use sam::storage::{
    foj_size, materialize_foj, Column, ColumnDef, Domain, ForeignKeyEdge, Table, TableSchema,
    NULL_CODE,
};
use std::sync::Arc;

/// How a random database departs from the plain star.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Shape {
    /// `A -> {B, C}`: every fk set, each dictionary exactly the values present.
    Star,
    /// The star with some fk values NULL.
    NullFks,
    /// The star with its join keys encoded over dictionaries wider than the
    /// values present: `A`'s pk over one, `B`'s and `C`'s fks over another
    /// they share, so fk and pk codes of the same value differ.
    WideDictionaries,
    /// A three-level chain `A -> B -> C`.
    Chain,
}

/// Every shape.
const ALL_SHAPES: &[Shape] = &[
    Shape::Star,
    Shape::NullFks,
    Shape::WideDictionaries,
    Shape::Chain,
];

/// The shapes `materialize_foj` handles: it panics on a NULL fk (ROADMAP,
/// correctness item).
const FOJ_SHAPES: &[Shape] = &[Shape::Star, Shape::WideDictionaries, Shape::Chain];

/// A table from rows; with `key_domain`, column 0 (the join key) is encoded
/// over that dictionary instead of the one its values derive.
fn table(schema: TableSchema, rows: &[Vec<Value>], key_domain: Option<&Arc<Domain>>) -> Table {
    let t = Table::from_rows(schema.clone(), rows).unwrap();
    let Some(domain) = key_domain else {
        return t;
    };
    let mut columns: Vec<Column> = (0..t.num_columns()).map(|c| t.column(c).clone()).collect();
    let codes = (0..t.num_rows())
        .map(|r| match t.value(r, 0) {
            Value::Null => NULL_CODE,
            v => domain.code_of(&v).unwrap(),
        })
        .collect();
    columns[0] = Column::new(Arc::clone(domain), codes);
    Table::new(schema, columns).unwrap()
}

/// A random small database of `shape` with integer content columns. `A` has
/// one row per `a_vals` entry (pk = row index); `B` and `C` rows are
/// `(key index, content)`, the key taken modulo the parent's row count.
fn random_db(
    shape: Shape,
    a_vals: Vec<u8>,
    b_rows: Vec<(u8, u8)>,
    c_rows: Vec<(u8, u8)>,
) -> Database {
    let chain = shape == Shape::Chain;
    let a_schema = TableSchema::new(
        "A",
        vec![
            ColumnDef::primary_key("x"),
            ColumnDef::content("a", DataType::Int),
        ],
    );
    let mut b_cols = vec![
        ColumnDef::foreign_key("x", "A"),
        ColumnDef::content("b", DataType::Int),
    ];
    if chain {
        b_cols.insert(0, ColumnDef::primary_key("y"));
    }
    let b_schema = TableSchema::new("B", b_cols);
    let c_schema = TableSchema::new(
        "C",
        vec![
            if chain {
                ColumnDef::foreign_key("y", "B")
            } else {
                ColumnDef::foreign_key("x", "A")
            },
            ColumnDef::content("c", DataType::Int),
        ],
    );
    let edge = |pk: &str, fk: &str, col: &str| ForeignKeyEdge {
        pk_table: pk.into(),
        fk_table: fk.into(),
        fk_column: col.into(),
    };
    let c_edge = if chain {
        edge("B", "C", "y")
    } else {
        edge("A", "C", "x")
    };
    let schema = sam::storage::DatabaseSchema::new(
        vec![a_schema.clone(), b_schema.clone(), c_schema.clone()],
        vec![edge("A", "B", "x"), c_edge],
    )
    .unwrap();

    let int = |v: usize| Value::Int(v as i64);
    let fk = |k: u8, n: usize| {
        if shape == Shape::NullFks && k == 5 {
            Value::Null
        } else {
            int(k as usize % n)
        }
    };
    let a_rows: Vec<Vec<Value>> = a_vals
        .iter()
        .enumerate()
        .map(|(i, &v)| vec![int(i), int(v as usize)])
        .collect();
    let n = a_rows.len();
    let b_rows: Vec<Vec<Value>> = b_rows
        .iter()
        .enumerate()
        .map(|(i, &(k, v))| {
            let row = vec![fk(k, n), int(v as usize)];
            if chain {
                [vec![int(i)], row].concat()
            } else {
                row
            }
        })
        .collect();
    // In the chain, C references B's rows; with no B rows it has none.
    let c_parents = if chain { b_rows.len() } else { n };
    let c_rows: Vec<Vec<Value>> = c_rows
        .iter()
        .filter(|_| c_parents > 0)
        .map(|&(k, v)| vec![fk(k, c_parents), int(v as usize)])
        .collect();
    let (pk_domain, fk_domain) = if shape == Shape::WideDictionaries {
        (
            Some(Domain::int_range(-2, 7).shared()),
            Some(Domain::int_range(-4, 9).shared()),
        )
    } else {
        (None, None)
    };
    Database::new(
        schema,
        vec![
            table(a_schema, &a_rows, pk_domain.as_ref()),
            table(b_schema, &b_rows, fk_domain.as_ref()),
            table(c_schema, &c_rows, fk_domain.as_ref()),
        ],
        true,
    )
    .unwrap()
}

/// Random small databases of the given shapes.
fn db_strategy(shapes: &'static [Shape]) -> impl Strategy<Value = Database> {
    (
        0..shapes.len(),
        prop::collection::vec(0u8..4, 1..6),
        prop::collection::vec((0u8..6, 0u8..4), 0..10),
        prop::collection::vec((0u8..6, 0u8..4), 0..10),
    )
        .prop_map(|(s, a, b, c)| random_db(shapes[s], a, b, c))
}

/// Random small databases of every shape.
fn star_strategy() -> impl Strategy<Value = Database> {
    db_strategy(ALL_SHAPES)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The counting FOJ size always equals the materialised row count.
    #[test]
    fn foj_size_matches_materialisation(db in db_strategy(FOJ_SHAPES)) {
        let counted = foj_size(&db);
        let materialised = materialize_foj(&db).num_rows() as u128;
        prop_assert_eq!(counted, materialised);
    }

    /// The fast evaluator agrees with the naive reference on random queries,
    /// over every shape: NULL fks, wide dictionaries and the chain.
    #[test]
    fn evaluators_agree(db in star_strategy(), seed in 0u64..500) {
        let mut gen = WorkloadGenerator::new(&db, seed);
        for q in gen.multi_workload(8, 2) {
            let fast = evaluate_cardinality(&db, &q).unwrap();
            let naive = sam::query::evaluate_naive(&db, &q).unwrap();
            prop_assert_eq!(fast, naive, "query {}", q);
        }
    }

    /// Engine counts agree with the evaluator on random queries.
    #[test]
    fn engine_agrees(db in star_strategy(), seed in 0u64..500) {
        let engine = sam::engine::Engine::new(&db);
        let mut gen = WorkloadGenerator::new(&db, seed);
        for q in gen.multi_workload(6, 2) {
            let (count, _) = engine.count(&q).unwrap();
            prop_assert_eq!(count, evaluate_cardinality(&db, &q).unwrap());
        }
    }

    /// IPW over the *exact* FOJ recovers every base relation's weight mass:
    /// scaled weights sum to |T| per table, and raw weights sum to |T| too
    /// (Theorem 1's finite-population identity: Σ_FOJ W_T = |T| exactly
    /// when the whole FOJ is the sample).
    #[test]
    fn ipw_mass_identity(db in db_strategy(FOJ_SHAPES)) {
        let stats = DatabaseStats::from_database(&db);
        let ar = ArSchema::build(db.schema(), &stats, &[], &EncodingOptions::default()).unwrap();
        let foj = materialize_foj(&db);
        // Convert the exact FOJ into model rows.
        let rows: Vec<Vec<u32>> = (0..foj.num_rows()).map(|r| {
            ar.columns().iter().map(|col| {
                let pos = match col.kind {
                    sam::ar::ArColumnKind::Content { table, column } =>
                        foj.schema.content_position(table, column).unwrap(),
                    sam::ar::ArColumnKind::Indicator { table } =>
                        foj.schema.indicator_index(table).unwrap(),
                    sam::ar::ArColumnKind::Fanout { table } =>
                        foj.schema.fanout_index(table).unwrap(),
                };
                let v = foj.value(r, pos);
                let code = col.encoding.base_domain().code_of(&v).unwrap_or(0);
                col.encoding.bin_of_code(code) as u32
            }).collect()
        }).collect();
        let w = weigh_samples(&ar, &rows);
        for t in 0..3 {
            let raw: f64 = (0..w.rows()).map(|r| w.weight(r, t)).sum();
            prop_assert!((raw - stats.table(t).num_rows as f64).abs() < 1e-6,
                "table {}: raw mass {} vs |T| {}", t, raw, stats.table(t).num_rows);
            let scaled: f64 = (0..w.rows()).map(|r| w.scaled(r, t)).sum();
            if stats.table(t).num_rows > 0 {
                prop_assert!((scaled - stats.table(t).num_rows as f64).abs() < 1e-6);
            }
        }
    }

    /// SQL rendering round-trips through the parser for generated queries.
    #[test]
    fn sql_round_trip(db in star_strategy(), seed in 0u64..500) {
        let mut gen = WorkloadGenerator::new(&db, seed);
        for q in gen.multi_workload(6, 2) {
            let parsed = parse_query(&q.to_string()).unwrap();
            prop_assert_eq!(parsed, q);
        }
    }
}
