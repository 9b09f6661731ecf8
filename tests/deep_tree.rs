//! End-to-end coverage of the recursive multi-key Group-and-Merge on a
//! three-level join tree `org -> team -> member` — the case the paper
//! defers to its full version ("Alg. 3 can be easily extended to handle
//! multiple join keys by merging samples in a recursive manner").

use rand::prelude::*;
use rand::rngs::StdRng;
use sam::prelude::*;
use sam::storage::{ColumnDef, ForeignKeyEdge, Table, TableSchema};

/// org(id, sector) -> team(id, org_id, size_class) -> member(team_id, role).
fn deep_db(orgs: usize, seed: u64) -> Database {
    let org_schema = TableSchema::new(
        "org",
        vec![
            ColumnDef::primary_key("id"),
            ColumnDef::content("sector", DataType::Int),
        ],
    );
    let team_schema = TableSchema::new(
        "team",
        vec![
            ColumnDef::primary_key("id"),
            ColumnDef::foreign_key("org_id", "org"),
            ColumnDef::content("size_class", DataType::Int),
        ],
    );
    let member_schema = TableSchema::new(
        "member",
        vec![
            ColumnDef::foreign_key("team_id", "team"),
            ColumnDef::content("role", DataType::Int),
        ],
    );
    let schema = sam::storage::DatabaseSchema::new(
        vec![
            org_schema.clone(),
            team_schema.clone(),
            member_schema.clone(),
        ],
        vec![
            ForeignKeyEdge {
                pk_table: "org".into(),
                fk_table: "team".into(),
                fk_column: "org_id".into(),
            },
            ForeignKeyEdge {
                pk_table: "team".into(),
                fk_table: "member".into(),
                fk_column: "team_id".into(),
            },
        ],
    )
    .unwrap();

    let mut rng = StdRng::seed_from_u64(seed);
    let mut org_rows = Vec::new();
    let mut team_rows = Vec::new();
    let mut member_rows = Vec::new();
    let mut team_id = 0i64;
    for org in 1..=orgs as i64 {
        let sector = rng.gen_range(0..4i64);
        org_rows.push(vec![Value::Int(org), Value::Int(sector)]);
        // Sector drives team count; size class drives member fanout.
        let teams = 1 + rng.gen_range(0..=(sector as usize + 1));
        for _ in 0..teams {
            team_id += 1;
            let size_class = rng.gen_range(0..3i64);
            team_rows.push(vec![
                Value::Int(team_id),
                Value::Int(org),
                Value::Int(size_class),
            ]);
            let members = (size_class as usize + 1) * 2;
            for _ in 0..members {
                // Role correlates with sector — a cross-level correlation
                // only the full-outer-join model can see.
                let role = (sector + rng.gen_range(0..2i64)) % 5;
                member_rows.push(vec![Value::Int(team_id), Value::Int(role)]);
            }
        }
    }
    Database::new(
        schema,
        vec![
            Table::from_rows(org_schema, &org_rows).unwrap(),
            Table::from_rows(team_schema, &team_rows).unwrap(),
            Table::from_rows(member_schema, &member_rows).unwrap(),
        ],
        true,
    )
    .unwrap()
}

#[test]
fn three_level_tree_pipeline() {
    let target = deep_db(120, 5);
    let stats = DatabaseStats::from_database(&target);
    assert_eq!(
        target.graph().ancestors(2),
        vec![1, 0],
        "member -> team -> org"
    );

    let mut gen = WorkloadGenerator::new(&target, 5);
    let workload = label_workload(&target, gen.multi_workload(250, 2)).unwrap();

    let config = SamConfig {
        model: ArModelConfig {
            hidden: vec![24],
            seed: 5,
            residual: false,
        },
        train: TrainConfig {
            epochs: 8,
            batch_size: 32,
            lr: 1e-2,
            seed: 5,
            ..Default::default()
        },
        encoding: EncodingOptions::default(),
    };
    let trained = Sam::fit(target.schema(), &stats, &workload, &config).unwrap();
    let (synthetic, _) = trained
        .generate(&GenerationConfig {
            foj_samples: 4_000,
            batch: 256,
            seed: 5,
            strategy: JoinKeyStrategy::GroupAndMerge,
        })
        .unwrap();

    // All three levels regenerate near their sizes.
    for t in target.tables() {
        let want = t.num_rows() as f64;
        let got = synthetic.table_by_name(t.name()).unwrap().num_rows() as f64;
        assert!(
            (got - want).abs() <= (want * 0.30).max(10.0),
            "{}: {got} vs {want}",
            t.name()
        );
    }

    // fk integrity across BOTH levels held (checked during assembly), and
    // the 3-level chain join has sane cardinality.
    let chain = Query::join(vec!["org".into(), "team".into(), "member".into()], vec![]);
    let want = evaluate_cardinality(&target, &chain).unwrap() as f64;
    let got = evaluate_cardinality(&synthetic, &chain).unwrap() as f64;
    assert!(
        q_error(got, want) < 2.0,
        "3-level chain join: {got} vs {want}"
    );
}

#[test]
fn deep_tree_exact_recovery_from_true_foj() {
    // With ideal samples (the true FOJ), the recursive Group-and-Merge must
    // reproduce every join cardinality exactly, across both key levels.
    use sam::ar::{ArSchema, EncodingOptions};
    use sam::core::assemble_database;
    use sam::storage::materialize_foj;

    let db = deep_db(40, 9);
    let stats = DatabaseStats::from_database(&db);
    let ar = ArSchema::build(db.schema(), &stats, &[], &EncodingOptions::default()).unwrap();
    let foj = materialize_foj(&db);
    let rows: Vec<Vec<u32>> = (0..foj.num_rows())
        .map(|r| {
            ar.columns()
                .iter()
                .map(|col| {
                    let pos = match col.kind {
                        sam::ar::ArColumnKind::Content { table, column } => {
                            foj.schema.content_position(table, column).unwrap()
                        }
                        sam::ar::ArColumnKind::Indicator { table } => {
                            foj.schema.indicator_index(table).unwrap()
                        }
                        sam::ar::ArColumnKind::Fanout { table } => {
                            foj.schema.fanout_index(table).unwrap()
                        }
                    };
                    let v = foj.value(r, pos);
                    let code = col.encoding.base_domain().code_of(&v).unwrap_or(0);
                    col.encoding.bin_of_code(code) as u32
                })
                .collect()
        })
        .collect();

    let generated =
        assemble_database(db.schema(), &ar, &rows, JoinKeyStrategy::GroupAndMerge, 7).unwrap();

    for t in db.tables() {
        assert_eq!(
            generated.table_by_name(t.name()).unwrap().num_rows(),
            t.num_rows(),
            "size of {}",
            t.name()
        );
    }
    let mut gen = WorkloadGenerator::new(&db, 11);
    let mut exact = 0usize;
    let mut total = 0usize;
    for q in gen.multi_workload(80, 2) {
        let want = evaluate_cardinality(&db, &q).unwrap();
        let got = evaluate_cardinality(&generated, &q).unwrap();
        total += 1;
        if want == got {
            exact += 1;
        }
        // Every query must be close even when the recursive carving had to
        // split fractional pieces.
        assert!(
            q_error(got as f64, want as f64) < 1.6,
            "query {q}: {got} vs {want}"
        );
    }
    assert!(
        exact * 10 >= total * 7,
        "only {exact}/{total} queries exactly recovered"
    );
}
