//! Group-and-Merge against an oracle: the `BTreeMap` implementation it had
//! before pieces became flat arrays, written out here unchanged apart from
//! reading weights through their accessors. On random model rows over the
//! Figure-3 schema (one key level) and a three-level `org → team → member`
//! tree (keys grouped by ancestor keys, boosts multiplied down two levels),
//! both must give the same pk tuples and the same pieces in the same order,
//! with equal rows, keys and fraction and boost bits. Row counts range from
//! a handful (scaled weights above 1, so pieces split into several keys) to
//! hundreds (group tails, so leftover resampling hands out boosted keys);
//! the test checks that both paths were taken.

use rand::prelude::*;
use rand::rngs::StdRng;
use sam::ar::{ArSchema, EncodingOptions, ModelRow};
use sam::core::{assign_keys_group_merge, weigh_samples, PkTuple, WeightedSamples};
use sam::prelude::*;
use std::collections::BTreeMap;

const EPS: f64 = 1e-9;

/// A piece as the oracle keeps it: one vector of keys and one of boosts.
#[derive(Debug, Clone)]
struct Piece {
    row: usize,
    fraction: f64,
    keys: Vec<Option<u64>>,
    boost: Vec<f64>,
}

impl Piece {
    fn effective_weight(&self, schema: &ArSchema, weights: &WeightedSamples, t: usize) -> f64 {
        let mut w = weights.scaled(self.row, t) * self.fraction;
        for a in schema.graph().ancestors(t) {
            w *= self.boost[a];
        }
        w
    }
}

type GroupMap = BTreeMap<(Vec<Option<u64>>, Vec<u32>), Vec<Piece>>;

/// Group-and-Merge as it was: a `BTreeMap` from (ancestor keys, identifier
/// bins) to the pieces of each group, one cloned `Piece` per carved chunk.
fn oracle(
    schema: &ArSchema,
    rows: &[ModelRow],
    weights: &WeightedSamples,
) -> (Vec<Piece>, Vec<Vec<PkTuple>>) {
    let graph = schema.graph();
    let n = graph.len();
    let mut pieces: Vec<Piece> = (0..rows.len())
        .map(|r| Piece {
            row: r,
            fraction: 1.0,
            keys: vec![None; n],
            boost: vec![1.0; n],
        })
        .collect();
    let mut pk_tuples: Vec<Vec<PkTuple>> = vec![Vec::new(); n];
    let pk_tables: Vec<usize> = graph
        .topo_order()
        .iter()
        .copied()
        .filter(|&t| !graph.children(t).is_empty())
        .collect();

    for p in pk_tables {
        let identifier = schema.identifier_columns(p);
        let ancestors = graph.ancestors(p);
        let parent = graph.parent(p);
        let mut groups: GroupMap = BTreeMap::new();
        let mut done: Vec<Piece> = Vec::new();
        for piece in pieces.drain(..) {
            let eligible = weights.participates(piece.row, p)
                && parent.is_none_or(|pp| piece.keys[pp].is_some());
            if !eligible {
                done.push(piece);
                continue;
            }
            let anc_keys: Vec<Option<u64>> = ancestors.iter().map(|&a| piece.keys[a]).collect();
            let id_bins: Vec<u32> = identifier.iter().map(|&c| rows[piece.row][c]).collect();
            groups.entry((anc_keys, id_bins)).or_default().push(piece);
        }

        let mut counter: u64 = 0;
        let mut leftovers: Vec<(Vec<Piece>, f64)> = Vec::new();
        for (_gk, group) in groups {
            let mut acc = 0.0f64;
            let mut current: Vec<Piece> = Vec::new();
            for mut piece in group {
                let row_unit = piece.effective_weight(schema, weights, p) / piece.fraction.max(EPS);
                let mut w = row_unit * piece.fraction;
                while acc + w >= 1.0 - EPS {
                    let take = (1.0 - acc).max(0.0);
                    let take_fraction = if row_unit > 0.0 { take / row_unit } else { 0.0 };
                    counter += 1;
                    let key = counter;
                    let mut head = piece.clone();
                    head.fraction = take_fraction.min(piece.fraction);
                    head.keys[p] = Some(key);
                    for mut prev in current.drain(..) {
                        prev.keys[p] = Some(key);
                        done.push(prev);
                    }
                    pk_tuples[p].push(PkTuple {
                        key,
                        row: head.row,
                        parent_key: parent.map(|pp| head.keys[pp].unwrap()),
                    });
                    piece.fraction -= head.fraction;
                    done.push(head);
                    w -= take;
                    acc = 0.0;
                    if piece.fraction <= EPS {
                        break;
                    }
                }
                if piece.fraction > EPS && w > EPS {
                    acc += w;
                    current.push(piece);
                }
            }
            if acc > EPS && !current.is_empty() {
                leftovers.push((current, acc));
            }
        }

        let total_tail: f64 = leftovers.iter().map(|(_, w)| w).sum();
        let n_keys = total_tail.round() as u64;
        if n_keys > 0 {
            let spacing = total_tail / n_keys as f64;
            let mut next_mark = spacing / 2.0;
            let mut cum = 0.0f64;
            for (mut set, w) in leftovers {
                cum += w;
                if next_mark < cum - EPS {
                    while next_mark < cum - EPS {
                        next_mark += spacing;
                    }
                    counter += 1;
                    let key = counter;
                    let pi = (w / spacing).min(1.0);
                    let rep = set[0].clone();
                    pk_tuples[p].push(PkTuple {
                        key,
                        row: rep.row,
                        parent_key: parent.map(|pp| rep.keys[pp].unwrap()),
                    });
                    for mut piece in set.drain(..) {
                        piece.keys[p] = Some(key);
                        piece.boost[p] = 1.0 / pi.max(EPS);
                        done.push(piece);
                    }
                } else {
                    done.append(&mut set);
                }
            }
        } else {
            for (mut set, _) in leftovers {
                done.append(&mut set);
            }
        }
        pieces = done;
    }
    (pieces, pk_tuples)
}

/// `org(id, sector) → team(id, org_id, size) → member(team_id, role)`.
fn three_level_db() -> Database {
    let org = TableSchema::new(
        "org",
        vec![
            ColumnDef::primary_key("id"),
            ColumnDef::content("sector", DataType::Int),
        ],
    );
    let team = TableSchema::new(
        "team",
        vec![
            ColumnDef::primary_key("id"),
            ColumnDef::foreign_key("org_id", "org"),
            ColumnDef::content("size", DataType::Int),
        ],
    );
    let member = TableSchema::new(
        "member",
        vec![
            ColumnDef::foreign_key("team_id", "team"),
            ColumnDef::content("role", DataType::Int),
        ],
    );
    let edge = |pk: &str, fk: &str, col: &str| ForeignKeyEdge {
        pk_table: pk.into(),
        fk_table: fk.into(),
        fk_column: col.into(),
    };
    let schema = DatabaseSchema::new(
        vec![org.clone(), team.clone(), member.clone()],
        vec![
            edge("org", "team", "org_id"),
            edge("team", "member", "team_id"),
        ],
    )
    .unwrap();
    let int = |v: i64| Value::Int(v);
    let orgs: Vec<Vec<Value>> = (1..=6).map(|o| vec![int(o), int(o % 3)]).collect();
    let teams: Vec<Vec<Value>> = (1..=10)
        .map(|t| vec![int(t), int(1 + t % 6), int(t % 2)])
        .collect();
    let members: Vec<Vec<Value>> = (0..24).map(|m| vec![int(1 + m % 10), int(m % 4)]).collect();
    let tables = vec![
        Table::from_rows(org, &orgs).unwrap(),
        Table::from_rows(team, &teams).unwrap(),
        Table::from_rows(member, &members).unwrap(),
    ];
    Database::new(schema, tables, true).unwrap()
}

fn ar_schema(db: &Database) -> ArSchema {
    let stats = DatabaseStats::from_database(db);
    ArSchema::build(db.schema(), &stats, &[], &EncodingOptions::default()).unwrap()
}

/// `count` rows of uniformly random bins; indicators are 1 three times in
/// four, so deeper tables participate often enough to be keyed.
fn random_rows(ar: &ArSchema, count: usize, rng: &mut StdRng) -> Vec<ModelRow> {
    let indicators: Vec<usize> = (0..ar.graph().len())
        .filter_map(|t| ar.indicator_pos(t))
        .collect();
    (0..count)
        .map(|_| {
            (0..ar.num_columns())
                .map(|pos| {
                    if indicators.contains(&pos) {
                        u32::from(rng.gen_bool(0.75))
                    } else {
                        rng.gen_range(0..ar.columns()[pos].encoding.num_bins() as u32)
                    }
                })
                .collect()
        })
        .collect()
}

#[test]
fn flat_group_merge_matches_the_btreemap_oracle_bit_for_bit() {
    for (name, db) in [
        ("figure3", sam::storage::paper_example::figure3_database()),
        ("three-level", three_level_db()),
    ] {
        let ar = ar_schema(&db);
        let n = ar.graph().len();
        let mut rng = StdRng::seed_from_u64(17);
        let mut split = 0usize; // pieces carrying part of a row under a key
        let mut boosted = 0usize; // pieces keyed by leftover resampling
        for case in 0..60 {
            let count = [2, 5, 12, 40, 150, 400][case % 6];
            let rows = random_rows(&ar, count, &mut rng);
            let weights = weigh_samples(&ar, &rows);
            let (want_pieces, want_tuples) = oracle(&ar, &rows, &weights);
            let got = assign_keys_group_merge(&ar, &rows, &weights);

            for (t, want) in want_tuples.iter().enumerate() {
                let got: Vec<_> = got
                    .pk_tuples(t)
                    .iter()
                    .map(|k| (k.key, k.row, k.parent_key))
                    .collect();
                let want: Vec<_> = want.iter().map(|k| (k.key, k.row, k.parent_key)).collect();
                assert_eq!(got, want, "{name} case {case}: pk tuples of table {t}");
            }
            assert_eq!(
                got.pieces().len(),
                want_pieces.len(),
                "{name} case {case}: piece count"
            );
            for (i, (g, w)) in got.pieces().zip(&want_pieces).enumerate() {
                let at = format!("{name} case {case}, piece {i}");
                assert_eq!(g.row, w.row, "{at}: row");
                assert_eq!(g.fraction.to_bits(), w.fraction.to_bits(), "{at}: fraction");
                for t in 0..n {
                    assert_eq!(g.key(t), w.keys[t], "{at}: key of table {t}");
                    let (gb, wb) = (g.boost(t), w.boost[t]);
                    assert_eq!(gb.to_bits(), wb.to_bits(), "{at}: boost of table {t}");
                }
                split += usize::from(w.fraction < 1.0 && w.keys.iter().any(Option::is_some));
                boosted += usize::from(w.boost.iter().any(|&b| b != 1.0));
            }
        }
        assert!(split > 0, "{name}: no case split a row across keys");
        assert!(boosted > 0, "{name}: no case reached leftover resampling");
    }
}
