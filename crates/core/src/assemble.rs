//! Turning weighted FOJ samples into base relations.
//!
//! Two join-key strategies:
//!
//! * [`JoinKeyStrategy::GroupAndMerge`] — the paper's Algorithm 3 (via
//!   [`crate::group_merge`]): keys derived from the full-outer-join sample
//!   itself, preserving correlations across *all* relations.
//! * [`JoinKeyStrategy::PairwiseViews`] — the naive baseline the paper's
//!   Figure 4 dissects (and the "SAM w/o Group-and-Merge" ablation of
//!   Tables 3/4/6): primary keys assigned in sample order, foreign keys
//!   resolved by matching only the *parent relation's content* — which keeps
//!   pairwise pk/fk correlation but breaks correlation between sibling
//!   relations.
//!
//! Both strategies, and single-relation generation, write tables through one
//! column-major `TableEmitter`: content columns as codes of the model's
//! base domains, key `k` as code `k - 1` of the integers from 1, each column
//! mapped onto the dictionary of the values it holds when the table is
//! finished. No row is ever a list of [`Value`](sam_storage::Value)s.
//!
//! Group-and-Merge leaves gather their contributions `(fk, row, weight)` in
//! one pass over the pieces, reading each table's ancestors once; tables are
//! then emitted one by one from a single RNG, in table and tuple order.

use crate::error::SamError;
use crate::group_merge::{assign_keys_group_merge, stable_order, AssignedKeys};
use crate::weights::WeightedSamples;
use rand::prelude::*;
use rand::rngs::StdRng;
use sam_ar::{ArSchema, ModelRow};
use sam_storage::{
    Column, ColumnRole, Database, DatabaseSchema, Domain, Table, TableSchema, NULL_CODE,
};
use std::collections::HashMap;

/// How join keys are assigned to generated base relations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKeyStrategy {
    /// Algorithm 3 (the paper's contribution).
    GroupAndMerge,
    /// Independent per-view assignment (the Figure-4 failure mode),
    /// used as the w/o-Group-and-Merge ablation.
    PairwiseViews,
}

/// One column of a table being emitted.
enum Emitted<'a> {
    /// A modelled content column: codes into its model base domain.
    Codes(&'a Domain, Vec<u32>),
    /// A key column: key `k` as code `k - 1` (keys count from 1), NULL as
    /// `NULL_CODE`.
    Keys(Vec<u32>),
    /// A content column the model leaves out (no observed values): NULL.
    Null,
}

/// Column-major builder of one generated table.
pub(crate) struct TableEmitter<'a> {
    ar: &'a ArSchema,
    t: usize,
    schema: TableSchema,
    /// One per schema column.
    columns: Vec<Emitted<'a>>,
    rows: usize,
    /// Last sequential primary key handed out.
    seq_pk: u64,
}

impl<'a> TableEmitter<'a> {
    /// An empty emitter for model table `t`, whose schema is `schema`.
    pub(crate) fn new(ar: &'a ArSchema, t: usize, schema: TableSchema) -> Self {
        let content = ar.content_pos(t);
        let columns = schema
            .columns
            .iter()
            .enumerate()
            .map(|(ci, col)| match col.role {
                ColumnRole::Content => match content.iter().find(|&&(c, _)| c == ci) {
                    Some(&(_, pos)) => {
                        Emitted::Codes(ar.columns()[pos].encoding.base_domain(), Vec::new())
                    }
                    None => Emitted::Null,
                },
                ColumnRole::PrimaryKey | ColumnRole::ForeignKey { .. } => Emitted::Keys(Vec::new()),
            })
            .collect();
        TableEmitter {
            ar,
            t,
            schema,
            columns,
            rows: 0,
            seq_pk: 0,
        }
    }

    /// Append one tuple: the content of sampled `row`, drawn uniformly
    /// within intervalized bins (content column by content column), the
    /// primary key `pk` (the next sequential key when `None`: paper, "assign
    /// values to the primary key columns sequentially") and the foreign key
    /// `fk` (NULL when `None`).
    pub(crate) fn push(
        &mut self,
        row: &ModelRow,
        pk: Option<u64>,
        fk: Option<u64>,
        rng: &mut StdRng,
    ) {
        for &(ci, pos) in self.ar.content_pos(self.t) {
            let code = self.ar.columns()[pos]
                .encoding
                .decode(row[pos] as usize, rng);
            if let Emitted::Codes(_, codes) = &mut self.columns[ci] {
                codes.push(code);
            }
        }
        for (col, def) in self.columns.iter_mut().zip(&self.schema.columns) {
            let Emitted::Keys(keys) = col else { continue };
            let key = match def.role {
                ColumnRole::PrimaryKey => Some(pk.unwrap_or_else(|| {
                    self.seq_pk += 1;
                    self.seq_pk
                })),
                _ => fk,
            };
            keys.push(key.map_or(NULL_CODE, |k| (k - 1) as u32));
        }
        self.rows += 1;
    }

    /// The finished table: each content column over the dictionary of the
    /// base values it holds, each key column over its distinct keys (a
    /// subset of `1..=` the largest).
    pub(crate) fn finish(self) -> Result<Table, SamError> {
        let rows = self.rows;
        let columns = self
            .columns
            .into_iter()
            .map(|col| match col {
                Emitted::Codes(base, codes) => Column::from_base_codes(base, codes),
                Emitted::Keys(codes) => {
                    let max = codes.iter().filter(|&&c| c != NULL_CODE).max();
                    let keys = Domain::int_range(1, max.map_or(0, |&c| i64::from(c) + 1));
                    Column::from_base_codes(&keys, codes)
                }
                Emitted::Null => Column::from_ints(&vec![None; rows]),
            })
            .collect();
        Ok(Table::new(self.schema, columns)?)
    }
}

/// Leaf emission: "aggregate the scaled weights" (paper §4.3.2) per
/// `(fk, content signature)` before rounding — rounding per contribution
/// would bias against fractional-weight contents that never land on a
/// carry boundary. `contribs` are `(fk, sampled row, weight)`; groups come
/// in ascending `(fk, signature)` order, each group's weights are summed in
/// contribution order, and its first contribution's row represents it.
/// `emit(fk, row)` is called once per whole tuple the running carry crosses.
fn emit_aggregated(
    ar: &ArSchema,
    t: usize,
    rows: &[ModelRow],
    contribs: &[(u64, usize, f64)],
    mut emit: impl FnMut(u64, usize),
) {
    let positions = ar.content_pos(t);
    let width = 1 + positions.len();
    let mut keys = Vec::with_capacity(contribs.len() * width);
    for &(fk, row, _) in contribs {
        keys.push(fk);
        keys.extend(positions.iter().map(|&(_, pos)| u64::from(rows[row][pos])));
    }
    let key = |i: usize| &keys[i * width..(i + 1) * width];
    // A stable sort keeps contribution order inside every group.
    let order = stable_order(contribs.len(), width, &keys);
    let mut carry = 0.0f64;
    for group in order.chunk_by(|&a, &b| key(a) == key(b)) {
        let (fk, rep_row, _) = contribs[group[0]];
        carry += group.iter().fold(0.0, |w, &i| w + contribs[i].2);
        while carry >= 1.0 - 1e-9 {
            carry -= 1.0;
            emit(fk, rep_row);
        }
    }
}

/// Put generated tables (indexed like the join graph) into schema order.
fn into_database(
    db_schema: &DatabaseSchema,
    ar: &ArSchema,
    tables: Vec<Table>,
) -> Result<Database, SamError> {
    let graph = ar.graph();
    let mut tables: Vec<Option<Table>> = tables.into_iter().map(Some).collect();
    let ordered = db_schema
        .tables()
        .iter()
        .map(|ts| {
            let idx = graph.index_of(&ts.name).expect("table in graph");
            tables[idx].take().expect("each table once")
        })
        .collect();
    Ok(Database::new(db_schema.clone(), ordered, true)?)
}

/// The schema of model table `t`.
fn table_schema(db_schema: &DatabaseSchema, ar: &ArSchema, t: usize) -> TableSchema {
    db_schema
        .table(&ar.graph().tables()[t])
        .expect("graph tables come from schema")
        .clone()
}

/// Assemble a multi-relation database with Group-and-Merge keys.
pub fn assemble_group_merge(
    db_schema: &DatabaseSchema,
    ar: &ArSchema,
    rows: &[ModelRow],
    weights: &WeightedSamples,
    assigned: &AssignedKeys,
    seed: u64,
) -> Result<Database, SamError> {
    let graph = ar.graph();
    let leaf = |t: usize| assigned.pk_tuples(t).is_empty() && graph.children(t).is_empty();
    // Every leaf table's contributions `(fk, row, weight)`, in piece order,
    // from one pass over the pieces.
    let leaves: Vec<(usize, Vec<usize>)> = (0..graph.len())
        .filter(|&t| leaf(t))
        .map(|t| (t, graph.ancestors(t)))
        .collect();
    let mut contribs = vec![Vec::new(); graph.len()];
    for piece in assigned.pieces() {
        for (t, ancestors) in &leaves {
            let fk = graph.parent(*t).map_or(Some(0), |p| piece.key(p));
            // A piece whose parent chunk was never keyed contributes nothing.
            if let (true, Some(fk)) = (weights.participates(piece.row, *t), fk) {
                let w = piece.effective_weight(weights, *t, ancestors);
                contribs[*t].push((fk, piece.row, w));
            }
        }
    }

    let mut rng = StdRng::seed_from_u64(seed);
    let mut tables = Vec::with_capacity(graph.len());
    for (t, contribs) in contribs.iter().enumerate() {
        let mut emitter = TableEmitter::new(ar, t, table_schema(db_schema, ar, t));
        if !leaf(t) {
            // Referenced table: one tuple per assigned key.
            for pk in assigned.pk_tuples(t) {
                emitter.push(&rows[pk.row], Some(pk.key), pk.parent_key, &mut rng);
            }
        } else {
            // Leaf table: aggregate per (parent key, content signature).
            let parent = graph.parent(t);
            emit_aggregated(ar, t, rows, contribs, |fk, row| {
                emitter.push(&rows[row], None, parent.map(|_| fk), &mut rng);
            });
        }
        tables.push(emitter.finish()?);
    }
    into_database(db_schema, ar, tables)
}

/// Assemble with the naive per-view key assignment (ablation baseline).
pub fn assemble_pairwise(
    db_schema: &DatabaseSchema,
    ar: &ArSchema,
    rows: &[ModelRow],
    weights: &WeightedSamples,
    seed: u64,
) -> Result<Database, SamError> {
    let graph = ar.graph();
    let n = graph.len();
    let mut rng = StdRng::seed_from_u64(seed);

    // Per referenced table: emitted keys with the representative row's
    // content-bin signature (the matching view of Figure 4 sees content
    // only — not fanouts, not sibling columns).
    let mut key_index: Vec<HashMap<Vec<u32>, Vec<u64>>> = vec![HashMap::new(); n];
    let mut key_rows: Vec<Vec<(u64, usize)>> = vec![Vec::new(); n];
    let content_sig = |t: usize, row: usize| -> Vec<u32> {
        ar.content_pos(t)
            .iter()
            .map(|&(_, pos)| rows[row][pos])
            .collect()
    };

    for &t in graph.topo_order() {
        if graph.children(t).is_empty() {
            continue;
        }
        // Assign keys in plain sample order — no identifier grouping.
        let mut cum = 0.0f64;
        let mut counter = 0u64;
        for r in (0..weights.rows()).filter(|&r| weights.participates(r, t)) {
            cum += weights.scaled(r, t);
            while cum >= 1.0 - 1e-9 {
                cum -= 1.0;
                counter += 1;
                key_rows[t].push((counter, r));
                key_index[t]
                    .entry(content_sig(t, r))
                    .or_default()
                    .push(counter);
            }
        }
    }

    // Resolve a foreign key for a tuple derived from `row` pointing at
    // parent `p`: uniform among parent keys whose content matches; fallback
    // uniform among all parent keys.
    let resolve_fk = |p: usize, row: usize, rng: &mut StdRng| -> Option<u64> {
        let sig = content_sig(p, row);
        if let Some(keys) = key_index[p].get(&sig) {
            return keys.choose(rng).copied();
        }
        let total = key_rows[p].len() as u64;
        if total == 0 {
            None
        } else {
            Some(rng.gen_range(1..=total))
        }
    };

    let mut tables = Vec::with_capacity(n);
    for (t, keyed) in key_rows.iter().enumerate() {
        let mut emitter = TableEmitter::new(ar, t, table_schema(db_schema, ar, t));
        let parent = graph.parent(t);
        if !graph.children(t).is_empty() {
            for &(key, row) in keyed {
                let fk = parent.and_then(|p| resolve_fk(p, row, &mut rng));
                emitter.push(&rows[row], Some(key), fk, &mut rng);
            }
        } else {
            // Aggregate scaled weights per content signature before rounding
            // (same fairness fix as Group-and-Merge emission); each emitted
            // copy resolves its fk independently through the pairwise view —
            // the naive strategy under test.
            let contribs: Vec<(u64, usize, f64)> = (0..weights.rows())
                .filter(|&r| weights.participates(r, t))
                .map(|r| (0, r, weights.scaled(r, t)))
                .collect();
            emit_aggregated(ar, t, rows, &contribs, |_, row| {
                let fk = match parent {
                    Some(p) => match resolve_fk(p, row, &mut rng) {
                        Some(k) => Some(k),
                        None => return,
                    },
                    None => None,
                };
                emitter.push(&rows[row], None, fk, &mut rng);
            });
        }
        tables.push(emitter.finish()?);
    }
    into_database(db_schema, ar, tables)
}

/// Generate a multi-relation database from sampled model rows (Algorithm 2
/// + chosen key strategy).
pub fn assemble_database(
    db_schema: &DatabaseSchema,
    ar: &ArSchema,
    rows: &[ModelRow],
    strategy: JoinKeyStrategy,
    seed: u64,
) -> Result<Database, SamError> {
    let weights = {
        let _span = sam_obs::span!("weight", rows = rows.len());
        crate::weights::weigh_samples(ar, rows)
    };
    match strategy {
        JoinKeyStrategy::GroupAndMerge => {
            let assigned = {
                let _span = sam_obs::span!("group_merge", rows = rows.len());
                assign_keys_group_merge(ar, rows, &weights)
            };
            let _span = sam_obs::span!("assemble", strategy = "group_merge");
            assemble_group_merge(db_schema, ar, rows, &weights, &assigned, seed)
        }
        JoinKeyStrategy::PairwiseViews => {
            let _span = sam_obs::span!("assemble", strategy = "pairwise");
            assemble_pairwise(db_schema, ar, rows, &weights, seed)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sam_ar::EncodingOptions;
    use sam_query::{evaluate_cardinality, Query};
    use sam_storage::{paper_example, DatabaseStats, Value};

    fn setup() -> (sam_storage::Database, ArSchema) {
        let db = paper_example::figure3_database();
        let stats = DatabaseStats::from_database(&db);
        let ar = ArSchema::build(db.schema(), &stats, &[], &EncodingOptions::default()).unwrap();
        (db, ar)
    }

    /// The Figure 3(c) samples (see weights.rs) with faithful content bins:
    /// row 0 = the (1,m) FOJ slice with B='a', C='i';
    /// rows 1–2 = the (2,m) slices with (B='b', C='i') and (B='c', C='j');
    /// row 3 = the NULL row for the 'n' tuples.
    fn figure3c_rows() -> Vec<ModelRow> {
        vec![
            vec![0, 1, 1, 0, 1, 2, 0],
            vec![0, 1, 2, 1, 1, 2, 0],
            vec![0, 1, 2, 2, 1, 2, 1],
            vec![1, 0, 0, 0, 0, 0, 0],
        ]
    }

    #[test]
    fn group_merge_recovers_paper_database_sizes() {
        let (db, ar) = setup();
        let gen = assemble_database(
            db.schema(),
            &ar,
            &figure3c_rows(),
            JoinKeyStrategy::GroupAndMerge,
            7,
        )
        .unwrap();
        assert_eq!(gen.table_by_name("A").unwrap().num_rows(), 4);
        assert_eq!(gen.table_by_name("B").unwrap().num_rows(), 3);
        assert_eq!(gen.table_by_name("C").unwrap().num_rows(), 4);
    }

    #[test]
    fn group_merge_recovers_join_cardinalities() {
        // The generated database must reproduce the original's join
        // cardinalities — the whole point of Group-and-Merge.
        let (db, ar) = setup();
        let gen = assemble_database(
            db.schema(),
            &ar,
            &figure3c_rows(),
            JoinKeyStrategy::GroupAndMerge,
            7,
        )
        .unwrap();
        for q in [
            Query::join(vec!["A".into(), "B".into()], vec![]),
            Query::join(vec!["A".into(), "C".into()], vec![]),
            Query::join(vec!["B".into(), "C".into()], vec![]),
            Query::join(vec!["A".into(), "B".into(), "C".into()], vec![]),
        ] {
            let truth = evaluate_cardinality(&db, &q).unwrap();
            let got = evaluate_cardinality(&gen, &q).unwrap();
            assert_eq!(got, truth, "query {q}");
        }
    }

    #[test]
    fn group_merge_recovers_content_marginals() {
        let (db, ar) = setup();
        let gen = assemble_database(
            db.schema(),
            &ar,
            &figure3c_rows(),
            JoinKeyStrategy::GroupAndMerge,
            7,
        )
        .unwrap();
        // A has 2 'm' and 2 'n' tuples.
        let a = gen.table_by_name("A").unwrap();
        let m_count = a
            .column_by_name("a")
            .unwrap()
            .iter()
            .filter(|v| *v == Value::str("m"))
            .count();
        assert_eq!(m_count, 2);
        let _ = db;
    }

    #[test]
    fn pairwise_preserves_sizes_but_may_break_sibling_joins() {
        let (db, ar) = setup();
        let gen = assemble_database(
            db.schema(),
            &ar,
            &figure3c_rows(),
            JoinKeyStrategy::PairwiseViews,
            11,
        )
        .unwrap();
        assert_eq!(gen.table_by_name("A").unwrap().num_rows(), 4);
        assert_eq!(gen.table_by_name("B").unwrap().num_rows(), 3);
        assert_eq!(gen.table_by_name("C").unwrap().num_rows(), 4);
        // Pairwise joins still close to truth; the FOJ-wide correlation may
        // differ (this is the documented failure mode, not asserted here).
        let q = Query::join(vec!["A".into(), "B".into()], vec![]);
        let truth = evaluate_cardinality(&db, &q).unwrap();
        let got = evaluate_cardinality(&gen, &q).unwrap();
        assert!((got as i64 - truth as i64).unsigned_abs() <= 3);
    }

    #[test]
    fn generated_database_passes_integrity_checks() {
        let (db, ar) = setup();
        // Database::new(check_integrity=true) runs inside assemble — reaching
        // here with Ok proves fk integrity.
        assert!(assemble_database(
            db.schema(),
            &ar,
            &figure3c_rows(),
            JoinKeyStrategy::GroupAndMerge,
            3,
        )
        .is_ok());
    }
}
