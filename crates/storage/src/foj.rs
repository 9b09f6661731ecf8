//! Full outer join with virtual columns (paper §4.1 "Join Handling").
//!
//! SAM models the joint distribution of the *full outer join* of all
//! relations. The FOJ's virtual schema contains, per table in topological
//! order: an **indicator** column `I_T` (1 if `T` participates in the row)
//! and a **fanout** column `F_T.key` (how many rows of `T` carry the row's
//! join-key value) for every non-root table, followed by `T`'s content
//! columns. Join-key columns themselves are *not* part of the virtual schema.
//!
//! This module materialises the FOJ of a [`Database`] (for ground truth and
//! tests), computes its size without materialisation, and derives the
//! *identifier columns* of a primary key (Theorem 2) used by Group-and-Merge.

use crate::column::Column;
use crate::database::Database;
use crate::domain::{Domain, NULL_CODE};
use crate::join_graph::JoinGraph;
use crate::value::Value;
use std::collections::HashMap;
use std::sync::Arc;

/// What a virtual-schema column refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FojColumnKind {
    /// Content column `column` (index into the table schema) of table `table`
    /// (join-graph index).
    Content {
        /// Join-graph table index.
        table: usize,
        /// Column index within the base table schema.
        column: usize,
    },
    /// Indicator `I_T` of non-root table `table`: 1 if present in the row.
    Indicator {
        /// Join-graph table index.
        table: usize,
    },
    /// Fanout `F_{T.key}` of non-root table `table`: occurrences of the row's
    /// join-key value in `table`'s fk column (0 when the key joins nothing).
    Fanout {
        /// Join-graph table index.
        table: usize,
    },
}

/// One column of the FOJ virtual schema.
#[derive(Debug, Clone)]
pub struct FojColumn {
    /// What this column refers to.
    pub kind: FojColumnKind,
    /// Human-readable name, e.g. `A.a`, `I_B`, `F_B.x`.
    pub name: String,
}

/// The FOJ virtual schema: ordered [`FojColumn`]s over a join graph.
#[derive(Debug, Clone)]
pub struct FojSchema {
    columns: Vec<FojColumn>,
    /// `indicator_index[t]` = position of `I_t`, if `t` is non-root.
    indicator_index: Vec<Option<usize>>,
    /// `fanout_index[t]` = position of `F_t`, if `t` is non-root.
    fanout_index: Vec<Option<usize>>,
    /// `content_index[t]` = positions of `t`'s content columns, in order.
    content_index: Vec<Vec<usize>>,
}

impl FojSchema {
    /// Build the virtual schema for a database's join graph.
    ///
    /// Column order: tables in root-first topological order; per non-root
    /// table first `I_T` then `F_T`, then the table's content columns.
    pub fn new(db: &Database) -> Self {
        let graph = db.graph();
        let n = graph.len();
        let mut columns = Vec::new();
        let mut indicator_index = vec![None; n];
        let mut fanout_index = vec![None; n];
        let mut content_index = vec![Vec::new(); n];

        for &t in graph.topo_order() {
            let table = db.table(t);
            let tname = table.name();
            if graph.parent(t).is_some() {
                indicator_index[t] = Some(columns.len());
                columns.push(FojColumn {
                    kind: FojColumnKind::Indicator { table: t },
                    name: format!("I_{tname}"),
                });
                fanout_index[t] = Some(columns.len());
                let fk = graph.fk_column(t).expect("non-root has fk");
                columns.push(FojColumn {
                    kind: FojColumnKind::Fanout { table: t },
                    name: format!("F_{tname}.{fk}"),
                });
            }
            for ci in table.schema().content_indices() {
                content_index[t].push(columns.len());
                columns.push(FojColumn {
                    kind: FojColumnKind::Content {
                        table: t,
                        column: ci,
                    },
                    name: format!("{tname}.{}", table.schema().columns[ci].name),
                });
            }
        }

        FojSchema {
            columns,
            indicator_index,
            fanout_index,
            content_index,
        }
    }

    /// Number of virtual columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True iff the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// All virtual columns in order.
    pub fn columns(&self) -> &[FojColumn] {
        &self.columns
    }

    /// Position of `I_t` (non-root tables only).
    pub fn indicator_index(&self, t: usize) -> Option<usize> {
        self.indicator_index[t]
    }

    /// Position of `F_t` (non-root tables only).
    pub fn fanout_index(&self, t: usize) -> Option<usize> {
        self.fanout_index[t]
    }

    /// Positions of table `t`'s content columns.
    pub fn content_indices(&self, t: usize) -> &[usize] {
        &self.content_index[t]
    }

    /// Position of the virtual column for base column (`t`, `col`).
    pub fn content_position(&self, t: usize, col: usize) -> Option<usize> {
        self.columns.iter().position(|c| {
            c.kind
                == FojColumnKind::Content {
                    table: t,
                    column: col,
                }
        })
    }

    /// All virtual-column positions belonging to table `t`'s subtree
    /// (used to NULL-out an absent child subtree).
    pub fn subtree_positions(&self, graph: &JoinGraph, t: usize) -> Vec<usize> {
        let mut out = Vec::new();
        for s in graph.subtree(t) {
            if let Some(i) = self.indicator_index[s] {
                out.push(i);
            }
            if let Some(i) = self.fanout_index[s] {
                out.push(i);
            }
            out.extend(self.content_index[s].iter().copied());
        }
        out
    }

    /// The *identifier columns* of `t`'s primary key (Theorem 2): indicator
    /// and content columns of `{t} ∪ Ancestors(t)`, plus fanout columns of
    /// every fk table whose parent lies in `{t} ∪ Ancestors(t)`.
    ///
    /// FOJ rows sharing the join key `t.pk` agree on all of these columns.
    pub fn identifier_columns(&self, graph: &JoinGraph, t: usize) -> Vec<usize> {
        let mut closure = graph.ancestors(t);
        closure.push(t);
        let mut out = Vec::new();
        for &s in &closure {
            if let Some(i) = self.indicator_index[s] {
                out.push(i);
            }
            out.extend(self.content_index[s].iter().copied());
        }
        for other in 0..graph.len() {
            if let Some(p) = graph.parent(other) {
                if closure.contains(&p) {
                    if let Some(i) = self.fanout_index[other] {
                        out.push(i);
                    }
                }
            }
        }
        out.sort_unstable();
        out
    }
}

/// A materialised full outer join: virtual schema plus dictionary-encoded
/// columns. Content columns share their base tables' domains, indicators use
/// `{0, 1}`, and fanouts use the set of observed fanout values.
#[derive(Debug, Clone)]
pub struct Foj {
    /// The virtual schema.
    pub schema: FojSchema,
    /// One column per virtual-schema entry.
    pub columns: Vec<Column>,
    rows: usize,
}

impl Foj {
    /// Number of FOJ rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Decoded value at (`row`, virtual column `col`).
    pub fn value(&self, row: usize, col: usize) -> Value {
        self.columns[col].value(row)
    }

    /// One decoded row.
    pub fn row(&self, row: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.value(row)).collect()
    }
}

/// Per-table, per-non-root fanout dictionaries used when materialising:
/// `fanout_domains[t]` maps every parent pk value to its fanout in `t`
/// (including 0), plus the [`Domain`] of distinct fanout values.
struct FanoutInfo {
    /// Per parent-pk-value fanout counts (0 for unmatched keys).
    per_key: HashMap<Value, u64>,
    /// Domain of distinct observed fanout values.
    domain: Arc<Domain>,
}

fn fanout_info(db: &Database, t: usize) -> FanoutInfo {
    let graph = db.graph();
    let parent = graph.parent(t).expect("fanout only for non-root");
    let pk_idx = db.table(parent).schema().pk_index().expect("parent has pk");
    let counts = db.fanout_of(t).expect("non-root table has fanout");
    let mut per_key = HashMap::new();
    let mut distinct: Vec<Value> = Vec::new();
    for v in db.table(parent).column(pk_idx).iter() {
        let c = counts.get(&v).copied().unwrap_or(0);
        distinct.push(Value::Int(c as i64));
        per_key.insert(v, c);
    }
    FanoutInfo {
        per_key,
        domain: Domain::new(distinct).shared(),
    }
}

/// Materialise the full outer join of `db`.
///
/// Memory is `O(|FOJ| × columns)`; intended for ground truth at test scale.
/// Use [`foj_size`] when only the row count is needed.
pub fn materialize_foj(db: &Database) -> Foj {
    let schema = FojSchema::new(db);
    let graph = db.graph();
    let width = schema.len();
    let n = graph.len();

    let indicator_domain = Domain::new(vec![Value::Int(0), Value::Int(1)]).shared();
    let fanouts: Vec<Option<FanoutInfo>> = (0..n)
        .map(|t| graph.parent(t).is_some().then(|| fanout_info(db, t)))
        .collect();

    // expand(t): full-width rows covering t's subtree slots, grouped by t's
    // fk value (root: single group under Value::Null).
    fn expand(
        db: &Database,
        schema: &FojSchema,
        fanouts: &[Option<FanoutInfo>],
        t: usize,
        width: usize,
    ) -> HashMap<Value, Vec<Vec<u32>>> {
        let graph = db.graph();
        let table = db.table(t);
        let children = graph.children(t).to_vec();
        let child_frags: Vec<HashMap<Value, Vec<Vec<u32>>>> = children
            .iter()
            .map(|&c| expand(db, schema, fanouts, c, width))
            .collect();
        let null_slots: Vec<Vec<usize>> = children
            .iter()
            .map(|&c| schema.subtree_positions(graph, c))
            .collect();

        let pk_idx = table.schema().pk_index();
        let fk_idx = graph
            .fk_column(t)
            .and_then(|name| table.schema().column_index(name));
        let content_cols = table.schema().content_indices();

        let mut out: HashMap<Value, Vec<Vec<u32>>> = HashMap::new();
        for r in 0..table.num_rows() {
            let mut base = vec![NULL_CODE; width];
            if let Some(ind) = schema.indicator_index(t) {
                base[ind] = 1; // indicator domain {0,1}: code 1 == value 1
            }
            if let Some(fan) = schema.fanout_index(t) {
                // This row's own fanout value: fanout of its fk value in t.
                let info = fanouts[t].as_ref().expect("non-root fanout");
                let fkv = table.value(r, fk_idx.expect("non-root fk idx"));
                let f = info.per_key.get(&fkv).copied().unwrap_or(0);
                base[fan] = info
                    .domain
                    .code_of(&Value::Int(f as i64))
                    .expect("observed fanout in domain");
            }
            for (&ci, &pos) in content_cols.iter().zip(schema.content_indices(t)) {
                base[pos] = table.column(ci).code(r);
            }

            let mut frags = vec![base];
            let pkv = pk_idx.map(|i| table.value(r, i));
            for (k, &c) in children.iter().enumerate() {
                let info = fanouts[c].as_ref().expect("child fanout");
                let pkv = pkv.as_ref().expect("table with children has pk");
                let fanout_val = info.per_key.get(pkv).copied().unwrap_or(0);
                let fanout_code = info
                    .domain
                    .code_of(&Value::Int(fanout_val as i64))
                    .expect("fanout value in domain");
                let matches = child_frags[k].get(pkv);
                match matches {
                    Some(ms) if !ms.is_empty() => {
                        let mut next = Vec::with_capacity(frags.len() * ms.len());
                        for f in &frags {
                            for m in ms {
                                let mut merged = f.clone();
                                for &slot in &null_slots[k] {
                                    merged[slot] = m[slot];
                                }
                                // The child fragment already carries I_c=1 and
                                // its own fanout code; fanout code equals
                                // fanout_code by construction.
                                debug_assert_eq!(
                                    merged[schema.fanout_index(c).unwrap()],
                                    fanout_code
                                );
                                next.push(merged);
                            }
                        }
                        frags = next;
                    }
                    _ => {
                        // Child subtree absent: indicators 0, fanouts 0,
                        // content NULL across the whole subtree.
                        for f in frags.iter_mut() {
                            for &slot in &null_slots[k] {
                                f[slot] = NULL_CODE;
                            }
                            for s in graph.subtree(c) {
                                if let Some(i) = schema.indicator_index(s) {
                                    f[i] = 0; // value 0 at code 0
                                }
                                if let Some(i) = schema.fanout_index(s) {
                                    let dom = &fanouts[s].as_ref().unwrap().domain;
                                    // 0 is in the domain whenever any key is
                                    // unmatched; otherwise fall back to NULL.
                                    f[i] = dom.code_of(&Value::Int(0)).unwrap_or(NULL_CODE);
                                }
                            }
                        }
                    }
                }
            }

            let key = match fk_idx {
                Some(i) => table.value(r, i),
                None => Value::Null,
            };
            out.entry(key).or_default().extend(frags);
        }
        out
    }

    let grouped = expand(db, &schema, &fanouts, graph.root(), width);
    let rows: Vec<Vec<u32>> = grouped.into_values().flatten().collect();
    let nrows = rows.len();

    // Assemble columnar storage with the right domains.
    let mut columns = Vec::with_capacity(width);
    for (pos, col) in schema.columns().iter().enumerate() {
        let domain = match col.kind {
            FojColumnKind::Content { table, column } => {
                Arc::clone(db.table(table).column(column).domain())
            }
            FojColumnKind::Indicator { .. } => Arc::clone(&indicator_domain),
            FojColumnKind::Fanout { table } => Arc::clone(&fanouts[table].as_ref().unwrap().domain),
        };
        let codes = rows.iter().map(|r| r[pos]).collect();
        columns.push(Column::new(domain, codes));
    }

    Foj {
        schema,
        columns,
        rows: nrows,
    }
}

/// The FOJ row count, computed bottom-up without materialisation.
///
/// For each table, a row's subtree weight is the product over children of
/// the summed subtree weights of matching child rows (1 when none match,
/// because the outer join keeps the row with a NULL side).
pub fn foj_size(db: &Database) -> u128 {
    let graph = db.graph();
    let n = graph.len();
    // weights[t]: per-row subtree weight.
    let mut weights: Vec<Vec<u128>> = vec![Vec::new(); n];
    // Process children before parents: reverse topological order.
    for &t in graph.topo_order().iter().rev() {
        let mut w = vec![1u128; db.table(t).num_rows()];
        for &c in graph.children(t) {
            let sums = db
                .join_sums(c, &weights[c])
                .expect("a validated join edge has fk and pk columns");
            for (wt, s) in w.iter_mut().zip(sums) {
                *wt *= s.max(1);
            }
        }
        weights[t] = w;
    }
    weights[graph.root()].iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_example;

    #[test]
    fn figure3_foj_has_8_rows() {
        let db = paper_example::figure3_database();
        let foj = materialize_foj(&db);
        assert_eq!(foj.num_rows(), 8);
        assert_eq!(foj_size(&db), 8);
    }

    #[test]
    fn figure3_marginals_match_paper() {
        // P((1,m)) = 2/8, P((2,m)) = 4/8 in the FOJ (paper §4.3.1).
        let db = paper_example::figure3_database();
        let foj = materialize_foj(&db);
        let a = db.graph().index_of("A").unwrap();
        let a_content = foj.schema.content_indices(a)[0];
        let count_m_x = |x: &str| {
            (0..foj.num_rows())
                .filter(|&r| foj.value(r, a_content) == Value::str(x))
                .count()
        };
        assert_eq!(count_m_x("m"), 6); // rows for (1,m) + (2,m)
        assert_eq!(count_m_x("n"), 2); // the two non-joining tuples
    }

    #[test]
    fn figure3_fanout_columns() {
        let db = paper_example::figure3_database();
        let foj = materialize_foj(&db);
        let g = db.graph();
        let (a, b, c) = (
            g.index_of("A").unwrap(),
            g.index_of("B").unwrap(),
            g.index_of("C").unwrap(),
        );
        let a_col = foj.schema.content_indices(a)[0];
        let fb = foj.schema.fanout_index(b).unwrap();
        let fc = foj.schema.fanout_index(c).unwrap();
        let ib = foj.schema.indicator_index(b).unwrap();

        for r in 0..foj.num_rows() {
            match foj.value(r, a_col).as_str().unwrap() {
                "m" => {
                    let fb_v = foj.value(r, fb).as_int().unwrap();
                    let fc_v = foj.value(r, fc).as_int().unwrap();
                    assert_eq!(fc_v, 2);
                    assert!(fb_v == 1 || fb_v == 2);
                    assert_eq!(foj.value(r, ib), Value::Int(1));
                }
                "n" => {
                    assert_eq!(foj.value(r, ib), Value::Int(0));
                    assert_eq!(foj.value(r, fb), Value::Int(0));
                    assert_eq!(foj.value(r, fc), Value::Int(0));
                }
                other => panic!("unexpected content {other}"),
            }
        }
    }

    #[test]
    fn identifier_columns_match_paper_example() {
        // Identifier(A.x) = {A.a, F_B.x, F_C.x} (plus I_A, which does not
        // exist for the root under fk integrity).
        let db = paper_example::figure3_database();
        let foj = materialize_foj(&db);
        let g = db.graph();
        let a = g.index_of("A").unwrap();
        let ids = foj.schema.identifier_columns(g, a);
        let names: Vec<&str> = ids
            .iter()
            .map(|&i| foj.schema.columns()[i].name.as_str())
            .collect();
        assert_eq!(names, vec!["A.a", "F_B.x", "F_C.x"]);
    }

    #[test]
    fn rows_sharing_pk_share_identifier_columns() {
        // Theorem 2 sanity check on the materialised FOJ: group rows by the
        // originating A pk (recoverable here because content determines pk in
        // the fixture for joined rows).
        let db = paper_example::figure3_database();
        let foj = materialize_foj(&db);
        let g = db.graph();
        let a = g.index_of("A").unwrap();
        let b = g.index_of("B").unwrap();
        let ids = foj.schema.identifier_columns(g, a);
        let fb = foj.schema.fanout_index(b).unwrap();

        // Rows with F_B = 2 all originate from pk 2: identifiers must agree.
        let sig = |r: usize| -> Vec<Value> { ids.iter().map(|&i| foj.value(r, i)).collect() };
        let rows2: Vec<usize> = (0..foj.num_rows())
            .filter(|&r| foj.value(r, fb) == Value::Int(2))
            .collect();
        assert_eq!(rows2.len(), 4);
        for &r in &rows2[1..] {
            assert_eq!(sig(r), sig(rows2[0]));
        }
    }

    #[test]
    fn schema_layout() {
        let db = paper_example::figure3_database();
        let schema = FojSchema::new(&db);
        let names: Vec<&str> = schema.columns().iter().map(|c| c.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["A.a", "I_B", "F_B.x", "B.b", "I_C", "F_C.x", "C.c"]
        );
    }

    #[test]
    fn deeper_tree_foj_size() {
        use crate::schema::{ColumnDef, DatabaseSchema, ForeignKeyEdge, TableSchema};
        use crate::table::Table;
        use crate::value::{DataType, Value};

        // A(pk) -> B(pk, fk A) -> D(fk B); B rows fan out via D.
        let a_schema = TableSchema::new(
            "A",
            vec![
                ColumnDef::primary_key("id"),
                ColumnDef::content("a", DataType::Int),
            ],
        );
        let b_schema = TableSchema::new(
            "B",
            vec![
                ColumnDef::primary_key("id"),
                ColumnDef::foreign_key("aid", "A"),
                ColumnDef::content("b", DataType::Int),
            ],
        );
        let d_schema = TableSchema::new(
            "D",
            vec![
                ColumnDef::foreign_key("bid", "B"),
                ColumnDef::content("d", DataType::Int),
            ],
        );
        let schema = DatabaseSchema::new(
            vec![a_schema.clone(), b_schema.clone(), d_schema.clone()],
            vec![
                ForeignKeyEdge {
                    pk_table: "A".into(),
                    fk_table: "B".into(),
                    fk_column: "aid".into(),
                },
                ForeignKeyEdge {
                    pk_table: "B".into(),
                    fk_table: "D".into(),
                    fk_column: "bid".into(),
                },
            ],
        )
        .unwrap();
        let a = Table::from_rows(
            a_schema,
            &[
                vec![Value::Int(1), Value::Int(10)],
                vec![Value::Int(2), Value::Int(20)],
            ],
        )
        .unwrap();
        let b = Table::from_rows(
            b_schema,
            &[
                vec![Value::Int(1), Value::Int(1), Value::Int(100)],
                vec![Value::Int(2), Value::Int(1), Value::Int(200)],
            ],
        )
        .unwrap();
        let d = Table::from_rows(
            d_schema,
            &[
                vec![Value::Int(1), Value::Int(7)],
                vec![Value::Int(1), Value::Int(8)],
                vec![Value::Int(1), Value::Int(9)],
            ],
        )
        .unwrap();
        let db = Database::new(schema, vec![a, b, d], true).unwrap();
        // A1 joins B1 (3 D rows) and B2 (no D rows → 1) = 3 + 1 = 4 rows;
        // A2 joins nothing → 1 row. Total 5.
        assert_eq!(foj_size(&db), 5);
        let foj = materialize_foj(&db);
        assert_eq!(foj.num_rows(), 5);
    }
}
