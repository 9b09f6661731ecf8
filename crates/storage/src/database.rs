//! Databases: a set of tables with a validated join graph.

use crate::column::Column;
use crate::domain::NULL_CODE;
use crate::error::StorageError;
use crate::join_graph::JoinGraph;
use crate::schema::DatabaseSchema;
use crate::table::Table;
use crate::value::Value;
use std::collections::HashMap;
use std::ops::AddAssign;

/// A materialised database instance.
#[derive(Debug, Clone)]
pub struct Database {
    schema: DatabaseSchema,
    graph: JoinGraph,
    /// Tables in schema declaration order.
    tables: Vec<Table>,
}

impl Database {
    /// Assemble a database from tables matching the schema.
    ///
    /// Validates the join graph (tree), table presence/order, and — when
    /// `check_integrity` — referential integrity of every fk edge.
    pub fn new(
        schema: DatabaseSchema,
        tables: Vec<Table>,
        check_integrity: bool,
    ) -> Result<Self, StorageError> {
        let graph = JoinGraph::new(&schema)?;
        if tables.len() != schema.tables().len() {
            return Err(StorageError::SchemaViolation(format!(
                "schema declares {} tables but {} were provided",
                schema.tables().len(),
                tables.len()
            )));
        }
        for (decl, tab) in schema.tables().iter().zip(&tables) {
            if decl != tab.schema() {
                return Err(StorageError::SchemaViolation(format!(
                    "table {} does not match its declared schema",
                    decl.name
                )));
            }
        }
        let db = Database {
            schema,
            graph,
            tables,
        };
        if check_integrity {
            db.check_referential_integrity()?;
        }
        Ok(db)
    }

    /// A single-relation database.
    pub fn single(table: Table) -> Self {
        let schema = DatabaseSchema::single(table.schema().clone());
        let graph = JoinGraph::new(&schema).expect("single table is a trivial tree");
        Database {
            schema,
            graph,
            tables: vec![table],
        }
    }

    /// Every pk referenced by an fk is non-NULL and unique, and every
    /// non-NULL fk value has a match in its parent's pk column.
    fn check_referential_integrity(&self) -> Result<(), StorageError> {
        for p in (0..self.tables.len()).filter(|&p| !self.graph.children(p).is_empty()) {
            let pk = self.pk_column(p)?;
            let mut seen = vec![false; pk.domain().len()];
            for &code in pk.codes() {
                if code == NULL_CODE {
                    return Err(StorageError::SchemaViolation(format!(
                        "pk violation: {} has a NULL primary key",
                        self.tables[p].name()
                    )));
                }
                if std::mem::replace(&mut seen[code as usize], true) {
                    return Err(StorageError::SchemaViolation(format!(
                        "pk violation: {} repeats primary key {}",
                        self.tables[p].name(),
                        pk.domain().value(code)
                    )));
                }
            }
        }
        for &t in self.graph.topo_order() {
            let Some(p) = self.graph.parent(t) else {
                continue;
            };
            let (fk, pk) = self.edge_columns(t)?;
            let to_pk = fk.domain().codes_in(pk.domain());
            if let Some(&code) = fk
                .codes()
                .iter()
                .find(|&&c| c != NULL_CODE && to_pk[c as usize] == NULL_CODE)
            {
                return Err(StorageError::SchemaViolation(format!(
                    "fk violation: {}.{} = {} has no match in {}",
                    self.tables[t].name(),
                    self.graph.fk_column(t).expect("non-root has fk column"),
                    fk.domain().value(code),
                    self.tables[p].name()
                )));
            }
        }
        Ok(())
    }

    /// The fk column of non-root table `t` and the pk column of its parent.
    fn edge_columns(&self, t: usize) -> Result<(&Column, &Column), StorageError> {
        let fk = self.tables[t].column(self.fk_index(t)?);
        let p = self.graph.parent(t).expect("non-root has a parent");
        Ok((fk, self.pk_column(p)?))
    }

    /// The pk column of table `p`.
    fn pk_column(&self, p: usize) -> Result<&Column, StorageError> {
        let pk_idx = self.tables[p].schema().pk_index().ok_or_else(|| {
            StorageError::SchemaViolation(format!(
                "table {} has no primary key",
                self.tables[p].name()
            ))
        })?;
        Ok(self.tables[p].column(pk_idx))
    }

    /// The index of non-root table `t`'s fk column.
    fn fk_index(&self, t: usize) -> Result<usize, StorageError> {
        let fk_col = self.graph.fk_column(t).ok_or_else(|| {
            StorageError::SchemaViolation(format!("table {} is the root", self.tables[t].name()))
        })?;
        self.tables[t]
            .schema()
            .column_index(fk_col)
            .ok_or_else(|| StorageError::UnknownColumn(self.tables[t].name().into(), fk_col.into()))
    }

    /// Per-row `weights` of non-root table `t`, summed onto its parent's
    /// rows: entry `r` is the total weight of the rows of `t` whose fk equals
    /// the pk of parent row `r`. NULL keys join nothing. The sums are keyed
    /// by dictionary codes ([`Domain::codes_in`](crate::Domain::codes_in)),
    /// so no [`Value`] is cloned or hashed.
    pub fn join_sums<W>(&self, t: usize, weights: &[W]) -> Result<Vec<W>, StorageError>
    where
        W: Copy + Default + AddAssign,
    {
        let (fk, pk) = self.edge_columns(t)?;
        let mut by_fk = vec![W::default(); fk.domain().len()];
        for (&code, &w) in fk.codes().iter().zip(weights) {
            if code != NULL_CODE {
                by_fk[code as usize] += w;
            }
        }
        let mut by_pk = vec![W::default(); pk.domain().len()];
        for (fk_code, pk_code) in fk.domain().codes_in(pk.domain()).into_iter().enumerate() {
            if pk_code != NULL_CODE {
                by_pk[pk_code as usize] = by_fk[fk_code];
            }
        }
        Ok(pk
            .codes()
            .iter()
            .map(|&c| {
                if c == NULL_CODE {
                    W::default()
                } else {
                    by_pk[c as usize]
                }
            })
            .collect())
    }

    /// The database schema.
    pub fn schema(&self) -> &DatabaseSchema {
        &self.schema
    }

    /// The validated join graph.
    pub fn graph(&self) -> &JoinGraph {
        &self.graph
    }

    /// Tables in schema order.
    pub fn tables(&self) -> &[Table] {
        &self.tables
    }

    /// The table at graph index `t`.
    pub fn table(&self, t: usize) -> &Table {
        &self.tables[t]
    }

    /// Look up a table by name.
    pub fn table_by_name(&self, name: &str) -> Option<&Table> {
        self.graph.index_of(name).map(|i| &self.tables[i])
    }

    /// Per-pk-value fanout of fk table `t` into its parent: how many rows of
    /// `t` carry each join-key value. Keys absent from the map have fanout 0.
    pub fn fanout_of(&self, t: usize) -> Result<HashMap<Value, u64>, StorageError> {
        Ok(self.tables[t].value_counts(self.fk_index(t)?))
    }

    /// Total rows across all relations.
    pub fn total_rows(&self) -> usize {
        self.tables.iter().map(Table::num_rows).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_example;

    #[test]
    fn paper_example_database_is_valid() {
        let db = paper_example::figure3_database();
        assert_eq!(db.tables().len(), 3);
        assert_eq!(db.table_by_name("A").unwrap().num_rows(), 4);
        assert_eq!(db.table_by_name("B").unwrap().num_rows(), 3);
        assert_eq!(db.table_by_name("C").unwrap().num_rows(), 4);
        assert_eq!(db.total_rows(), 11);
    }

    #[test]
    fn fanout_matches_paper_figure3() {
        let db = paper_example::figure3_database();
        let b = db.graph().index_of("B").unwrap();
        let c = db.graph().index_of("C").unwrap();
        let fan_b = db.fanout_of(b).unwrap();
        let fan_c = db.fanout_of(c).unwrap();
        // B has one row with x=1 and two rows with x=2.
        assert_eq!(fan_b.get(&Value::Int(1)), Some(&1));
        assert_eq!(fan_b.get(&Value::Int(2)), Some(&2));
        // C has two rows with x=1 and two with x=2.
        assert_eq!(fan_c.get(&Value::Int(1)), Some(&2));
        assert_eq!(fan_c.get(&Value::Int(2)), Some(&2));
        // x=3 and x=4 join nothing.
        assert_eq!(fan_b.get(&Value::Int(3)), None);
    }

    /// `A(x pk, a) <- B(x fk, b)` from raw rows, integrity checked.
    fn two_tables(a_rows: &[Vec<Value>], b_rows: &[Vec<Value>]) -> Result<Database, StorageError> {
        use crate::schema::{ColumnDef, DatabaseSchema, ForeignKeyEdge, TableSchema};
        use crate::value::DataType;

        let a_schema = TableSchema::new(
            "A",
            vec![
                ColumnDef::primary_key("x"),
                ColumnDef::content("a", DataType::Str),
            ],
        );
        let b_schema = TableSchema::new(
            "B",
            vec![
                ColumnDef::foreign_key("x", "A"),
                ColumnDef::content("b", DataType::Str),
            ],
        );
        let schema = DatabaseSchema::new(
            vec![a_schema.clone(), b_schema.clone()],
            vec![ForeignKeyEdge {
                pk_table: "A".into(),
                fk_table: "B".into(),
                fk_column: "x".into(),
            }],
        )
        .unwrap();
        let a = Table::from_rows(a_schema, a_rows).unwrap();
        let b = Table::from_rows(b_schema, b_rows).unwrap();
        Database::new(schema, vec![a, b], true)
    }

    fn row(x: Value, s: &str) -> Vec<Value> {
        vec![x, Value::str(s)]
    }

    #[test]
    fn integrity_check_rejects_dangling_fk() {
        let a = [row(Value::Int(1), "m")];
        let err = two_tables(&a, &[row(Value::Int(9), "a")]).unwrap_err();
        assert!(matches!(err, StorageError::SchemaViolation(_)), "{err}");
        // NULL fks are fine, and so is a matched fk.
        two_tables(&a, &[row(Value::Null, "a"), row(Value::Int(1), "b")]).unwrap();
    }

    #[test]
    fn integrity_check_rejects_null_pk() {
        // A NULL pk would join NULL fk rows: `A ⋈ B` would count 2, not 1.
        let a = [row(Value::Int(1), "m"), row(Value::Null, "n")];
        let b = [row(Value::Int(1), "a"), row(Value::Null, "b")];
        let err = two_tables(&a, &b).unwrap_err();
        assert!(
            matches!(&err, StorageError::SchemaViolation(m) if m.contains("NULL primary key")),
            "{err}"
        );
    }

    #[test]
    fn integrity_check_rejects_duplicate_pk() {
        let a = [row(Value::Int(1), "m"), row(Value::Int(1), "n")];
        let err = two_tables(&a, &[row(Value::Int(1), "a")]).unwrap_err();
        assert!(
            matches!(&err, StorageError::SchemaViolation(m) if m.contains("repeats primary key 1")),
            "{err}"
        );
    }

    #[test]
    fn join_sums_add_child_weights_onto_parent_rows() {
        let db = paper_example::figure3_database();
        let b = db.graph().index_of("B").unwrap();
        let c = db.graph().index_of("C").unwrap();
        // A's pks are 1..=4; B's fks 1, 2, 2; C's fks 1, 1, 2, 2.
        assert_eq!(db.join_sums(b, &[1u64, 1, 1]).unwrap(), vec![1, 2, 0, 0]);
        assert_eq!(
            db.join_sums(c, &[1u128, 10, 100, 1000]).unwrap(),
            vec![11, 1100, 0, 0]
        );
        let root = db.graph().root();
        assert!(db.join_sums(root, &[1u64; 4]).is_err());
    }
}
