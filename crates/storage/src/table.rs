//! In-memory relations (columnar, dictionary-encoded).

use crate::column::Column;
use crate::domain::NULL_CODE;
use crate::error::StorageError;
use crate::schema::TableSchema;
use crate::value::Value;
use std::collections::HashMap;

/// A materialised relation: a [`TableSchema`] plus one [`Column`] per
/// declared column, all with equal row counts.
#[derive(Debug, Clone)]
pub struct Table {
    schema: TableSchema,
    columns: Vec<Column>,
    rows: usize,
}

impl Table {
    /// Build a table from pre-encoded columns.
    ///
    /// Errors if the column count or row counts do not match the schema.
    pub fn new(schema: TableSchema, columns: Vec<Column>) -> Result<Self, StorageError> {
        if columns.len() != schema.arity() {
            return Err(StorageError::RowShape(format!(
                "table {} declares {} columns but {} were provided",
                schema.name,
                schema.arity(),
                columns.len()
            )));
        }
        let rows = columns.first().map_or(0, Column::len);
        if columns.iter().any(|c| c.len() != rows) {
            return Err(StorageError::RowShape(format!(
                "table {}: ragged column lengths",
                schema.name
            )));
        }
        Ok(Table {
            schema,
            columns,
            rows,
        })
    }

    /// Build a table from row-major values, deriving per-column domains.
    pub fn from_rows(schema: TableSchema, rows: &[Vec<Value>]) -> Result<Self, StorageError> {
        let arity = schema.arity();
        for (i, r) in rows.iter().enumerate() {
            if r.len() != arity {
                return Err(StorageError::RowShape(format!(
                    "table {} row {i} has {} values, expected {arity}",
                    schema.name,
                    r.len()
                )));
            }
        }
        let mut columns = Vec::with_capacity(arity);
        for c in 0..arity {
            let vals: Vec<Value> = rows.iter().map(|r| r[c].clone()).collect();
            columns.push(Column::from_values(&vals));
        }
        Table::new(schema, columns)
    }

    /// The table schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// The relation's name.
    pub fn name(&self) -> &str {
        &self.schema.name
    }

    /// Number of rows (`|T|`).
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// The column at index `col`.
    pub fn column(&self, col: usize) -> &Column {
        &self.columns[col]
    }

    /// The column named `name`.
    pub fn column_by_name(&self, name: &str) -> Option<&Column> {
        self.schema.column_index(name).map(|i| &self.columns[i])
    }

    /// The decoded value at (`row`, `col`).
    pub fn value(&self, row: usize, col: usize) -> Value {
        self.columns[col].value(row)
    }

    /// One decoded row.
    pub fn row(&self, row: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.value(row)).collect()
    }

    /// Iterate decoded rows.
    pub fn iter_rows(&self) -> impl Iterator<Item = Vec<Value>> + '_ {
        (0..self.rows).map(move |r| self.row(r))
    }

    /// Per-value occurrence counts of column `col` keyed by decoded value
    /// (used to compute fanout columns of fk join keys).
    pub fn value_counts(&self, col: usize) -> HashMap<Value, u64> {
        let column = &self.columns[col];
        let hist = column.histogram();
        let mut out = HashMap::with_capacity(hist.len());
        for (code, count) in hist.into_iter().enumerate() {
            if count > 0 {
                out.insert(column.domain().value(code as u32).clone(), count);
            }
        }
        out
    }

    /// A hash index from join-key value to row indices for column `col`
    /// (NULL keys are skipped).
    pub fn hash_index(&self, col: usize) -> HashMap<Value, Vec<usize>> {
        let column = &self.columns[col];
        let mut idx: HashMap<Value, Vec<usize>> = HashMap::new();
        for row in 0..self.rows {
            let code = column.code(row);
            if code != NULL_CODE {
                idx.entry(column.domain().value(code).clone())
                    .or_default()
                    .push(row);
            }
        }
        idx
    }

    /// New table containing only the rows in `rows` (same schema/domains).
    pub fn gather(&self, rows: &[usize]) -> Table {
        Table {
            schema: self.schema.clone(),
            columns: self.columns.iter().map(|c| c.gather(rows)).collect(),
            rows: rows.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;
    use crate::value::DataType;

    fn schema() -> TableSchema {
        TableSchema::new(
            "T",
            vec![
                ColumnDef::content("a", DataType::Int),
                ColumnDef::content("b", DataType::Str),
            ],
        )
    }

    fn rows() -> Vec<Vec<Value>> {
        vec![
            vec![Value::Int(1), Value::str("m")],
            vec![Value::Int(2), Value::str("m")],
            vec![Value::Int(2), Value::str("n")],
        ]
    }

    #[test]
    fn from_rows_round_trips() {
        let t = Table::from_rows(schema(), &rows()).unwrap();
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.num_columns(), 2);
        assert_eq!(t.value(1, 0), Value::Int(2));
        assert_eq!(t.value(2, 1), Value::str("n"));
        let collected: Vec<_> = t.iter_rows().collect();
        assert_eq!(collected, rows());
    }

    #[test]
    fn rejects_ragged_rows() {
        let err = Table::from_rows(schema(), &[vec![Value::Int(1)]]).unwrap_err();
        assert!(matches!(err, StorageError::RowShape(_)));
    }

    #[test]
    fn value_counts() {
        let t = Table::from_rows(schema(), &rows()).unwrap();
        let counts = t.value_counts(0);
        assert_eq!(counts[&Value::Int(1)], 1);
        assert_eq!(counts[&Value::Int(2)], 2);
    }

    #[test]
    fn hash_index_groups_rows() {
        let t = Table::from_rows(schema(), &rows()).unwrap();
        let idx = t.hash_index(1);
        assert_eq!(idx[&Value::str("m")], vec![0, 1]);
        assert_eq!(idx[&Value::str("n")], vec![2]);
    }

    #[test]
    fn gather_subsets_rows() {
        let t = Table::from_rows(schema(), &rows()).unwrap();
        let g = t.gather(&[2, 0]);
        assert_eq!(g.num_rows(), 2);
        assert_eq!(g.value(0, 0), Value::Int(2));
        assert_eq!(g.value(1, 0), Value::Int(1));
    }
}
